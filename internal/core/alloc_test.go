package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestWarmBlocksDetectionAllocates: a warm detection of blocksShape, 24
// shards of 600 × 16, leases every graph it builds only for itself — the
// working copy and each shard's compact graph — so it allocates well under
// what one compaction of its arcs costs (two arc slabs of 8 B per arc). The
// bound is half of that, arcs × 8 B; a detection that allocated its shard
// graphs fresh would allocate a whole compaction on top of what it keeps.
func TestWarmBlocksDetectionAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers on purpose")
	}
	g, p := blocksShape()
	bound := uint64(g.LiveEdges()) * 8
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := &Detector{Params: p}
			d.Params.Workers = workers
			detect := func() {
				res, err := d.DetectContext(context.Background(), g)
				if err != nil || len(res.Groups) != 24 {
					t.Fatalf("detection: %v, %d groups, want 24", err, len(res.Groups))
				}
			}
			// The fewest bytes of a few warm runs: a collection can empty a
			// pool between two runs, which costs one run a fresh lease, but
			// a graph that is never leased costs every run.
			detect() // warm the pools
			got := uint64(math.MaxUint64)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				detect()
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("warm blocks detection: %d bytes allocated (bound %d, one compaction %d)", got, bound, 2*bound)
			if got > bound {
				t.Fatalf("warm blocks detection allocated %d bytes, want ≤ %d", got, bound)
			}
		})
	}
}
