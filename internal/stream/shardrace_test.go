package stream

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clicktable"
	"repro/internal/faultinject"
)

// blockTable builds a click table of n disjoint k×k attack blocks of edge
// weight w: each block prunes into its own residual component, so sharded
// sweeps fan out across a real worker pool.
func blockTable(n, k int, w uint32) *clicktable.Table {
	tbl := clicktable.New(n * k * k)
	for blk := 0; blk < n; blk++ {
		off := uint32(blk * k)
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				tbl.Append(off+uint32(u), off+uint32(v), w)
			}
		}
	}
	return tbl
}

// TestRaceAddClickDuringShardedSweeps hammers concurrent ingestion —
// AddClick and AddBatch from several goroutines — against back-to-back
// sharded SweepContext calls. Run under -race this pins the
// ingestion/sweep/shard-pool interleavings; functionally it asserts sweeps
// stay complete and keep finding the planted blocks while the stream churns.
func TestRaceAddClickDuringShardedSweeps(t *testing.T) {
	p := smallParams()
	p.Workers = 8
	d, err := New(blockTable(4, 12, 15), p)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.AddClick(1000+uint32(rng.Intn(200)), 500+uint32(rng.Intn(100)), uint32(1+rng.Intn(3)))
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]clicktable.Record, 20)
			for i := range batch {
				batch[i] = clicktable.Record{
					UserID: 2000 + uint32(rng.Intn(100)),
					ItemID: 700 + uint32(rng.Intn(50)),
					Clicks: uint32(rng.Intn(3)), // includes zero-click records
				}
			}
			d.AddBatch(batch)
		}
	}()

	var last int
	for i := 0; i < 6; i++ {
		res, err := d.SweepContext(context.Background())
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if res.Partial {
			t.Fatalf("sweep %d unexpectedly partial (stage %q)", i, res.StageReached)
		}
		last = len(res.Groups)
	}
	close(stop)
	wg.Wait()
	if last != 4 {
		t.Fatalf("final sweep found %d groups, want the 4 planted blocks", last)
	}
}

// TestMidShardCancelLeaksNoGoroutines cancels the sweep from inside the
// shard pool (fault-injection site "core.shard", which fires as a worker
// picks up a shard) and asserts that the pool drains completely: every
// worker goroutine joins before the partial result is returned, so the
// process goroutine count settles back to its pre-sweep level. The aborted
// sweep committed nothing, so the next one is still the first, full sweep.
func TestMidShardCancelLeaksNoGoroutines(t *testing.T) {
	defer faultinject.Reset()
	p := smallParams()
	p.Workers = 8
	r := newOpRun(t, p, Durability{}, blockTable(6, 12, 15), false)
	before := runtime.NumGoroutine()
	if r.cancelledSweep("core.shard") == nil {
		t.Fatal("the sweep committed: the cancel never fired in the shard pool")
	}
	settles(t, before)
	if res := r.sweep(); len(res.Groups) != 6 {
		t.Fatalf("follow-up sweep found %d groups, want 6", len(res.Groups))
	}
}

// TestMidFrontierRoundCancelRestoresDirtySet cancels an incremental sweep
// from inside a fixpoint pruning round (fault-injection site
// "core.frontier", which fires before every round's square tests) and
// asserts the robustness contract end to end: the shard pool
// drains with no leaked goroutines, the sweep's dirty users stay dirty (the
// driver's model), and the next sweep redoes the work completely.
func TestMidFrontierRoundCancelRestoresDirtySet(t *testing.T) {
	defer faultinject.Reset()
	p := smallParams()
	p.Workers = 8
	r := newOpRun(t, p, Durability{}, blockTable(6, 12, 15), false)
	r.sweep() // full warm-up sweep, carries 6 groups
	// Dirty one attacker of block 0; its weight-15 edges to non-hot items
	// pass the incremental seed filter, so the next sweep prunes its
	// neighborhood — and reaches the fixpoint rounds.
	r.feed([]clicktable.Record{{UserID: 0, ItemID: 0, Clicks: 5}}, true)
	before := runtime.NumGoroutine()
	if r.cancelledSweep("core.frontier") == nil {
		t.Fatal("the sweep committed: the cancel never fired in a fixpoint round")
	}
	settles(t, before)
	if res := r.sweep(); len(res.Groups) != 6 {
		t.Fatalf("follow-up sweep found %d groups, want 6", len(res.Groups))
	}
}

// settles waits up to two seconds for the goroutine count to fall back to
// before.
func settles(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
		}
	}
}
