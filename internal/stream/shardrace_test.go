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
// process goroutine count settles back to its pre-sweep level.
func TestMidShardCancelLeaksNoGoroutines(t *testing.T) {
	defer faultinject.Reset()

	p := smallParams()
	p.Workers = 8
	d, err := New(blockTable(6, 12, 15), p)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.shard", faultinject.Fault{Do: cancel, Times: 1})

	res, rerr := d.SweepContext(ctx)
	if rerr == nil || !res.Partial {
		t.Fatalf("expected a partial sweep, got partial=%v err=%v", res.Partial, rerr)
	}
	if faultinject.HitCount("core.shard") == 0 {
		t.Fatal("cancel fault never fired — the sweep did not reach the shard pool")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The detector must remain fully usable: the aborted sweep committed
	// nothing, and the next sweep redoes the work and finds every block.
	res, rerr = d.SweepContext(context.Background())
	if rerr != nil {
		t.Fatalf("follow-up sweep: %v", rerr)
	}
	if len(res.Groups) != 6 {
		t.Fatalf("follow-up sweep found %d groups, want 6", len(res.Groups))
	}
}

// TestMidFrontierRoundCancelRestoresDirtySet cancels an incremental sweep
// from inside a dirty-frontier pruning round (fault-injection site
// "core.frontier", which fires at the top of every frontier evaluation
// round) and asserts the PR-2/PR-3 robustness contract end to end: the
// shard pool drains with no leaked goroutines, the sweep's truncated dirty
// snapshot is merged back so nothing is lost, and the next sweep redoes the
// work completely.
func TestMidFrontierRoundCancelRestoresDirtySet(t *testing.T) {
	defer faultinject.Reset()

	p := smallParams()
	p.Workers = 8
	d, err := New(blockTable(6, 12, 15), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil { // full warm-up sweep, carries 6 groups
		t.Fatal(err)
	}

	// Dirty one attacker of block 0; its weight-15 edges to non-hot items
	// pass the incremental seed filter, so the next sweep prunes its
	// neighborhood — and reaches the frontier rounds.
	d.AddClick(0, 0, 5)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.frontier", faultinject.Fault{Do: cancel, Times: 1})

	res, rerr := d.SweepContext(ctx)
	if rerr == nil || !res.Partial {
		t.Fatalf("expected a partial sweep, got partial=%v err=%v", res.Partial, rerr)
	}
	if faultinject.HitCount("core.frontier") == 0 {
		t.Fatal("cancel fault never fired — the sweep did not reach a frontier round")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	d.mu.Lock()
	_, stillDirty := d.dirty[0]
	d.mu.Unlock()
	if !stillDirty {
		t.Fatal("aborted mid-frontier sweep dropped its dirty snapshot instead of merging it back")
	}

	res, rerr = d.SweepContext(context.Background())
	if rerr != nil {
		t.Fatalf("follow-up sweep: %v", rerr)
	}
	if len(res.Groups) != 6 {
		t.Fatalf("follow-up sweep found %d groups, want 6", len(res.Groups))
	}
}
