package stream

import (
	"testing"

	"repro/internal/clicktable"
)

// allocDetector builds a warmed-up memory-only detector: enough history for
// a realistic base graph, one full sweep so the incremental path is active,
// and a few steady-state cycles so every scratch buffer has reached its
// working size.
func allocDetector(t testing.TB) (*Detector, []clicktable.Record) {
	t.Helper()
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		d.AddClick(uint32(i%120), uint32(i%40), uint32(1+i%3))
	}
	batch := make([]clicktable.Record, 8)
	for i := range batch {
		batch[i] = clicktable.Record{UserID: uint32(10 + i), ItemID: uint32(i % 6), Clicks: 2}
	}
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}
	for warm := 0; warm < 5; warm++ {
		d.AddBatch(batch)
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	}
	return d, batch
}

// TestSteadyStateSweepAllocs is the regression guard for the sweep-loop
// allocation work: once warm, an AddBatch+Sweep cycle must not allocate
// per-history state (seed slices, delta buffers, WAL scratch are all reused;
// graph builds patch O(delta) rows). The bound is deliberately generous —
// a sweep legitimately allocates its snapshot map, result, spans, and the
// patched graph's touched rows — but a regression to rebuild-per-sweep or
// fresh-scratch-per-sweep blows through it by an order of magnitude.
func TestSteadyStateSweepAllocs(t *testing.T) {
	d, batch := allocDetector(t)
	avg := testing.AllocsPerRun(50, func() {
		d.AddBatch(batch)
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 400
	t.Logf("steady-state AddBatch+Sweep cycle: %.1f allocs/run (bound %d)", avg, maxAllocs)
	if avg > maxAllocs {
		t.Errorf("steady-state AddBatch+Sweep cycle: %.1f allocs/run, want ≤ %d", avg, maxAllocs)
	}
}

// TestSteadyStateAddBatchAllocs pins ingestion on its own: appending a warm
// batch touches only the pending table tail and the dirty map, both of which
// grow amortized — the per-batch average must stay near zero.
func TestSteadyStateAddBatchAllocs(t *testing.T) {
	d, batch := allocDetector(t)
	avg := testing.AllocsPerRun(200, func() {
		d.AddBatch(batch)
	})
	const maxAllocs = 8
	t.Logf("steady-state AddBatch: %.2f allocs/run (bound %d)", avg, maxAllocs)
	if avg > maxAllocs {
		t.Errorf("steady-state AddBatch: %.2f allocs/run, want ≤ %d", avg, maxAllocs)
	}
}

// TestSeedScratchReuse is the white-box half of the regression guard: after
// warm-up the sweep's seed slice must be the SAME backing array sweep after
// sweep (taken at snapshot, returned at commit), not a fresh allocation.
func TestSeedScratchReuse(t *testing.T) {
	d, batch := allocDetector(t)
	d.mu.Lock()
	before := cap(d.seedScratch)
	d.mu.Unlock()
	if before == 0 {
		t.Fatal("warm detector has no seed scratch")
	}
	for i := 0; i < 10; i++ {
		d.AddBatch(batch)
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	after := cap(d.seedScratch)
	d.mu.Unlock()
	if after != before {
		t.Errorf("seed scratch capacity changed %d -> %d across steady-state sweeps (reuse broken)", before, after)
	}
}
