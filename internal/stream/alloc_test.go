package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/synth"
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
// graph builds patch O(delta) rows; a fixpoint leases its peel stack, dirty
// sets, certificates, wide masks and counters from package pools). A sweep
// legitimately allocates its snapshot map, result, spans, and the patched
// graph's touched rows: 68 allocs/run on amd64, and the bound is that plus
// 25 %. A regression to rebuild-per-sweep blows through it by an order of
// magnitude.
func TestSteadyStateSweepAllocs(t *testing.T) {
	d, batch := allocDetector(t)
	avg := testing.AllocsPerRun(50, func() {
		d.AddBatch(batch)
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 85
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

// TestAddClickIsAddBatchOfOne pins the one ingest path: a durable detector
// fed click by click and one fed the same clicks as a single batch leave
// byte-identical WAL segments, count the same events and sweep to the same
// groups (a zero-click event is dropped on both sides), and a warm AddClick
// allocates nothing.
func TestAddClickIsAddBatchOfOne(t *testing.T) {
	var records []clicktable.Record
	synth.MustGenerate(synth.SmallConfig()).Table.Each(func(r clicktable.Record) bool {
		records = append(records, r)
		return true
	})
	records = append(records, clicktable.Record{UserID: 1, ItemID: 1, Clicks: 0})

	dirs := [2]string{t.TempDir(), t.TempDir()}
	byClick, _ := openDurable(t, dirs[0], Durability{})
	byBatch, _ := openDurable(t, dirs[1], Durability{})
	for _, r := range records {
		byClick.AddClick(r.UserID, r.ItemID, r.Clicks)
	}
	byBatch.AddBatch(records)
	if got, want := byClick.Events(), byBatch.Events(); got != want || got != len(records)-1 {
		t.Fatalf("events: AddClick %d, AddBatch %d, want %d", got, want, len(records)-1)
	}

	var wal [2][]byte
	for i, dir := range dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("detector %d: segments %v, %v; want exactly one", i, segs, err)
		}
		if wal[i], err = os.ReadFile(segs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(wal[0]) == 0 || !bytes.Equal(wal[0], wal[1]) {
		t.Fatalf("WAL segments differ: %d bytes by click, %d by batch", len(wal[0]), len(wal[1]))
	}

	first := mustSweep(t, byBatch)
	if len(first.Groups) == 0 {
		t.Fatal("the first sweep found no groups; the comparison would be vacuous")
	}
	sameGroups(t, "first sweep", first, mustSweep(t, byClick))
	for _, d := range []*Detector{byClick, byBatch} {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}

	warm, _ := allocDetector(t)
	if avg := testing.AllocsPerRun(200, func() { warm.AddClick(10, 3, 2) }); avg != 0 {
		t.Errorf("steady-state AddClick: %.2f allocs/run, want 0", avg)
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
