package stream

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

// This file pins the "detector is its own log" design (DESIGN.md §12.2): the
// live path and WAL replay apply every record through the same two
// functions, so a detector reopened from a copy of the WAL directory holds
// the STATE the live one holds — not merely one whose next sweep agrees,
// which is all durable_test.go compares.

// logState is the durable part of a detector's state.
type logState struct {
	seq        uint64
	events     int
	detections int
	carried    []byte
	dirty      map[bipartite.NodeID]uint64
}

func stateOf(d *Detector) logState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return logState{seq: d.seq, events: d.events, detections: d.detections,
		carried: groupBytes(d.cached), dirty: maps.Clone(d.dirty)}
}

// reopenCopy opens a second detector from a copy of live's WAL directory,
// the way a process restarted after kill -9 would find it.
func reopenCopy(t *testing.T, live *Detector, dur Durability) *Detector {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dur.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dur.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dur.Dir = dst
	live.mu.Lock()
	params := live.params
	live.mu.Unlock()
	d, _, err := Open(dur, params, nil)
	if err != nil {
		t.Fatalf("reopen copy: %v", err)
	}
	return d
}

// sameLogState fails unless a detector reopened from a copy of live's
// directory holds live's state.
func sameLogState(t *testing.T, label string, live *Detector, dur Durability) {
	t.Helper()
	replayed := reopenCopy(t, live, dur)
	defer replayed.Close()
	want, got := stateOf(live), stateOf(replayed)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: replayed state diverged from live state\nlive:     seq=%d events=%d detections=%d carried=%dB dirty=%d\nreplayed: seq=%d events=%d detections=%d carried=%dB dirty=%d",
			label, want.seq, want.events, want.detections, len(want.carried), len(want.dirty),
			got.seq, got.events, got.detections, len(got.carried), len(got.dirty))
	}
}

// TestRefreshesLeaveSweepsAlone: over the equivalence corpus — warm-started and cold, through a recovery —
// a detector that refreshes between its sweeps sweeps exactly what a twin
// that never refreshes does, and CacheStats stays zero throughout.
func TestRefreshesLeaveSweepsAlone(t *testing.T) {
	var refreshGroups int
	for i, cfg := range synth.EquivCorpus() {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			params := deltaEquivParams(cfg)
			background, attack := splitDataset(synth.MustGenerate(cfg))
			half := len(attack) / 2
			var bg []clicktable.Record
			background.Each(func(r clicktable.Record) bool {
				bg = append(bg, r)
				return true
			})

			dur := Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
			var d, twin *Detector
			var err, terr error
			switch i % 3 {
			case 0: // warm start: the first sweep is full with an empty dirty set
				d, err = New(background, params)
				twin, terr = New(background, params)
			case 1:
				d, err = New(nil, params)
				twin, terr = New(nil, params)
			default:
				d, _, err = Open(dur, params, nil)
				twin, terr = New(nil, params)
			}
			if err != nil || terr != nil {
				t.Fatal(err, terr)
			}
			both := func(f func(*Detector)) { f(d); f(twin) }
			if i%3 != 0 {
				both(func(d *Detector) { d.AddBatch(bg) })
			}
			sameSweep := func(label string) {
				t.Helper()
				want := mustSweep(t, twin)
				sameGroups(t, label, want, mustSweep(t, d))
				if st := d.CacheStats(); st != (CacheStats{}) {
					t.Fatalf("%s: CacheStats moved: %+v", label, st)
				}
			}
			sameSweep("first sweep")
			// Two refreshes with the attack's clicks pending: they must leave
			// the clicks to the sweep.
			both(func(d *Detector) { d.AddBatch(attack[:half]) })
			for range 2 {
				res, err := fullDetect(d)
				if err != nil {
					t.Fatal(err)
				}
				refreshGroups += len(res.Groups)
			}
			sameSweep("incremental sweep after two refreshes")

			sameSweep("quiet sweep")
			if i%3 == 2 {
				d = reopenCopy(t, d, dur)
				defer d.Close()
			}
			both(func(d *Detector) { d.AddBatch(attack[half:]) })
			sameSweep("last sweep")
		})
	}
	if refreshGroups == 0 {
		t.Fatal("no refresh anywhere found a group — the harness never ran a detection worth disturbing")
	}
}

// Ops of FuzzLiveStateEqualsReplayedState, one per schedule byte (op =
// byte % numLogOps; the byte's high bits size batches and pick fault sites).
const (
	opBatch = iota
	opSweep
	opCancelledSweep
	opMidSweepClick
	opMidSweepSnapshot
	numLogOps
)

// cancelSites are the fault sites a sweep passes through outside the lock.
var cancelSites = []string{"stream.sweep", "core.prune.round", "core.shard", "core.frontier", "core.extract", "core.screen.group"}

var logWorkloads struct {
	sync.Mutex
	records map[int][]clicktable.Record
}

// logWorkload returns corpus workload i as one click sequence (background,
// then the attack), generated once per process.
func logWorkload(i int) []clicktable.Record {
	logWorkloads.Lock()
	defer logWorkloads.Unlock()
	if recs, ok := logWorkloads.records[i]; ok {
		return recs
	}
	background, attack := splitDataset(synth.MustGenerate(synth.EquivCorpus()[i]))
	var recs []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		recs = append(recs, r)
		return true
	})
	recs = append(recs, attack...)
	if logWorkloads.records == nil {
		logWorkloads.records = map[int][]clicktable.Record{}
	}
	logWorkloads.records[i] = recs
	return recs
}

// FuzzLiveStateEqualsReplayedState drives a durable detector through a
// schedule of ops — batches, sweeps, sweeps cancelled at a fault site,
// clicks and snapshots landing mid-sweep — and after EVERY op reopens a copy
// of its directory: the replayed detector must hold the live one's record
// clock, event and detection counts, carried groups and dirty map (user → seq). Seeds: one schedule per corpus workload.
func FuzzLiveStateEqualsReplayedState(f *testing.F) {
	for i := range synth.EquivCorpus() {
		rng := rand.New(rand.NewSource(int64(i)))
		ops := []byte{opBatch + 3*numLogOps, opSweep} // most of the background, then the first (full) sweep
		for _, op := range rng.Perm(numLogOps) {      // then every op once, in a seeded order with seeded arguments
			ops = append(ops, byte(op+numLogOps*rng.Intn(256/numLogOps)))
		}
		ops = append(ops, opBatch+numLogOps, opSweep)
		f.Add(uint8(i), ops)
	}
	f.Fuzz(func(t *testing.T, workload uint8, ops []byte) {
		defer faultinject.Reset()
		corpus := synth.EquivCorpus()
		wi := int(workload) % len(corpus)
		pending := logWorkload(wi)
		if len(ops) > 24 {
			ops = ops[:24]
		}
		dur := Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
		d, _, err := Open(dur, deltaEquivParams(corpus[wi]), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		take := func(n int) []clicktable.Record {
			if n > len(pending) {
				n = len(pending)
			}
			batch := pending[:n]
			pending = pending[n:]
			return batch
		}
		// sweepWith runs one sweep with fault armed at site; whether the
		// sweep commits or aborts, the log must agree.
		sweepWith := func(ctx context.Context, site string, do func()) {
			faultinject.Arm(site, faultinject.Fault{Do: do, Times: 1})
			_, _ = d.SweepContext(ctx)
			faultinject.Reset()
		}

		for step, b := range ops {
			op, arg := int(b)%numLogOps, int(b)/numLogOps
			switch op {
			case opBatch:
				d.AddBatch(take([]int{8, 64, 512, len(pending) * 3 / 4}[arg%4]))
			case opSweep:
				_, _ = d.SweepContext(context.Background())
			case opCancelledSweep:
				ctx, cancel := context.WithCancel(context.Background())
				sweepWith(ctx, cancelSites[arg%len(cancelSites)], cancel)
				cancel()
			case opMidSweepClick:
				sweepWith(context.Background(), "stream.sweep", func() { d.AddBatch(take(1 + arg%16)) })
			case opMidSweepSnapshot:
				// Odd arguments also kill the sweep after the snapshot, so the
				// snapshot alone must carry the users the sweep had borrowed.
				ctx, cancel := context.WithCancel(context.Background())
				sweepWith(ctx, "stream.sweep", func() {
					_ = d.Snapshot()
					if arg%2 == 1 {
						cancel()
					}
				})
				cancel()
			}
			if err := d.DurabilityErr(); err != nil {
				t.Fatalf("step %d: WAL degraded: %v", step, err)
			}
			sameLogState(t, fmt.Sprintf("workload %d step %d (op %d)", wi, step, op), d, dur)
		}
	})
}
