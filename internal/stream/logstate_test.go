package stream

import (
	"bytes"
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
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
)

// This file pins the "detector is its own log" design (DESIGN.md §12.2): the
// live path and WAL replay apply every record through the same three
// functions, so a detector reopened from a copy of the WAL directory holds
// the STATE the live one holds — not merely one whose next sweep agrees,
// which is all durable_test.go compares.

// logState is the durable part of a detector's state.
type logState struct {
	seq        uint64
	events     int
	detections int
	lastFull   bool
	carried    []byte
	dirty      map[bipartite.NodeID]uint64
}

func stateOf(d *Detector) logState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return logState{seq: d.seq, events: d.events, detections: d.detections, lastFull: d.lastFull,
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
		t.Fatalf("%s: replayed state diverged from live state\nlive:     seq=%d events=%d detections=%d lastFull=%v carried=%dB dirty=%d\nreplayed: seq=%d events=%d detections=%d lastFull=%v carried=%dB dirty=%d",
			label, want.seq, want.events, want.detections, want.lastFull, len(want.carried), len(want.dirty),
			got.seq, got.events, got.detections, got.lastFull, len(got.carried), len(got.dirty))
	}
}

// TestRetuneMidSweepSupersedesTheSweep: a Retune that lands while a sweep is
// in flight wins. The overtaken sweep returns its result but commits
// nothing, and the next sweep is a full one under the new parameters
// (regression: the in-flight sweep used to commit lastFull and the groups it
// computed under the OLD parameters, silently undoing the retune).
func TestRetuneMidSweepSupersedesTheSweep(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	var all []clicktable.Record
	ds.Table.Each(func(r clicktable.Record) bool {
		all = append(all, r)
		return true
	})
	strict, loose := smallParams(), smallParams()
	strict.K1, strict.K2 = 500, 500 // nothing is that large: no groups

	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			defer faultinject.Reset()
			o := obs.NewObserver("test")
			var d *Detector
			var err error
			dur := Durability{Dir: t.TempDir()}
			if durable {
				d, _, err = Open(dur, strict, o)
			} else {
				d, err = New(nil, strict)
			}
			if err != nil {
				t.Fatal(err)
			}
			d.Obs = o
			commits := 0
			d.OnCommit = func(*detect.Result, *bipartite.Graph) { commits++ }
			d.AddBatch(all)

			faultinject.Arm("stream.sweep", faultinject.Fault{Do: func() {
				if err := d.Retune(loose); err != nil {
					t.Error(err)
				}
			}, Times: 1})
			res, err := sweep(d)
			if err != nil || res.Partial {
				t.Fatalf("superseded sweep: err=%v partial=%v, want its complete result", err, res.Partial)
			}
			faultinject.Reset()

			d.mu.Lock()
			lastFull, carried := d.lastFull, len(d.cached)
			d.mu.Unlock()
			if lastFull || carried != 0 || d.Detections() != 0 || commits != 0 {
				t.Fatalf("sweep overtaken by Retune committed: lastFull=%v carried=%d detections=%d OnCommit=%d",
					lastFull, carried, d.Detections(), commits)
			}
			if got := o.Counter("stream.sweeps.superseded").Value(); got != 1 {
				t.Errorf("stream.sweeps.superseded = %d, want 1", got)
			}
			if durable {
				sameLogState(t, "after superseded sweep", d, dur)
			}

			next := mustSweep(t, d)
			if got := o.Counter("stream.sweeps.full").Value(); got != 1 {
				t.Errorf("stream.sweeps.full = %d after the retuned sweep, want 1", got)
			}
			want, err := (&core.Detector{Params: loose}).DetectContext(context.Background(), d.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Groups) == 0 {
				t.Fatal("workload detects nothing under the loose parameters; the test cannot tell the two parameter sets apart")
			}
			sameGroups(t, "sweep after Retune", want, next)
			if commits != 1 {
				t.Errorf("OnCommit fired %d times, want 1", commits)
			}
			if durable {
				sameLogState(t, "after retuned sweep", d, dur)
			}
		})
	}
}

// TestSweepsNeverTouchTheVerdictCache: the test is named for the verdict
// cache FullDetectContext once armed; the detector keeps no cache now, and
// what the test guarded still holds. Over the equivalence corpus —
// warm-started and cold, through a Reset and a recovery — a detector that
// refreshes between its sweeps sweeps exactly what a twin that never
// refreshes does, and CacheStats stays zero throughout (regression: a
// warm-started first sweep used to look up and store every component).
func TestSweepsNeverTouchTheVerdictCache(t *testing.T) {
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

			both((*Detector).Reset)
			sameSweep("full sweep after Reset")
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
	opReset
	opRetune
	opMidSweepReset
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
// clicks / snapshots / resets landing mid-sweep, Reset, Retune — and after
// EVERY op reopens a copy of its directory: the replayed detector must hold
// the live one's record clock, event and detection counts, lastFull, carried
// groups and dirty map (user → seq). Seeds: one schedule per corpus workload.
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
		paramSets := []core.Params{deltaEquivParams(corpus[wi]), deltaEquivParams(corpus[wi])}
		paramSets[1].K1, paramSets[1].K2 = 8, 8
		retunes := 0

		dur := Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
		d, _, err := Open(dur, paramSets[0], nil)
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
		// sweep commits, aborts or is superseded, the log must agree.
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
			case opReset:
				d.Reset()
			case opRetune:
				retunes++
				if err := d.Retune(paramSets[retunes%2]); err != nil {
					t.Fatal(err)
				}
			case opMidSweepReset:
				sweepWith(context.Background(), "stream.sweep", d.Reset)
			}
			if err := d.DurabilityErr(); err != nil {
				t.Fatalf("step %d: WAL degraded: %v", step, err)
			}
			sameLogState(t, fmt.Sprintf("workload %d step %d (op %d)", wi, step, op), d, dur)
		}
	})
}

// TestReplaySkipsASupersededSweepRecord: a log written before the
// superseded-sweep rule can hold a sweep record whose snapshot predates a
// reset logged ahead of it; replay applies the same rule the live commit
// does and skips it.
func TestReplaySkipsASupersededSweepRecord(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(seq uint64, payload []byte) {
		t.Helper()
		if err := d.applyRecord(seq, bytes.Clone(payload)); err != nil {
			t.Fatal(err)
		}
	}
	apply(1, appendClickRecord(nil, 7, 3, 5))
	apply(2, appendResetRecord(nil))
	apply(3, appendSweepRecord(nil, 1, []detect.Group{{Users: []bipartite.NodeID{7}, Items: []bipartite.NodeID{3}}}))
	if d.lastFull || len(d.cached) != 0 || d.detections != 0 || d.seq != 3 {
		t.Fatalf("replay applied a superseded sweep: lastFull=%v carried=%d detections=%d seq=%d",
			d.lastFull, len(d.cached), d.detections, d.seq)
	}
	apply(4, appendSweepRecord(nil, 3, nil))
	if !d.lastFull || d.detections != 1 {
		t.Fatalf("replay skipped a sweep that began after the reset: lastFull=%v detections=%d", d.lastFull, d.detections)
	}
}
