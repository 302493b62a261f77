package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// This file is the golden-oracle harness for delta-maintained graph
// builds: across a ≥ 20-workload corpus, a detector that patches each
// sweep's click delta onto its previous graph (the default) must produce
// graphs AND sweep results byte-identical to an oracle that re-aggregates
// the whole click history and rebuilds from scratch for every build
// (feedRebuildOracle), and that is checked never to have patched.
// The corpus crosses marketplace shapes with the three compaction regimes
// (compact-every-build, never-compact/pure-patching, default policy) and
// folds in mid-sweep ingestion and crash-recovery replays, so compaction
// boundaries and WAL replay are corpus members, not special cases. Both
// detectors publish every commit, and the two stores must serve the same
// epochs.

// deltaEquivCorpus is the shared seeded workload corpus
// (synth.EquivCorpus): varied small marketplaces plus tiny
// shattered-residual ones, several of which detect nothing (the all-clean
// stream exercises patching of pure background churn).
func deltaEquivCorpus() []synth.Config { return synth.EquivCorpus() }

func deltaEquivParams(c synth.Config) core.Params {
	p := smallParams()
	if c.NumUsers < 1000 {
		p.THot = 200
	}
	return p
}

func graphBytes(t *testing.T, g *bipartite.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bipartite.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameGraphBytes(t *testing.T, label string, oracle, delta *Detector) {
	t.Helper()
	want, got := graphBytes(t, oracle.Graph()), graphBytes(t, delta.Graph())
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: delta-maintained graph diverged from full rebuild (%d vs %d bytes)",
			label, len(got), len(want))
	}
}

// publishTo wires d's commits into store, as cmd/stream and the facade do.
func publishTo(d *Detector, store *serve.Store) {
	thot, tclick := d.params.THot, d.params.TClick
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, thot, tclick))
	}
}

// sameServed checks that got serves want's epoch with as many groups; the
// groups themselves are sameGroups's.
func sameServed(t *testing.T, label string, want, got *serve.Store) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge || want.Current().NumGroups() != got.Current().NumGroups() {
		t.Fatalf("%s: serving epoch %d with %d groups, want epoch %d with %d",
			label, ge, got.Current().NumGroups(), we, want.Current().NumGroups())
	}
}

// TestDeltaEquivalenceGoldenWorkloads is the harness proper: for every
// corpus workload, drive a rebuild oracle and a delta-maintained detector
// through an identical three-phase stream (background, first attack half,
// second attack half) with a sweep after each phase, comparing the
// serialized graph and the serialized groups at every step.
//
// Workload index picks the hostile extras:
//   - i%3 selects the compaction regime (always / never / default), so
//     compaction boundaries and long patch chains are both covered;
//   - i%3 == 0 also injects clicks mid-sweep through the stream.sweep
//     fault site (they must land in the NEXT sweep, exactly as the
//     oracle's post-sweep feed does);
//   - i%4 == 1 runs the delta detector durably and crash-recovers it
//     (abandoned WAL handle, reopened directory) between sweeps 2 and 3 —
//     the replayed detector must re-derive the identical patched graph,
//     and its commits continue the crashed detector's served epochs.
func TestDeltaEquivalenceGoldenWorkloads(t *testing.T) {
	defer faultinject.Reset()
	cfgs := deltaEquivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	totalGroups := 0
	for i, cfg := range cfgs {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			defer faultinject.Reset()
			params := deltaEquivParams(cfg)
			ds := synth.MustGenerate(cfg)
			background, attack := splitDataset(ds)
			half := len(attack) / 2
			phaseA, phaseB := attack[:half], attack[half:]
			var bg []clicktable.Record
			background.Each(func(r clicktable.Record) bool {
				bg = append(bg, r)
				return true
			})

			oracle, err := New(nil, params)
			if err != nil {
				t.Fatal(err)
			}
			oracle.Obs = obs.NewObserver("oracle")
			oracleSweep := func() *detect.Result {
				t.Helper()
				res := mustSweep(t, oracle)
				if n := oracle.Obs.Metrics.Counters()["stream.graph.patch"]; n != 0 {
					t.Fatalf("the rebuild oracle patched its graph %d times", n)
				}
				return res
			}

			var delta *Detector
			durDir := ""
			if i%4 == 1 {
				durDir = t.TempDir()
				delta, _, err = Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
			} else {
				delta, err = New(nil, params)
			}
			if err != nil {
				t.Fatal(err)
			}
			switch i % 3 {
			case 0:
				delta.compactFraction = 1e-9 // every build hits a compaction boundary
			case 1:
				delta.compactFraction = 1e9 // pure patching: one rebuild, then patch forever
			}
			compactFraction := delta.compactFraction
			oracleStore, deltaStore := serve.NewStore(nil), serve.NewStore(nil)
			publishTo(oracle, oracleStore)
			publishTo(delta, deltaStore)

			feedRebuildOracle(oracle, bg)
			delta.AddBatch(bg)
			r1o := oracleSweep()
			// Mid-sweep ingestion: the fault site fires inside the sweep
			// stage, after the graph snapshot — injected clicks are invisible
			// to that sweep and must surface in the next one. Armed only
			// around the delta detector's sweep (the site is global and the
			// oracle's sweeps would consume it).
			midSweep := phaseA[:min(8, len(phaseA))]
			if i%3 == 0 {
				faultinject.Arm("stream.sweep", faultinject.Fault{
					Do:    func() { delta.AddBatch(midSweep) },
					Times: 1,
				})
			}
			r1d := mustSweep(t, delta)
			sameGroups(t, "sweep1", r1o, r1d)
			sameServed(t, "sweep1", oracleStore, deltaStore)
			if i%3 == 0 {
				// The oracle gets the mid-sweep clicks now: for both
				// detectors they are post-sweep-1, pre-sweep-2 traffic.
				faultinject.Reset()
				feedRebuildOracle(oracle, midSweep)
				sameGraphBytes(t, "after sweep1", oracle, delta)
			} else {
				sameGraphBytes(t, "after sweep1", oracle, delta)
			}

			feedRebuildOracle(oracle, phaseA)
			delta.AddBatch(phaseA)
			r2o := oracleSweep()
			r2d := mustSweep(t, delta)
			sameGroups(t, "sweep2", r2o, r2d)
			sameServed(t, "sweep2", oracleStore, deltaStore)
			sameGraphBytes(t, "after sweep2", oracle, delta)

			if durDir != "" {
				// Crash: abandon the durable detector WAL-open, reopen the
				// directory. The recovered detector starts from snapshot +
				// replay — its next build re-derives the patched graph from
				// scratch and must land on the identical bytes.
				recovered, info, err := Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
				if err != nil {
					t.Fatal(err)
				}
				if info.ColdStart {
					t.Fatal("recovery saw a cold start")
				}
				recovered.compactFraction = compactFraction
				// The store is the serving side and outlives the crash.
				publishTo(recovered, deltaStore)
				delta = recovered
				sameGraphBytes(t, "after recovery", oracle, delta)
			}

			feedRebuildOracle(oracle, phaseB)
			delta.AddBatch(phaseB)
			r3o := oracleSweep()
			r3d := mustSweep(t, delta)
			sameGroups(t, "sweep3", r3o, r3d)
			sameServed(t, "sweep3", oracleStore, deltaStore)
			sameGraphBytes(t, "after sweep3", oracle, delta)
			totalGroups += len(r3o.Groups)

			if durDir != "" {
				if err := delta.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if totalGroups == 0 {
		t.Fatal("corpus detected no groups anywhere — the harness exercised only the all-clean path")
	}
}

// TestGraphBuildModeCounters pins the observable split between the two
// build branches: a never-compacting detector rebuilds once (the first
// build) and patches afterwards.
func TestGraphBuildModeCounters(t *testing.T) {
	feed := func(d *Detector) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 50; i++ {
				d.AddClick(uint32(i), uint32(i%10), uint32(1+round))
			}
			d.Graph()
		}
	}

	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.compactFraction = 1e9
	d.Obs = obs.NewObserver("stream")
	feed(d)
	counters := d.Obs.Metrics.Counters()
	if got := counters["stream.graph.rebuild"]; got != 1 {
		t.Errorf("never-compact: %d rebuilds, want 1", got)
	}
	if got := counters["stream.graph.patch"]; got != 2 {
		t.Errorf("never-compact: %d patches, want 2", got)
	}
	if got := counters["stream.graph.delta_rows"]; got != 150 {
		t.Errorf("delta_rows = %d, want 150", got)
	}
}

// TestCompactionPolicyTriggers pins the compactFraction policy arithmetic:
// with the base at N rows, a pending tail ≤ frac·N patches and a larger
// one compacts.
func TestCompactionPolicyTriggers(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.compactFraction = 0.5
	d.Obs = obs.NewObserver("stream")
	for i := 0; i < 100; i++ {
		d.AddClick(uint32(i), uint32(i%10), 1)
	}
	d.Graph() // build 1: full rebuild, base = 100 rows

	for i := 0; i < 40; i++ { // tail 40 ≤ 0.5·100 → patch
		d.AddClick(uint32(200+i), uint32(i%10), 1)
	}
	d.Graph()
	counters := d.Obs.Metrics.Counters()
	if counters["stream.graph.patch"] != 1 || counters["stream.graph.rebuild"] != 1 {
		t.Fatalf("after small tail: patch=%d rebuild=%d, want 1/1",
			counters["stream.graph.patch"], counters["stream.graph.rebuild"])
	}

	for i := 0; i < 30; i++ { // tail 70 > 0.5·100 → compact
		d.AddClick(uint32(300+i), uint32(i%10), 1)
	}
	d.Graph()
	counters = d.Obs.Metrics.Counters()
	if counters["stream.graph.patch"] != 1 || counters["stream.graph.rebuild"] != 2 {
		t.Fatalf("after large tail: patch=%d rebuild=%d, want 1/2",
			counters["stream.graph.patch"], counters["stream.graph.rebuild"])
	}
}

// TestEventsCountsLifetimeTotal pins Events' contract: the count is the
// lifetime total of non-zero click events, monotone across sweeps and
// resets.
func TestEventsCountsLifetimeTotal(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		d.AddClick(uint32(i), 1, 2)
	}
	d.AddClick(99, 1, 0) // zero-click: dropped, not counted
	if got := d.Events(); got != 30 {
		t.Fatalf("Events = %d, want 30", got)
	}
	mustSweep(t, d)
	if got := d.Events(); got != 30 {
		t.Errorf("Events after sweep = %d, want 30 (sweeps must not consume it)", got)
	}
	d.Reset()
	if got := d.Events(); got != 30 {
		t.Errorf("Events after reset = %d, want 30 (resets must not consume it)", got)
	}
	d.AddBatch([]clicktable.Record{{UserID: 1, ItemID: 2, Clicks: 3}, {UserID: 2, ItemID: 2, Clicks: 0}})
	if got := d.Events(); got != 31 {
		t.Errorf("Events after batch = %d, want 31", got)
	}
}
