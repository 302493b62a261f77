package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/synth"
)

// This file pins that a refresh (FullDetectContext) keeps nothing between
// calls and leaves the sweep state alone. The two tests are named for the
// component verdict cache a refresh used to consult; the cache is gone, and
// what its harness checked beyond the cache still holds: across the shared
// ≥ 20-workload corpus (synth.EquivCorpus), a detector refreshed again and
// again, fed clicks mid-sweep, crash-recovered and reset must sweep and
// serve exactly what a never-refreshed oracle does, and every refresh must
// return exactly what a cold detector over the same click history returns.

// cacheEquivHarness drives a never-refreshed oracle and a warm detector
// through identical input, and keeps the click history a cold detector is
// rebuilt from.
type cacheEquivHarness struct {
	t            *testing.T
	params       core.Params
	oracle, warm *Detector
	oracleStore  *serve.Store
	warmStore    *serve.Store
	history      []clicktable.Record
	// refreshGroups counts the groups the refreshes found, so the harness
	// can tell it compared more than empty results.
	refreshGroups int
}

func (h *cacheEquivHarness) feed(records []clicktable.Record) {
	h.oracle.AddBatch(records)
	h.warm.AddBatch(records)
	h.history = append(h.history, records...)
}

func (h *cacheEquivHarness) click(u, v, n uint32) {
	h.oracle.AddClick(u, v, n)
	h.warm.AddClick(u, v, n)
	h.history = append(h.history, clicktable.Record{UserID: u, ItemID: v, Clicks: n})
}

// sweep runs one sweep on both detectors — oracle first, so a fault armed
// for the warm sweep is not consumed early — and compares serialized
// groups, served epoch, and a sample of served verdicts.
func (h *cacheEquivHarness) sweep(label string, beforeWarm func()) *detect.Result {
	h.t.Helper()
	want := mustSweep(h.t, h.oracle)
	if beforeWarm != nil {
		beforeWarm()
	}
	got := mustSweep(h.t, h.warm)
	sameGroups(h.t, label, want, got)
	h.sameIndexes(label, want)
	return want
}

// refresh runs FullDetectContext on the warm detector and on a cold
// detector fed the whole click history: the results, rankings included,
// must be byte-identical, and the refresh must publish nothing.
func (h *cacheEquivHarness) refresh(label string) {
	h.t.Helper()
	got, err := fullDetect(h.warm)
	if err != nil {
		h.t.Fatalf("%s: refresh: %v", label, err)
	}
	cold, err := New(nil, h.params)
	if err != nil {
		h.t.Fatal(err)
	}
	cold.AddBatch(h.history)
	want, err := fullDetect(cold)
	if err != nil {
		h.t.Fatalf("%s: cold refresh: %v", label, err)
	}
	if !bytes.Equal(resultBytes(h.t, want), resultBytes(h.t, got)) {
		h.t.Fatalf("%s: the warm refresh found %d groups, a cold one %d (serialized forms differ)",
			label, len(got.Groups), len(want.Groups))
	}
	if oe, we := h.oracleStore.Epoch(), h.warmStore.Epoch(); oe != we {
		h.t.Fatalf("%s: a refresh published: oracle serves epoch %d, warm %d", label, oe, we)
	}
	h.refreshGroups += len(got.Groups)
}

// sameIndexes spot-checks the published indexes: epoch, group counts,
// suspicious totals, and the verdicts for each group's first member pair
// must answer identically out of both stores.
func (h *cacheEquivHarness) sameIndexes(label string, res *detect.Result) {
	h.t.Helper()
	if oe, we := h.oracleStore.Epoch(), h.warmStore.Epoch(); oe != we {
		h.t.Fatalf("%s: served epoch diverged: oracle %d, warm %d", label, oe, we)
	}
	oix, wix := h.oracleStore.Current(), h.warmStore.Current()
	if oix == nil || wix == nil {
		if (oix == nil) != (wix == nil) {
			h.t.Fatalf("%s: one store published, the other did not", label)
		}
		return
	}
	if oix.NumGroups() != wix.NumGroups() ||
		oix.NumSuspiciousUsers() != wix.NumSuspiciousUsers() ||
		oix.NumSuspiciousItems() != wix.NumSuspiciousItems() {
		h.t.Fatalf("%s: served index shape diverged", label)
	}
	for _, grp := range res.Groups {
		u, v := uint32(grp.Users[0]), uint32(grp.Items[0])
		if !reflect.DeepEqual(oix.User(u), wix.User(u)) ||
			!reflect.DeepEqual(oix.Item(v), wix.Item(v)) ||
			!reflect.DeepEqual(oix.Pair(u, v), wix.Pair(u, v)) {
			h.t.Fatalf("%s: served verdicts for pair (%d,%d) diverged", label, u, v)
		}
	}
}

// TestCacheEquivalenceGoldenWorkloads is the harness proper. Per workload:
//
//	background → sweep 1 (first sweep: full) → two refreshes over the
//	unchanged graph → attack phase A → refresh → incremental sweep 3 →
//	adversarial single-click merge (a TClick-weight bridge between two
//	detected groups) and split (a click pushing a group item over THot),
//	each refreshed and swept → attack phase B → refresh → sweep 6.
//
// Only the warm detector refreshes; the oracle never does, so every sweep
// comparison also checks that a refresh commits nothing. Workload index
// picks the hostile extras: i%3 == 0 injects clicks mid-sweep into the warm
// detector (fault site stream.sweep); i%4 == 1 runs the warm detector
// durably and crash-recovers it — the reopened detector must serve the
// crashed one's epochs onward with identical verdicts; i%5 == 0 resets both
// detectors at the end and re-sweeps the same history.
func TestCacheEquivalenceGoldenWorkloads(t *testing.T) {
	defer faultinject.Reset()
	cfgs := synth.EquivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	totalGroups, refreshGroups := 0, 0
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

			var warm *Detector
			durDir := ""
			if i%4 == 1 {
				durDir = t.TempDir()
				warm, _, err = Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
			} else {
				warm, err = New(nil, params)
			}
			if err != nil {
				t.Fatal(err)
			}

			h := &cacheEquivHarness{
				t: t, params: params, oracle: oracle, warm: warm,
				oracleStore: serve.NewStore(nil), warmStore: serve.NewStore(nil),
			}
			publishTo(oracle, h.oracleStore)
			publishTo(warm, h.warmStore)

			h.feed(bg)
			// Mid-sweep ingestion (i%3 == 0): the fault site fires inside the
			// warm detector's sweep, after its snapshot — the clicks must be
			// invisible to that sweep and surface in the next one. The oracle
			// gets them right after.
			midSweep := phaseA[:min(8, len(phaseA))]
			var arm func()
			if i%3 == 0 {
				arm = func() {
					faultinject.Arm("stream.sweep", faultinject.Fault{
						Do:    func() { warm.AddBatch(midSweep) },
						Times: 1,
					})
				}
			}
			h.sweep("sweep1", arm)
			if i%3 == 0 {
				faultinject.Reset()
				oracle.AddBatch(midSweep)
				h.history = append(h.history, midSweep...)
			}

			// Two refreshes over the unchanged graph: the second must find
			// exactly what the first did, and neither may publish or consume
			// the dirty set the next sweep needs.
			h.refresh("refresh1")
			h.refresh("refresh2")

			// A refresh between ingest and the sweep must leave the pending
			// clicks to the sweep.
			h.feed(phaseA)
			h.refresh("refresh3")
			r3 := h.sweep("sweep3", nil)

			// Adversarial merge: one click of exactly TClick weight bridging
			// two detected groups fuses their residual components.
			if len(r3.Groups) >= 2 {
				g0, g1 := r3.Groups[0], r3.Groups[1]
				h.click(uint32(g0.Users[0]), uint32(g1.Items[0]), params.TClick)
				h.refresh("merge refresh")
				h.sweep("merge", nil)
			}
			// Adversarial split: one click pushing a detected group's item
			// over THot flips its hot bit, so screening drops it and the
			// group shrinks or splits.
			if len(r3.Groups) >= 1 {
				h.click(0, uint32(r3.Groups[0].Items[0]), uint32(params.THot)+1)
				h.refresh("split refresh")
				h.sweep("split", nil)
			}

			if durDir != "" {
				// Crash: abandon the durable warm detector, reopen the
				// directory. The store outlives the crash (it is the serving
				// side); recovered commits continue its epoch sequence.
				recovered, info, rerr := Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if info.ColdStart {
					t.Fatal("recovery saw a cold start")
				}
				publishTo(recovered, h.warmStore)
				h.warm = recovered
				warm = recovered
				h.refresh("recovered refresh")
			}

			h.feed(phaseB)
			h.refresh("refresh6")
			r6 := h.sweep("sweep6", nil)
			totalGroups += len(r6.Groups)

			if i%5 == 0 {
				// Reset both: the history is re-swept from scratch and must
				// still agree.
				oracle.Reset()
				warm.Reset()
				h.sweep("post-reset", nil)
				h.refresh("post-reset refresh")
			}

			refreshGroups += h.refreshGroups
			if durDir != "" {
				if err := warm.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if totalGroups == 0 {
		t.Fatal("corpus detected no groups anywhere — the harness exercised only the all-clean path")
	}
	if refreshGroups == 0 {
		t.Fatal("no refresh anywhere found a group — the refresh comparisons were all empty")
	}
}

// TestConcurrentIngestDuringCachedSweeps is the -race companion: refreshes
// and sweeps alternate while a goroutine hammers AddClick the whole time.
// Served epochs must stay strictly monotone, and every committed and every
// refreshed result must stay byte-stable after it is returned — neither may
// hand out state a concurrent ingest can dirty.
func TestConcurrentIngestDuringCachedSweeps(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	params := smallParams()
	d, err := New(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(nil)
	type frozen struct {
		epoch  uint64
		bytes  []byte         // serialized when returned
		groups []detect.Group // the very slices that were returned
	}
	var commits, refreshes []frozen
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, params.THot, params.TClick))
		commits = append(commits, frozen{store.Epoch(), groupBytes(res.Groups), res.Groups})
	}

	background, attack := splitDataset(ds)
	var bg []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		bg = append(bg, r)
		return true
	})
	d.AddBatch(bg)
	d.AddBatch(attack)
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A narrow band of one-item users churns throughout; the core peel
		// removes them in every detection.
		churn := uint32(ds.Graph.NumUsers())
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				d.AddClick(churn+i%7, i%7, 1)
			}
		}
	}()
	for k := 0; k < 5; k++ {
		res, err := fullDetect(d)
		if err != nil {
			t.Fatal(err)
		}
		refreshes = append(refreshes, frozen{0, groupBytes(res.Groups), res.Groups})
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if len(refreshes[0].groups) == 0 {
		t.Fatal("the refresh found no groups; the race surface was never exercised")
	}
	for i, c := range commits {
		if i > 0 && c.epoch <= commits[i-1].epoch {
			t.Errorf("served epochs not monotone: commit %d has epoch %d after %d",
				i, c.epoch, commits[i-1].epoch)
		}
		if !bytes.Equal(groupBytes(c.groups), c.bytes) {
			t.Errorf("groups served under epoch %d were mutated after commit", c.epoch)
		}
	}
	for k, r := range refreshes {
		if !bytes.Equal(groupBytes(r.groups), r.bytes) {
			t.Errorf("refresh %d's groups were mutated after it returned", k)
		}
	}
}
