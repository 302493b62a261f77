package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/synth"
)

// This file is the golden-oracle harness for the component verdict cache:
// across the shared ≥ 20-workload corpus (synth.EquivCorpus — the fourth
// consumer, after the sharding, delta-maintenance and serving harnesses), a
// detector replaying cached component verdicts must produce sweep results
// AND served index epochs byte-identical to an oracle whose cache is purged
// before each of its sweeps, so that it computes every verdict live (and is
// checked to have replayed none). The drive folds
// in warm full sweeps (all-hit replays), incremental sweeps (dirty-set
// skips), mid-sweep ingestion, adversarial single-click component merges
// and splits, resets, and durable crash recovery with a cold cache, so
// every invalidation rule of DESIGN.md §15 is a corpus member, not a
// special case.

// cacheEquivHarness drives one oracle/cached detector pair through
// identical input and compares every committed sweep.
type cacheEquivHarness struct {
	t              *testing.T
	oracle, cached *Detector
	oracleStore    *serve.Store
	cachedStore    *serve.Store
}

// publishTo wires d's commits into a fresh serve.Store, as cmd/stream and
// the facade do — the cache must never change what gets published, nor
// when.
func publishTo(d *Detector, store *serve.Store) {
	thot, tclick := d.params.THot, d.params.TClick
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, thot, tclick))
	}
}

func (h *cacheEquivHarness) feed(records []clicktable.Record) {
	h.oracle.AddBatch(records)
	h.cached.AddBatch(records)
}

func (h *cacheEquivHarness) click(u, v, n uint32) {
	h.oracle.AddClick(u, v, n)
	h.cached.AddClick(u, v, n)
}

// sweep runs one sweep (full or incremental) on both detectors — oracle
// first, so a fault armed for the cached sweep is not consumed early — and
// compares serialized groups, served epoch, and a sample of served
// verdicts.
func (h *cacheEquivHarness) sweep(label string, full bool, beforeCached func()) *detect.Result {
	h.t.Helper()
	run := func(d *Detector) *detect.Result {
		h.t.Helper()
		var res *detect.Result
		var err error
		if full {
			res, err = fullDetect(d)
		} else {
			res, err = sweep(d)
		}
		if err != nil {
			h.t.Fatalf("%s: sweep: %v", label, err)
		}
		return res
	}
	// The oracle detects every component live: its cache is emptied before
	// each of its sweeps, and must not have served a single verdict.
	h.oracle.mu.Lock()
	if h.oracle.cache != nil {
		h.oracle.cache.Purge()
	}
	h.oracle.mu.Unlock()
	want := run(h.oracle)
	if hits := h.oracle.CacheStats().Hits; hits != 0 {
		h.t.Fatalf("%s: the cache-free oracle replayed %d cached verdicts", label, hits)
	}
	if beforeCached != nil {
		beforeCached()
	}
	got := run(h.cached)
	sameGroups(h.t, label, want, got)
	if oe, ce := h.oracleStore.Epoch(), h.cachedStore.Epoch(); oe != ce {
		h.t.Fatalf("%s: served epoch diverged: oracle %d, cached %d", label, oe, ce)
	}
	h.sameServed(label, want)
	return want
}

// sameServed spot-checks the published indexes: group counts, suspicious
// totals, and the verdicts for each group's first member pair must answer
// identically out of both stores.
func (h *cacheEquivHarness) sameServed(label string, res *detect.Result) {
	h.t.Helper()
	oix, cix := h.oracleStore.Current(), h.cachedStore.Current()
	if oix == nil || cix == nil {
		if (oix == nil) != (cix == nil) {
			h.t.Fatalf("%s: one store published, the other did not", label)
		}
		return
	}
	if oix.NumGroups() != cix.NumGroups() ||
		oix.NumSuspiciousUsers() != cix.NumSuspiciousUsers() ||
		oix.NumSuspiciousItems() != cix.NumSuspiciousItems() {
		h.t.Fatalf("%s: served index shape diverged", label)
	}
	for _, grp := range res.Groups {
		u, v := uint32(grp.Users[0]), uint32(grp.Items[0])
		if !reflect.DeepEqual(oix.User(u), cix.User(u)) ||
			!reflect.DeepEqual(oix.Item(v), cix.Item(v)) ||
			!reflect.DeepEqual(oix.Pair(u, v), cix.Pair(u, v)) {
			h.t.Fatalf("%s: served verdicts for pair (%d,%d) diverged", label, u, v)
		}
	}
}

// TestCacheEquivalenceGoldenWorkloads is the harness proper. Per workload:
//
//	background → sweep 1 (first sweep: full) → full sweep 2 (unchanged
//	graph: warm, all components replay) → attack phase A → incremental
//	sweep 3 → adversarial single-click merge (a TClick-weight bridge
//	between two detected groups) and split (a click pushing a group item
//	over THot) → attack phase B → sweep 6.
//
// Workload index picks the hostile extras, mirroring the delta harness:
// i%3 == 0 injects clicks mid-sweep into the cached detector (fault site
// stream.sweep); i%4 == 1 runs the cached detector durably and
// crash-recovers it — the reopened detector starts with a COLD cache and
// must converge to identical verdicts; i%5 == 0 resets both detectors at
// the end (cache purged) and re-sweeps the same history.
func TestCacheEquivalenceGoldenWorkloads(t *testing.T) {
	defer faultinject.Reset()
	cfgs := synth.EquivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	totalGroups, totalHits := 0, int64(0)
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

			var cached *Detector
			durDir := ""
			if i%4 == 1 {
				durDir = t.TempDir()
				cached, _, err = Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
			} else {
				cached, err = New(nil, params)
			}
			if err != nil {
				t.Fatal(err)
			}

			h := &cacheEquivHarness{
				t: t, oracle: oracle, cached: cached,
				oracleStore: serve.NewStore(nil), cachedStore: serve.NewStore(nil),
			}
			publishTo(oracle, h.oracleStore)
			publishTo(cached, h.cachedStore)

			h.feed(bg)
			// Mid-sweep ingestion (i%3 == 0): the fault site fires inside the
			// cached detector's sweep, after its snapshot — the clicks must be
			// invisible to that sweep (and to its cache stores) and surface in
			// the next one. The oracle gets them right after.
			midSweep := phaseA[:min(8, len(phaseA))]
			var arm func()
			if i%3 == 0 {
				arm = func() {
					faultinject.Arm("stream.sweep", faultinject.Fault{
						Do:    func() { cached.AddBatch(midSweep) },
						Times: 1,
					})
				}
			}
			h.sweep("sweep1", false, arm)
			if i%3 == 0 {
				faultinject.Reset()
				oracle.AddBatch(midSweep)
			}

			// Two full sweeps over the (oracle-side unchanged) graph. Sweep 1
			// ingested the whole background, so every component was in its
			// dirty set and nothing was cached; the first full sweep consults
			// and stores every component, and the second must replay them all
			// without changing a byte of the result or the served epoch
			// cadence.
			h.sweep("warm-full", true, nil)
			h.sweep("warm-full2", true, nil)

			h.feed(phaseA)
			r3 := h.sweep("sweep3", false, nil)

			// Adversarial merge: one click of exactly TClick weight bridging
			// two detected groups fuses their residual components — both
			// fingerprints change, neither may replay stale verdicts.
			if len(r3.Groups) >= 2 {
				g0, g1 := r3.Groups[0], r3.Groups[1]
				h.click(uint32(g0.Users[0]), uint32(g1.Items[0]), params.TClick)
				h.sweep("merge", false, nil)
			}
			// Adversarial split: one click pushing a detected group's item
			// over THot flips its hot bit, so screening drops it and the
			// group shrinks or splits — a change invisible in the component's
			// own CSR weights-topology alone on the oracle's full-graph view,
			// caught by the hot bits folded into the fingerprint.
			if len(r3.Groups) >= 1 {
				h.click(0, uint32(r3.Groups[0].Items[0]), uint32(params.THot)+1)
				h.sweep("split", false, nil)
			}

			if durDir != "" {
				// Crash: abandon the durable cached detector, reopen the
				// directory. The recovered detector's cache is COLD by
				// construction (the cache is volatile, never persisted); its
				// next sweeps must converge to identical verdicts and epochs.
				recovered, info, rerr := Open(Durability{Dir: durDir, SnapshotEvery: 150, SegmentBytes: 1 << 16}, params, nil)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if info.ColdStart {
					t.Fatal("recovery saw a cold start")
				}
				if hits := recovered.CacheStats().Hits; hits != 0 {
					t.Fatalf("recovered detector's cache is not cold: %d hits", hits)
				}
				// The store outlives the crash (it is the serving side);
				// recovered commits continue its epoch sequence.
				publishTo(recovered, h.cachedStore)
				totalHits += cached.CacheStats().Hits
				h.cached = recovered
				cached = recovered
			}

			h.feed(phaseB)
			r6 := h.sweep("sweep6", false, nil)
			totalGroups += len(r6.Groups)

			if i%5 == 0 {
				// Reset both: the cached detector must purge its entries (the
				// history is re-swept from scratch) and still agree.
				oracle.Reset()
				cached.Reset()
				h.sweep("post-reset", false, nil)
			}

			totalHits += cached.CacheStats().Hits
			if durDir != "" {
				if err := cached.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if totalGroups == 0 {
		t.Fatal("corpus detected no groups anywhere — the harness exercised only the all-clean path")
	}
	if totalHits == 0 {
		t.Fatal("no sweep anywhere replayed a cached verdict — the harness never exercised the hit path")
	}
}

// TestConcurrentIngestDuringCachedSweeps is the -race companion: while full
// sweeps replay cached verdicts, a goroutine hammers AddClick the whole
// time. Served epochs must stay strictly monotone and every committed
// result must stay byte-stable after publication — a cache hit must never
// hand out state a concurrent ingest can dirty.
func TestConcurrentIngestDuringCachedSweeps(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	params := smallParams()
	d, err := New(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(nil)
	type committed struct {
		epoch  uint64
		frozen []byte         // serialized at commit time
		groups []detect.Group // the very slices that were committed
	}
	var commits []committed
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, params.THot, params.TClick))
		commits = append(commits, committed{store.Epoch(), groupBytes(res.Groups), res.Groups})
	}

	background, attack := splitDataset(ds)
	var bg []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		bg = append(bg, r)
		return true
	})
	d.AddBatch(bg)
	d.AddBatch(attack)
	if _, err := fullDetect(d); err != nil { // cold pass fills the cache
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A narrow band of one-item users churns throughout. The core peel
		// removes them in every sweep, so the components keep matching their
		// fingerprints mid-ingest whenever the sweeps take their snapshots.
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
		if _, err := fullDetect(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if hits := d.CacheStats().Hits; hits == 0 {
		t.Fatal("no full sweep replayed a cached verdict; the race surface was never exercised")
	}
	for i, c := range commits {
		if i > 0 && c.epoch <= commits[i-1].epoch {
			t.Errorf("served epochs not monotone: commit %d has epoch %d after %d",
				i, c.epoch, commits[i-1].epoch)
		}
		if !bytes.Equal(groupBytes(c.groups), c.frozen) {
			t.Errorf("groups served under epoch %d were mutated after commit", c.epoch)
		}
	}
}
