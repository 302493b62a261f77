package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
)

// fpEdge is one (user, item, weight) arc of a fingerprint test graph.
type fpEdge struct {
	u, v bipartite.NodeID
	w    uint32
}

func buildFPGraph(nU, nI int, edges []fpEdge) *bipartite.Graph {
	b := bipartite.NewBuilder(nU, nI)
	for _, e := range edges {
		b.Add(e.u, e.v, e.w)
	}
	return b.Build()
}

// TestComponentFingerprintProperties drives the fingerprint's two laws with
// testing/quick over random component graphs:
//
//   - determinism: an identical rebuild (and a clone) hashes identically,
//     so equal CSR ⇒ equal cache key ⇒ the replayed verdict is the live one;
//   - sensitivity: perturbing any verdict-affecting input — one edge
//     weight, the topology, K1/K2/Alpha, a hot bit or the behavioral
//     thresholds — changes the key, so a stale entry can never shadow a
//     changed component.
func TestComponentFingerprintProperties(t *testing.T) {
	base := smallParams()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU := 3 + rng.Intn(10)
		nI := 3 + rng.Intn(8)
		// Unique (u,v) pairs so a weight perturbation below cannot be
		// shadowed by a duplicate arc.
		seen := map[[2]int]bool{}
		var edges []fpEdge
		for k := 1 + rng.Intn(40); k > 0; k-- {
			u, v := rng.Intn(nU), rng.Intn(nI)
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, fpEdge{bipartite.NodeID(u), bipartite.NodeID(v), uint32(1 + rng.Intn(20))})
		}
		if len(edges) == 0 {
			return true
		}
		g := buildFPGraph(nU, nI, edges)
		hot := make([]bool, nI)
		for i := range hot {
			hot[i] = rng.Intn(4) == 0
		}

		fp := componentFingerprint(g, hot, base)

		// Determinism across rebuild and clone.
		if componentFingerprint(buildFPGraph(nU, nI, edges), hot, base) != fp {
			return false
		}
		if componentFingerprint(g.Clone(), hot, base) != fp {
			return false
		}
		// Weight perturbation.
		pe := append([]fpEdge(nil), edges...)
		pe[rng.Intn(len(pe))].w++
		if componentFingerprint(buildFPGraph(nU, nI, pe), hot, base) == fp {
			return false
		}
		// Topology perturbation: drop one arc.
		te := append([]fpEdge(nil), edges[:len(edges)-1]...)
		if componentFingerprint(buildFPGraph(nU, nI, te), hot, base) == fp {
			return false
		}
		// Pruning/extraction params.
		pk := base
		pk.K1++
		if componentFingerprint(g, hot, pk) == fp {
			return false
		}
		pa := base
		pa.Alpha *= 0.99
		if componentFingerprint(g, hot, pa) == fp {
			return false
		}
		// A hot-bit flip rekeys the entry (hotness is a marketplace-wide
		// property invisible in the component's own CSR).
		fh := append([]bool(nil), hot...)
		i := rng.Intn(nI)
		fh[i] = !fh[i]
		if componentFingerprint(g, fh, base) == fp {
			return false
		}
		// Behavioral thresholds.
		pt := base
		pt.TClick++
		return componentFingerprint(g, hot, pt) != fp
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCacheServesOnlyScreenedDetection pins the cache's one mode: it is
// consulted only when full screening rides inside the shards. A VariantUI
// or VariantI detection handed a cache neither looks anything up nor stores
// anything, though both extract groups; the fully screened detection over
// the same graph does both.
func TestCacheServesOnlyScreenedDetection(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := smallParams()
	cache := NewVerdictCache(0)

	for _, v := range []Variant{VariantUI, VariantI} {
		res, err := (&Detector{Params: p, Variant: v, Cache: cache}).Detect(ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) == 0 {
			t.Fatalf("%v found no groups; the test would be vacuous", v)
		}
		if st := cache.Stats(); st != (CacheStats{}) {
			t.Fatalf("%v touched the cache: %+v", v, st)
		}
	}

	if _, err := (&Detector{Params: p, Cache: cache}).Detect(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses == 0 || st.Bytes == 0 {
		t.Fatalf("the screened detection never used the cache: %+v", st)
	}
}

// TestVerdictCacheEvictsOldestEpochFirst pins the eviction policy: when a
// store pushes the cache over its byte bound, the entries whose last use
// (store or hit) is furthest in the past go first, the just-stored entry is
// never the victim, and an entry larger than the whole bound is not stored.
func TestVerdictCacheEvictsOldestEpochFirst(t *testing.T) {
	entry := func() *cacheEntry { return &cacheEntry{removedU: make([]bipartite.NodeID, 18)} } // 200 bytes
	fp := func(i uint64) fingerprint { return fingerprint{i, 0} }

	c := NewVerdictCache(600) // three 200-byte entries fit
	c.BeginEpoch()            // epoch 1
	c.store(fp(1), entry())
	c.store(fp(2), entry())
	c.BeginEpoch() // epoch 2
	c.store(fp(3), entry())
	if _, ok := c.lookup(fp(1)); !ok { // hit restamps fp(1) to epoch 2
		t.Fatal("fp(1) missing before any eviction")
	}
	c.BeginEpoch() // epoch 3
	if evicted := c.store(fp(4), entry()); evicted != 1 {
		t.Fatalf("store evicted %d entries, want 1", evicted)
	}
	// fp(2) is the only entry still stamped epoch 1 — it must be the victim.
	if _, ok := c.lookup(fp(2)); ok {
		t.Error("oldest-epoch entry fp(2) survived the eviction")
	}
	for _, keep := range []uint64{1, 3, 4} {
		if _, ok := c.lookup(fp(keep)); !ok {
			t.Errorf("entry fp(%d) was evicted out of order", keep)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 600 {
		t.Errorf("stats = %+v, want 1 eviction, 3 entries, 600 bytes", st)
	}

	// An entry larger than the whole bound is simply not stored.
	if evicted := c.store(fp(9), &cacheEntry{removedU: make([]bipartite.NodeID, 200)}); evicted != 0 {
		t.Errorf("oversized store evicted %d entries, want 0", evicted)
	}
	if _, ok := c.lookup(fp(9)); ok {
		t.Error("oversized entry was stored despite exceeding the bound")
	}
}

// sameResults compares two detection results group-for-group (members,
// order, scores) plus the flattened suspicious sets.
func sameResults(t *testing.T, label string, want, got *detect.Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gi := range want.Groups {
		w, g := want.Groups[gi], got.Groups[gi]
		if !reflect.DeepEqual(g.Users, w.Users) || !reflect.DeepEqual(g.Items, w.Items) || g.Score != w.Score {
			t.Fatalf("%s: group %d diverged", label, gi)
		}
	}
	if !reflect.DeepEqual(got.Users(), want.Users()) || !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatalf("%s: suspicious sets diverged", label)
	}
}

// TestCachedDetectionMatchesOracle pins cached ≡ cache-free detection across
// the equivalence corpus: with Detector.Cache set components replay cached
// verdicts, with Cache nil every component is detected live, and the two
// must agree exactly. Per workload, a
// cold run, a warm run and a poisoned-cache run over the same graph all
// reproduce the uncached oracle, the warm run is all hits, and the obs
// counters agree with the cache's own stats.
func TestCachedDetectionMatchesOracle(t *testing.T) {
	defer faultinject.Reset()
	var groups int
	var total CacheStats
	for i, cfg := range equivCorpus() {
		ds := synth.MustGenerate(cfg)
		label := func(run string) string { return fmt.Sprintf("workload %d %s", i, run) }
		oracle, err := (&Detector{Params: equivParams(i, cfg)}).Detect(ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		groups += len(oracle.Groups)

		cache := NewVerdictCache(0)
		o := obs.NewObserver("core")
		det := &Detector{Params: equivParams(i, cfg), Obs: o, Cache: cache}

		cold, err := det.Detect(ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label("cold"), oracle, cold)
		afterCold := cache.Stats()
		if afterCold.Hits != 0 {
			t.Errorf("%s: %d hits on an empty cache", label("cold"), afterCold.Hits)
		}

		warm, err := det.Detect(ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label("warm"), oracle, warm)
		afterWarm := cache.Stats()
		if afterWarm.Hits != afterCold.Misses {
			t.Errorf("%s: %d hits after %d cold misses; every component should have replayed",
				label("warm"), afterWarm.Hits, afterCold.Misses)
		}
		if afterWarm.Misses != afterCold.Misses {
			t.Errorf("%s: missed %d components; every fingerprint should have hit",
				label("warm"), afterWarm.Misses-afterCold.Misses)
		}

		// Poisoned lookups (fault site core.cache) fall back to live
		// detection: verdicts cannot depend on cache health.
		faultinject.Arm("core.cache", faultinject.Fault{Err: errors.New("poisoned lookup")})
		faulty, err := det.Detect(ds.Graph)
		faultinject.Reset()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label("poisoned"), oracle, faulty)
		st := cache.Stats()
		if st.Faults != afterCold.Misses {
			t.Errorf("%s: %d cache faults over %d components", label("poisoned"), st.Faults, afterCold.Misses)
		}

		// The obs counters are fed from the same merge loop that aggregates
		// the shard results; they must agree with the cache's lifetime stats.
		counters := o.Metrics.Counters()
		for counter, want := range map[string]int64{
			"core.cache.hit":   st.Hits,
			"core.cache.miss":  st.Misses,
			"core.cache.evict": st.Evictions,
			"core.cache.fault": st.Faults,
		} {
			if got := counters[counter]; got != want {
				t.Errorf("workload %d: %s = %d, cache stats say %d", i, counter, got, want)
			}
		}
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Faults += st.Faults
	}
	if groups == 0 {
		t.Fatal("the oracle found no groups anywhere; the test would be vacuous")
	}
	if total.Misses == 0 || total.Hits == 0 || total.Faults == 0 {
		t.Fatalf("the corpus never exercised the cache: %+v", total)
	}
}

// TestCachedDetectionEvictionCounterMatches forces evictions through the
// real pipeline — a cache bounded to the largest single workload's entries,
// fed three distinct workloads — and checks the core.cache.evict counter
// agrees with the cache's own eviction count.
func TestCachedDetectionEvictionCounterMatches(t *testing.T) {
	datasets := make([]*synth.Dataset, 0, 3)
	for _, seed := range []int64{1, 2, 3} {
		cfg := synth.SmallConfig()
		cfg.Seed = seed
		cfg.Attack.Groups = 2 + int(seed%3)
		datasets = append(datasets, synth.MustGenerate(cfg))
	}
	// Measure each workload's cached footprint in isolation; bounding the
	// shared cache to the largest means any two workloads overflow it.
	var maxBytes int64
	for i, ds := range datasets {
		probe := NewVerdictCache(0)
		if _, err := (&Detector{Params: smallParams(), Cache: probe}).Detect(ds.Graph); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if b := probe.Bytes(); b > maxBytes {
			maxBytes = b
		}
	}
	if maxBytes == 0 {
		t.Fatal("no workload stored any cache entry")
	}

	cache := NewVerdictCache(maxBytes)
	o := obs.NewObserver("core")
	for i, ds := range datasets {
		if _, err := (&Detector{Params: smallParams(), Obs: o, Cache: cache}).Detect(ds.Graph); err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
	}
	evictions := cache.Stats().Evictions
	if evictions == 0 {
		t.Fatalf("no evictions despite a %d-byte bound across three workloads; stats %+v",
			maxBytes, cache.Stats())
	}
	if got := o.Metrics.Counters()["core.cache.evict"]; got != evictions {
		t.Errorf("core.cache.evict = %d, cache evicted %d", got, evictions)
	}
}
