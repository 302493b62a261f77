package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/synth"
)

// This file is the detector's one fixpoint driver. Algorithm 3 has one
// maximal (α,k₁,k₂) fixpoint (Lemmas 1–2), so every configuration the
// detector runs — sharded or not, one frontier with survivor certificates
// and wide masks, any Workers — must land on exactly the fixpoint of the
// reference model (reference_test.go). A case is a graph shape, an entry
// point and a number of draws. For each draw the driver runs the reference
// once, then runs the entry point at Workers 1, 2 and 8 and holds it to:
//   - refPrune, for one frontier over the whole graph (newFrontier(g).prune)
//     and for PruneCtx: PruneStats with Rounds, the residual (liveness,
//     degrees, strengths) and RemovalEpoch;
//   - refExtract, for extractGroups: the groups in order, each within the
//     Definition 3 size bounds and disjoint from the others, and the
//     residual;
//   - refDetect, for Detector.Detect: the groups with their members, scores
//     and statistics in order, and both risk rankings;
//   - no reference at all for the metamorphic relations, which hold
//     Detector.Detect to itself: on a copy of the graph with user and item
//     IDs permuted, and on the disjoint union with the next draw's graph, it
//     must find what it finds at Workers 1 on the originals, as member sets
//     with scores and statistics (memberSets). The reference shares the
//     detector's Graph and its ID-order conventions; the relations do not.
//
// Draws are seeded, so a fault a case shows fails every run. The tests at
// the end of the file are its cases, under the names of the harnesses they
// replaced.

// entry is the production entry point a case runs.
type entry int

const (
	viaFrontier entry = iota
	viaPrune
	viaExtract
	viaDetect
	viaRelabel
	viaUnion
)

// shape draws a graph and the thresholds to prune it with: draw i of a case
// gets the i-th seed of the driver's source. With sub set, each draw and
// worker count runs as subtest <name><i>/w<workers>.
type shape struct {
	name string
	draw func(i int, seed int64) (*bipartite.Graph, Params)
	sub  bool
}

type fixCase struct {
	shape
	via       entry
	draws     int
	minRounds int  // every run takes at least this many rounds
	certify   bool // at every worker count some vertex survives on its certificate
}

var fixWorkers = []int{1, 2, 8}

// fixRun runs every case and the non-vacuity checks each one asks for;
// extraction and detection cases must find a group.
func fixRun(t *testing.T, cases ...fixCase) {
	t.Helper()
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		certified := make([]int64, len(fixWorkers))
		groups := 0
		for i := range c.draws {
			seed := int64(rng.Uint64())
			g, p := c.draw(i, seed)
			ref := g.Clone()
			var wantSt PruneStats
			var want *detect.Result
			// A relation's follow-up input, the maps from its IDs back to
			// the originals', and what the detector finds on the originals.
			var follow *bipartite.Graph
			var back []idMap
			var wantSets string
			switch c.via {
			case viaFrontier, viaPrune:
				wantSt = refPrune(ref, p)
			case viaExtract:
				want = &detect.Result{Groups: refExtract(ref, p)}
			case viaDetect:
				want = refDetect(g, p)
			case viaRelabel:
				want = detectAt1(t, g, p)
				wantSets = memberSets(want, nil)
				follow, back = relabel(g, rand.New(rand.NewSource(seed)))
			case viaUnion:
				g2, _ := c.draw((i+1)%c.draws, int64(rng.Uint64()))
				want = detectAt1(t, g, p)
				also := detectAt1(t, g2, p)
				wantSets = sortedLines(memberSets(want, nil) + memberSets(also, []idMap{offset(g.NumUsers()), offset(g.NumItems())}))
				groups += len(also.Groups)
				follow = disjointUnion(g, g2)
			}
			if want != nil {
				groups += len(want.Groups)
			}
			for wi, w := range fixWorkers {
				where := fmt.Sprintf("%s draw %d (seed %d), workers %d", c.name, i, seed, w)
				p := p
				p.Workers = w
				run := func(t *testing.T) {
					got, msg := g.Clone(), ""
					switch c.via {
					case viaFrontier, viaPrune:
						var st PruneStats
						var err error
						if c.via == viaFrontier {
							o := obs.NewObserver("test")
							st, err = newFrontier(got).prune(context.Background(), p, nil, o, nil)
							certified[wi] += o.Counter("core.frontier.certified").Value()
						} else {
							st, err = PruneCtx(context.Background(), got, p, nil)
						}
						switch {
						case err != nil:
							msg = err.Error()
						case st != wantSt:
							msg = fmt.Sprintf("stats %+v, reference %+v", st, wantSt)
						case st.Rounds < c.minRounds:
							msg = fmt.Sprintf("the fixpoint ended after %d rounds, want ≥ %d", st.Rounds, c.minRounds)
						}
					case viaExtract:
						groups := extractGroups(got, p)
						msg = cmp.Or(sizedAndDisjoint(groups, p), resultDiff(&detect.Result{Groups: groups}, want))
					case viaDetect:
						if res, err := (&Detector{Params: p}).Detect(g); err != nil {
							msg = err.Error()
						} else {
							msg = resultDiff(res, want)
						}
					case viaRelabel, viaUnion:
						if res, err := (&Detector{Params: p}).Detect(follow); err != nil {
							msg = err.Error()
						} else if got := memberSets(res, back); got != wantSets {
							msg = fmt.Sprintf("the relation fails:\n got %.600s\nwant %.600s", got, wantSets)
						}
					}
					if c.via < viaDetect && msg == "" {
						msg = graphStateDiff(got, ref)
					}
					if msg != "" {
						t.Fatalf("%s: %s", where, msg)
					}
				}
				if c.sub {
					t.Run(fmt.Sprintf("%s%02d/w%d", c.name, i, w), run)
				} else {
					run(t)
				}
			}
		}
		for wi, n := range certified {
			if c.certify && n == 0 {
				t.Errorf("%s, workers %d: no vertex was certified", c.name, fixWorkers[wi])
			}
		}
		if c.via >= viaExtract && groups == 0 {
			t.Errorf("%s: the reference found no group in %d draws", c.name, c.draws)
		}
	}
}

// resultDiff describes where got differs from want — the groups with their
// members, scores and statistics, in order, and both risk rankings — or
// returns "".
func resultDiff(got, want *detect.Result) string {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Sprintf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if !reflect.DeepEqual(got.Groups[i], want.Groups[i]) {
			return fmt.Sprintf("group %d diverges:\n got %+v\nwant %+v", i, got.Groups[i], want.Groups[i])
		}
	}
	if !reflect.DeepEqual(got.RankedUsers, want.RankedUsers) || !reflect.DeepEqual(got.RankedItems, want.RankedItems) {
		return "risk rankings diverge"
	}
	return ""
}

// detectAt1 is Detector.Detect at Workers 1, a relation's source run.
func detectAt1(t *testing.T, g *bipartite.Graph, p Params) *detect.Result {
	t.Helper()
	p.Workers = 1
	res, err := (&Detector{Params: p}).Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// idMap takes an ID of a relation's follow-up graph to the original's.
type idMap func(bipartite.NodeID) bipartite.NodeID

func offset(n int) idMap {
	return func(id bipartite.NodeID) bipartite.NodeID { return id + bipartite.NodeID(n) }
}

// memberSets renders res as sets, with IDs taken through back (users, then
// items; none keeps them): one line per group with its sorted members,
// score and statistics, and one per ranked node with its score. Lines end
// in newlines and are sorted, so group order and tied ranks do not count.
func memberSets(res *detect.Result, back []idMap) string {
	id := func(side int, x bipartite.NodeID) bipartite.NodeID {
		if back == nil {
			return x
		}
		return back[side](x)
	}
	ids := func(side int, in []bipartite.NodeID) []bipartite.NodeID {
		out := make([]bipartite.NodeID, len(in))
		for k, x := range in {
			out[k] = id(side, x)
		}
		slices.Sort(out)
		return out
	}
	var b strings.Builder
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "group %v × %v score %v density %v mean %v outside %v\n",
			ids(0, g.Users), ids(1, g.Items), g.Score, g.Density, g.MeanEdgeClicks, g.OutsideShare)
	}
	for side, ranked := range [][]detect.Scored{res.RankedUsers, res.RankedItems} {
		for _, s := range ranked {
			fmt.Fprintf(&b, "ranked %d %d %v\n", side, id(side, s.ID), s.Score)
		}
	}
	return sortedLines(b.String())
}

func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "")
}

// addMapped adds g's live edges to b with their users and items taken
// through user and item.
func addMapped(b *bipartite.Builder, g *bipartite.Graph, user, item idMap) {
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			b.Add(user(u), item(v), w)
			return true
		})
		return true
	})
}

// relabel copies g under random permutations of its user and item IDs, and
// returns the maps back.
func relabel(g *bipartite.Graph, rng *rand.Rand) (*bipartite.Graph, []idMap) {
	var to, back [2]idMap
	for side, n := range []int{g.NumUsers(), g.NumItems()} {
		perm, inv := rng.Perm(n), make([]bipartite.NodeID, n)
		for id, p := range perm {
			inv[p] = bipartite.NodeID(id)
		}
		to[side] = func(id bipartite.NodeID) bipartite.NodeID { return bipartite.NodeID(perm[id]) }
		back[side] = func(id bipartite.NodeID) bipartite.NodeID { return inv[id] }
	}
	b := bipartite.NewBuilder(g.NumUsers(), g.NumItems())
	addMapped(b, g, to[0], to[1])
	return b.Build(), back[:]
}

// disjointUnion is g1 ⊎ g2: g2's users and items follow g1's.
func disjointUnion(g1, g2 *bipartite.Graph) *bipartite.Graph {
	b := bipartite.NewBuilder(g1.NumUsers()+g2.NumUsers(), g1.NumItems()+g2.NumItems())
	addLiveEdges(b, g1)
	addMapped(b, g2, offset(g1.NumUsers()), offset(g1.NumItems()))
	return b.Build()
}

// sizedAndDisjoint describes the first group below the Definition 3 size
// bounds or sharing a vertex with an earlier group, or returns "".
func sizedAndDisjoint(groups []detect.Group, p Params) string {
	seenU, seenV := map[bipartite.NodeID]bool{}, map[bipartite.NodeID]bool{}
	for i, grp := range groups {
		if len(grp.Users) < p.K1 || len(grp.Items) < p.K2 {
			return fmt.Sprintf("group %d is %d×%d, below %d×%d", i, len(grp.Users), len(grp.Items), p.K1, p.K2)
		}
		for _, u := range grp.Users {
			if seenU[u] {
				return fmt.Sprintf("user %d is in two groups", u)
			}
			seenU[u] = true
		}
		for _, v := range grp.Items {
			if seenV[v] {
				return fmt.Sprintf("item %d is in two groups", v)
			}
			seenV[v] = true
		}
	}
	return ""
}

// The shapes.

// plantedBlock is randomPruneGraph under fixed thresholds.
func plantedBlock(k1, k2 int, alpha float64) shape {
	return shape{name: "planted block", draw: func(_ int, seed int64) (*bipartite.Graph, Params) {
		return randomPruneGraph(seed), params(k1, k2, alpha)
	}}
}

var (
	// randomThresholds is randomPruneGraph under k1, k2 ∈ [4, 8] and
	// α ∈ [0.6, 1]: α < 1 and K1 ≠ K2 in most draws.
	randomThresholds = shape{name: "planted block, random thresholds", draw: func(_ int, seed int64) (*bipartite.Graph, Params) {
		rng := rand.New(rand.NewSource(seed))
		return randomPruneGraph(seed), params(4+rng.Intn(5), 4+rng.Intn(5), 0.6+0.1*float64(rng.Intn(5)))
	}}
	tightBlocks = shape{name: "tight blocks", draw: func(_ int, seed int64) (*bipartite.Graph, Params) {
		return tightBlocksGraph(seed)
	}}
	// hubLadder is ladderWithHub of random shape under α = ½ and
	// K1 = 2m+1 ≠ K2 = k, about layers/2 ≥ 3 rounds, so certificates made
	// after a removal are consulted again. Beside it stands a (2m+2)²
	// biclique: a second shard that converges in round 1, and the larger
	// group though the smaller component, so shard order and group order
	// differ.
	hubLadder = shape{name: "hub ladder", draw: func(_ int, seed int64) (*bipartite.Graph, Params) {
		rng := rand.New(rand.NewSource(seed))
		m, k := 3+rng.Intn(4), 3+rng.Intn(4)
		k1, k2, alpha := synth.LadderParams(m, k)
		return ladderWithHub(6+rng.Intn(10), m, k, 2*m+2), params(k1, k2, alpha)
	}}
	// witnessChain is a chain of 4–12 users under k1 = 3, k2 = 4, α = 0.3
	// (a user pair needs 2 common items, an item pair 1 common user). Each
	// pair of neighbours shares two items of its own, so an inner user
	// passes with exactly k1 witnesses, itself and its two neighbours, and
	// the end users fail. An end user's items live on through the next
	// user, which so loses no neighbour, only its k1-th witness, and must
	// fail the next round: the chain unravels one user from each end per
	// round. A certificate that took a dead witness on trust would stop it
	// after round 1. IDs are shuffled per draw.
	witnessChain = shape{name: "witness chain", draw: func(_ int, seed int64) (*bipartite.Graph, Params) {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		users, items := rng.Perm(n), rng.Perm(2*(n-1))
		b := bipartite.NewBuilder(n, len(items))
		for i := 0; i+1 < n; i++ {
			for _, v := range items[2*i : 2*i+2] {
				b.Add(bipartite.NodeID(users[i]), bipartite.NodeID(v), 1)
				b.Add(bipartite.NodeID(users[i+1]), bipartite.NodeID(v), 1)
			}
		}
		return b.Build(), params(3, 4, 0.3)
	}}
	// corpus is the seeded synth.EquivCorpus marketplaces, workload i for
	// draw i, under equivParams: many-component residuals, one-component
	// residuals and empty results.
	corpus = shape{name: "workload", sub: true, draw: func(i int, _ int64) (*bipartite.Graph, Params) {
		return corpusData()[i].Graph, equivParams(i, synth.EquivCorpus()[i])
	}}
)

// corpusData generates the corpus once for every test that reads it; no
// test mutates its graphs.
var corpusData = sync.OnceValue(func() []*synth.Dataset {
	var out []*synth.Dataset
	for _, cfg := range synth.EquivCorpus() {
		out = append(out, synth.MustGenerate(cfg))
	}
	return out
})

// equivParams varies the detection knobs across the corpus so the cases
// cover α < 1, relaxed size bounds, and the tiny marketplace's hot range.
func equivParams(i int, cfg synth.Config) Params {
	p := smallParams()
	switch i % 3 {
	case 1:
		p.Alpha = 0.8
	case 2:
		p.K1, p.K2 = 8, 8
	}
	if cfg.NumUsers < 1000 {
		p.THot = 200
	}
	return p
}

// randomPruneGraph builds a random bipartite graph mixing a planted dense
// block with noise.
func randomPruneGraph(seed int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(60, 60)
	// Planted block with random size 6..14.
	n := 6 + rng.Intn(9)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.9 {
				b.Add(bipartite.NodeID(u), bipartite.NodeID(v), uint32(1+rng.Intn(15)))
			}
		}
	}
	for e := 0; e < 250; e++ {
		b.Add(bipartite.NodeID(rng.Intn(60)), bipartite.NodeID(rng.Intn(60)), uint32(1+rng.Intn(3)))
	}
	return b.Build()
}

// ladderWithHub is synth.LadderGraph(layers, m, k) plus a hub: an n×n
// biclique appended after the ladder IDs, with ladder user u also clicking
// hub item u mod n. Under LadderParams(m, k), with n = 2m+1, the ladder peels
// as it does alone (a ladder user shares one hub item with a hub user, fewer
// than ⌈k/2⌉) while the hub survives. Every ladder user that dies takes a
// live user from a hub item, so the hub users sit two hops from the removal
// with their own items intact, and survive on their certificates while the
// hub items are walked again. A disjoint side×side biclique follows the hub.
func ladderWithHub(layers, m, k, side int) *bipartite.Graph {
	n := 2*m + 1
	ladder := synth.LadderGraph(layers, m, k)
	uOff, vOff := ladder.NumUsers(), ladder.NumItems()
	b := bipartite.NewBuilder(uOff+n+side, vOff+n+side)
	addLiveEdges(b, ladder)
	for u := 0; u < uOff; u++ {
		b.Add(bipartite.NodeID(u), bipartite.NodeID(vOff+u%n), 1)
	}
	for _, blk := range [][2]int{{0, n}, {n, n + side}} {
		for u := blk[0]; u < blk[1]; u++ {
			for v := blk[0]; v < blk[1]; v++ {
				b.Add(bipartite.NodeID(uOff+u), bipartite.NodeID(vOff+v), 1)
			}
		}
	}
	return b.Build()
}

// tightBlocksGraph draws thresholds and a 40×40 graph of 2–5 overlapping
// near-bicliques sized at those thresholds, plus noise. A block vertex then
// has barely k qualifying partners, so losing one partner — with its own
// neighbourhood intact — is enough to make it fail: the case a certificate
// must not paper over.
func tightBlocksGraph(seed int64) (*bipartite.Graph, Params) {
	rng := rand.New(rand.NewSource(seed))
	p := params(3+rng.Intn(4), 3+rng.Intn(4), 0.5+0.1*float64(rng.Intn(6)))
	const n = 40
	b := bipartite.NewBuilder(n, n)
	for blocks := 2 + rng.Intn(4); blocks > 0; blocks-- {
		su, si := p.K1+rng.Intn(3), p.K2+rng.Intn(3)
		u0, v0 := rng.Intn(n-su), rng.Intn(n-si)
		density := 0.6 + 0.4*rng.Float64()
		for u := u0; u < u0+su; u++ {
			for v := v0; v < v0+si; v++ {
				if rng.Float64() < density {
					b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 1)
				}
			}
		}
	}
	for e := 0; e < 30; e++ {
		b.Add(bipartite.NodeID(rng.Intn(n)), bipartite.NodeID(rng.Intn(n)), 1)
	}
	return b.Build(), p
}

// The cases.

// One frontier over the whole graph — what a one-component residual runs
// inside its shard — isolating the frontier from the sharding. The witness
// chain pins that a vertex whose witness died is walked again though it
// lost no neighbour.
func TestPropertyFrontierMatchesRescanOracle(t *testing.T) {
	fixRun(t,
		fixCase{shape: plantedBlock(6, 6, 0.8), via: viaFrontier, draws: 40},
		fixCase{shape: witnessChain, via: viaFrontier, draws: 20, certify: true, minRounds: 3})
}

// Survivor certificates change what the frontier walks, never what it
// decides. Every shape must certify, or the case proves nothing.
func TestPropertyCertifiedFrontierMatchesRescanOracle(t *testing.T) {
	fixRun(t,
		fixCase{shape: randomThresholds, via: viaFrontier, draws: 300, certify: true},
		fixCase{shape: tightBlocks, via: viaFrontier, draws: 300, certify: true},
		fixCase{shape: hubLadder, via: viaFrontier, draws: 300, certify: true, minRounds: 3})
}

// The sharded fixpoint lands where the serial one does at every worker
// count, on one-component and on rounds-heavy residuals.
func TestPropertyFixpointWorkerIndependent(t *testing.T) {
	fixRun(t,
		fixCase{shape: plantedBlock(6, 6, 0.8), via: viaPrune, draws: 25},
		fixCase{shape: hubLadder, via: viaPrune, draws: 25, minRounds: 3})
}

// Per-shard PruneStats merge into the whole graph's: removal counts sum and
// Rounds is the max over components of their local rounds, on residuals of
// several components.
func TestPropertyShardMergedStatsMatchWholeGraph(t *testing.T) {
	fixRun(t, fixCase{shape: tightBlocks, via: viaPrune, draws: 30})
}

// Extraction through the shards returns the serial group sequence.
func TestPropertyShardedExtractionMatchesSerial(t *testing.T) {
	fixRun(t,
		fixCase{shape: plantedBlock(6, 6, 0.8), via: viaExtract, draws: 30},
		fixCase{shape: tightBlocks, via: viaExtract, draws: 30},
		fixCase{shape: hubLadder, via: viaExtract, draws: 10})
}

// Every extracted group meets the Definition 3 size bounds, and groups are
// vertex-disjoint (the driver checks both on every extraction).
func TestPropertyExtractedGroupsDisjointAndSized(t *testing.T) {
	fixRun(t, fixCase{shape: plantedBlock(5, 5, 0.8), via: viaExtract, draws: 30})
}

// Not just the reported groups but the residual graph itself.
func TestShardedPruneLeavesOracleResidual(t *testing.T) {
	fixRun(t, fixCase{shape: corpus, via: viaPrune, draws: 6})
}

// The whole Fig 4 pipeline on at least 20 marketplaces.
func TestShardedDetectionMatchesSerialOracle(t *testing.T) {
	if n := len(corpusData()); n < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", n)
	}
	fixRun(t, fixCase{shape: corpus, via: viaDetect, draws: len(corpusData())})
}

// The metamorphic relations on the corpus's marketplaces: relabelling user
// and item IDs, and the disjoint union with the next workload (the lemma
// under component sharding, DESIGN §9), give the same member sets, scores,
// statistics and ranks at every worker count.
func TestMetamorphicRelationsHold(t *testing.T) {
	relabelled, united := corpus, corpus
	relabelled.name, united.name = "relabelled workload", "united workload"
	n := len(corpusData())
	fixRun(t, fixCase{shape: relabelled, via: viaRelabel, draws: n}, fixCase{shape: united, via: viaUnion, draws: n})
}

// TestReusedDetectorRepeatsColdRun pins that nothing a Detector or its
// pooled scratch (the prune workers' buffers, the screening membership
// marks) keeps between detections changes a verdict. Per workload one
// Detector runs a cold detection, a warm one over the same graph, one over
// the previous workload's graph (pooled scratch sized for another shape)
// and the first graph again: every run reproduces the reference model and
// each run's counters match the cold run's.
func TestReusedDetectorRepeatsColdRun(t *testing.T) {
	groups := 0
	var prev *bipartite.Graph
	for i := range corpusData() {
		g, p := corpus.draw(i, 0)
		p.Workers = 1 + i%3
		oracle := refDetect(g, p)
		groups += len(oracle.Groups)

		det := &Detector{Params: p}
		run := func(label string, g *bipartite.Graph, want *detect.Result) map[string]int64 {
			t.Helper()
			det.Obs = obs.NewObserver("core")
			res, err := det.Detect(g)
			if err != nil {
				t.Fatalf("workload %d %s: %v", i, label, err)
			}
			if want != nil {
				if msg := resultDiff(res, want); msg != "" {
					t.Fatalf("workload %d %s: %s", i, label, msg)
				}
			}
			return det.Obs.Metrics.Counters()
		}
		cold := run("cold", g, oracle)
		check := func(label string) {
			t.Helper()
			if counters := run(label, g, oracle); !maps.Equal(counters, cold) {
				t.Fatalf("workload %d %s: counters diverged:\ncold: %v\nthis: %v", i, label, cold, counters)
			}
		}
		check("warm")
		if prev != nil {
			run("other shape", prev, nil)
			check("after another shape")
		}
		prev = g
	}
	if groups == 0 {
		t.Fatal("the oracle found no groups anywhere; the test would be vacuous")
	}
}
