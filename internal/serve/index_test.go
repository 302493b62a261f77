package serve

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// twoGroupData builds a small hand-checkable outcome: group 1 = users
// {1,2} × items {10,11}, group 2 = users {2,3} × items {11,12}. User 2 and
// item 11 sit in both groups; user 1/item 10 only in group 1.
func twoGroupData() Data {
	return Data{
		Groups: []Group{
			{Users: []uint32{1, 2}, Items: []uint32{10, 11}, Score: 9.5},
			{Users: []uint32{2, 3}, Items: []uint32{11, 12}, Score: 4.0},
		},
		RankedUsers: []Scored{{ID: 2, Score: 4}, {ID: 1, Score: 2}, {ID: 3, Score: 2}},
		RankedItems: []Scored{{ID: 11, Score: 3}, {ID: 10, Score: 2}, {ID: 12, Score: 2}},
		THot:        200,
		TClick:      12,
	}
}

func TestBuildVerdicts(t *testing.T) {
	ix := Build(twoGroupData())

	u := ix.User(2)
	if !u.Suspicious || u.Score != 4 {
		t.Fatalf("user 2 = %+v, want suspicious score 4", u)
	}
	if len(u.Groups) != 2 || u.Groups[0] != 1 || u.Groups[1] != 2 {
		t.Fatalf("user 2 groups = %v, want [1 2] (sorted, 1-based)", u.Groups)
	}
	if v := ix.User(99); v.Suspicious || v.Score != 0 || v.Groups != nil {
		t.Fatalf("unknown user = %+v, want clean zero verdict", v)
	}
	if v := ix.Item(12); !v.Suspicious || len(v.Groups) != 1 || v.Groups[0] != 2 {
		t.Fatalf("item 12 = %+v, want suspicious in group 2 only", v)
	}

	// Pair verdicts: same-group pair flagged, cross-group pair not — user 1
	// (group 1 only) clicking item 12 (group 2 only) is two independently
	// suspicious nodes, not forged group traffic.
	if p := ix.Pair(1, 10); !p.InGroup || len(p.Groups) != 1 || p.Groups[0] != 1 {
		t.Fatalf("pair(1,10) = %+v, want in group 1", p)
	}
	if p := ix.Pair(1, 12); p.InGroup || p.Groups != nil {
		t.Fatalf("cross-group pair(1,12) = %+v, want not in-group", p)
	}
	if p := ix.Pair(2, 11); !p.InGroup || len(p.Groups) != 2 {
		t.Fatalf("pair(2,11) = %+v, want in both groups", p)
	}
	if p := ix.Pair(1, 99); p.InGroup {
		t.Fatalf("pair with unknown item = %+v, want clean", p)
	}

	if n := ix.NumGroups(); n != 2 {
		t.Fatalf("NumGroups = %d, want 2", n)
	}
	if n := ix.NumSuspiciousUsers(); n != 3 {
		t.Fatalf("NumSuspiciousUsers = %d, want 3", n)
	}
	if g, ok := ix.Group(1); !ok || g.Score != 9.5 {
		t.Fatalf("Group(1) = %+v %v, want score 9.5", g, ok)
	}
	if _, ok := ix.Group(0); ok {
		t.Fatal("Group(0) exists; indices are 1-based")
	}
	if _, ok := ix.Group(3); ok {
		t.Fatal("Group(3) exists beyond the 2 groups")
	}
}

// TestRankedOnlyNodeStillSuspicious: a ranked node missing from every
// group keeps an entry instead of being silently dropped.
func TestRankedOnlyNodeStillSuspicious(t *testing.T) {
	ix := Build(Data{RankedUsers: []Scored{{ID: 5, Score: 1.5}}})
	v := ix.User(5)
	if !v.Suspicious || v.Score != 1.5 || len(v.Groups) != 0 {
		t.Fatalf("ranked-only user = %+v, want suspicious, score 1.5, no groups", v)
	}
}

// TestNilIndexClean: the nil index (nothing published yet) answers every
// query with the clean zero verdict instead of panicking.
func TestNilIndexClean(t *testing.T) {
	var ix *Index
	if v := ix.User(1); v.Suspicious {
		t.Fatalf("nil index user verdict = %+v", v)
	}
	if v := ix.Item(1); v.Suspicious {
		t.Fatalf("nil index item verdict = %+v", v)
	}
	if p := ix.Pair(1, 2); p.InGroup {
		t.Fatalf("nil index pair verdict = %+v", p)
	}
	if _, ok := ix.Group(1); ok {
		t.Fatal("nil index has a group")
	}
	if ix.NumGroups() != 0 || ix.NumSuspiciousUsers() != 0 || ix.NumSuspiciousItems() != 0 {
		t.Fatal("nil index reports nonzero sizes")
	}
	if ix.Epoch() != 0 || ix.Partial() || !ix.At().IsZero() {
		t.Fatal("nil index reports publication state")
	}
}

func TestStorePublishEpochs(t *testing.T) {
	s := NewStore(nil)
	if s.Current() != nil || s.Epoch() != 0 {
		t.Fatal("fresh store is not empty")
	}
	if err := s.Publish(Build(twoGroupData())); err != nil {
		t.Fatal(err)
	}
	ix1 := s.Current()
	if ix1 == nil || ix1.Epoch() != 1 || ix1.At().IsZero() {
		t.Fatalf("first publish: epoch %d at %v, want epoch 1 with timestamp", ix1.Epoch(), ix1.At())
	}
	if err := s.Publish(Build(Data{})); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().Epoch(); got != 2 {
		t.Fatalf("second publish epoch = %d, want 2", got)
	}
	// The first epoch's index is immutable: a reader that captured it
	// mid-request still sees epoch 1 whole.
	if ix1.Epoch() != 1 || ix1.NumGroups() != 2 {
		t.Fatalf("captured epoch-1 index changed after swap: epoch %d, %d groups", ix1.Epoch(), ix1.NumGroups())
	}
}

// TestPublishFaultKeepsOldEpoch arms the serve.index fault site: the
// failed swap must leave the previous epoch serving untouched, count the
// failure, and let the next publish proceed (with the epoch sequence
// unbroken — failed publishes consume no epoch).
func TestPublishFaultKeepsOldEpoch(t *testing.T) {
	defer faultinject.Reset()
	o := obs.NewObserver("test")
	s := NewStore(o)
	if err := s.Publish(Build(twoGroupData())); err != nil {
		t.Fatal(err)
	}

	swapErr := errors.New("injected swap failure")
	faultinject.Arm("serve.index", faultinject.Fault{Err: swapErr, Times: 1})
	if err := s.Publish(Build(Data{})); !errors.Is(err, swapErr) {
		t.Fatalf("faulted publish returned %v, want %v", err, swapErr)
	}

	ix := s.Current()
	if ix.Epoch() != 1 || ix.NumGroups() != 2 {
		t.Fatalf("after failed swap: epoch %d with %d groups, want old epoch 1 with 2 groups", ix.Epoch(), ix.NumGroups())
	}
	if got := o.Counter("serve.swap.failures").Value(); got != 1 {
		t.Fatalf("serve.swap.failures = %d, want 1", got)
	}

	if err := s.Publish(Build(Data{})); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().Epoch(); got != 2 {
		t.Fatalf("epoch after recovery = %d, want 2 (failed publish consumed no epoch)", got)
	}
	if got := o.Counter("serve.swaps").Value(); got != 2 {
		t.Fatalf("serve.swaps = %d, want 2", got)
	}
}

// TestConcurrentQueriesDuringSwaps is the torn-read test: readers hammer
// the store while a publisher swaps epochs as fast as it can. Each
// published index encodes its sequence number redundantly (user 1's score
// == THot == group count's score); a torn read — fields from two epochs —
// would break the redundancy. Run under -race this also proves the
// pointer handoff is properly synchronized.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	const (
		readers  = 8
		epochs   = 500
		queryID  = 1
		pairItem = 10
	)
	s := NewStore(nil)

	// seqData builds an index whose every queryable field encodes seq.
	seqData := func(seq int) Data {
		return Data{
			Groups:      []Group{{Users: []uint32{queryID}, Items: []uint32{pairItem}, Score: float64(seq)}},
			RankedUsers: []Scored{{ID: queryID, Score: float64(seq)}},
			RankedItems: []Scored{{ID: pairItem, Score: float64(seq)}},
			THot:        uint64(seq),
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := s.Current()
				if ix == nil {
					continue
				}
				// Epochs observed by one reader are monotone.
				e := ix.Epoch()
				if e < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", e, lastEpoch)
					return
				}
				lastEpoch = e
				// Internal consistency: every field of this index agrees on
				// its sequence number.
				u := ix.User(queryID)
				i := ix.Item(pairItem)
				g, ok := ix.Group(1)
				if !ok || !u.Suspicious || !i.Suspicious {
					t.Errorf("epoch %d: missing verdicts (group ok=%v user=%+v item=%+v)", e, ok, u, i)
					return
				}
				if u.Score != i.Score || u.Score != g.Score || uint64(u.Score) != ix.data.THot {
					t.Errorf("torn read at epoch %d: user %.0f item %.0f group %.0f thot %d",
						e, u.Score, i.Score, g.Score, ix.data.THot)
					return
				}
				if p := ix.Pair(queryID, pairItem); !p.InGroup {
					t.Errorf("epoch %d: pair verdict lost", e)
					return
				}
			}
		}()
	}

	for seq := 1; seq <= epochs; seq++ {
		if err := s.Publish(Build(seqData(seq))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.Current().Epoch(); got != epochs {
		t.Fatalf("final epoch = %d, want %d", got, epochs)
	}
}

// TestBuildIdempotent: compiling the same Data twice yields indexes that
// answer identically (Build is pure), on the hand-checked outcome and on
// random ones.
func TestBuildIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := []Data{twoGroupData()}
	for range 50 {
		inputs = append(inputs, randomData(rng, 12))
	}
	for trial, d := range inputs {
		a, b := Build(d), Build(d)
		for id := uint32(0); id < 16; id++ {
			if av, bv := a.User(id), b.User(id); !reflect.DeepEqual(av, bv) {
				t.Fatalf("input %d: user %d differs across recompiles: %+v vs %+v", trial, id, av, bv)
			}
			if av, bv := a.Item(id), b.Item(id); !reflect.DeepEqual(av, bv) {
				t.Fatalf("input %d: item %d differs across recompiles: %+v vs %+v", trial, id, av, bv)
			}
			for item := uint32(0); item < 16; item++ {
				if av, bv := a.Pair(id, item), b.Pair(id, item); !reflect.DeepEqual(av, bv) {
					t.Fatalf("input %d: pair (%d, %d) differs across recompiles: %+v vs %+v", trial, id, item, av, bv)
				}
			}
		}
	}
}

// mapIndex is the oracle for Build's flat layout: the map-per-node index
// Build compiled before, each node's groups appended per membership, sorted,
// then overlaid with the ranked scores.
type mapIndex struct{ users, items map[uint32]mapEntry }

type mapEntry struct {
	groups []int
	score  float64
}

func buildMapOracle(d Data) mapIndex {
	ix := mapIndex{users: map[uint32]mapEntry{}, items: map[uint32]mapEntry{}}
	for gi, g := range d.Groups {
		for _, u := range g.Users {
			e := ix.users[u]
			e.groups = append(e.groups, gi+1)
			ix.users[u] = e
		}
		for _, v := range g.Items {
			e := ix.items[v]
			e.groups = append(e.groups, gi+1)
			ix.items[v] = e
		}
	}
	for _, m := range []map[uint32]mapEntry{ix.users, ix.items} {
		for id, e := range m {
			sort.Ints(e.groups)
			m[id] = e
		}
	}
	for _, s := range d.RankedUsers {
		e := ix.users[s.ID]
		e.score = s.Score
		ix.users[s.ID] = e
	}
	for _, s := range d.RankedItems {
		e := ix.items[s.ID]
		e.score = s.Score
		ix.items[s.ID] = e
	}
	return ix
}

func (m mapIndex) node(side map[uint32]mapEntry, id uint32) NodeVerdict {
	e, ok := side[id]
	if !ok {
		return NodeVerdict{}
	}
	return NodeVerdict{Suspicious: true, Score: e.score, Groups: e.groups}
}

func (m mapIndex) pair(user, item uint32) PairVerdict {
	ue, ok := m.users[user]
	if !ok {
		return PairVerdict{}
	}
	ve, ok := m.items[item]
	if !ok {
		return PairVerdict{}
	}
	var shared []int
	i, j := 0, 0
	for i < len(ue.groups) && j < len(ve.groups) {
		switch {
		case ue.groups[i] < ve.groups[j]:
			i++
		case ue.groups[i] > ve.groups[j]:
			j++
		default:
			shared = append(shared, ue.groups[i])
			i++
			j++
		}
	}
	return PairVerdict{InGroup: len(shared) > 0, Groups: shared}
}

// randomData draws an outcome with every irregularity Build must keep:
// nodes in several groups, a member listed twice in one group, empty
// groups, members nobody ranked, ranked nodes in no group, and IDs ranked
// twice (the last score wins).
func randomData(rng *rand.Rand, ids int) Data {
	var d Data
	draw := func(n int) []uint32 {
		out := make([]uint32, 0, n)
		for len(out) < n {
			out = append(out, uint32(rng.Intn(ids)))
		}
		return out
	}
	for range rng.Intn(6) {
		d.Groups = append(d.Groups, Group{Users: draw(rng.Intn(6)), Items: draw(rng.Intn(6)), Score: rng.Float64()})
	}
	rankedUsers, rankedItems := draw(rng.Intn(ids)), draw(rng.Intn(ids))
	for _, id := range rankedUsers {
		d.RankedUsers = append(d.RankedUsers, Scored{ID: id, Score: float64(rng.Intn(4))})
	}
	for _, id := range rankedItems {
		d.RankedItems = append(d.RankedItems, Scored{ID: id, Score: rng.Float64()})
	}
	return d
}

// TestBuildMatchesMapOracle: the flat index answers every query exactly as
// the map-per-node index did, nil versus empty Groups included, and a
// caller appending to a returned Groups cannot change the index.
func TestBuildMatchesMapOracle(t *testing.T) {
	const ids = 24 // IDs ids.. are misses
	rng := rand.New(rand.NewSource(7))
	for trial := range 400 {
		d := randomData(rng, ids)
		ix, want := Build(d), buildMapOracle(d)
		check := func(when string) {
			t.Helper()
			for id := uint32(0); id < ids+4; id++ {
				if got, w := ix.User(id), want.node(want.users, id); !reflect.DeepEqual(got, w) {
					t.Fatalf("trial %d %s: User(%d) = %#v, oracle %#v", trial, when, id, got, w)
				}
				if got, w := ix.Item(id), want.node(want.items, id); !reflect.DeepEqual(got, w) {
					t.Fatalf("trial %d %s: Item(%d) = %#v, oracle %#v", trial, when, id, got, w)
				}
				for item := uint32(0); item < ids+4; item++ {
					if got, w := ix.Pair(id, item), want.pair(id, item); !reflect.DeepEqual(got, w) {
						t.Fatalf("trial %d %s: Pair(%d, %d) = %#v, oracle %#v", trial, when, id, item, got, w)
					}
				}
			}
			if ix.NumSuspiciousUsers() != len(want.users) || ix.NumSuspiciousItems() != len(want.items) {
				t.Fatalf("trial %d %s: %d/%d suspicious, oracle %d/%d", trial, when,
					ix.NumSuspiciousUsers(), ix.NumSuspiciousItems(), len(want.users), len(want.items))
			}
			for n := -1; n <= len(d.Groups)+1; n++ {
				g, ok := ix.Group(n)
				if ok != (n >= 1 && n <= len(d.Groups)) || ok && !reflect.DeepEqual(g, d.Groups[n-1]) {
					t.Fatalf("trial %d %s: Group(%d) = %+v, %v", trial, when, n, g, ok)
				}
			}
		}
		check("built")
		for id := uint32(0); id < ids; id++ {
			for _, groups := range [][]int{ix.User(id).Groups, ix.Item(id).Groups} {
				if len(groups) > 0 {
					_ = append(groups, -1)
				}
			}
		}
		check("after appends to returned groups")
	}
}

// blocksData is the blocks_resweep epoch's shape: 24 disjoint bicliques of
// 600 users × 16 items, every member ranked.
func blocksData() Data {
	const groups, users, items = 24, 600, 16
	var d Data
	for g := range groups {
		grp := Group{Score: float64(items)}
		for u := range users {
			id := uint32(g*users + u)
			grp.Users = append(grp.Users, id)
			d.RankedUsers = append(d.RankedUsers, Scored{ID: id, Score: items})
		}
		for v := range items {
			id := uint32(g*items + v)
			grp.Items = append(grp.Items, id)
			d.RankedItems = append(d.RankedItems, Scored{ID: id, Score: items})
		}
		d.Groups = append(d.Groups, grp)
	}
	return d
}

func BenchmarkBuild(b *testing.B) {
	d := blocksData()
	b.ReportAllocs()
	for b.Loop() {
		Build(d)
	}
}

// NumSuspiciousUsers returns the number of distinct suspicious users.
func (ix *Index) NumSuspiciousUsers() int {
	if ix == nil {
		return 0
	}
	return len(ix.users.slot)
}

// NumSuspiciousItems returns the number of distinct suspicious items.
func (ix *Index) NumSuspiciousItems() int {
	if ix == nil {
		return 0
	}
	return len(ix.items.slot)
}
