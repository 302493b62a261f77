// Package serve is the online verdict-serving layer of the RICD pipeline:
// the consumption path that lets a live I2I recommender ask, per
// impression, whether a user, an item, or a user-item co-click belongs to
// a detected "Ride Item's Coattails" group (the risk-control loop of the
// paper's Fig 1).
//
// The core is an immutable Index compiled from one detection outcome and
// published atomically through a Store (an atomic.Pointer swap) every time
// the detector finishes a sweep. Readers are completely lock-free: a query
// captures one *Index pointer and answers everything from it, so it can
// never observe a half-built index or a mix of two epochs — even while the
// next sweep's index is being compiled and swapped in.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Group and Scored are the detection outcome's own records (a group with
// its risk score and forensic statistics; a node with its risk score): the
// index serves them as identified, without a copy.
type (
	Group  = detect.Group
	Scored = detect.Scored
)

// Data is the detection outcome an Index is compiled from — the identified
// groups and rankings of a detect.Result or facade Report plus the
// thresholds. Build copies nothing: the slices are referenced as-is and must
// not be mutated afterwards.
type Data struct {
	Groups      []Group
	RankedUsers []Scored
	RankedItems []Scored
	// THot and TClick are the thresholds the detection ran with.
	THot   uint64
	TClick uint32
	// Partial marks an index compiled from a cut-short report; queries
	// still answer, but /healthz surfaces the flag so consumers can widen
	// their own margins.
	Partial bool
}

// Index is an immutable verdict index over one detection outcome. All
// methods are safe for unbounded concurrent use and never allocate on the
// clean-verdict path; a nil *Index answers every query with the clean
// verdict (no detection has been published yet).
type Index struct {
	data  Data
	users side
	items side

	// epoch and at are stamped by Store.Publish; 0/zero before
	// publication. They are written once, before the atomic pointer swap
	// makes the index visible, and never after.
	epoch uint64
	at    time.Time
}

// side is one node kind's verdict material in flat arrays. slot numbers the
// suspicious IDs; slot s has risk score score[s] and its 1-based group
// memberships, ascending, in arena[off[s]:off[s+1]].
type side struct {
	slot  map[uint32]int32
	score []float64
	off   []int32
	arena []int
}

// Build compiles a Data into an Index. The index references the Data's
// slices without copying; callers must not mutate them afterwards.
// Building is pure: the same Data always compiles to an index giving the
// same answers (the recompile-idempotence property of the equivalence
// harness).
func Build(d Data) *Index {
	return &Index{
		data:  d,
		users: buildSide(d.Groups, d.RankedUsers, func(g *Group) []uint32 { return g.Users }),
		items: buildSide(d.Groups, d.RankedItems, func(g *Group) []uint32 { return g.Items }),
	}
}

// buildSide indexes one node kind. A ranked node in no group still gets a
// slot (suspicious with no group), a member nobody ranked scores 0, and a
// node ranked twice keeps its last score. The groups are walked in index
// order, so every list comes out ascending without a sort.
func buildSide(groups []Group, ranked []Scored, members func(*Group) []uint32) side {
	sd := side{
		slot:  make(map[uint32]int32, len(ranked)),
		score: make([]float64, 0, len(ranked)),
		off:   make([]int32, 1, len(ranked)+1),
	}
	at := func(id uint32) int32 {
		s, ok := sd.slot[id]
		if !ok {
			s = int32(len(sd.score))
			sd.slot[id] = s
			sd.score = append(sd.score, 0)
			sd.off = append(sd.off, 0)
		}
		return s
	}
	// at may grow the slices, so it runs before they are indexed.
	for _, r := range ranked {
		s := at(r.ID)
		sd.score[s] = r.Score
	}
	for gi := range groups {
		for _, id := range members(&groups[gi]) {
			s := at(id)
			sd.off[s+1]++
		}
	}
	for s := 1; s < len(sd.off); s++ {
		sd.off[s] += sd.off[s-1]
	}
	// off[s] is slot s's write cursor, which ends at off[s+1]; shifting
	// the offsets up by one restores them.
	sd.arena = make([]int, sd.off[len(sd.off)-1])
	for gi := range groups {
		for _, id := range members(&groups[gi]) {
			s := sd.slot[id]
			sd.arena[sd.off[s]] = gi + 1
			sd.off[s]++
		}
	}
	copy(sd.off[1:], sd.off)
	sd.off[0] = 0
	return sd
}

// verdict looks id up; unknown IDs are clean.
func (sd *side) verdict(id uint32) NodeVerdict {
	s, ok := sd.slot[id]
	if !ok {
		return NodeVerdict{}
	}
	return NodeVerdict{Suspicious: true, Score: sd.score[s], Groups: sd.groups(s)}
}

// groups returns slot s's memberships, nil for a groupless node, capped so
// that an append by a caller cannot reach the next slot's list.
func (sd *side) groups(s int32) []int {
	lo, hi := sd.off[s], sd.off[s+1]
	if lo == hi {
		return nil
	}
	return sd.arena[lo:hi:hi]
}

// NodeVerdict answers "is this node part of a detected attack group".
type NodeVerdict struct {
	// Suspicious is true when the node appears in any detected group (or
	// in the risk ranking). A clean verdict has zero Score and nil Groups.
	Suspicious bool
	// Score is the identification-module risk score (0 when clean).
	Score float64
	// Groups are the 1-based indices of the groups containing the node,
	// ascending. Shared with the index — callers must not mutate.
	Groups []int
}

// PairVerdict answers "is this user-item co-click inside a detected
// group" — the per-impression question the I2I ranker asks before letting
// a co-click contribute to Eq 1.
type PairVerdict struct {
	// InGroup is true when some single detected group contains both the
	// user and the item: the co-click is forged group traffic, not two
	// independently suspicious nodes.
	InGroup bool
	// Groups are the 1-based indices of the groups containing the pair.
	Groups []int
}

// User returns the verdict for a user ID. Unknown IDs are clean.
func (ix *Index) User(id uint32) NodeVerdict {
	if ix == nil {
		return NodeVerdict{}
	}
	return ix.users.verdict(id)
}

// Item returns the verdict for an item ID. Unknown IDs are clean.
func (ix *Index) Item(id uint32) NodeVerdict {
	if ix == nil {
		return NodeVerdict{}
	}
	return ix.items.verdict(id)
}

// Pair returns the co-click verdict for a (user, item) pair: InGroup iff
// some single group contains both. Either side unknown is clean.
func (ix *Index) Pair(user, item uint32) PairVerdict {
	shared := ix.appendShared(nil, user, item)
	return PairVerdict{InGroup: len(shared) > 0, Groups: shared}
}

// appendShared appends the groups that contain both user and item to dst,
// ascending: Pair's Groups, into a buffer the caller may reuse.
func (ix *Index) appendShared(dst []int, user, item uint32) []int {
	if ix == nil {
		return dst
	}
	us, ok := ix.users.slot[user]
	if !ok {
		return dst
	}
	vs, ok := ix.items.slot[item]
	if !ok {
		return dst
	}
	// Both membership lists are sorted ascending; intersect by merge.
	ug, vg := ix.users.groups(us), ix.items.groups(vs)
	i, j := 0, 0
	for i < len(ug) && j < len(vg) {
		switch {
		case ug[i] < vg[j]:
			i++
		case ug[i] > vg[j]:
			j++
		default:
			dst = append(dst, ug[i])
			i++
			j++
		}
	}
	return dst
}

// Group returns the 1-based n'th detected group and whether it exists.
// Groups are numbered most suspicious first — the order core.Identify gives
// them, the same whichever detector call produced the outcome.
func (ix *Index) Group(n int) (Group, bool) {
	if ix == nil || n < 1 || n > len(ix.data.Groups) {
		return Group{}, false
	}
	return ix.data.Groups[n-1], true
}

// NumGroups returns the number of detected groups (0 for nil).
func (ix *Index) NumGroups() int {
	if ix == nil {
		return 0
	}
	return len(ix.data.Groups)
}

// Partial reports whether the index was compiled from a cut-short report.
func (ix *Index) Partial() bool {
	if ix == nil {
		return false
	}
	return ix.data.Partial
}

// Epoch returns the publication epoch stamped by Store.Publish (0 for an
// unpublished or nil index).
func (ix *Index) Epoch() uint64 {
	if ix == nil {
		return 0
	}
	return ix.epoch
}

// At returns when the index was published (zero for unpublished/nil).
func (ix *Index) At() time.Time {
	if ix == nil {
		return time.Time{}
	}
	return ix.at
}

// Store is the epoch-swapped publication point between the detector and
// the query handlers. Current is a single atomic pointer load — readers
// never block, never see a half-built index, and observe epochs
// monotonically. Publish is serialized internally (the detector publishes
// once per sweep; concurrent publishers are safe but ordered arbitrarily).
//
// The zero Store is ready to use and serves the nil (all-clean) index
// until the first Publish.
type Store struct {
	// Obs, when non-nil, receives serve.swaps / serve.swap.failures
	// counters, the serve.epoch gauge, and one serve.swap audit event per
	// publication. Set it before the first Publish.
	Obs *obs.Observer

	mu    sync.Mutex // serializes Publish (epoch assignment + swap)
	epoch uint64
	cur   atomic.Pointer[Index]
}

// NewStore returns an empty store publishing under the given observer
// (nil disables instrumentation).
func NewStore(o *obs.Observer) *Store { return &Store{Obs: o} }

// Current returns the most recently published index, or nil before the
// first publication. The returned index is immutable and safe to use for
// the whole lifetime of a request, however long the store moves on.
func (s *Store) Current() *Index {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// Epoch returns the epoch of the most recent successful publication (0
// before the first).
func (s *Store) Epoch() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Publish stamps ix with the next epoch and swaps it in atomically. On
// failure (the serve.index fault site, standing in for any future
// compile-and-swap I/O) the previous index keeps serving untouched and
// the failure is counted and audited — a broken sweep must degrade to
// stale verdicts, never to no verdicts.
func (s *Store) Publish(ix *Index) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := faultinject.ErrAt("serve.index"); err != nil {
		s.Obs.Counter("serve.swap.failures").Inc()
		s.Obs.Sink().Emit(obs.Event{Type: obs.EventIndexSwapFail, Reason: err.Error()})
		return err
	}
	s.epoch++
	ix.epoch = s.epoch
	ix.at = time.Now()
	s.cur.Store(ix)
	s.Obs.Counter("serve.swaps").Inc()
	s.Obs.Gauge("serve.epoch").Set(int64(s.epoch))
	reason := ""
	if ix.data.Partial {
		reason = "partial"
	}
	s.Obs.Sink().Emit(obs.Event{
		Type:   obs.EventIndexSwap,
		Round:  int(s.epoch),
		Groups: ix.NumGroups(),
		Users:  len(ix.users.slot),
		Items:  len(ix.items.slot),
		Reason: reason,
	})
	return nil
}
