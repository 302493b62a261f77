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
	"sort"
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

// nodeEntry is one suspicious node's verdict material: its 1-based group
// memberships (sorted ascending) and its risk score.
type nodeEntry struct {
	groups []int
	score  float64
}

// Index is an immutable verdict index over one detection outcome. All
// methods are safe for unbounded concurrent use and never allocate on the
// clean-verdict path; a nil *Index answers every query with the clean
// verdict (no detection has been published yet).
type Index struct {
	data  Data
	users map[uint32]nodeEntry
	items map[uint32]nodeEntry

	// epoch and at are stamped by Store.Publish; 0/zero before
	// publication. They are written once, before the atomic pointer swap
	// makes the index visible, and never after.
	epoch uint64
	at    time.Time
}

// Build compiles a Data into an Index. The index references the Data's
// slices without copying; callers must not mutate them afterwards.
// Building is pure: the same Data always compiles to an index giving the
// same answers (the recompile-idempotence property of the equivalence
// harness).
func Build(d Data) *Index {
	ix := &Index{
		data:  d,
		users: make(map[uint32]nodeEntry, len(d.RankedUsers)),
		items: make(map[uint32]nodeEntry, len(d.RankedItems)),
	}
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
	for _, m := range []map[uint32]nodeEntry{ix.users, ix.items} {
		for id, e := range m {
			sort.Ints(e.groups)
			m[id] = e
		}
	}
	// Overlay risk scores. Ranked nodes are exactly the group-member union
	// in a well-formed report, but a ranked node missing from every group
	// still gets an entry (suspicious with no group) rather than being
	// silently dropped.
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
func (ix *Index) User(id uint32) NodeVerdict { return nodeVerdictOf(ix, ix.usersMap(), id) }

// Item returns the verdict for an item ID. Unknown IDs are clean.
func (ix *Index) Item(id uint32) NodeVerdict { return nodeVerdictOf(ix, ix.itemsMap(), id) }

func (ix *Index) usersMap() map[uint32]nodeEntry {
	if ix == nil {
		return nil
	}
	return ix.users
}

func (ix *Index) itemsMap() map[uint32]nodeEntry {
	if ix == nil {
		return nil
	}
	return ix.items
}

func nodeVerdictOf(ix *Index, m map[uint32]nodeEntry, id uint32) NodeVerdict {
	e, ok := m[id]
	if !ok {
		return NodeVerdict{}
	}
	return NodeVerdict{Suspicious: true, Score: e.score, Groups: e.groups}
}

// Pair returns the co-click verdict for a (user, item) pair: InGroup iff
// some single group contains both. Either side unknown is clean.
func (ix *Index) Pair(user, item uint32) PairVerdict {
	if ix == nil {
		return PairVerdict{}
	}
	ue, ok := ix.users[user]
	if !ok {
		return PairVerdict{}
	}
	ve, ok := ix.items[item]
	if !ok {
		return PairVerdict{}
	}
	// Both membership lists are sorted ascending; intersect by merge.
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

// NumSuspiciousUsers returns the number of distinct suspicious users.
func (ix *Index) NumSuspiciousUsers() int {
	if ix == nil {
		return 0
	}
	return len(ix.users)
}

// NumSuspiciousItems returns the number of distinct suspicious items.
func (ix *Index) NumSuspiciousItems() int {
	if ix == nil {
		return 0
	}
	return len(ix.items)
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
		Users:  ix.NumSuspiciousUsers(),
		Items:  ix.NumSuspiciousItems(),
		Reason: reason,
	})
	return nil
}
