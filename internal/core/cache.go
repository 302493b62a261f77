package core

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/bipartite"
)

// This file implements the cross-refresh component verdict cache (DESIGN.md
// §15). After the global core-prune fixpoint splits the residual into
// connected components, each compacted component is fingerprinted — a
// canonical 128-bit hash over its CSR rows plus the Params that affect its
// per-component output — and looked up here. A hit replays the component's
// pruning removals, extracted groups and screened groups from the cache,
// translated back through the shard's local→original ID maps, skipping
// square-pruning, extraction and screening for the component entirely. A
// miss runs live detection, and its entry is stored once the screening stage
// has screened the component's candidates on its compact graph. Only a fully
// screened detection without an audit sink consults the cache
// (Detector.Cache), so every entry has the same shape.
//
// Soundness rests on the shard decomposition invariant (shard.go): a
// component's verdict is a pure function of its compact CSR (topology +
// weights), the pruning parameters, the component-local hot bits and the
// behavioral thresholds. All of those are folded into the fingerprint, so
// equal fingerprints imply equal verdicts up to hash collisions (128 bits of
// a multiply-rotate mixer; entries are process-local and never persisted,
// see DESIGN.md §15 for the collision budget).

// DefaultCacheBytes is the size bound of a stream.Detector's verdict cache.
const DefaultCacheBytes = 32 << 20

// fpVersion is folded into every fingerprint; bump it whenever the hashed
// byte layout or the set of verdict-affecting inputs changes.
const fpVersion = 2

// fingerprint is the 128-bit canonical component hash used as cache key.
type fingerprint [2]uint64

// fpHasher is a small 128-bit multiply-rotate mixer (xxhash-style lanes).
// It is NOT cryptographic — it keys a process-local cache, where the cost
// of a collision is bounded by the golden equivalence harness and the
// 2⁻¹²⁸ pair probability, not by an adversary with offline access to the
// digest. It beats crypto hashes by an order of magnitude on the per-arc
// hot loop, which keeps cold-cache sweeps at parity with uncached ones.
type fpHasher struct{ a, b uint64 }

func newFPHasher() fpHasher {
	return fpHasher{a: 0x9e3779b97f4a7c15, b: 0xc2b2ae3d27d4eb4f}
}

func (h *fpHasher) word(x uint64) {
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	h.a = bits.RotateLeft64(h.a^x, 27)*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	h.b = bits.RotateLeft64(h.b+x, 31) * 0xc2b2ae3d27d4eb4f
}

func (h *fpHasher) sum() fingerprint {
	a, b := h.a, h.b
	a ^= b
	a ^= a >> 29
	a *= 0xbf58476d1ce4e5b9
	a ^= a >> 32
	b += a
	b ^= b >> 31
	b *= 0x94d049bb133111eb
	b ^= b >> 29
	return fingerprint{a, b}
}

// componentFingerprint hashes everything that determines a freshly
// compacted component's detection outcome:
//
//   - the full CSR: per-user degree then the (item, weight) arc list, in
//     the graph's deterministic ascending order — topology AND weights, so
//     any perturbation of either changes the fingerprint;
//   - the Params the per-component passes read: K1/K2/Alpha (pruning +
//     extraction) and TClick/MaxHotAvg (behavior checks);
//   - the component-local hot bits: an item's hotness is a marketplace-wide
//     property that can change without changing the component's own CSR, so
//     it must key the entry.
//
// cg must be freshly compacted (all vertices alive) — the hash is taken
// before local pruning mutates it.
func componentFingerprint(cg *bipartite.Graph, localHot []bool, p Params) fingerprint {
	h := newFPHasher()
	h.word(fpVersion)
	h.word(uint64(uint32(p.K1))<<32 | uint64(uint32(p.K2)))
	h.word(math.Float64bits(p.Alpha))
	h.word(uint64(p.TClick))
	h.word(math.Float64bits(p.MaxHotAvg))
	nu, nv := cg.NumUsers(), cg.NumItems()
	h.word(uint64(uint32(nu))<<32 | uint64(uint32(nv)))
	arc := func(v bipartite.NodeID, w uint32) bool {
		h.word(uint64(v)<<32 | uint64(w))
		return true
	}
	for u := 0; u < nu; u++ {
		h.word(uint64(cg.UserDegree(bipartite.NodeID(u))))
		cg.EachUserNeighbor(bipartite.NodeID(u), arc)
	}
	var acc uint64
	for i, hb := range localHot {
		if hb {
			acc |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 {
			h.word(acc)
			acc = 0
		}
	}
	h.word(acc)
	return h.sum()
}

// localGroup is one extracted or screened group in component-local IDs —
// the form entries are stored in, so one entry serves every future shard
// whose compact CSR matches, regardless of where the component's vertices
// sit in the original graph.
type localGroup struct {
	Users, Items []bipartite.NodeID
}

// cacheEntry is one component's cached verdict. All slices are immutable
// after store: hits translate through fresh allocations (mapIDs), never in
// place.
type cacheEntry struct {
	epoch    uint64 // last epoch this entry was stored or hit in
	size     int64  // entrySize at store time
	rounds   int    // local fixpoint rounds
	removedU []bipartite.NodeID
	removedI []bipartite.NodeID
	raw      []localGroup // extracted candidate groups
	screened []localGroup // per-component screened groups
}

// entrySize approximates an entry's memory footprint for the byte bound.
// Screened groups that alias raw slices (the no-drop fast path) are
// double-counted — the bound errs toward evicting early, never late.
func entrySize(e *cacheEntry) int64 {
	const nodeBytes = 4
	s := int64(128)
	s += int64(len(e.removedU)+len(e.removedI)) * nodeBytes
	for _, grps := range [][]localGroup{e.raw, e.screened} {
		for _, g := range grps {
			s += 48 + int64(len(g.Users)+len(g.Items))*nodeBytes
		}
	}
	return s
}

// CacheStats is a snapshot of a VerdictCache's lifetime counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Faults    int64
	Entries   int
	Bytes     int64
	Epoch     uint64
}

// VerdictCache is a bounded, epoch-evicted map from component fingerprint
// to cached per-component verdict. It is safe for concurrent use by the
// shard workers of one detection; one instance lives across the refreshes
// of the stream.Detector that owns it.
//
// Eviction is oldest-epoch-first: BeginEpoch advances the clock once per
// sharded pass, every store and hit restamps its entry with the current
// epoch, and when the byte bound is exceeded the entries whose last use is
// furthest in the past are dropped until the cache fits. An entry larger
// than the whole bound is simply not stored.
type VerdictCache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	epoch     uint64
	entries   map[fingerprint]*cacheEntry
	hits      int64
	misses    int64
	evictions int64
	faults    int64
}

// NewVerdictCache creates a cache bounded to maxBytes of cached verdict
// data (≤ 0 means DefaultCacheBytes).
func NewVerdictCache(maxBytes int64) *VerdictCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &VerdictCache{maxBytes: maxBytes, entries: map[fingerprint]*cacheEntry{}}
}

// BeginEpoch advances the eviction clock; the sharded pass calls it once
// per detection so "oldest epoch" means "least recently detected".
func (c *VerdictCache) BeginEpoch() {
	c.mu.Lock()
	c.epoch++
	c.mu.Unlock()
}

// lookup returns the entry for fp, restamping it with the current epoch.
func (c *VerdictCache) lookup(fp fingerprint) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if ok {
		e.epoch = c.epoch
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// store inserts e under fp and evicts oldest-epoch entries until the cache
// fits its byte bound again. It returns how many entries were evicted.
func (c *VerdictCache) store(fp fingerprint, e *cacheEntry) int {
	e.size = entrySize(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.size > c.maxBytes {
		return 0
	}
	if old, ok := c.entries[fp]; ok {
		c.bytes -= old.size
	}
	e.epoch = c.epoch
	c.entries[fp] = e
	c.bytes += e.size
	evicted := 0
	for c.bytes > c.maxBytes {
		var victimFP fingerprint
		var victim *cacheEntry
		for k, v := range c.entries {
			if k == fp {
				continue // never evict the entry just stored
			}
			if victim == nil || v.epoch < victim.epoch {
				victimFP, victim = k, v
			}
		}
		if victim == nil {
			break
		}
		delete(c.entries, victimFP)
		c.bytes -= victim.size
		c.evictions++
		evicted++
	}
	return evicted
}

// noteFault counts a poisoned/failed lookup that fell back to live
// detection (fault-injection site "core.cache").
func (c *VerdictCache) noteFault() {
	c.mu.Lock()
	c.faults++
	c.mu.Unlock()
}

// Purge drops every entry (reset/retune invalidation); lifetime counters
// are kept.
func (c *VerdictCache) Purge() {
	c.mu.Lock()
	c.entries = map[fingerprint]*cacheEntry{}
	c.bytes = 0
	c.mu.Unlock()
}

// Bytes returns the current cached-verdict footprint.
func (c *VerdictCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the cache's counters.
func (c *VerdictCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Faults:    c.faults,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Epoch:     c.epoch,
	}
}
