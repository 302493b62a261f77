// Durability for the streaming detector: every state-changing operation
// (click, sweep commit) is written ahead to a checksummed WAL, and
// the full detector state is periodically captured in an atomic snapshot,
// so a crashed detector reopens exactly where it stopped — Open loads the
// newest valid snapshot and replays only the WAL tail behind it.
//
// The recovery-equivalence guarantee (tested in ops_test.go): a
// detector recovered from snapshot + WAL replay produces byte-identical
// Sweep results to one that never crashed. Three mechanisms make that
// hold:
//
//  1. The record clock (Detector.seq) ticks once per click and per
//     committed sweep; the dirty map stores each user's newest click seq,
//     so a replayed sweep-commit record can retire exactly the users whose
//     activity the original sweep's snapshot saw (seq ≤ startSeq) while
//     users touched mid-sweep stay dirty.
//  2. Sweep records carry the committed groups, so replay installs the
//     carried groups without re-running detection — replay is pure state
//     application, fast and deterministic.
//  3. Sweeps sort their dirty seeds (stream.go), making detection output
//     independent of map iteration order.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Durability configures the WAL + snapshot layer of a detector opened with
// Open. The zero Dir means memory-only (New's behavior).
type Durability struct {
	// Dir holds the WAL segments and snapshots (wal-*.seg, snap-*.snap).
	Dir string
	// SegmentBytes is the WAL segment rotation size (0 = 64 MiB).
	SegmentBytes int64
	// Sync is the WAL fsync policy: durable.SyncNever survives process
	// crashes, durable.SyncAlways also survives power loss.
	Sync durable.SyncPolicy
	// SnapshotEvery takes an automatic snapshot at the first sweep boundary
	// after this many WAL records (0 disables automatic snapshots; Snapshot
	// can still be called explicitly).
	SnapshotEvery int
}

// keepSnapshots is how many snapshot generations a snapshot leaves on disk:
// keeping two lets recovery fall back past a corrupt newest snapshot.
const keepSnapshots = 2

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// ColdStart is true when neither a snapshot nor WAL records existed.
	ColdStart bool
	// SnapshotClock is the record clock of the loaded snapshot (0 if none).
	SnapshotClock uint64
	// SnapshotsSkipped counts newer snapshots that failed validation.
	SnapshotsSkipped int
	// Replayed is how many WAL records were applied on top of the snapshot.
	Replayed int
	// TruncatedBytes is how many torn trailing WAL bytes were cut.
	TruncatedBytes int64
	// Seq is the record clock after recovery.
	Seq uint64
}

// WAL record types. Payload layouts (all little endian):
//
//	click: u8 recClick | u32 user | u32 item | u32 clicks
//	sweep: u8 recSweep | u64 startSeq | groups
//
// where groups = u32 count | per group { u64 scoreBits | u32 nUsers |
// u32 nItems | users | items }. Any other type byte fails recovery: replay
// never skips a record it does not know.
const (
	recClick = 1
	recSweep = 2
)

const stateVersion = 1

// Open creates a durable detector backed by dur.Dir, recovering any state
// a previous incarnation persisted there: the newest valid snapshot is
// loaded, then one pass over the WAL replays the tail behind it, truncates
// torn trailing records and leaves the WAL open for appending at the cut.
// A fresh directory is a cold start. The observer may be nil.
func Open(dur Durability, params core.Params, o *obs.Observer) (*Detector, *RecoveryInfo, error) {
	if dur.Dir == "" {
		return nil, nil, errors.New("stream: Open requires Durability.Dir")
	}
	d, err := New(nil, params)
	if err != nil {
		return nil, nil, err
	}
	d.Obs = o
	d.dur = dur

	info := &RecoveryInfo{}
	payload, sinfo, err := durable.LatestSnapshot(dur.Dir)
	switch {
	case err == nil:
		if derr := d.decodeState(payload, sinfo.Clock); derr != nil {
			return nil, nil, fmt.Errorf("stream: snapshot %s: %w", sinfo.Path, derr)
		}
		info.SnapshotClock = sinfo.Clock
		info.SnapshotsSkipped = sinfo.Skipped
	case errors.Is(err, durable.ErrNoSnapshot):
		// Cold start unless the WAL has records.
	default:
		return nil, nil, err
	}

	w, res, err := durable.Recover(dur.Dir, durable.Options{SegmentBytes: dur.SegmentBytes, Sync: dur.Sync}, d.seq, d.applyRecord)
	if err != nil {
		return nil, nil, err
	}
	d.wal = w
	info.Replayed = res.Records
	info.TruncatedBytes = res.TruncatedBytes
	info.ColdStart = info.SnapshotClock == 0 && res.Records == 0
	// Records appended since the snapshot still await the next one.
	d.sinceSnap = int(d.seq - info.SnapshotClock)
	info.Seq = d.seq

	o.Counter("stream.wal.recoveries").Inc()
	o.Counter("stream.wal.replayed_records").Add(int64(res.Records))
	o.Gauge("stream.degraded").Set(0)
	if sink := o.Sink(); sink != nil {
		reason := "snapshot"
		if info.SnapshotClock == 0 {
			reason = "cold"
		}
		sink.Emit(obs.Event{
			Type:   obs.EventWALRecover,
			Reason: reason,
			Stat: fmt.Sprintf("clock=%d replayed=%d truncated_bytes=%d skipped_snapshots=%d seq=%d",
				info.SnapshotClock, info.Replayed, info.TruncatedBytes, info.SnapshotsSkipped, d.seq),
		})
	}
	return d, info, nil
}

// walActiveLocked reports whether appends should be written ahead; d.mu
// must be held.
func (d *Detector) walActiveLocked() bool {
	return d.wal != nil && d.walErr == nil
}

// degradeLocked latches the first WAL failure and drops the detector to
// memory-only operation: detection keeps running, but state stops being
// durable and the stream.degraded gauge flips so operators notice. d.mu
// must be held.
func (d *Detector) degradeLocked(err error) {
	if d.walErr != nil {
		return
	}
	d.walErr = err
	d.Obs.Counter("stream.wal.append_errors").Inc()
	d.Obs.Gauge("stream.degraded").Set(1)
	if sink := d.Obs.Sink(); sink != nil {
		sink.Emit(obs.Event{Type: obs.EventWALDegraded, Reason: err.Error()})
	}
}

// DurabilityErr returns the latched WAL failure that degraded the detector
// to memory-only operation, nil while durability is healthy (or for a
// memory-only detector).
func (d *Detector) DurabilityErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walErr
}

// Close flushes and closes the WAL. The detector keeps working in memory
// after Close; call it last. Memory-only detectors are a no-op.
func (d *Detector) Close() error {
	d.mu.Lock()
	w := d.wal
	d.wal = nil
	d.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Snapshot atomically persists the full detector state at the current
// record clock, then prunes all but the newest keepSnapshots snapshots and
// the WAL segments the new snapshot covers. Safe to call concurrently with
// ingestion and sweeps (a running sweep only borrows the dirty set, so the
// snapshot holds it whichever way the sweep ends). Returns an error on a
// memory-only detector.
func (d *Detector) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()

	d.mu.Lock()
	if d.dur.Dir == "" {
		d.mu.Unlock()
		return errors.New("stream: Snapshot on a memory-only detector")
	}
	w := d.wal
	clock := d.seq
	table := d.table.Clone()
	dirty := maps.Clone(d.dirty)
	cached := append([]detect.Group(nil), d.cached...)
	events, detections := d.events, d.detections
	d.mu.Unlock()

	payload := encodeState(table, dirty, cached, events, detections)
	err := faultinject.ErrAt("stream.snapshot")
	if err == nil {
		faultinject.Hit("stream.snapshot")
		_, err = durable.WriteSnapshot(d.dur.Dir, clock, payload)
	}
	if err != nil {
		d.Obs.Counter("stream.snapshot.errors").Inc()
		if sink := d.Obs.Sink(); sink != nil {
			sink.Emit(obs.Event{Type: obs.EventSnapshotWrite, Reason: "error: " + err.Error()})
		}
		return err
	}
	// Retention: old snapshots beyond the keep count and WAL segments the
	// new snapshot supersedes. Failures here do not invalidate the snapshot.
	_, _ = durable.PruneSnapshots(d.dur.Dir, keepSnapshots)
	if w != nil {
		_, _ = w.Prune(clock)
	}
	d.mu.Lock()
	d.sinceSnap = int(d.seq - clock)
	d.mu.Unlock()
	d.Obs.Counter("stream.snapshot.writes").Inc()
	d.Obs.Gauge("stream.snapshot.bytes").Set(int64(len(payload)))
	if sink := d.Obs.Sink(); sink != nil {
		sink.Emit(obs.Event{
			Type: obs.EventSnapshotWrite,
			Stat: fmt.Sprintf("clock=%d bytes=%d dirty=%d rows=%d", clock, len(payload), len(dirty), table.Len()),
		})
	}
	return nil
}

// applyRecord applies one replayed WAL record through the functions the live
// path applies it with (applyClick, applySweep). Called only
// during Open, before the detector is shared, so no locking.
func (d *Detector) applyRecord(seq uint64, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("stream: empty WAL record")
	}
	switch payload[0] {
	case recClick:
		user, item, clicks, err := decodeClickRecord(payload)
		if err != nil {
			return err
		}
		d.seq = seq
		d.applyClick(user, item, clicks)
	case recSweep:
		startSeq, groups, err := decodeSweepRecord(payload)
		if err != nil {
			return err
		}
		d.seq = seq
		d.applySweep(startSeq, groups)
	default:
		return fmt.Errorf("stream: unknown WAL record type %d", payload[0])
	}
	return nil
}

// --- record and snapshot codecs ---

func appendClickRecord(b []byte, user, item, clicks uint32) []byte {
	b = append(b, recClick)
	b = binary.LittleEndian.AppendUint32(b, user)
	b = binary.LittleEndian.AppendUint32(b, item)
	b = binary.LittleEndian.AppendUint32(b, clicks)
	return b
}

func decodeClickRecord(p []byte) (user, item, clicks uint32, err error) {
	if len(p) != 13 || p[0] != recClick {
		return 0, 0, 0, fmt.Errorf("stream: malformed click record (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint32(p[1:]),
		binary.LittleEndian.Uint32(p[5:]),
		binary.LittleEndian.Uint32(p[9:]), nil
}

func appendSweepRecord(b []byte, startSeq uint64, groups []detect.Group) []byte {
	b = append(b, recSweep)
	b = binary.LittleEndian.AppendUint64(b, startSeq)
	return appendGroups(b, groups)
}

func decodeSweepRecord(p []byte) (startSeq uint64, groups []detect.Group, err error) {
	if len(p) < 9 || p[0] != recSweep {
		return 0, nil, errors.New("stream: malformed sweep record")
	}
	r := &reader{p: p, off: 1}
	startSeq = r.u64()
	groups = r.groups()
	if r.err != nil || r.off != len(p) {
		return 0, nil, errors.New("stream: malformed sweep record")
	}
	return startSeq, groups, nil
}

func appendGroups(b []byte, groups []detect.Group) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(groups)))
	for _, g := range groups {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.Score))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Users)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Items)))
		for _, u := range g.Users {
			b = binary.LittleEndian.AppendUint32(b, u)
		}
		for _, v := range g.Items {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return b
}

// encodeState serializes the full detector state for a snapshot. Layout:
//
//	u32 stateVersion | u64 events | u64 detections | u8 lastFull
//	u32 nRows  | rows  (u32 user | u32 item | u32 clicks)
//	u32 nDirty | pairs (u32 user | u64 seq), ascending by user
//	groups (same layout as sweep records)
//
// The pairs are sorted so equal states encode to equal bytes, whatever the
// map's iteration order. lastFull is detections > 0. It is written for the layout's sake and ignored
// on read: detections alone says whether the next sweep is full. The
// snapshot container (durable.WriteSnapshot) adds the clock, version
// and checksum around this. The staged table flattens to plain rows
// (aggregated base first, then the raw pending tail): the base/pending
// split is a build-cost optimization, not state — a recovered detector
// reloads everything as pending, so its first graph build is a full
// rebuild whose aggregate equals the live detector's patched graph
// (bipartite.PatchGraph's byte-identity contract), preserving the
// recovery-equivalence guarantee.
func encodeState(table *clicktable.Staged, dirty map[bipartite.NodeID]uint64, cached []detect.Group, events, detections int) []byte {
	b := make([]byte, 0, 17+12*table.Len()+12*len(dirty))
	b = binary.LittleEndian.AppendUint32(b, stateVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(events))
	b = binary.LittleEndian.AppendUint64(b, uint64(detections))
	if detections > 0 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(table.Len()))
	table.Each(func(r clicktable.Record) bool {
		b = binary.LittleEndian.AppendUint32(b, r.UserID)
		b = binary.LittleEndian.AppendUint32(b, r.ItemID)
		b = binary.LittleEndian.AppendUint32(b, r.Clicks)
		return true
	})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dirty)))
	users := make([]bipartite.NodeID, 0, len(dirty))
	for u := range dirty {
		users = append(users, u)
	}
	slices.Sort(users)
	for _, u := range users {
		b = binary.LittleEndian.AppendUint32(b, u)
		b = binary.LittleEndian.AppendUint64(b, dirty[u])
	}
	return appendGroups(b, cached)
}

// decodeState installs a snapshot payload into a freshly created detector.
func (d *Detector) decodeState(p []byte, clock uint64) error {
	r := &reader{p: p}
	if v := r.u32(); r.err == nil && v != stateVersion {
		return fmt.Errorf("unsupported state version %d", v)
	}
	events := r.u64()
	detections := r.u64()
	r.u8() // lastFull: see encodeState
	nRows := int(r.u32())
	if r.err != nil || nRows > r.remaining()/12 {
		return errors.New("truncated state")
	}
	table := clicktable.New(nRows)
	for i := 0; i < nRows; i++ {
		u, it, c := r.u32(), r.u32(), r.u32()
		table.Append(u, it, c)
	}
	nDirty := int(r.u32())
	if r.err != nil || nDirty > r.remaining()/12 {
		return errors.New("truncated state")
	}
	dirty := make(map[bipartite.NodeID]uint64, nDirty)
	for i := 0; i < nDirty; i++ {
		u := r.u32()
		dirty[u] = r.u64()
	}
	groups := r.groups()
	if r.err != nil || r.off != len(p) {
		return errors.New("truncated state")
	}
	d.seq = clock
	d.events = int(events)
	d.detections = int(detections)
	// All recovered rows land in the pending tail (see encodeState): the
	// first build after recovery re-aggregates the full history.
	d.table = clicktable.NewStaged(table)
	d.graph = nil
	d.dirty = dirty
	d.cached = groups
	return nil
}

// reader is a bounds-checked little-endian cursor; the first overrun
// latches err and every later read returns zero.
type reader struct {
	p   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = errors.New("stream: short read")
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.remaining() < 1 {
		r.fail()
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *reader) groups() []detect.Group {
	n := int(r.u32())
	if r.err != nil || n > r.remaining()/16+1 {
		r.fail()
		return nil
	}
	groups := make([]detect.Group, 0, n)
	for i := 0; i < n; i++ {
		score := math.Float64frombits(r.u64())
		nu := int(r.u32())
		ni := int(r.u32())
		if r.err != nil || nu+ni > r.remaining()/4 {
			r.fail()
			return nil
		}
		g := detect.Group{Score: score}
		for j := 0; j < nu; j++ {
			g.Users = append(g.Users, r.u32())
		}
		for j := 0; j < ni; j++ {
			g.Items = append(g.Items, r.u32())
		}
		groups = append(groups, g)
	}
	return groups
}
