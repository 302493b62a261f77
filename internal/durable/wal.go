package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/faultinject"
)

// The WAL is a directory of append-only segment files, each named by the
// sequence number of its first record:
//
//	wal-00000000000000000042.seg
//
// A segment is a run of frames:
//
//	u32 length | u32 crc32 | body            (little endian)
//	body = u64 seq | payload
//
// where length = len(body) and crc32 is IEEE over body. Frames carry their
// own sequence numbers (strictly increasing, gaps allowed) so replay can
// skip everything a snapshot already covers. A crash can tear only the tail
// of the newest segment; Recover reads every segment once, truncates at the
// first frame there that fails its length or checksum and appends from that
// offset, while a bad frame in an older segment — which append-only writing
// cannot produce — is reported as corruption rather than silently skipped.

// SyncPolicy says when the WAL fsyncs appended frames.
type SyncPolicy int

const (
	// SyncNever flushes frames to the OS on every append (they survive a
	// process crash) but never fsyncs (a kernel panic or power cut can lose
	// the tail). Segment rotation still fsyncs the finished segment.
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every Append/AppendAll — each acknowledged
	// record survives power loss, at the price of one fsync per call.
	SyncAlways
)

// Options tune a WAL. The zero value is usable: 64 MiB segments, SyncNever.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one would
	// exceed this size (0 = 64 MiB).
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

const (
	defaultSegmentBytes = 64 << 20
	// maxFrame bounds a single frame's body length; larger length prefixes
	// are treated as corruption.
	maxFrame       = 64 << 20
	frameHeaderLen = 8 // u32 length + u32 crc
)

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
}

// ErrCorrupt reports a bad frame that torn-tail truncation cannot explain:
// a checksum or framing failure before the newest segment's tail.
var ErrCorrupt = errors.New("durable: corrupt WAL")

// appendFrame appends one encoded frame to b.
func appendFrame(b []byte, seq uint64, payload []byte) ([]byte, error) {
	bodyLen := 8 + len(payload)
	if bodyLen > maxFrame {
		return b, fmt.Errorf("durable: frame body %d bytes exceeds the %d-byte frame bound", bodyLen, maxFrame)
	}
	var hdr [frameHeaderLen + 8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(bodyLen))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	crc := crc32.ChecksumIEEE(hdr[8:16])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	b = append(b, hdr[:]...)
	return append(b, payload...), nil
}

// scanFrames walks the frames in data, calling fn(seq, payload, endOffset)
// for each valid one. It returns the offset of the first invalid frame
// (len(data) when the segment is clean) — everything from that offset on is
// a torn or corrupt tail. minSeq enforces strict seq growth across frames.
func scanFrames(data []byte, minSeq uint64, fn func(seq uint64, payload []byte) error) (validEnd int64, lastSeq uint64, err error) {
	off := 0
	lastSeq = minSeq
	for {
		if len(data)-off < frameHeaderLen+8 {
			return int64(off), lastSeq, nil // short tail (or clean end at off == len(data))
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		if bodyLen < 8 || bodyLen > maxFrame || bodyLen > len(data)-off-frameHeaderLen {
			return int64(off), lastSeq, nil
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		body := data[off+frameHeaderLen : off+frameHeaderLen+bodyLen]
		if crc32.ChecksumIEEE(body) != crc {
			return int64(off), lastSeq, nil
		}
		seq := binary.LittleEndian.Uint64(body)
		if seq <= lastSeq {
			// A record that runs backwards is corruption, not a torn tail,
			// but the caller decides; framing-wise the segment ends here.
			return int64(off), lastSeq, nil
		}
		if fn != nil {
			if err := fn(seq, body[8:]); err != nil {
				return int64(off), lastSeq, err
			}
		}
		lastSeq = seq
		off += frameHeaderLen + bodyLen
	}
}

// ReplayResult summarizes what Recover read.
type ReplayResult struct {
	// Records is how many records were delivered to fn (seq > from).
	Records int
	// LastSeq is the last valid record's sequence number (from if none).
	LastSeq uint64
	// TruncatedBytes is how many torn/corrupt trailing bytes were cut from
	// the newest segment (0 for a clean log).
	TruncatedBytes int64
}

// WAL is an open write-ahead log positioned for appending. Appends are
// serialized by an internal mutex; after the first write or fsync error the
// WAL latches it and refuses further appends, so the on-disk log always
// stays a clean prefix of what was acknowledged (callers degrade to
// memory-only operation — see stream.Detector.DurabilityErr).
type WAL struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	size    int64
	lastSeq uint64
	buf     []byte
	err     error
}

// Recover opens (or creates) the WAL under dir for appending, reading each
// segment once on the way: fn gets every valid record with seq > from, in
// order. Torn or corrupt trailing frames in the newest segment are
// truncated in place (the defined crash wound) and appending resumes at the
// last good frame; a bad frame in any older segment aborts with ErrCorrupt,
// because replaying past a hole could resurrect state the lost records had
// superseded. fn errors abort the recovery unchanged. The returned WAL's
// next append must use a seq greater than its newest record's.
func Recover(dir string, opts Options, from uint64, fn func(seq uint64, payload []byte) error) (*WAL, ReplayResult, error) {
	opts.normalize()
	res := ReplayResult{LastSeq: from}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, res, fmt.Errorf("durable: create WAL dir: %w", err)
	}
	starts, err := segments.list(dir)
	if err != nil {
		return nil, res, err
	}
	var last uint64
	var tailLen, validEnd int64
	for i, start := range starts {
		data, err := os.ReadFile(segments.path(dir, start))
		if err != nil {
			return nil, res, fmt.Errorf("durable: read segment: %w", err)
		}
		validEnd, last, err = scanFrames(data, last, func(seq uint64, payload []byte) error {
			if seq <= from {
				return nil
			}
			res.Records++
			return fn(seq, payload)
		})
		if err != nil {
			return nil, res, err
		}
		tailLen = int64(len(data))
		if validEnd < tailLen && i != len(starts)-1 {
			return nil, res, fmt.Errorf("%w: bad frame at %s:%d (not the newest segment)", ErrCorrupt, segments.path(dir, start), validEnd)
		}
	}
	res.LastSeq = max(res.LastSeq, last)
	w := &WAL{dir: dir, opts: opts, lastSeq: last}
	if len(starts) == 0 {
		return w, res, nil
	}
	newest := starts[len(starts)-1]
	f, err := os.OpenFile(segments.path(dir, newest), os.O_WRONLY, 0)
	if err != nil {
		return nil, res, fmt.Errorf("durable: open segment: %w", err)
	}
	if validEnd < tailLen {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, res, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
		res.TruncatedBytes = tailLen - validEnd
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, res, fmt.Errorf("durable: seek segment: %w", err)
	}
	w.f, w.size = f, validEnd
	if validEnd == 0 && newest > last+1 {
		// Empty (or fully torn) newest segment: its name still floors the
		// next record's seq.
		w.lastSeq = newest - 1
	}
	return w, res, nil
}

// OpenWAL opens (or creates) the WAL under dir for appending: Recover with
// nothing to replay.
func OpenWAL(dir string, opts Options) (*WAL, error) {
	w, _, err := Recover(dir, opts, math.MaxUint64, nil)
	return w, err
}

// Entry is one record for AppendAll.
type Entry struct {
	Seq     uint64
	Payload []byte
}

// Append writes one record and applies the sync policy. seq must exceed
// the newest record's. After any I/O error the WAL is poisoned: the error
// is latched and returned by this and every later call.
func (w *WAL) Append(seq uint64, payload []byte) error {
	return w.AppendAll([]Entry{{Seq: seq, Payload: payload}})
}

// AppendAll writes a batch of records with one write syscall and (under
// SyncAlways) one fsync, preserving the per-record framing — bulk ingest
// pays the durability cost once per batch instead of once per click.
func (w *WAL) AppendAll(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = w.buf[:0]
	last := w.lastSeq
	for _, e := range entries {
		if e.Seq <= last {
			return fmt.Errorf("durable: append seq %d not after %d", e.Seq, last)
		}
		var err error
		w.buf, err = appendFrame(w.buf, e.Seq, e.Payload)
		if err != nil {
			return err
		}
		last = e.Seq
	}
	if w.f == nil || (w.size > 0 && w.size+int64(len(w.buf)) > w.opts.SegmentBytes) {
		if err := w.rotate(entries[0].Seq); err != nil {
			w.err = err
			return err
		}
	}
	if err := faultinject.ErrAt(SiteWrite); err != nil {
		w.err = fmt.Errorf("durable: append: %w", err)
		return w.err
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("durable: append: %w", err)
		return w.err
	}
	w.size += int64(len(w.buf))
	w.lastSeq = last
	if w.opts.Sync == SyncAlways {
		if err := syncFile(w.f); err != nil {
			w.err = fmt.Errorf("durable: fsync: %w", err)
			return w.err
		}
	}
	return nil
}

// rotate finishes the current segment (fsynced regardless of policy, so a
// closed segment is always fully durable) and opens a new one whose name is
// the next record's seq.
func (w *WAL) rotate(nextSeq uint64) error {
	if w.f != nil {
		if err := syncFile(w.f); err != nil {
			return fmt.Errorf("durable: fsync on rotate: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("durable: close segment: %w", err)
		}
		w.f = nil
	}
	f, err := os.OpenFile(segments.path(w.dir, nextSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = 0
	return nil
}

func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := syncFile(w.f); err != nil {
		w.err = fmt.Errorf("durable: fsync: %w", err)
		return w.err
	}
	return nil
}

// Prune deletes closed segments whose records are all covered by a
// snapshot at seq upTo — a segment is deletable when the next segment
// starts at or below upTo+1. The open segment is never deleted. Returns how
// many segments were removed.
func (w *WAL) Prune(upTo uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := segments.list(w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for ; removed+1 < len(starts) && starts[removed+1] <= upTo+1; removed++ {
		if err := os.Remove(segments.path(w.dir, starts[removed])); err != nil {
			return removed, fmt.Errorf("durable: prune segment: %w", err)
		}
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// ErrClosed is latched by Close so a stray late Append fails loudly instead
// of silently rotating into a fresh segment.
var ErrClosed = errors.New("durable: WAL closed")

// Close fsyncs and closes the current segment. The WAL is unusable after:
// every later Append returns ErrClosed (or the earlier latched error).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		if w.err == nil {
			w.err = ErrClosed
		}
		return nil
	}
	syncErr := w.syncLocked()
	closeErr := w.f.Close()
	w.f = nil
	if w.err == nil {
		if closeErr != nil {
			w.err = closeErr
		} else {
			w.err = ErrClosed
		}
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
