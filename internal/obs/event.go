package obs

import (
	"io"
	"strconv"
	"sync"
)

// Audit event types. Each names one kind of pipeline decision; DESIGN.md
// §11 maps them to the paper's modules.
const (
	// EventRunStart / EventRunEnd bracket one detection run.
	EventRunStart = "run.start"
	EventRunEnd   = "run.end"
	// EventPruneRemove is one vertex removal during Algorithm 3 pruning;
	// Reason distinguishes the core degree bound from the square
	// (α,k)-neighbor bound, Stat carries the violated inequality.
	EventPruneRemove = "prune.remove"
	// EventScreenDrop is one user/item screened out of a candidate group;
	// Reason names the failed behavior check, Stat the failing statistic.
	EventScreenDrop = "screen.drop"
	// EventGroupVerdict is one final group with its risk score and the
	// forensic evidence (density, mean edge clicks, organic share).
	EventGroupVerdict = "group.verdict"
	// EventFeedbackWiden is one parameter relaxed by the feedback loop;
	// Reason names the knob, Old/New its values.
	EventFeedbackWiden = "feedback.widen"
	// EventShardDone marks one component shard's pruning boundary.
	EventShardDone = "shard.done"
	// EventSweepStart / EventSweepCommit / EventSweepAbort bracket one
	// incremental stream sweep.
	EventSweepStart  = "sweep.start"
	EventSweepCommit = "sweep.commit"
	EventSweepAbort  = "sweep.abort"
	// EventWALRecover summarizes a crash recovery: Reason is "snapshot" or
	// "cold", Stat carries the replayed-record and truncated-byte counts.
	EventWALRecover = "wal.recover"
	// EventWALDegraded marks the detector falling back to memory-only
	// operation after a WAL write failure; Reason carries the error.
	EventWALDegraded = "wal.degraded"
	// EventSnapshotWrite is one durable state snapshot; Stat carries the
	// clock and payload size, Reason is "error: ..." when the write failed.
	EventSnapshotWrite = "snapshot.write"
	// EventIngestShed is one pending-click drop by the overload buffer;
	// Reason names the shed policy that fired, or "closed" for a click
	// offered to a closed buffer.
	EventIngestShed = "ingest.shed"
	// EventIndexSwap is one atomic verdict-index publication by the serving
	// layer: Round carries the new epoch, Groups/Users/Items the index
	// contents, Reason is "partial" when the source report was cut short.
	EventIndexSwap = "serve.swap"
	// EventIndexSwapFail marks a failed publication (the previous epoch
	// keeps serving); Reason carries the error.
	EventIndexSwapFail = "serve.swap_fail"
)

// Event is one structured audit-trail record: a single pipeline decision
// with the inputs that produced it. Unused fields are omitted from the
// JSONL encoding; ID is emitted only when Side is set (node ID 0 is a real
// dense ID, so presence is keyed on Side rather than on the value).
type Event struct {
	// Seq is the sink-assigned emission sequence number, starting at 1.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// Side ("user"/"item") and ID identify the node a removal or drop is
	// about, always in the original graph's ID space.
	Side string `json:"side,omitempty"`
	ID   uint32 `json:"id"`
	// Round is the pruning/feedback round the decision happened in.
	Round int `json:"round,omitempty"`
	// Shard is the 1-based component shard (0 = unsharded).
	Shard int `json:"shard,omitempty"`
	// Group is the 1-based candidate (screen.drop) or final (group.verdict)
	// group index.
	Group  int `json:"group,omitempty"`
	Users  int `json:"users,omitempty"`
	Items  int `json:"items,omitempty"`
	Groups int `json:"groups,omitempty"`
	// Reason is the typed cause (e.g. "core.degree", "user.no_attack_edge",
	// "t_click"); Stat is the human-auditable failing statistic.
	Reason string `json:"reason,omitempty"`
	Stat   string `json:"stat,omitempty"`
	// Old and New carry a feedback widening's parameter change.
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
	// Score is a group verdict's risk score (always emitted for verdicts).
	Score float64 `json:"score,omitempty"`
}

// appendJSON renders the event as a single JSON object. Hand-rolled so
// zero-valued fields are dropped with the field-presence rules above
// (encoding/json's omitempty would also drop a legitimate ID 0); the
// output is plain encoding/json-compatible, which is what tests and
// downstream tooling parse it with.
func (e *Event) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = appendStringField(b, "type", e.Type)
	if e.Side != "" {
		b = appendStringField(b, "side", e.Side)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, uint64(e.ID), 10)
	}
	b = appendIntField(b, "round", e.Round)
	b = appendIntField(b, "shard", e.Shard)
	b = appendIntField(b, "group", e.Group)
	b = appendIntField(b, "users", e.Users)
	b = appendIntField(b, "items", e.Items)
	b = appendIntField(b, "groups", e.Groups)
	if e.Reason != "" {
		b = appendStringField(b, "reason", e.Reason)
	}
	if e.Stat != "" {
		b = appendStringField(b, "stat", e.Stat)
	}
	if e.Old != "" {
		b = appendStringField(b, "old", e.Old)
	}
	if e.New != "" {
		b = appendStringField(b, "new", e.New)
	}
	if e.Score != 0 || e.Type == EventGroupVerdict {
		b = append(b, `,"score":`...)
		b = strconv.AppendFloat(b, e.Score, 'g', -1, 64)
	}
	return append(b, '}')
}

func appendIntField(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendStringField(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendJSONString(b, v)
}

// appendJSONString appends v as a JSON string literal, escaping the
// characters JSON requires (quotes, backslashes, control bytes). Event
// fields are ASCII identifiers and formatted statistics, so the fast path
// is a straight copy.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// EventSink receives the structured audit trail of a detection run. It
// writes each event as one JSONL line to an optional io.Writer and retains
// the last ring events in memory. The nil *EventSink is a no-op, mirroring
// the registry's nil-safe instruments, so audit calls can stay in place at
// no cost when auditing is off.
//
// Emit is safe for concurrent use from any number of goroutines (sharded
// prune workers, parallel screeners, the stream ingester): the sequence
// number is assigned and the full line written under one mutex hold with a
// single Write call, so lines are never torn or interleaved and Seq is
// contiguous from 1.
type EventSink struct {
	mu      sync.Mutex
	w       io.Writer
	seq     uint64
	buf     []byte
	ring    []Event
	next    int
	wrapped bool
	err     error
}

// NewEventSink returns a sink writing JSONL to w (nil disables writing)
// and retaining the most recent ring events in memory (≤ 0 disables
// retention). At least one of the two should be wanted, but a sink with
// neither is still valid and merely counts.
func NewEventSink(w io.Writer, ring int) *EventSink {
	s := &EventSink{w: w}
	if ring > 0 {
		s.ring = make([]Event, ring)
	}
	return s
}

// Emit records one event: assigns its sequence number, appends it to the
// ring, and writes its JSONL line. The first write error is latched (see
// Err) and subsequent writes are skipped; ring retention continues.
func (s *EventSink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	if s.ring != nil {
		s.ring[s.next] = e
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
			s.wrapped = true
		}
	}
	if s.w != nil && s.err == nil {
		s.buf = e.appendJSON(s.buf[:0])
		s.buf = append(s.buf, '\n')
		if _, err := s.w.Write(s.buf); err != nil {
			s.err = err
		}
	}
	s.mu.Unlock()
}

// Seq returns the number of events emitted so far (0 for nil).
func (s *EventSink) Seq() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Events returns a copy of the retained ring, oldest first (nil when
// retention is off or the sink is nil).
func (s *EventSink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return nil
	}
	var out []Event
	if s.wrapped {
		out = append(out, s.ring[s.next:]...)
	}
	return append(out, s.ring[:s.next]...)
}

// Err returns the first write error encountered, if any (nil for nil).
func (s *EventSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
