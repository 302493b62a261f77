package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clicktable"
	"repro/internal/obs"
)

// ShedPolicy says what Buffer.Offer does with a click when the pending
// queue is full.
type ShedPolicy int

const (
	// ShedBlock makes Offer wait up to blockWait for the drainer to free a
	// slot, then shed the incoming click — backpressure first, load
	// shedding only as the last resort.
	ShedBlock ShedPolicy = iota
	// ShedOldest drops the oldest queued click to admit the new one:
	// freshest data wins, staleness stays bounded by the queue depth.
	ShedOldest
	// ShedNewest drops the incoming click unexamined: the cheapest policy,
	// already-queued data wins.
	ShedNewest
)

func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedOldest:
		return "oldest"
	case ShedNewest:
		return "newest"
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(p))
}

// ParseShedPolicy parses the CLI spelling of a policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block":
		return ShedBlock, nil
	case "oldest":
		return ShedOldest, nil
	case "newest":
		return ShedNewest, nil
	}
	return 0, fmt.Errorf("stream: unknown shed policy %q (want block, oldest or newest)", s)
}

// BufferConfig tunes a Buffer. The zero value is usable.
type BufferConfig struct {
	// Capacity bounds the pending queue (0 = 4096 clicks).
	Capacity int
	// Policy is the overload behavior.
	Policy ShedPolicy
}

const (
	// blockWait is ShedBlock's maximum wait for a free slot.
	blockWait = 100 * time.Millisecond
	// drainBatch is how many clicks the drainer hands to AddBatch per lock
	// acquisition.
	drainBatch = 512
)

func (c *BufferConfig) normalize() {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
}

// Buffer is the bounded intake queue in front of a Detector: producers
// Offer clicks, a single drainer goroutine batches them into AddBatch
// (amortizing lock and WAL costs), and overload is absorbed by the
// configured ShedPolicy instead of unbounded memory growth. Every shed is
// counted (stream.ingest.shed) and audited (ingest.shed events), so load
// shedding is an explicit, observable decision — never a silent loss.
type Buffer struct {
	det *Detector
	cfg BufferConfig

	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	idle     sync.Cond // queue empty and drainer between batches
	q        []clicktable.Record
	head, n  int
	draining bool
	closed   bool
	accepted uint64
	shed     uint64
	done     chan struct{}
}

// NewBuffer creates a buffer in front of det and starts its drainer.
func NewBuffer(det *Detector, cfg BufferConfig) *Buffer {
	b := newBuffer(det, cfg)
	b.startDrain()
	return b
}

// newBuffer builds the buffer without a drainer; tests use this to pin
// Offer semantics against a deliberately full queue.
func newBuffer(det *Detector, cfg BufferConfig) *Buffer {
	cfg.normalize()
	b := &Buffer{
		det:  det,
		cfg:  cfg,
		q:    make([]clicktable.Record, cfg.Capacity),
		done: make(chan struct{}),
	}
	b.notFull.L = &b.mu
	b.notEmpty.L = &b.mu
	b.idle.L = &b.mu
	return b
}

func (b *Buffer) startDrain() { go b.drain() }

// Offer enqueues one click for ingestion, applying the shed policy when
// the queue is full. It reports whether the click was accepted; a false
// return means the click was shed (or the buffer is closed) and has been
// counted and audited. Zero-click records are accepted and dropped,
// matching AddClick.
func (b *Buffer) Offer(r clicktable.Record) bool {
	if r.Clicks == 0 {
		return true
	}
	b.mu.Lock()
	if b.closed {
		b.shedLocked("closed")
		b.mu.Unlock()
		return false
	}
	if b.n == len(b.q) {
		switch b.cfg.Policy {
		case ShedOldest:
			b.head = (b.head + 1) % len(b.q)
			b.n--
			b.shedLocked("oldest")
		case ShedNewest:
			b.shedLocked("newest")
			b.mu.Unlock()
			return false
		case ShedBlock:
			deadline := time.Now().Add(blockWait)
			timer := time.AfterFunc(blockWait, func() {
				b.mu.Lock()
				b.notFull.Broadcast()
				b.mu.Unlock()
			})
			for b.n == len(b.q) && !b.closed && time.Now().Before(deadline) {
				b.notFull.Wait()
			}
			timer.Stop()
			if b.closed {
				b.shedLocked("closed")
				b.mu.Unlock()
				return false
			}
			if b.n == len(b.q) {
				b.shedLocked("block_timeout")
				b.mu.Unlock()
				return false
			}
		}
	}
	b.q[(b.head+b.n)%len(b.q)] = r
	b.n++
	b.accepted++
	depth := b.n
	b.notEmpty.Signal()
	b.mu.Unlock()
	b.det.Obs.Gauge("stream.buffer.depth").Set(int64(depth))
	return true
}

// shedLocked counts and audits one dropped click; b.mu must be held.
func (b *Buffer) shedLocked(reason string) {
	b.shed++
	b.det.Obs.Counter("stream.ingest.shed").Inc()
	if sink := b.det.Obs.Sink(); sink != nil {
		sink.Emit(obs.Event{Type: obs.EventIngestShed, Reason: reason})
	}
}

// drain is the single consumer: it batches queued clicks into AddBatch
// until Close, then drains whatever remains and exits.
func (b *Buffer) drain() {
	defer close(b.done)
	scratch := make([]clicktable.Record, 0, drainBatch)
	b.mu.Lock()
	for {
		for b.n == 0 && !b.closed {
			b.idle.Broadcast()
			b.notEmpty.Wait()
		}
		if b.n == 0 {
			b.idle.Broadcast()
			b.mu.Unlock()
			return
		}
		scratch = scratch[:0]
		for len(scratch) < drainBatch && b.n > 0 {
			scratch = append(scratch, b.q[b.head])
			b.head = (b.head + 1) % len(b.q)
			b.n--
		}
		b.draining = true
		depth := b.n
		b.notFull.Broadcast()
		b.mu.Unlock()
		b.det.Obs.Gauge("stream.buffer.depth").Set(int64(depth))
		b.det.AddBatch(scratch)
		b.mu.Lock()
		b.draining = false
	}
}

// Stats returns how many clicks were accepted and how many shed.
func (b *Buffer) Stats() (accepted, shed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accepted, b.shed
}

// Flush blocks until every queued click has reached the detector (or ctx
// expires). Producers may keep offering during a Flush; it waits for the
// queue observed empty, not for quiescence.
func (b *Buffer) Flush(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.idle.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for (b.n > 0 || b.draining) && ctx.Err() == nil {
		b.idle.Wait()
	}
	return ctx.Err()
}

// Close stops intake (later Offers return false), lets the drainer flush
// everything already queued, and waits for it to exit — the ordered-
// shutdown step between "stop accepting" and "close the WAL". ctx bounds
// the wait.
func (b *Buffer) Close(ctx context.Context) error {
	b.mu.Lock()
	b.closed = true
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
	b.mu.Unlock()
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
