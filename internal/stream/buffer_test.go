package stream

import (
	"context"
	"testing"
	"time"

	"repro/internal/clicktable"
	"repro/internal/obs"
)

func rec(u uint32) clicktable.Record { return clicktable.Record{UserID: u, ItemID: 1, Clicks: 2} }

func TestBufferDeliversEverythingUnderCapacity(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(d, BufferConfig{Capacity: 64})
	for u := uint32(0); u < 50; u++ {
		if !b.Offer(rec(u)) {
			t.Fatalf("offer %d rejected", u)
		}
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Events(); got != 50 {
		t.Fatalf("detector saw %d events, want 50", got)
	}
	accepted, shed := b.Stats()
	if accepted != 50 || shed != 0 {
		t.Fatalf("stats accepted=%d shed=%d", accepted, shed)
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.Offer(rec(99)) {
		t.Fatal("offer after close accepted")
	}
}

// TestBufferShedOldest fills a drainer-less buffer past capacity and
// checks that the oldest clicks are the ones sacrificed.
func TestBufferShedOldest(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b := newBuffer(d, BufferConfig{Capacity: 4, Policy: ShedOldest})
	for u := uint32(1); u <= 6; u++ {
		if !b.Offer(rec(u)) {
			t.Fatalf("shed-oldest rejected incoming click %d", u)
		}
	}
	b.mu.Lock()
	depth := b.n
	b.mu.Unlock()
	if depth != 4 {
		t.Fatalf("depth = %d, want 4", depth)
	}
	if _, shed := b.Stats(); shed != 2 {
		t.Fatalf("shed = %d, want 2", shed)
	}
	b.startDrain()
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Users 1 and 2 were shed; 3–6 survive.
	g := d.Graph()
	for u := uint32(1); u <= 6; u++ {
		want := u >= 3
		if got := g.UserDegree(u) > 0; got != want {
			t.Fatalf("user %d present=%v, want %v", u, got, want)
		}
	}
}

func TestBufferShedNewest(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var sinkBuf []obs.Event
	o := obs.NewObserver("stream")
	o.Events = obs.NewEventSink(nil, 16)
	d.Obs = o
	b := newBuffer(d, BufferConfig{Capacity: 4, Policy: ShedNewest})
	for u := uint32(1); u <= 4; u++ {
		if !b.Offer(rec(u)) {
			t.Fatalf("offer %d rejected below capacity", u)
		}
	}
	if b.Offer(rec(5)) {
		t.Fatal("offer into a full shed-newest buffer accepted")
	}
	if _, shed := b.Stats(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	sinkBuf = o.Events.Events()
	found := false
	for _, e := range sinkBuf {
		if e.Type == obs.EventIngestShed && e.Reason == "newest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ingest.shed audit event: %+v", sinkBuf)
	}
}

func TestBufferShedBlockTimesOutThenUnblocks(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b := newBuffer(d, BufferConfig{Capacity: 2, Policy: ShedBlock})
	b.Offer(rec(1))
	b.Offer(rec(2))
	start := time.Now()
	if b.Offer(rec(3)) {
		t.Fatal("offer into a full blocked buffer accepted with no drainer")
	}
	if waited := time.Since(start); waited < blockWait {
		t.Fatalf("block policy gave up after %v, before the deadline", waited)
	}
	if _, shed := b.Stats(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	// With the drainer running, a blocked Offer gets its slot instead of
	// timing out.
	b.startDrain()
	if !b.Offer(rec(4)) {
		t.Fatal("offer rejected though the drainer freed space")
	}
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Events(); got != 3 {
		t.Fatalf("detector saw %d events, want 3 (click 3 was shed)", got)
	}
}

func TestBufferFlushDeadline(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b := newBuffer(d, BufferConfig{Capacity: 8}) // no drainer: queue never empties
	b.Offer(rec(1))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.Flush(ctx); err == nil {
		t.Fatal("flush with a stuck drainer returned nil")
	}
}

// TestBufferOfferToClosedBufferIsShed: a click offered to a closed buffer,
// on entry or while a ShedBlock Offer waits for a slot, is a shed like any
// other: counted, and audited with reason "closed".
func TestBufferOfferToClosedBufferIsShed(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.Obs = obs.NewObserver("stream")
	d.Obs.Events = obs.NewEventSink(nil, 16)
	b := newBuffer(d, BufferConfig{Capacity: 1, Policy: ShedBlock}) // no drainer: the queue stays full
	b.Offer(rec(1))
	blocked := make(chan bool)
	go func() { blocked <- b.Offer(rec(2)) }()
	time.Sleep(blockWait / 10) // let that Offer start waiting for a slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // Close marks the buffer closed, then stops waiting for the absent drainer
	_ = b.Close(ctx)
	if <-blocked || b.Offer(rec(3)) {
		t.Fatal("a closed buffer accepted a click")
	}
	closed := 0
	for _, e := range d.Obs.Events.Events() {
		if e.Type == obs.EventIngestShed && e.Reason == "closed" {
			closed++
		}
	}
	if _, shed := b.Stats(); shed != 2 || closed != 2 || d.Obs.Metrics.Counters()["stream.ingest.shed"] != 2 {
		t.Fatalf("shed=%d, closed events=%d; want 2 of each, counted", shed, closed)
	}
}
