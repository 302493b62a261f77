package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEventSinkJSONL checks that emitted events round-trip through the
// JSONL encoding with encoding/json on the read side, that sequence
// numbers are contiguous from 1, and that the ring retains the tail.
func TestEventSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf, 3)

	events := []Event{
		{Type: EventRunStart, Reason: "RICD", Users: 100, Items: 50},
		{Type: EventPruneRemove, Side: "user", ID: 0, Round: 1, Reason: "core.degree", Stat: "deg=3 min=10"},
		{Type: EventPruneRemove, Side: "item", ID: 42, Round: 2, Shard: 3, Reason: "square.neighbors"},
		{Type: EventScreenDrop, Side: "user", ID: 7, Group: 2, Reason: "user.no_attack_edge", Stat: "max_ordinary_clicks=9 t_click=12"},
		{Type: EventFeedbackWiden, Round: 2, Reason: "t_click", Old: "12", New: "10"},
		{Type: EventGroupVerdict, Group: 1, Users: 10, Items: 10, Score: 9.75, Stat: "density=1.000"},
		{Type: EventGroupVerdict, Group: 2, Users: 5, Items: 5, Score: 0}, // zero score still emitted
	}
	for _, e := range events {
		s.Emit(e)
	}
	if s.Err() != nil {
		t.Fatalf("sink error: %v", s.Err())
	}
	if got := s.Seq(); got != uint64(len(events)) {
		t.Fatalf("Seq = %d, want %d", got, len(events))
	}

	var parsed []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("invalid JSON line: %s", sc.Text())
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unmarshal %q: %v", sc.Text(), err)
		}
		parsed = append(parsed, e)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d lines, want %d", len(parsed), len(events))
	}
	for i, e := range parsed {
		want := events[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(e, want) {
			t.Errorf("line %d round trip:\ngot  %+v\nwant %+v", i, e, want)
		}
	}

	// The ring holds the last 3, oldest first.
	ring := s.Events()
	if len(ring) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(ring))
	}
	for i, e := range ring {
		if want := uint64(len(events) - 2 + i); e.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}

	// A group verdict with score zero must still carry the score field
	// (the acceptance bar: every verdict has its risk score).
	var raw map[string]any
	lastLine := func() string {
		// Re-render to inspect the raw field set.
		b := events[6]
		b.Seq = 7
		return string(b.appendJSON(nil))
	}()
	if err := json.Unmarshal([]byte(lastLine), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["score"]; !ok {
		t.Errorf("zero-score verdict dropped its score field: %s", lastLine)
	}
	// A node-less event must not carry an id; a node event for ID 0 must.
	if strings.Contains(string(events[0].appendJSON(nil)), `"id"`) {
		t.Error("run.start carries an id field")
	}
	if !strings.Contains(string(events[1].appendJSON(nil)), `"id":0`) {
		t.Error("removal of node 0 lost its id field")
	}
}

// TestEventJSONEscaping pushes JSON-hostile bytes through the hand-rolled
// encoder and requires encoding/json to agree on the way back.
func TestEventJSONEscaping(t *testing.T) {
	e := Event{Seq: 1, Type: "x", Reason: `quote " back \ slash`, Stat: "line\nbreak\ttab\x01ctl"}
	line := e.appendJSON(nil)
	if !json.Valid(line) {
		t.Fatalf("invalid JSON: %s", line)
	}
	var back Event
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Reason != e.Reason || back.Stat != e.Stat {
		t.Errorf("escaping mangled fields: %+v", back)
	}
}

// TestEventSinkConcurrent hammers one sink from many goroutines and
// checks nothing is lost or torn: every line parses, and the sequence
// numbers form exactly 1..N with no gaps or duplicates. Run with -race.
func TestEventSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf, 16)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Emit(Event{Type: EventPruneRemove, Side: "user", ID: uint32(w*perWorker + i), Reason: "core.degree"})
			}
		}(w)
	}
	wg.Wait()

	seen := make([]bool, workers*perWorker+1)
	n := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("torn/corrupt line %q: %v", sc.Text(), err)
		}
		if e.Seq < 1 || e.Seq > uint64(workers*perWorker) || seen[e.Seq] {
			t.Fatalf("bad/duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		n++
	}
	if n != workers*perWorker {
		t.Fatalf("got %d lines, want %d", n, workers*perWorker)
	}
}

// failWriter fails every write after the first.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestEventSinkWriteError checks the first write error is latched and the
// ring keeps recording.
func TestEventSinkWriteError(t *testing.T) {
	s := NewEventSink(&failWriter{}, 8)
	for i := 0; i < 4; i++ {
		s.Emit(Event{Type: EventRunStart})
	}
	if s.Err() == nil {
		t.Fatal("write error not latched")
	}
	if got := len(s.Events()); got != 4 {
		t.Errorf("ring recorded %d events after write error, want 4", got)
	}
}

// TestEventSinkNoRetention covers the writer-only and count-only modes.
func TestEventSinkNoRetention(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf, 0)
	s.Emit(Event{Type: EventRunStart})
	if s.Events() != nil {
		t.Error("ring disabled but Events returned data")
	}
	if buf.Len() == 0 {
		t.Error("writer-only sink wrote nothing")
	}
	c := NewEventSink(nil, 0)
	for i := 0; i < 3; i++ {
		c.Emit(Event{Type: EventRunStart})
	}
	if c.Seq() != 3 || c.Err() != nil {
		t.Errorf("count-only sink: seq=%d err=%v", c.Seq(), c.Err())
	}
}

// TestEventFieldsStable pins the JSONL field names — the audit trail is an
// interchange format consumed by jq pipelines and the promcheck-style
// tooling, so renames are breaking changes.
func TestEventFieldsStable(t *testing.T) {
	e := Event{
		Seq: 9, Type: "t", Side: "user", ID: 1, Round: 2, Shard: 3,
		Group: 4, Users: 5, Items: 6, Groups: 7, Reason: "r", Stat: "s",
		Old: "o", New: "n", Score: 1.5,
	}
	want := `{"seq":9,"type":"t","side":"user","id":1,"round":2,"shard":3,` +
		`"group":4,"users":5,"items":6,"groups":7,"reason":"r","stat":"s",` +
		`"old":"o","new":"n","score":1.5}`
	if got := string(e.appendJSON(nil)); got != want {
		t.Errorf("encoding drifted:\ngot  %s\nwant %s", got, want)
	}
}

// BenchmarkEventSinkEmit measures the enabled emit path (discard writer).
func BenchmarkEventSinkEmit(b *testing.B) {
	s := NewEventSink(discard{}, 0)
	e := Event{Type: EventPruneRemove, Side: "user", ID: 7, Round: 3, Reason: "core.degree", Stat: "deg=3 min=10"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(e)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
