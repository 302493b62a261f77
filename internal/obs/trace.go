package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span. Values are stored as
// strings so traces serialize without type wrangling; use the typed
// setters on Span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a pipeline run. Spans form a tree: Start
// creates a running child, End freezes the duration. All methods are
// nil-safe no-ops and safe for concurrent use (parallel stages may attach
// children to the same parent).
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start creates and returns a running child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration; subsequent Ends are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the frozen duration, or the running duration if the
// span has not ended (0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Set(key, fmt.Sprintf("%d", v))
}

// Trace is a span tree rooted at a single run-level span. The nil *Trace
// is a no-op.
type Trace struct {
	root *Span
}

// NewTrace returns a trace whose root span (named rootName) starts now.
func NewTrace(rootName string) *Trace {
	return &Trace{root: newSpan(rootName)}
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() { t.Root().End() }

// SpanExport is the serialized form of a span subtree.
type SpanExport struct {
	Name       string        `json:"name"`
	DurationNS int64         `json:"duration_ns"`
	Attrs      []Attr        `json:"attrs,omitempty"`
	Children   []*SpanExport `json:"children,omitempty"`
}

// Export snapshots the span subtree (running spans export their duration
// so far).
func (s *Span) Export() *SpanExport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	e := &SpanExport{
		Name:       s.name,
		DurationNS: int64(s.dur),
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	if !s.ended {
		e.DurationNS = int64(time.Since(s.start))
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		e.Children = append(e.Children, c.Export())
	}
	return e
}

// Export snapshots the whole trace (nil for a nil trace).
func (t *Trace) Export() *SpanExport { return t.Root().Export() }

// JSON serializes the trace, indented for human diffing.
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(t.Export(), "", "  ")
}

// Tree renders the trace as an indented human-readable stage tree:
//
//	ricd                              41.2ms
//	  detection                       36.0ms
//	    hotset                         1.1ms  hot_items=12
//	    prune                         30.4ms  rounds=3
//
// Durations are right-padded per column; attributes trail the duration.
func (t *Trace) Tree() string {
	e := t.Export()
	if e == nil {
		return ""
	}
	// First pass: longest name+indent, so durations align.
	width := 0
	var walk func(e *SpanExport, depth int)
	walk = func(e *SpanExport, depth int) {
		if w := 2*depth + len(e.Name); w > width {
			width = w
		}
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(e, 0)

	var b strings.Builder
	var render func(e *SpanExport, depth int)
	render = func(e *SpanExport, depth int) {
		pad := 2 * depth
		fmt.Fprintf(&b, "%*s%-*s  %10v", pad, "", width-pad, e.Name,
			time.Duration(e.DurationNS).Round(time.Microsecond))
		for _, a := range e.Attrs {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range e.Children {
			render(c, depth+1)
		}
	}
	render(e, 0)
	return b.String()
}
