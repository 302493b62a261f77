package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines; run with -race to verify the atomics.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent hammers a histogram across all buckets and
// checks the bucket totals survive concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	durations := []time.Duration{
		time.Microsecond,       // le.1e-05 (10µs bound)
		50 * time.Microsecond,  // le.0.0001
		500 * time.Microsecond, // le.0.001
		5 * time.Millisecond,   // le.0.01
		2 * time.Second,        // le.10
		time.Minute,            // le.inf (overflow)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("lat")
			for _, d := range durations {
				h.Observe(d)
			}
		}()
	}
	wg.Wait()

	h := r.Histogram("lat")
	if got, want := h.Count(), int64(workers*len(durations)); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	// Bucket labels are seconds-valued numbers (ASCII, Prometheus-parseable),
	// not Duration strings like "10µs".
	m := r.Map()
	for _, bucket := range []string{"lat.le.1e-05", "lat.le.0.0001", "lat.le.0.001", "lat.le.0.01", "lat.le.10", "lat.le.inf"} {
		if m[bucket] != workers {
			t.Errorf("%s = %d, want %d", bucket, m[bucket], workers)
		}
	}
	if m["lat.le.0.1"] != 0 || m["lat.le.1"] != 0 {
		t.Errorf("empty buckets populated: %v", m)
	}
}

// TestSnapshotSorted checks Snapshot returns samples in name order.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Counter("alpha").Add(1)
	r.Gauge("mid").Set(2)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	want := map[string]int64{"alpha": 1, "mid": 2, "zeta": 3}
	got := map[string]int64{}
	for _, s := range snap {
		got[s.Name] = s.Value
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
}

// TestSpanNestingOrder checks children appear under the right parents in
// creation order.
func TestSpanNestingOrder(t *testing.T) {
	tr := NewTrace("run")
	a := tr.Root().Start("a")
	a1 := a.Start("a1")
	a1.End()
	a2 := a.Start("a2")
	a2.End()
	a.End()
	b := tr.Root().Start("b")
	b.End()
	tr.Finish()

	e := tr.Export()
	if e.Name != "run" || len(e.Children) != 2 {
		t.Fatalf("root = %q with %d children, want run/2", e.Name, len(e.Children))
	}
	if e.Children[0].Name != "a" || e.Children[1].Name != "b" {
		t.Errorf("root children = %q,%q, want a,b", e.Children[0].Name, e.Children[1].Name)
	}
	ca := e.Children[0]
	if len(ca.Children) != 2 || ca.Children[0].Name != "a1" || ca.Children[1].Name != "a2" {
		t.Errorf("a's children wrong: %+v", ca.Children)
	}
	if got := e.SpanNames(); !reflect.DeepEqual(got, []string{"a", "a1", "a2", "b", "run"}) {
		t.Errorf("SpanNames = %v", got)
	}
}

// TestTraceJSONRoundTrip exports a trace with attributes, parses it back,
// and requires structural equality.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace("detect")
	sp := tr.Root().Start("prune")
	sp.SetInt("rounds", 3)
	sp.Set("mode", "fixpoint")
	sp.End()
	tr.Finish()

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("invalid JSON: %s", data)
	}
	parsed, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, tr.Export()) {
		t.Errorf("round trip mismatch:\nparsed  %+v\nexport  %+v", parsed, tr.Export())
	}
	p := parsed.Find("prune")
	if p == nil {
		t.Fatal("prune span lost in round trip")
	}
	want := []Attr{{"rounds", "3"}, {"mode", "fixpoint"}}
	if !reflect.DeepEqual(p.Attrs, want) {
		t.Errorf("attrs = %v, want %v", p.Attrs, want)
	}
}

// TestTreeRendering smoke-tests the human-readable output.
func TestTreeRendering(t *testing.T) {
	tr := NewTrace("run")
	s := tr.Root().Start("stage")
	s.SetInt("n", 7)
	s.End()
	tr.Finish()
	out := tr.Tree()
	for _, want := range []string{"run", "stage", "n=7"} {
		if !containsLine(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestNoopZeroAlloc verifies the disabled (nil) path allocates nothing:
// the acceptance bar for leaving instrumentation in hot loops.
func TestNoopZeroAlloc(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		sp := o.Root().Start("stage")
		sp.SetInt("n", 1)
		sp.Set("k", "v")
		sp.End()
		o.Counter("c").Add(5)
		o.Gauge("g").Set(9)
		o.Histogram("h").Observe(time.Millisecond)
		var r *Registry
		r.Counter("x").Inc()
		var tr *Trace
		tr.Root().Start("y").End()
		tr.Finish()
		o.Sink().Emit(Event{Type: EventPruneRemove, Side: "user", ID: 3})
		var s *EventSink
		s.Emit(Event{Type: EventScreenDrop})
		var l *Ledger
		l.Record(RunSummary{Root: "ricd.detect"})
	})
	if allocs != 0 {
		t.Errorf("nil observer path allocates %.1f per run, want 0", allocs)
	}
}

// TestNilSafety exercises every nil receiver for panics and zero values.
func TestNilSafety(t *testing.T) {
	var (
		o  *Observer
		r  *Registry
		tr *Trace
		sp *Span
		c  *Counter
		g  *Gauge
		h  *Histogram
	)
	if o.Root() != nil || o.Counter("x") != nil || o.Gauge("x") != nil || o.Histogram("x") != nil {
		t.Error("nil observer must hand out nil instruments")
	}
	if r.Counter("x") != nil || r.Map() != nil || r.Counters() != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	if o.Sink() != nil || o.RunLedger() != nil {
		t.Error("nil observer must hand out nil sink/ledger")
	}
	var es *EventSink
	es.Emit(Event{Type: EventRunStart})
	if es.Seq() != 0 || es.Events() != nil || es.Err() != nil {
		t.Error("nil event sink must be inert")
	}
	var lg *Ledger
	lg.Record(RunSummary{})
	if lg.Len() != 0 || lg.Runs() != nil {
		t.Error("nil ledger must be inert")
	}
	if tr.Root() != nil || tr.Export() != nil || tr.Tree() != "" {
		t.Error("nil trace must export nothing")
	}
	if data, err := tr.JSON(); err != nil || string(data) != "null" {
		t.Errorf("nil trace JSON = %s, %v", data, err)
	}
	if sp.Start("x") != nil || sp.Name() != "" || sp.Duration() != 0 || sp.Export() != nil {
		t.Error("nil span must be inert")
	}
	sp.End()
	sp.Set("k", "v")
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h.Observe(time.Second)
	if h.Count() != 0 {
		t.Error("nil histogram recorded")
	}
}

// TestConcurrentSpanChildren attaches children to one parent from many
// goroutines (the shard pool does this per worker); run with -race.
func TestConcurrentSpanChildren(t *testing.T) {
	tr := NewTrace("run")
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tr.Root().Start("child")
			s.SetInt("i", 1)
			s.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Export().Children); got != n {
		t.Errorf("children = %d, want %d", got, n)
	}
}

// TestCoveredDuration checks the trace-coverage helper used by the
// acceptance test.
func TestCoveredDuration(t *testing.T) {
	e := &SpanExport{
		Name:       "run",
		DurationNS: 100,
		Children: []*SpanExport{
			{Name: "a", DurationNS: 60},
			{Name: "b", DurationNS: 35},
		},
	}
	if got := e.CoveredDuration(); got != 95 {
		t.Errorf("covered = %d, want 95", got)
	}
}

// ParseTrace parses the output of Trace.JSON back into an export tree.
func ParseTrace(data []byte) (*SpanExport, error) {
	var e SpanExport
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("obs: parsing trace: %w", err)
	}
	return &e, nil
}

// CoveredDuration returns the sum of the direct children's durations — the
// share of a parent span its instrumented stages account for. Used by
// tests to assert trace coverage of the measured pipeline time.
func (e *SpanExport) CoveredDuration() time.Duration {
	if e == nil {
		return 0
	}
	var sum time.Duration
	for _, c := range e.Children {
		sum += time.Duration(c.DurationNS)
	}
	return sum
}

// Find returns the first span with the given name in a pre-order walk of
// the subtree, or nil.
func (e *SpanExport) Find(name string) *SpanExport {
	if e == nil {
		return nil
	}
	if e.Name == name {
		return e
	}
	for _, c := range e.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// SpanNames returns the sorted distinct span names of the subtree.
func (e *SpanExport) SpanNames() []string {
	seen := map[string]bool{}
	var walk func(e *SpanExport)
	walk = func(e *SpanExport) {
		if e == nil {
			return
		}
		seen[e.Name] = true
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
