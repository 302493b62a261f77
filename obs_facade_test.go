package fakeclick

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// findSpan returns the first span named name in a pre-order walk of e's
// subtree, or nil.
func findSpan(e *obs.SpanExport, name string) *obs.SpanExport {
	if e.Name == name {
		return e
	}
	for _, c := range e.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// spanNames lists the span names of e's subtree in pre-order.
func spanNames(e *obs.SpanExport) []string {
	names := []string{e.Name}
	for _, c := range e.Children {
		names = append(names, spanNames(c)...)
	}
	return names
}

// TestDetectWithObserver verifies the facade's observability wiring: the
// run produces a trace whose ricd.detect span carries the Fig 8b phase
// split, the phase spans cover ≥ 90% of the reported Elapsed, the trace
// JSON round-trips, and the registry saw the run.
func TestDetectWithObserver(t *testing.T) {
	g, _ := syntheticGraph(t)
	cfg := smallConfig()
	o := NewObserver("ricd")
	cfg.Observer = o

	rep, err := Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("Report.Trace is nil with an Observer configured")
	}
	o.Trace.Finish()

	e := rep.Trace.Export()
	det := findSpan(e, "ricd.detect")
	if det == nil {
		t.Fatalf("trace has no ricd.detect span; spans: %v", spanNames(e))
	}
	for _, phase := range []string{"detection", "screening", "identification", "hotset", "graph_generator", "prune", "extract"} {
		if findSpan(det, phase) == nil {
			t.Errorf("trace missing %q span; spans: %v", phase, spanNames(e))
		}
	}

	// Acceptance: phase spans cover ≥ 90% of the measured detection time.
	var covered time.Duration
	for _, c := range det.Children {
		covered += time.Duration(c.DurationNS)
	}
	if covered < time.Duration(0.9*float64(rep.Elapsed)) {
		t.Errorf("phase spans cover %v of Elapsed %v (< 90%%)", covered, rep.Elapsed)
	}

	data, err := rep.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed obs.SpanExport
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if findSpan(&parsed, "ricd.detect") == nil {
		t.Error("serialized trace lost the ricd.detect span")
	}

	if got := o.Counter("ricd.detections").Value(); got != 1 {
		t.Errorf("ricd.detections = %d, want 1", got)
	}
	if o.Histogram("ricd.detect").Count() != 1 {
		t.Error("ricd.detect histogram empty")
	}
	if len(o.Metrics.Snapshot()) == 0 {
		t.Error("metrics snapshot empty")
	}
}

// TestDetectObserverDisabled pins the no-op default: no observer, no
// trace, identical results.
func TestDetectObserverDisabled(t *testing.T) {
	g, _ := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Error("Report.Trace should be nil without an Observer")
	}
}

// TestDetectWithAuditSink verifies the facade's audit wiring: Config.Audit
// alone (no Observer) produces a JSONL trail bracketed by run.start /
// run.end with one verdict per reported group, while Report.Trace stays
// nil — the audit sink must not imply tracing.
func TestDetectWithAuditSink(t *testing.T) {
	g, _ := syntheticGraph(t)
	cfg := smallConfig()
	var buf bytes.Buffer
	cfg.Audit = NewAuditSink(&buf, 16)

	rep, err := Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Error("Report.Trace is non-nil without a configured Observer")
	}
	if len(rep.Groups) == 0 {
		t.Fatal("no groups; verdict assertions would be vacuous")
	}

	var first, last AuditEvent
	verdicts := 0
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	for i, line := range lines {
		var e AuditEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("audit line %d: %v", i+1, err)
		}
		if i == 0 {
			first = e
		}
		last = e
		if e.Type == obs.EventGroupVerdict {
			verdicts++
			if e.Score != rep.Groups[e.Group-1].Score {
				t.Errorf("verdict for group %d has score %v, report says %v",
					e.Group, e.Score, rep.Groups[e.Group-1].Score)
			}
		}
	}
	if first.Type != obs.EventRunStart || last.Type != obs.EventRunEnd {
		t.Errorf("trail bracketed by %q..%q, want run.start..run.end", first.Type, last.Type)
	}
	if verdicts != len(rep.Groups) {
		t.Errorf("%d verdicts for %d groups", verdicts, len(rep.Groups))
	}
	// The ring keeps the most recent events for in-process inspection.
	ring := cfg.Audit.Events()
	if len(ring) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(ring))
	}
	if ring[len(ring)-1].Type != obs.EventRunEnd {
		t.Errorf("ring tail is %q, want run.end", ring[len(ring)-1].Type)
	}
}
