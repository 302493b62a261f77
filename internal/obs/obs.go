// Package obs is the dependency-free observability core of the RICD
// pipeline: a metrics registry of atomic counters, gauges and fixed-bucket
// latency histograms, a stage tracer that records the pipeline's nested
// phase structure (the detection/screening split of the paper's Fig 8b,
// pruning rounds, component shards, stream sweeps) as spans with
// durations and key=value attributes, a structured audit-event sink
// (EventSink) that captures the per-decision trail an analyst reviews —
// which vertex was pruned under which bound, which behavior check dropped
// a user, how the feedback loop widened the parameters — and a bounded
// run ledger (Ledger) of recent run summaries. A hand-rolled Prometheus
// text exposition of the registry lives in prom.go.
//
// Everything is nil-safe: a nil *Observer, *Registry, *Trace, *Span,
// *Counter, *Gauge, *Histogram, *EventSink or *Ledger is a valid no-op
// receiver. Instrumented hot paths therefore cost a nil check — no
// branches on a feature flag, no allocations — when observability is
// disabled, which is the default everywhere.
//
// Typical wiring:
//
//	o := obs.NewObserver("ricd")
//	det := &core.Detector{Params: p, Obs: o}
//	res, _ := det.Detect(g)
//	o.Trace.Finish()
//	fmt.Print(o.Trace.Tree())      // human-readable stage tree
//	data, _ := o.Trace.JSON()      // machine-readable trace
//	for _, s := range o.Metrics.Snapshot() { ... }
package obs

// Observer bundles the per-run stage trace with a metrics registry. It is
// the single hook detectors and commands share; a nil *Observer disables
// all instrumentation.
type Observer struct {
	// Trace is the stage trace of the run; spans nest under Trace.Root().
	Trace *Trace
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Events, when non-nil, receives the structured audit trail: one
	// Event per pipeline decision (prune removals, screening drops,
	// feedback widenings, group verdicts). Nil disables auditing at no
	// cost — the pipeline never even builds the event structs.
	Events *EventSink
	// Ledger, when non-nil, records one RunSummary per pipeline run for
	// the /debug/runs endpoint and the CLIs' -runs flag.
	Ledger *Ledger
}

// NewObserver returns an Observer with a fresh trace (rooted at rootName)
// and an empty registry.
func NewObserver(rootName string) *Observer {
	return &Observer{Trace: NewTrace(rootName), Metrics: NewRegistry()}
}

// Root returns the root span of the observer's trace, or nil.
func (o *Observer) Root() *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Root()
}

// Counter returns the named counter, or a nil no-op when o is nil.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or a nil no-op when o is nil.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named latency histogram, or a nil no-op.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Sink returns the audit-event sink, or a nil no-op.
func (o *Observer) Sink() *EventSink {
	if o == nil {
		return nil
	}
	return o.Events
}

// RunLedger returns the run ledger, or a nil no-op.
func (o *Observer) RunLedger() *Ledger {
	if o == nil {
		return nil
	}
	return o.Ledger
}
