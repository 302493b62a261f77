package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil *Counter
// is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBuckets are the fixed latency histogram bucket upper bounds:
// decades from 10µs to 10s. Observations above the last bound land in an
// implicit overflow bucket.
var DefaultBuckets = []time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram with an atomic count per
// bucket plus total count and sum. The nil *Histogram is a no-op.
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sample is one metric value in a registry snapshot.
type Sample struct {
	Name  string
	Value int64
}

// Registry is a named collection of counters, gauges and histograms.
// Instruments are created on first use and live forever. The nil *Registry
// hands out nil (no-op) instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name (with
// DefaultBuckets), creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(DefaultBuckets)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every metric as a flat list of samples sorted by name.
// Histograms expand into one sample per bucket (`name.le.<bound>` with the
// bound rendered as a seconds-valued number, e.g. `name.le.0.001`, and
// `name.le.inf` for the overflow bucket) plus `name.count` and
// `name.sum_ns`. Bucket samples are per-bucket counts; the Prometheus
// exposition (prom.go) is where they become cumulative.
func (r *Registry) Snapshot() []Sample {
	m := r.Map()
	out := make([]Sample, 0, len(m))
	for name, v := range m {
		out = append(out, Sample{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map returns the same flat view as Snapshot as a name→value map, the
// shape expvar.Func wants.
func (r *Registry) Map() map[string]int64 {
	if r == nil {
		return nil
	}
	out := map[string]int64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		for i := range h.buckets {
			label := "inf"
			if i < len(h.bounds) {
				label = secondsLabel(h.bounds[i])
			}
			out[name+".le."+label] = h.buckets[i].Load()
		}
		out[name+".count"] = h.count.Load()
		out[name+".sum_ns"] = h.sum.Load()
	}
	return out
}

// Counters returns a name→value map of the counters alone — the
// monotonic subset whose before/after difference is meaningful, used by
// the run ledger to attribute counts to individual runs (CounterDelta).
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}
