package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one cycle share its number; Parent is the index of the
// span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's first span
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cycle  int    `json:"cycle"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is made: the same harness code
// with the tracer left out.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record files a finished interval and returns its index, for use as the
// parent of intervals it contains; -1 from a nil tracer.
func (t *tracer) record(name string, parent, cycle int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Cycle: cycle,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// open reserves a span whose children finish before it does.
func (t *tracer) open(name string, parent, cycle int, start time.Time) int {
	return t.record(name, parent, cycle, start, start)
}

func (t *tracer) close(idx int, end time.Time) {
	if t != nil && idx >= 0 {
		t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []int64 {
	if t == nil {
		return nil
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

type traceFile struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	MarketSeed int64   `json:"market_seed"`
	Env        env     `json:"env"`
	Spans      []span  `json:"spans"`
	SelfNS     []int64 `json:"self_ns"`
}

func (t *tracer) write(dir string, r *runResult) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: r.Workload, Seed: r.Seed, MarketSeed: r.MarketSeed, Env: r.Env, Spans: t.spans, SelfNS: t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.Workload+".json"), data, 0o644)
}
