package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// StageTiming is one pipeline stage's wall time inside a run summary.
type StageTiming struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// RunSummary is the ledger's record of one pipeline run: what ran, how
// long each stage took, what came out, and whether it was cut short.
type RunSummary struct {
	// Seq is the ledger-assigned run number, starting at 1.
	Seq int64 `json:"seq"`
	// Root names the run kind: "ricd.detect" or "stream.sweep".
	Root       string `json:"root"`
	DurationNS int64  `json:"duration_ns"`
	Groups     int    `json:"groups"`
	Users      int    `json:"users,omitempty"`
	Items      int    `json:"items,omitempty"`
	// Partial/Stage/Err mirror the graceful-degradation contract of
	// detect.Result: a cut-short run records the stage it reached and the
	// cause.
	Partial bool   `json:"partial,omitempty"`
	Stage   string `json:"stage,omitempty"`
	Err     string `json:"err,omitempty"`
	// Stages are the run span's direct children (per-stage durations from
	// the tracer).
	Stages []StageTiming `json:"stages,omitempty"`
	// Stats are the run's counter deltas (pruning rounds, shard count,
	// frontier evaluations, screening drops, …).
	Stats map[string]int64 `json:"stats,omitempty"`
}

// Ledger is a bounded ring of the last N run summaries, served at
// /debug/runs and dumpable via the CLIs' -runs flag. The nil *Ledger is a
// no-op.
type Ledger struct {
	mu      sync.Mutex
	seq     int64
	runs    []RunSummary
	next    int
	wrapped bool
}

// NewLedger returns a ledger retaining the last n runs (n < 1 is clamped
// to 1).
func NewLedger(n int) *Ledger {
	if n < 1 {
		n = 1
	}
	return &Ledger{runs: make([]RunSummary, n)}
}

// Record appends one run summary, assigning its sequence number and
// evicting the oldest entry when the ring is full.
func (l *Ledger) Record(rs RunSummary) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	rs.Seq = l.seq
	l.runs[l.next] = rs
	l.next++
	if l.next == len(l.runs) {
		l.next = 0
		l.wrapped = true
	}
	l.mu.Unlock()
}

// RecordRun files one finished run with the observer's ledger, if it has one:
// what the run produced, how far it got, its per-stage durations from the run
// span sp, and the counters that advanced since before — the Counters()
// snapshot the caller took when the run started.
func (o *Observer) RecordRun(root string, sp *Span, elapsed time.Duration, groups, users, items int,
	partial bool, stage string, err error, before map[string]int64) {

	l := o.RunLedger()
	if l == nil {
		return
	}
	sum := RunSummary{
		Root:       root,
		DurationNS: elapsed.Nanoseconds(),
		Groups:     groups,
		Users:      users,
		Items:      items,
		Partial:    partial,
		Stage:      stage,
		Stages:     StagesOf(sp.Export()),
		Stats:      CounterDelta(before, o.Metrics.Counters()),
	}
	if err != nil {
		sum.Err = err.Error()
	}
	l.Record(sum)
}

// Runs returns the retained summaries, oldest first (nil for nil).
func (l *Ledger) Runs() []RunSummary {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []RunSummary
	if l.wrapped {
		out = append(out, l.runs[l.next:]...)
	}
	return append(out, l.runs[:l.next]...)
}

// Len returns how many runs have been recorded in total (not capped by
// the ring size; 0 for nil).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq)
}

// JSON serializes the retained runs, oldest first, indented for curling.
func (l *Ledger) JSON() ([]byte, error) {
	runs := l.Runs()
	if runs == nil {
		runs = []RunSummary{}
	}
	return json.MarshalIndent(runs, "", "  ")
}

// StagesOf flattens a run span's direct children into stage timings — the
// per-stage duration breakdown a RunSummary carries.
func StagesOf(e *SpanExport) []StageTiming {
	if e == nil || len(e.Children) == 0 {
		return nil
	}
	out := make([]StageTiming, 0, len(e.Children))
	for _, c := range e.Children {
		out = append(out, StageTiming{Name: c.Name, DurationNS: c.DurationNS})
	}
	return out
}

// CounterDelta returns the counters that advanced between two Counters()
// snapshots — the per-run share of the registry's cumulative counts.
// Counters absent from before count from zero.
func CounterDelta(before, after map[string]int64) map[string]int64 {
	var out map[string]int64
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = d
		}
	}
	return out
}
