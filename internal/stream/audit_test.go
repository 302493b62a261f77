package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestSweepAuditTrail streams an attack through two sweeps with an event
// sink attached and checks the streaming audit contract: every sweep is
// bracketed by sweep.start and sweep.commit, committed groups get verdict
// events with evidence, ingestion feeds the stream.clicks counter, and
// the JSONL sequence stays contiguous.
func TestSweepAuditTrail(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)

	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := obs.NewObserver("stream")
	o.Events = obs.NewEventSink(&buf, 0)
	d.Obs = o

	if _, err := sweep(d); err != nil { // full baseline sweep
		t.Fatal(err)
	}
	d.AddBatch(attack)
	res, err := sweep(d) // incremental sweep catches the attack
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("streamed attack produced no groups; verdict assertions would be vacuous")
	}

	var events []obs.Event
	starts, commits, verdicts := 0, 0, 0
	for i, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("audit line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("audit line %d has seq %d (lost or torn line)", i+1, e.Seq)
		}
		switch e.Type {
		case obs.EventSweepStart:
			starts++
			if e.Reason != "full" && e.Reason != "incremental" {
				t.Errorf("sweep.start with unknown type %q", e.Reason)
			}
		case obs.EventSweepCommit:
			commits++
			if commits == 2 && e.Groups != len(res.Groups) {
				t.Errorf("final sweep.commit groups = %d, want %d", e.Groups, len(res.Groups))
			}
		case obs.EventGroupVerdict:
			verdicts++
			if e.Stat == "" {
				t.Errorf("sweep verdict without evidence statistics: %+v", e)
			}
		}
		events = append(events, e)
	}
	if starts != 2 || commits != 2 {
		t.Errorf("got %d sweep.start / %d sweep.commit events, want 2/2", starts, commits)
	}
	if verdicts != len(res.Groups) {
		t.Errorf("%d verdict events for %d committed groups", verdicts, len(res.Groups))
	}
	// Sweep brackets must be ordered: a commit never precedes its start.
	depth := 0
	for _, e := range events {
		switch e.Type {
		case obs.EventSweepStart:
			depth++
		case obs.EventSweepCommit, obs.EventSweepAbort:
			depth--
		}
		if depth < 0 || depth > 1 {
			t.Fatalf("unbalanced sweep brackets at seq %d", e.Seq)
		}
	}

	if got := o.Metrics.Counters()["stream.clicks"]; got == 0 {
		t.Error("AddBatch ingested clicks but stream.clicks counter is 0")
	}
}

// TestObservationDoesNotChangeWhatRuns: an event sink records what runs and
// changes none of it. Over the equivalence corpus a detector whose observer
// has a sink and one whose observer has none take the same traffic: a full
// and an incremental sweep, two refreshes with a click between them, a Reset
// and a sweep. Every step must return the same result, compile the same
// index and leave the same counters.
func TestObservationDoesNotChangeWhatRuns(t *testing.T) {
	var groups, events int
	for i, cfg := range synth.EquivCorpus() {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			params := deltaEquivParams(cfg)
			background, attack := splitDataset(synth.MustGenerate(cfg))
			half := len(attack) / 2
			var trail bytes.Buffer
			detector := func(sink *obs.EventSink) *Detector {
				d, err := New(background, params)
				if err != nil {
					t.Fatal(err)
				}
				d.Obs = obs.NewObserver("stream")
				d.Obs.Events = sink
				return d
			}
			plain, audited := detector(nil), detector(obs.NewEventSink(&trail, 0))

			step := func(label string, run func(*Detector) (*detect.Result, error)) {
				t.Helper()
				want, werr := run(plain)
				got, gerr := run(audited)
				if werr != nil || gerr != nil {
					t.Fatalf("%s: %v (audited: %v)", label, werr, gerr)
				}
				if !bytes.Equal(resultBytes(t, want), resultBytes(t, got)) {
					t.Fatalf("%s: the audited detector returned a different result", label)
				}
				if !reflect.DeepEqual(serve.Compile(plain.Graph(), want, params.THot, params.TClick),
					serve.Compile(audited.Graph(), got, params.THot, params.TClick)) {
					t.Fatalf("%s: the compiled indexes differ", label)
				}
				if wc, gc := plain.Obs.Metrics.Counters(), audited.Obs.Metrics.Counters(); !maps.Equal(wc, gc) {
					t.Fatalf("%s: counters differ:\nplain:   %v\naudited: %v", label, wc, gc)
				}
				groups += len(want.Groups)
			}
			both := func(f func(*Detector)) { f(plain); f(audited) }
			step("full sweep", sweep)
			both(func(d *Detector) { d.AddBatch(attack[:half]) })
			step("incremental sweep", sweep)
			step("refresh", fullDetect)
			both(func(d *Detector) { d.AddClick(attack[half].UserID, attack[half].ItemID, attack[half].Clicks) })
			step("refresh after a click", fullDetect)
			both((*Detector).Reset)
			step("full sweep after Reset", sweep)
			events += bytes.Count(trail.Bytes(), []byte("\n"))
		})
	}
	if groups == 0 || events == 0 {
		t.Fatalf("the corpus found %d groups and recorded %d events; the comparison is vacuous", groups, events)
	}
}
