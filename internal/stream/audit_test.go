package stream

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
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
