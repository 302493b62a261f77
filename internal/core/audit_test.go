package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
)

// parseAudit decodes a JSONL audit buffer, failing the test on any
// unparseable line and verifying the sink's contiguous-sequence contract.
func parseAudit(t *testing.T, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	var events []obs.Event
	for i, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("audit line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("audit line %d has seq %d, want %d (lost or torn line)", i+1, e.Seq, i+1)
		}
		events = append(events, e)
	}
	return events
}

// auditedObserver returns an observer whose audit trail lands in the
// returned buffer as JSONL.
func auditedObserver(name string) (*obs.Observer, *bytes.Buffer) {
	var buf bytes.Buffer
	o := obs.NewObserver(name)
	o.Events = obs.NewEventSink(&buf, 0)
	return o, &buf
}

// screenDropReasons is the closed set of typed screening causes; the audit
// contract is that every screened-out node carries one of these.
var screenDropReasons = map[string]bool{
	"user.no_attack_edge":     true,
	"user.hot_avg":            true,
	"user.no_verified_target": true,
	"item.hot":                true,
	"item.supporters":         true,
	"item.group_dissolved":    true,
}

// TestAuditTrailEndToEnd runs the full pipeline with an event sink and
// checks the explainability contract: bracketed run, a typed reason and
// failing statistic on every removal and drop, and a risk score plus
// evidence on every final verdict.
func TestAuditTrailEndToEnd(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	o, buf := auditedObserver("test")
	d := &Detector{Params: smallParams(), Obs: o}
	res, err := d.Detect(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups found; the verdict assertions below would be vacuous")
	}

	events := parseAudit(t, buf)
	if len(events) < 4 {
		t.Fatalf("audit trail has only %d events", len(events))
	}
	if events[0].Type != obs.EventRunStart {
		t.Errorf("first event is %q, want %q", events[0].Type, obs.EventRunStart)
	}
	if events[0].Users == 0 || events[0].Items == 0 {
		t.Errorf("run.start missing graph size: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != obs.EventRunEnd {
		t.Errorf("last event is %q, want %q", last.Type, obs.EventRunEnd)
	}
	if last.Groups != len(res.Groups) {
		t.Errorf("run.end groups = %d, want %d", last.Groups, len(res.Groups))
	}

	var verdicts []obs.Event
	for _, e := range events {
		switch e.Type {
		case obs.EventPruneRemove:
			if e.Side != "user" && e.Side != "item" {
				t.Fatalf("prune.remove without side: %+v", e)
			}
			if e.Reason != "core.degree" && e.Reason != "square.neighbors" {
				t.Fatalf("prune.remove with untyped reason %q", e.Reason)
			}
			if e.Stat == "" {
				t.Fatalf("prune.remove without the violated bound: %+v", e)
			}
			if e.Round < 1 {
				t.Fatalf("prune.remove without round: %+v", e)
			}
		case obs.EventScreenDrop:
			if !screenDropReasons[e.Reason] {
				t.Fatalf("screen.drop with untyped reason %q: %+v", e.Reason, e)
			}
			if e.Group < 1 {
				t.Fatalf("screen.drop without candidate group index: %+v", e)
			}
		case obs.EventGroupVerdict:
			verdicts = append(verdicts, e)
		}
	}
	if len(verdicts) != len(res.Groups) {
		t.Fatalf("%d group.verdict events for %d final groups", len(verdicts), len(res.Groups))
	}
	for i, v := range verdicts {
		if v.Group != i+1 {
			t.Errorf("verdict %d has group index %d", i, v.Group)
		}
		if v.Score != res.Groups[i].Score {
			t.Errorf("verdict %d score = %v, want %v", i, v.Score, res.Groups[i].Score)
		}
		if v.Score <= 0 {
			t.Errorf("verdict %d has no positive risk score", i)
		}
		if v.Stat == "" {
			t.Errorf("verdict %d carries no evidence statistics", i)
		}
		if v.Users == 0 || v.Items == 0 {
			t.Errorf("verdict %d missing group size: %+v", i, v)
		}
	}
}

// removalSet projects an audit trail onto its prune removals as a
// side-qualified ID set.
func removalSet(events []obs.Event) map[string]bool {
	set := make(map[string]bool)
	for _, e := range events {
		if e.Type == obs.EventPruneRemove {
			set[fmt.Sprintf("%s/%d", e.Side, e.ID)] = true
		}
	}
	return set
}

// TestAuditSerialShardedEquivalence checks that the audit trail of the
// component-sharded pruning, with its translated shard-local IDs, names
// exactly the vertices the monolithic reference removes — the observable
// counterpart of the shard-equivalence harness.
func TestAuditSerialShardedEquivalence(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())

	pruned := ds.Graph.Clone()
	refPrune(pruned, smallParams())
	serial := make(map[string]bool)
	ds.Graph.EachLiveUser(func(u bipartite.NodeID) bool {
		if !pruned.UserAlive(u) {
			serial[fmt.Sprintf("%s/%d", bipartite.UserSide, u)] = true
		}
		return true
	})
	ds.Graph.EachLiveItem(func(v bipartite.NodeID) bool {
		if !pruned.ItemAlive(v) {
			serial[fmt.Sprintf("%s/%d", bipartite.ItemSide, v)] = true
		}
		return true
	})

	p := smallParams()
	p.Workers = 4
	o, buf := auditedObserver("test")
	if _, err := (&Detector{Params: p, Obs: o}).Detect(ds.Graph); err != nil {
		t.Fatal(err)
	}
	sharded := removalSet(parseAudit(t, buf))

	if len(serial) == 0 {
		t.Fatal("serial run pruned nothing; equivalence is vacuous")
	}
	for id := range serial {
		if !sharded[id] {
			t.Errorf("serial removed %s but sharded audit has no such event", id)
		}
	}
	for id := range sharded {
		if !serial[id] {
			t.Errorf("sharded removed %s but serial audit has no such event", id)
		}
	}
}

// screenDropSet projects an audit trail onto its screen.drop events as a
// multiset of (side, id, group, reason, stat), failing on any event stamped
// with a shard: screening drops name original IDs and candidate indices.
func screenDropSet(t *testing.T, events []obs.Event) map[string]int {
	t.Helper()
	set := make(map[string]int)
	for _, e := range events {
		if e.Type != obs.EventScreenDrop {
			continue
		}
		if e.Shard != 0 {
			t.Fatalf("screen.drop stamped with shard %d: %+v", e.Shard, e)
		}
		set[fmt.Sprintf("%s/%d/%d/%s/%s", e.Side, e.ID, e.Group, e.Reason, e.Stat)]++
	}
	return set
}

// TestAuditedDetectionScreensLikeTheGlobalPass: attaching an audit sink
// does not change what screening runs. Per workload and worker count, an
// audited detection returns the unaudited result exactly; its screen.drop
// trail is the one ScreenGroupsCtx emits when it screens
// NearBicliqueExtractCtx's candidates on the original graph.
func TestAuditedDetectionScreensLikeTheGlobalPass(t *testing.T) {
	type workload struct {
		name string
		cfg  synth.Config
		p    Params
	}
	workloads := []workload{
		{"small", synth.SmallConfig(), smallParams()},
		{"default", synth.DefaultConfig(), smallParams()},
	}
	for i, cfg := range equivCorpus() {
		workloads = append(workloads, workload{fmt.Sprintf("corpus %d", i), cfg, equivParams(i, cfg)})
	}
	drops := 0
	for _, w := range workloads {
		ds := synth.MustGenerate(w.cfg)
		for _, workers := range []int{1, 4} {
			p := w.p
			p.Workers = workers
			label := fmt.Sprintf("%s workers %d", w.name, workers)

			plain, err := (&Detector{Params: p}).Detect(ds.Graph)
			if err != nil {
				t.Fatal(err)
			}
			o, buf := auditedObserver("test")
			audited, err := (&Detector{Params: p, Obs: o}).Detect(ds.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Groups, audited.Groups) || !reflect.DeepEqual(plain.RankedUsers, audited.RankedUsers) ||
				!reflect.DeepEqual(plain.RankedItems, audited.RankedItems) {
				t.Fatalf("%s: the audited detection's result diverged", label)
			}
			got := screenDropSet(t, parseAudit(t, buf))

			candidates, err := NearBicliqueExtractCtx(context.Background(), ds.Graph.Clone(), p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			og, gbuf := auditedObserver("test")
			hot := ComputeHotSet(ds.Graph, p.THot)
			if _, err := ScreenGroupsCtx(context.Background(), ds.Graph, candidates, hot, p, nil, og); err != nil {
				t.Fatal(err)
			}
			want := screenDropSet(t, parseAudit(t, gbuf))
			for key, n := range want {
				if got[key] != n {
					t.Fatalf("%s: screen.drop %s emitted %d times by the audited detection, %d by the global pass",
						label, key, got[key], n)
				}
				drops += n
			}
			if len(got) != len(want) {
				t.Fatalf("%s: audited detection emitted %d distinct screen.drop events, the global pass %d",
					label, len(got), len(want))
			}

		}
	}
	if drops == 0 {
		t.Fatal("no workload dropped anything in screening; the trail comparison is vacuous")
	}
}

// TestAuditFeedbackWiden forces the relax loop and checks every widening
// is audited with the knob, both values, and the iteration.
func TestAuditFeedbackWiden(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	o, buf := auditedObserver("test")
	// An unreachable expectation guarantees at least one relaxation.
	fr, err := DetectWithFeedbackContext(context.Background(), ds.Graph, smallParams(), ds.Graph.LiveUsers()*2, 4, o)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Iterations < 2 {
		t.Fatalf("feedback loop ran only %d iteration(s); no widening to audit", fr.Iterations)
	}
	knobs := map[string]bool{"t_click": true, "alpha": true, "k1": true, "k2": true}
	widens := 0
	for _, e := range parseAudit(t, buf) {
		if e.Type != obs.EventFeedbackWiden {
			continue
		}
		widens++
		if !knobs[e.Reason] {
			t.Errorf("feedback.widen with unknown knob %q", e.Reason)
		}
		if e.Old == "" || e.New == "" {
			t.Errorf("feedback.widen without old/new values: %+v", e)
		}
		if e.Old == e.New {
			t.Errorf("feedback.widen with unchanged value %q", e.Old)
		}
		if e.Round < 1 {
			t.Errorf("feedback.widen without iteration: %+v", e)
		}
	}
	if widens == 0 {
		t.Error("relax loop iterated but emitted no feedback.widen events")
	}
}

// TestDetectPartialCounters checks the graceful-degradation metrics: a
// cut-short run increments detect.partial and attributes the interrupted
// stage via detect.stage_reached.<stage>.
func TestDetectPartialCounters(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.screening", faultinject.Fault{Do: cancel, Times: 1})

	o := obs.NewObserver("test")
	d := &Detector{Params: smallParams(), Obs: o}
	res, err := d.DetectContext(ctx, ds.Graph)
	if err == nil || res == nil || !res.Partial {
		t.Fatalf("expected a partial run, got res=%+v err=%v", res, err)
	}
	counters := o.Metrics.Counters()
	if counters["detect.partial"] != 1 {
		t.Errorf("detect.partial = %d, want 1", counters["detect.partial"])
	}
	if counters["detect.stage_reached.screening"] != 1 {
		t.Errorf("detect.stage_reached.screening = %d, want 1 (counters: %v)",
			counters["detect.stage_reached.screening"], counters)
	}
}

// TestDetectCompleteRunNoPartialCounter is the negative: a complete run
// must not touch the partial counters.
func TestDetectCompleteRunNoPartialCounter(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	o := obs.NewObserver("test")
	d := &Detector{Params: smallParams(), Obs: o}
	if _, err := d.Detect(ds.Graph); err != nil {
		t.Fatal(err)
	}
	for name, v := range o.Metrics.Counters() {
		if name == "detect.partial" && v != 0 {
			t.Errorf("complete run incremented detect.partial to %d", v)
		}
	}
}

// TestAuditConcurrentCancel runs the sharded pipeline (multiple prune
// workers and parallel screeners all emitting into ONE sink) and cancels
// it mid-run. Under -race this doubles as the data-race check; the
// assertions check the sink's integrity contract — every line parses, the
// sequence is contiguous (no lost or torn writes) — and that the cut-short
// run leaks no goroutines.
func TestAuditConcurrentCancel(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	baseline := runtime.NumGoroutine()

	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire the cancel from inside a shard worker after a few frontier
	// batches, so other workers are mid-emission when it lands.
	var hits atomic.Int32
	faultinject.Arm("core.frontier", faultinject.Fault{Do: func() {
		if hits.Add(1) == 3 {
			cancel()
		}
	}})

	p := smallParams()
	p.Workers = 4
	o, buf := auditedObserver("test")
	d := &Detector{Params: p, Obs: o}
	res, err := d.DetectContext(ctx, ds.Graph)
	if res == nil {
		t.Fatalf("cancelled run returned nil result (err=%v)", err)
	}

	events := parseAudit(t, buf) // verifies parse + contiguous seq
	if got := o.Events.Seq(); got != uint64(len(events)) {
		t.Errorf("sink saw %d emissions but %d lines were written", got, len(events))
	}

	// Workers must wind down after the cancel; allow the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}
