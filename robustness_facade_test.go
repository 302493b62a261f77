package fakeclick

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestDetectContextAcceptance is the issue's acceptance criterion: a
// cancelled DetectContext must return within 100ms of the cancellation
// with Report.Partial set, and must leak no goroutines.
func TestDetectContextAcceptance(t *testing.T) {
	defer faultinject.Reset()
	g, _ := syntheticGraph(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	// Cancel mid-pipeline, with a stall behind the checkpoint so the run
	// would visibly overshoot if cancellation were not honored promptly.
	faultinject.Arm("core.screening", faultinject.Fault{Do: func() {
		cancelledAt = time.Now()
		cancel()
	}, Times: 1})

	rep, err := DetectContext(ctx, g, smallConfig())
	latency := time.Since(cancelledAt)
	if err != nil {
		t.Fatalf("cancellation must degrade, not fail: %v", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("rep = %+v, want a partial report", rep)
	}
	if !errors.Is(rep.Err, context.Canceled) {
		t.Errorf("rep.Err = %v, want context.Canceled", rep.Err)
	}
	if rep.Stage != "screening" {
		t.Errorf("rep.Stage = %q, want screening", rep.Stage)
	}
	if latency > 100*time.Millisecond {
		t.Errorf("returned %v after cancellation, want ≤ 100ms", latency)
	}

	// No goroutine may outlive the cancelled run.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d after vs %d before", now, before)
	}
}

// TestDetectContextDeadline: an already-expired deadline yields an empty
// partial report immediately, not an error.
func TestDetectContextDeadline(t *testing.T) {
	g, _ := syntheticGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)

	rep, err := DetectContext(ctx, g, smallConfig())
	if err != nil {
		t.Fatalf("deadline expiry must degrade, not fail: %v", err)
	}
	if !rep.Partial || !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Errorf("rep.Partial=%v rep.Err=%v, want partial with DeadlineExceeded", rep.Partial, rep.Err)
	}
	if len(rep.Groups) != 0 {
		t.Errorf("nothing ran, yet report has %d groups", len(rep.Groups))
	}
}

// TestDetectContextStagePanicSurfacesAsStageError: an injected stage panic
// comes back as a *StageError alongside the partial report — the process
// must not crash.
func TestDetectContextStagePanicSurfacesAsStageError(t *testing.T) {
	defer faultinject.Reset()
	g, _ := syntheticGraph(t)
	faultinject.Arm("core.extraction", faultinject.Fault{Panic: "injected", Times: 1})

	rep, err := DetectContext(context.Background(), g, smallConfig())
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *fakeclick.StageError", err)
	}
	if se.Stage != "extraction" {
		t.Errorf("se.Stage = %q, want extraction", se.Stage)
	}
	if rep == nil || !rep.Partial {
		t.Error("stage panic did not yield a partial report")
	}
}

// TestPartialSummaryMentionsInterruption: the human-readable digest warns
// when its numbers come from a cut-short run.
func TestPartialSummaryMentionsInterruption(t *testing.T) {
	g, _ := syntheticGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := DetectContext(ctx, g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "PARTIAL") {
		t.Errorf("Summary() of a partial report lacks the PARTIAL banner:\n%s", sum)
	}
}

// TestFeedbackCancellationReportNamesStage: cancelling the feedback loop
// after a complete iteration keeps that iteration's groups, and the report
// still names the interrupted stage ("feedback") — the Summary must never
// read `interrupted during ""`.
func TestFeedbackCancellationReportNamesStage(t *testing.T) {
	defer faultinject.Reset()
	g, _ := syntheticGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	faultinject.Arm("core.feedback.round", faultinject.Fault{Do: func() {
		calls++
		if calls == 2 {
			cancel()
		}
	}})

	rep, err := DetectWithExpectationContext(ctx, g, smallConfig(), 1<<30, 10)
	if err != nil {
		t.Fatalf("pure cancellation must degrade, not fail: %v", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("rep = %+v, want a partial report", rep)
	}
	if rep.Stage != "feedback" {
		t.Errorf("Stage = %q, want \"feedback\"", rep.Stage)
	}
	if sum := rep.Summary(); strings.Contains(sum, `during ""`) {
		t.Errorf("Summary names an empty stage:\n%s", sum)
	}
}
