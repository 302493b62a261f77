package stream

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

// TestDetectContextCancelledSweepCommitsNothing: a cancelled sweep returns
// a partial result and leaves the detector's incremental state untouched,
// so the next sweep redoes the work and matches an uninterrupted run.
func TestDetectContextCancelledSweepCommitsNothing(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("stream.sweep", faultinject.Fault{Do: cancel, Times: 1})
	res, err := d.SweepContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("cancelled sweep result = %+v, want a partial result", res)
	}
	if stateOf(d).detections != 0 {
		t.Error("cancelled sweep counted as a completed detection")
	}
	faultinject.Reset()

	// The aborted sweep committed nothing, so the retry is still the first
	// full detection and must match a reference detector exactly.
	res2, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fullDetect(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res2.Groups), len(full.Groups); got != want {
		t.Errorf("post-cancel sweep found %d groups, reference %d", got, want)
	}
}

// TestDetectContextPanicIsStageError: a panicking sweep stage surfaces as
// a *detect.StageError, and like a cancel it commits nothing.
func TestDetectContextPanicIsStageError(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("core.screen.group", faultinject.Fault{Panic: "sweep bug", Times: 1})

	res, err := d.SweepContext(context.Background())
	var se *detect.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *detect.StageError", err)
	}
	if res == nil || !res.Partial {
		t.Error("panicking sweep did not yield a partial result")
	}
	if stateOf(d).detections != 0 {
		t.Error("panicked sweep counted as a completed detection")
	}
}

// TestConcurrentIngestAndSweep races AddClick against in-flight sweeps —
// run under -race this is the proof of the snapshot-based concurrency
// contract. Clicks streamed during a sweep must land in a later one, never
// be lost.
func TestConcurrentIngestAndSweep(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range attack {
			d.AddClick(r.UserID, r.ItemID, r.Clicks)
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := d.SweepContext(context.Background()); err != nil {
			t.Errorf("sweep %d: %v", i, err)
		}
	}
	wg.Wait()

	// One quiescent sweep after ingestion finishes: every attack click is
	// now visible, so the implanted groups must be found.
	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Error("no groups found after concurrent ingestion of the attack records")
	}
	if d.Events() != len(attack) {
		t.Errorf("Events = %d, want %d", d.Events(), len(attack))
	}
}

// TestConcurrentIngestWithCancelledSweeps mixes cancellation into the race:
// aborted sweeps must neither corrupt state nor lose streamed clicks.
func TestConcurrentIngestWithCancelledSweeps(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range attack {
			d.AddClick(r.UserID, r.ItemID, r.Clicks)
		}
	}()
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // cancelled before the sweep starts: partial, no commit
		}
		res, err := d.SweepContext(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("sweep %d: %v", i, err)
		}
		if errors.Is(err, context.Canceled) && (res == nil || !res.Partial) {
			t.Errorf("sweep %d: cancelled sweep did not return a partial result", i)
		}
		cancel()
	}
	wg.Wait()

	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Error("no groups found after cancelled-sweep churn")
	}
}

// TestMidSweepClickOnSnapshottedUserStaysDirty: a click streamed DURING a
// sweep for a user that sweep already snapshotted was taken on a graph the
// sweep cannot see, so the commit must leave the user dirty for the next
// sweep (regression: the commit used to delete exactly the snapshotted
// users, silently un-marking the mid-sweep click forever).
func TestMidSweepClickOnSnapshottedUserStaysDirty(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil { // full sweep; retires all dirty users
		t.Fatal(err)
	}

	d.AddClick(1, 2, 3) // user 1 joins the next sweep's snapshot
	// The stream.sweep site fires after the snapshot is taken: this click
	// races the in-flight sweep, exactly the advertised ingestion pattern.
	faultinject.Arm("stream.sweep", faultinject.Fault{Do: func() {
		d.AddClick(1, 2, 4)
	}, Times: 1})
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	_, stillDirty := d.dirty[1]
	d.mu.Unlock()
	if !stillDirty {
		t.Fatal("mid-sweep click for a snapshotted user was un-marked by the commit; the next sweep will never examine it")
	}
}

// TestAbortedSweepRestoresDirtySet: an aborted sweep owns its dirty
// snapshot, so the abort path must merge it back — losing it would shrink
// the next sweep's scope below what correctness requires.
func TestAbortedSweepRestoresDirtySet(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}

	d.AddClick(7, 3, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("stream.sweep", faultinject.Fault{Do: cancel, Times: 1})
	if _, err := d.SweepContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	d.mu.Lock()
	_, stillDirty := d.dirty[7]
	d.mu.Unlock()
	if !stillDirty {
		t.Fatal("aborted sweep dropped its dirty snapshot instead of merging it back")
	}
}
