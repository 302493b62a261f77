package stream

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestDetectContextCancelledSweepCommitsNothing: a cancelled sweep returns
// a partial result and commits nothing, so the retry is still the first,
// full sweep and must equal the model's batch detection exactly.
func TestDetectContextCancelledSweepCommitsNothing(t *testing.T) {
	defer faultinject.Reset()
	r := newOpRun(t, smallParams(), Durability{}, synth.MustGenerate(synth.SmallConfig()).Table, false)
	if err := r.cancelledSweep("stream.sweep"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	r.sweep()
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
// users, silently un-marking the mid-sweep click forever). The driver's
// model requires user 1 dirty with the mid-sweep click's seq.
func TestMidSweepClickOnSnapshottedUserStaysDirty(t *testing.T) {
	defer faultinject.Reset()
	r := newOpRun(t, smallParams(), Durability{}, synth.MustGenerate(synth.SmallConfig()).Table, false)
	r.sweep() // full sweep; retires all dirty users
	// User 1 joins the next sweep's snapshot, then clicks again while it runs.
	r.feed([]clicktable.Record{{UserID: 1, ItemID: 2, Clicks: 3}}, true)
	r.midSweepFeed([]clicktable.Record{{UserID: 1, ItemID: 2, Clicks: 4}})
}

// TestAbortedSweepRestoresDirtySet: an aborted sweep only borrowed its dirty
// users, so they must all still be dirty — losing one would shrink the next
// sweep's scope below what correctness requires.
func TestAbortedSweepRestoresDirtySet(t *testing.T) {
	defer faultinject.Reset()
	r := newOpRun(t, smallParams(), Durability{}, synth.MustGenerate(synth.SmallConfig()).Table, false)
	r.sweep()
	r.feed([]clicktable.Record{{UserID: 7, ItemID: 3, Clicks: 5}}, true)
	if err := r.cancelledSweep("stream.sweep"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentIngestDuringRefreshesAndSweeps is the -race companion: refreshes
// and sweeps alternate while a goroutine hammers AddClick the whole time.
// Served epochs must stay strictly monotone, and every committed and every
// refreshed result must stay byte-stable after it is returned — neither may
// hand out state a concurrent ingest can dirty.
func TestConcurrentIngestDuringRefreshesAndSweeps(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	params := smallParams()
	d, err := New(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(nil)
	type frozen struct {
		epoch  uint64
		bytes  []byte         // serialized when returned
		groups []detect.Group // the very slices that were returned
	}
	var commits, refreshes []frozen
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, params.THot, params.TClick))
		commits = append(commits, frozen{store.Epoch(), groupBytes(res.Groups), res.Groups})
	}

	background, attack := splitDataset(ds)
	var bg []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		bg = append(bg, r)
		return true
	})
	d.AddBatch(bg)
	d.AddBatch(attack)
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A narrow band of one-item users churns throughout; the core peel
		// removes them in every detection.
		churn := uint32(ds.Graph.NumUsers())
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				d.AddClick(churn+i%7, i%7, 1)
			}
		}
	}()
	for k := 0; k < 5; k++ {
		res, err := fullDetect(d)
		if err != nil {
			t.Fatal(err)
		}
		refreshes = append(refreshes, frozen{0, groupBytes(res.Groups), res.Groups})
		if _, err := sweep(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if len(refreshes[0].groups) == 0 {
		t.Fatal("the refresh found no groups; the race surface was never exercised")
	}
	for i, c := range commits {
		if i > 0 && c.epoch <= commits[i-1].epoch {
			t.Errorf("served epochs not monotone: commit %d has epoch %d after %d",
				i, c.epoch, commits[i-1].epoch)
		}
		if !bytes.Equal(groupBytes(c.groups), c.bytes) {
			t.Errorf("groups served under epoch %d were mutated after commit", c.epoch)
		}
	}
	for k, r := range refreshes {
		if !bytes.Equal(groupBytes(r.groups), r.bytes) {
			t.Errorf("refresh %d's groups were mutated after it returned", k)
		}
	}
}
