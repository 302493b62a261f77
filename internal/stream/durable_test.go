package stream

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

// This file is the golden-oracle harness for the durability layer: a
// detector recovered from snapshot + WAL replay must produce BYTE-IDENTICAL
// sweep results to an uninterrupted in-memory detector fed the same
// clicks. "Crash" in these tests means abandoning a detector without Close
// (its WAL is left exactly as a killed process would leave it) and
// reopening the directory.

// groupBytes canonicalizes sweep output for byte-level comparison.
func groupBytes(groups []detect.Group) []byte {
	return appendGroups(nil, groups)
}

// sweep and fullDetect call the context-taking entry points for tests that
// neither cancel nor time out.
func sweep(d *Detector) (*detect.Result, error) { return d.SweepContext(context.Background()) }

func fullDetect(d *Detector) (*detect.Result, error) {
	return d.FullDetectContext(context.Background())
}

// feedRebuildOracle ingests records into a graph-build oracle and forgets its
// built graph, so that its next build — whichever call triggers it —
// re-aggregates the whole click history and rebuilds from scratch (the
// compaction branch of graphLocked) instead of patching.
func feedRebuildOracle(oracle *Detector, records []clicktable.Record) {
	oracle.AddBatch(records)
	oracle.mu.Lock()
	oracle.graph = nil
	oracle.mu.Unlock()
}

func mustSweep(t *testing.T, d *Detector) *detect.Result {
	t.Helper()
	res, err := sweep(d)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return res
}

func sameGroups(t *testing.T, label string, want, got *detect.Result) {
	t.Helper()
	if !bytes.Equal(groupBytes(want.Groups), groupBytes(got.Groups)) {
		t.Fatalf("%s: sweep diverged: want %d groups, got %d (serialized forms differ)",
			label, len(want.Groups), len(got.Groups))
	}
}

func openDurable(t *testing.T, dir string, dur Durability) (*Detector, *RecoveryInfo) {
	t.Helper()
	dur.Dir = dir
	d, info, err := Open(dur, smallParams(), nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d, info
}

// recoveryWorkloads is the golden corpus: varied marketplace shapes so the
// equivalence claim covers empty results, single groups and multi-group
// sweeps.
func recoveryWorkloads() []synth.Config {
	var cfgs []synth.Config
	for seed := int64(1); seed <= 4; seed++ {
		c := synth.SmallConfig()
		c.Seed = seed
		c.Attack.Groups = 1 + int(seed%3)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestRecoveryEquivalenceGoldenWorkloads drives an oracle (memory-only)
// detector and a durable detector through identical three-phase streams
// (background batch, first attack half, second attack half) with a sweep
// after each phase, crashing and recovering the durable one at two
// different points. Every sweep after recovery must match the oracle
// byte for byte.
func TestRecoveryEquivalenceGoldenWorkloads(t *testing.T) {
	for _, cfg := range recoveryWorkloads() {
		ds := synth.MustGenerate(cfg)
		background, attack := splitDataset(ds)
		half := len(attack) / 2
		phaseA, phaseB := attack[:half], attack[half:]
		var bg []clicktable.Record
		background.Each(func(r clicktable.Record) bool {
			bg = append(bg, r)
			return true
		})

		// Oracle: never crashes, never persists — and rebuilds its graph from
		// the full history for every sweep, so recovered delta-patched sweeps
		// are compared against pure from-scratch rebuilds.
		oracle, err := New(nil, smallParams())
		if err != nil {
			t.Fatal(err)
		}
		feedRebuildOracle(oracle, bg)
		r1 := mustSweep(t, oracle)
		feedRebuildOracle(oracle, phaseA)
		r2 := mustSweep(t, oracle)
		feedRebuildOracle(oracle, phaseB)
		r3 := mustSweep(t, oracle)

		for _, crashPoint := range []string{"after-sweep-2", "mid-phase-3"} {
			dir := t.TempDir()
			// Small snapshot cadence and segments so recovery exercises
			// snapshot + tail replay and segment rotation, not just one log.
			dur := Durability{SnapshotEvery: 200, SegmentBytes: 1 << 16}
			d1, info := openDurable(t, dir, dur)
			if !info.ColdStart {
				t.Fatalf("seed %d/%s: fresh dir was not a cold start: %+v", cfg.Seed, crashPoint, info)
			}
			d1.AddBatch(bg)
			sameGroups(t, crashPoint+"/sweep1", r1, mustSweep(t, d1))
			// Phase A half by batch, half by single clicks: both WAL paths.
			d1.AddBatch(phaseA[:len(phaseA)/2])
			for _, r := range phaseA[len(phaseA)/2:] {
				d1.AddClick(r.UserID, r.ItemID, r.Clicks)
			}
			sameGroups(t, crashPoint+"/sweep2", r2, mustSweep(t, d1))
			if crashPoint == "mid-phase-3" {
				d1.AddBatch(phaseB)
			}
			// Crash: abandon d1 with its WAL handle mid-air.
			d2, info := openDurable(t, dir, dur)
			if info.ColdStart {
				t.Fatalf("seed %d/%s: recovery saw a cold start", cfg.Seed, crashPoint)
			}
			if info.SnapshotClock == 0 && info.Replayed == 0 {
				t.Fatalf("seed %d/%s: recovery found nothing: %+v", cfg.Seed, crashPoint, info)
			}
			if crashPoint == "after-sweep-2" {
				d2.AddBatch(phaseB)
			}
			sameGroups(t, crashPoint+"/sweep3", r3, mustSweep(t, d2))
			if got, want := d2.Events(), oracle.Events(); got != want {
				t.Fatalf("seed %d/%s: recovered events=%d oracle=%d", cfg.Seed, crashPoint, got, want)
			}
			if got, want := stateOf(d2).detections, stateOf(oracle).detections; got != want {
				t.Fatalf("seed %d/%s: recovered detections=%d oracle=%d", cfg.Seed, crashPoint, got, want)
			}
			if err := d2.Close(); err != nil {
				t.Fatalf("seed %d/%s: close: %v", cfg.Seed, crashPoint, err)
			}
		}
	}
}

// TestRecoverySnapshotTakenMidSweep crashes a detector whose LAST state
// snapshot was taken while a sweep was in flight and which then died
// before that sweep committed. The snapshot must have captured the sweep's
// in-flight dirty set, or the recovered detector's
// incremental sweep would silently skip the attack. Run under -race this
// also exercises Snapshot racing a live sweep.
func TestRecoverySnapshotTakenMidSweep(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	var bg []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		bg = append(bg, r)
		return true
	})

	oracle, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddBatch(bg)
	mustSweep(t, oracle)
	oracle.AddBatch(attack)
	want := mustSweep(t, oracle)

	dir := t.TempDir()
	d1, _ := openDurable(t, dir, Durability{})
	d1.AddBatch(bg)
	mustSweep(t, d1)
	d1.AddBatch(attack)

	// The second sweep blocks at its fault site (after taking ownership of
	// the dirty set), we snapshot mid-sweep, then the sweep dies before
	// committing — the injected panic stands in for the process crash.
	started := make(chan struct{})
	snapped := make(chan struct{})
	faultinject.Arm("stream.sweep", faultinject.Fault{
		Do: func() {
			close(started)
			<-snapped
		},
		Panic: "injected crash before commit",
		Times: 1,
	})
	sweepDone := make(chan *detect.Result, 1)
	go func() {
		res, _ := sweep(d1)
		sweepDone <- res
	}()
	<-started
	if err := d1.Snapshot(); err != nil {
		t.Fatalf("mid-sweep snapshot: %v", err)
	}
	close(snapped)
	if res := <-sweepDone; !res.Partial {
		t.Fatal("faulted sweep was not partial")
	}
	faultinject.Reset()

	d2, info := openDurable(t, dir, Durability{})
	if info.SnapshotClock == 0 {
		t.Fatalf("recovery ignored the mid-sweep snapshot: %+v", info)
	}
	sameGroups(t, "post-recovery sweep", want, mustSweep(t, d2))
}

// TestRecoveryCrashBetweenSnapshotAndAppend kills the detector after a
// snapshot but exactly at the next WAL append (the stream.wal.append fault
// site panics before any bytes land), then re-sends the lost click to both
// the oracle and the recovered detector. State must rejoin the oracle
// exactly: the half-applied click may not exist anywhere.
func TestRecoveryCrashBetweenSnapshotAndAppend(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	var bg []clicktable.Record
	background.Each(func(r clicktable.Record) bool {
		bg = append(bg, r)
		return true
	})

	oracle, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddBatch(bg)
	mustSweep(t, oracle)

	dir := t.TempDir()
	d1, _ := openDurable(t, dir, Durability{})
	d1.AddBatch(bg)
	mustSweep(t, d1)
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// The very next WAL append dies before writing. AddClick panics while
	// holding the detector lock — exactly what a crash looks like from the
	// outside: the click is neither on disk nor recoverable.
	faultinject.Arm("stream.wal.append", faultinject.Fault{Panic: "injected crash at append", Times: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append fault did not fire")
			}
		}()
		d1.AddClick(attack[0].UserID, attack[0].ItemID, attack[0].Clicks)
	}()
	faultinject.Reset()

	d2, info := openDurable(t, dir, Durability{})
	if info.SnapshotClock == 0 || info.Replayed != 0 {
		t.Fatalf("expected pure-snapshot recovery, got %+v", info)
	}
	// The lost click is re-sent (an at-least-once upstream would do this),
	// then both detectors see the rest of the attack.
	oracle.AddBatch(attack)
	want := mustSweep(t, oracle)
	d2.AddBatch(attack)
	sameGroups(t, "post-recovery sweep", want, mustSweep(t, d2))
}

// TestWALTornTailRecovery corrupts the WAL the way a crash does — cutting
// the last frame short — and verifies recovery truncates, reports it, and
// rejoins an oracle that never saw the torn click.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d1, _ := openDurable(t, dir, Durability{})
	for i := 0; i < 10; i++ {
		d1.AddClick(uint32(i), 1, 5)
	}
	// Tear the newest segment mid-frame, as if the process died inside the
	// final write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	d2, info := openDurable(t, dir, Durability{})
	if info.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	if info.Replayed != 9 {
		t.Fatalf("replayed %d clicks, want 9", info.Replayed)
	}
	oracle, _ := New(nil, smallParams())
	for i := 0; i < 9; i++ {
		oracle.AddClick(uint32(i), 1, 5)
	}
	sameGroups(t, "post-truncation sweep", mustSweep(t, oracle), mustSweep(t, d2))
}

// TestWALWriteFailureDegradesToMemoryOnly proves graceful degradation: a
// disk failure flips the detector to memory-only operation — detection
// keeps working on everything already ingested plus new clicks — and the
// latched error is visible via DurabilityErr.
func TestWALWriteFailureDegradesToMemoryOnly(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	dir := t.TempDir()
	d, _ := openDurable(t, dir, Durability{})
	var recs []clicktable.Record
	ds.Table.Each(func(r clicktable.Record) bool {
		recs = append(recs, r)
		return true
	})
	d.AddBatch(recs[:len(recs)/2])

	diskErr := errors.New("injected disk failure")
	faultinject.Arm(durable.SiteWrite, faultinject.Fault{Err: diskErr, Times: 1})
	d.AddClick(1, 2, 3)
	faultinject.Reset()
	if err := d.DurabilityErr(); !errors.Is(err, diskErr) {
		t.Fatalf("DurabilityErr = %v, want the injected failure", err)
	}
	// Ingestion and detection continue in memory.
	d.AddBatch(recs[len(recs)/2:])
	res := mustSweep(t, d)
	oracle, _ := New(nil, smallParams())
	oracle.AddBatch(recs[:len(recs)/2])
	oracle.AddClick(1, 2, 3)
	oracle.AddBatch(recs[len(recs)/2:])
	sameGroups(t, "degraded sweep", mustSweep(t, oracle), res)
	if err := d.Close(); !errors.Is(err, diskErr) && err != nil {
		t.Fatalf("close after degrade: %v", err)
	}
}

// TestSnapshotPrunesWALAndOldSnapshots checks retention: after snapshots,
// covered WAL segments and surplus snapshot generations are deleted, and
// the directory still recovers to the oracle state.
func TestSnapshotPrunesWALAndOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	dur := Durability{SegmentBytes: 1 << 10}
	d1, _ := openDurable(t, dir, dur)
	oracle, _ := New(nil, smallParams())
	for round := 0; round < 4; round++ {
		for i := 0; i < 200; i++ {
			u, it, c := uint32(round*200+i), uint32(i%40), uint32(1+i%7)
			d1.AddClick(u, it, c)
			oracle.AddClick(u, it, c)
		}
		if err := d1.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, snaps := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			segs++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("kept %d snapshots, want 2", snaps)
	}
	if segs > 2 {
		t.Fatalf("%d WAL segments survived snapshot pruning", segs)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, info := openDurable(t, dir, dur)
	if info.SnapshotClock == 0 {
		t.Fatalf("recovery: %+v", info)
	}
	sameGroups(t, "post-prune sweep", mustSweep(t, oracle), mustSweep(t, d2))
}

// TestSnapshotBytesAreAFunctionOfState: two snapshots of one unchanged
// detector are the same file, byte for byte. With a few hundred dirty users
// a map-ordered encoding of the dirty set differs between two writes.
func TestSnapshotBytesAreAFunctionOfState(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, Durability{})
	defer d.Close()
	for u := uint32(0); u < 300; u++ {
		d.AddClick(u, u%17, 1+u%5)
	}
	var files [2][]byte
	for i := range files {
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("snapshot files %v (%v), want one", paths, err)
		}
		if files[i], err = os.ReadFile(paths[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two snapshots of one state differ (%d and %d bytes)", len(files[0]), len(files[1]))
	}
}

// TestReplayRejectsUnknownRecordType: replay never skips a record it does
// not know. A WAL whose tail holds an empty payload, or one whose type byte
// is neither click nor sweep — type 3, the retired reset record, included —
// fails Open with an error that names what it found.
func TestReplayRejectsUnknownRecordType(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "empty WAL record"},
		{"type3", []byte{3}, "type 3"},
		{"type255", []byte{0xFF, 1, 2, 3}, "type 255"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := durable.OpenWAL(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(1, appendClickRecord(nil, 7, 3, 5)); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(2, tc.payload); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			d, _, err := Open(Durability{Dir: dir}, smallParams(), nil)
			if err == nil {
				d.Close()
				t.Fatalf("Open replayed a WAL holding a %s record", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestOpenRequiresDir pins the misuse error.
func TestOpenRequiresDir(t *testing.T) {
	if _, _, err := Open(Durability{}, smallParams(), nil); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

// TestSnapshotOnMemoryOnlyDetectorErrors pins the other misuse error.
func TestSnapshotOnMemoryOnlyDetectorErrors(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err == nil {
		t.Fatal("Snapshot on memory-only detector succeeded")
	}
}
