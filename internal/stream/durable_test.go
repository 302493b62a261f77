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

// This file pins the durability layer's single cases: a crash mid-sweep or
// mid-append, torn and failing WAL writes, snapshot retention and bytes. The
// recovery-equivalence harness is TestRecoveryEquivalenceGoldenWorkloads
// (ops_test.go). "Crash" in these tests means abandoning a detector without
// Close (its WAL is left exactly as a killed process would leave it) and
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

// TestRecoverySnapshotTakenMidSweep crashes a detector whose LAST state
// snapshot was taken while a sweep was in flight and which then died
// before that sweep committed. The snapshot must have captured the sweep's
// in-flight dirty set, or the recovered detector's incremental sweep would
// silently skip the attack.
func TestRecoverySnapshotTakenMidSweep(t *testing.T) {
	defer faultinject.Reset()
	_, bg, phaseA, phaseB := workloadClicks(synth.SmallConfig())
	r := newOpRun(t, smallParams(), Durability{Dir: t.TempDir()}, nil, false)
	r.feed(bg, false)
	r.sweep()
	r.feed(phaseA, false)
	r.feed(phaseB, false)
	r.midSweepSnapshot(true)
	if info := r.crash(); info.SnapshotClock == 0 {
		t.Fatalf("recovery ignored the mid-sweep snapshot: %+v", info)
	}
	r.sweep()
}

// TestRecoveryCrashBetweenSnapshotAndAppend kills the detector after a
// snapshot but exactly at the next WAL append (the stream.wal.append fault
// site panics before any bytes land), then re-sends the lost click. State
// must rejoin the model and the twin exactly: the half-applied click may
// not exist anywhere.
func TestRecoveryCrashBetweenSnapshotAndAppend(t *testing.T) {
	defer faultinject.Reset()
	_, bg, phaseA, phaseB := workloadClicks(synth.SmallConfig())
	r := newOpRun(t, smallParams(), Durability{Dir: t.TempDir()}, nil, false)
	r.feed(bg, false)
	r.sweep()
	r.snapshot()

	// AddClick panics while holding the detector lock — exactly what a crash
	// looks like from the outside: the click is neither on disk nor
	// recoverable, so the model never accepts it.
	faultinject.Arm("stream.wal.append", faultinject.Fault{Panic: "injected crash at append", Times: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append fault did not fire")
			}
		}()
		r.d.AddClick(phaseA[0].UserID, phaseA[0].ItemID, phaseA[0].Clicks)
	}()
	faultinject.Reset()
	if info := r.crash(); info.SnapshotClock == 0 || info.Replayed != 0 {
		t.Fatalf("expected pure-snapshot recovery, got %+v", info)
	}
	// The lost click is re-sent (an at-least-once upstream would do this)
	// with the rest of the attack.
	r.feed(phaseA, false)
	r.feed(phaseB, false)
	r.sweep()
}

// TestWALTornTailRecovery corrupts the WAL the way a crash does — cutting
// the last frame short — and verifies recovery truncates, reports it, and
// rejoins the model and a twin that never saw the torn click.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	r := newOpRun(t, smallParams(), Durability{Dir: dir}, nil, false)
	var clicks []clicktable.Record
	for u := range uint32(9) {
		clicks = append(clicks, clicktable.Record{UserID: u, ItemID: 1, Clicks: 5})
	}
	r.feed(clicks, true)
	r.d.AddClick(9, 1, 5) // the click the tear destroys
	// Tear the newest segment mid-frame, as if the process died inside the
	// final write.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("WAL segments %v: %v", segs, err)
	}
	fi, err := os.Stat(segs[len(segs)-1])
	if err == nil {
		err = os.Truncate(segs[len(segs)-1], fi.Size()-5)
	}
	if err != nil {
		t.Fatal(err)
	}
	if info := r.crash(); info.TruncatedBytes == 0 || info.Replayed != 9 {
		t.Fatalf("recovery %+v, want a torn tail cut and 9 clicks replayed", info)
	}
	r.sweep()
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
// the directory still recovers to the model's and the twin's state.
func TestSnapshotPrunesWALAndOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	r := newOpRun(t, smallParams(), Durability{Dir: dir, SegmentBytes: 1 << 10}, nil, false)
	for round := 0; round < 4; round++ {
		var clicks []clicktable.Record
		for i := 0; i < 200; i++ {
			clicks = append(clicks, clicktable.Record{UserID: uint32(round*200 + i), ItemID: uint32(i % 40), Clicks: uint32(1 + i%7)})
		}
		r.feed(clicks, true)
		r.snapshot()
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
	if info := r.crash(); info.SnapshotClock == 0 {
		t.Fatalf("recovery: %+v", info)
	}
	r.sweep()
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
