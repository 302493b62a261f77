package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

func TestSnapshotRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}
	for _, clock := range []uint64{10, 20, 30} {
		if _, err := WriteSnapshot(dir, clock, []byte{byte(clock)}); err != nil {
			t.Fatal(err)
		}
	}
	payload, info, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Clock != 30 || !bytes.Equal(payload, []byte{30}) || info.Skipped != 0 {
		t.Fatalf("latest = %+v payload=%v", info, payload)
	}
}

func TestSnapshotCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	path, err := WriteSnapshot(dir, 20, []byte("newer"))
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"torn tail": func(b []byte) []byte { return b[:len(b)-3] },
		"truncated": func(b []byte) []byte { return b[:5] },
		"empty":     func(b []byte) []byte { return nil },
	} {
		data, _ := os.ReadFile(path)
		if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
			t.Fatal(err)
		}
		payload, info, err := LatestSnapshot(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Clock != 10 || string(payload) != "good" || info.Skipped != 1 {
			t.Fatalf("%s: fell back to %+v payload=%q", name, info, payload)
		}
		// Restore the newer snapshot for the next mangle.
		if _, err := WriteSnapshot(dir, 20, []byte("newer")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneSnapshotsKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, clock := range []uint64{1, 2, 3, 4, 5} {
		if _, err := WriteSnapshot(dir, clock, nil); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneSnapshots(dir, 2)
	if err != nil || removed != 3 {
		t.Fatalf("removed %d (%v), want 3", removed, err)
	}
	clocks, _ := snapshots.list(dir)
	if len(clocks) != 2 || clocks[0] != 4 || clocks[1] != 5 {
		t.Fatalf("kept %v, want [4 5]", clocks)
	}
	// keep < 1 clamps: the newest snapshot can never be pruned away.
	if _, err := PruneSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	clocks, _ = snapshots.list(dir)
	if len(clocks) != 1 || clocks[0] != 5 {
		t.Fatalf("kept %v, want [5]", clocks)
	}
}

func TestWriteFileAtomicReplacesWholly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileAtomic(path, []byte("first version"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("read back %q (%v)", data, err)
	}
	fi, _ := os.Stat(path)
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("perm = %v", fi.Mode().Perm())
	}
}

// TestWriteFileAtomicCrashLeavesOldFile proves the satellite guarantee: a
// failure at any of the three I/O steps leaves the previous artifact
// byte-identical, never truncated, and no stray temp file behind (except
// past the rename fault, where cleanup still removes it).
func TestWriteFileAtomicCrashLeavesOldFile(t *testing.T) {
	defer faultinject.Reset()
	for _, site := range []string{SiteWrite, SiteFsync, SiteRename} {
		faultinject.Reset()
		dir := t.TempDir()
		path := filepath.Join(dir, "artifact.json")
		if err := WriteFileAtomic(path, []byte("precious old contents"), 0o644); err != nil {
			t.Fatal(err)
		}
		diskErr := errors.New("injected failure")
		faultinject.Arm(site, faultinject.Fault{Err: diskErr, Times: 1})
		if err := WriteFileAtomic(path, []byte("half-written"), 0o644); !errors.Is(err, diskErr) {
			t.Fatalf("%s: error = %v", site, err)
		}
		data, err := os.ReadFile(path)
		if err != nil || string(data) != "precious old contents" {
			t.Fatalf("%s: old file damaged: %q (%v)", site, data, err)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 {
			t.Fatalf("%s: temp litter left behind: %v", site, ents)
		}
	}
}
