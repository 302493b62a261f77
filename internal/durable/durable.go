// Package durable provides the crash-safe persistence primitives under the
// streaming detector's durability layer: a segmented, checksummed
// write-ahead log (wal.go), atomically-written snapshot files
// (snapshot.go), and the temp-file + fsync + rename atomic-write helper
// every artifact writer in the repo shares (WriteFileAtomic).
//
// The package is deliberately payload-agnostic: WAL records and snapshot
// bodies are opaque byte slices, so the detector's record schema lives next
// to the detector (internal/stream/durable.go) and this layer can be reused
// for any state machine. All failure paths carry faultinject sites
// ("durable.write", "durable.fsync", "durable.rename") so tests can prove
// the callers degrade gracefully when the disk misbehaves.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// Fault-injection sites for the three syscalls that decide durability.
// Tests arm errors here to simulate a failing disk without one.
const (
	SiteWrite  = "durable.write"
	SiteFsync  = "durable.fsync"
	SiteRename = "durable.rename"
)

// WriteFileAtomic writes data to path so that a crash at any point leaves
// either the previous file intact or the complete new one, never a
// truncated mix: the data goes to a unique temp file in the same directory,
// is fsynced, and is renamed over path; the directory is then fsynced so
// the rename itself survives a power cut.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: create temp for %s: %w", path, err)
	}
	tmp := f.Name()
	// On any failure the temp file is removed; a crash before rename leaves
	// at worst an orphaned .tmp-* file, never a torn target.
	fail := func(op string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: %s %s: %w", op, path, err)
	}
	if err := faultinject.ErrAt(SiteWrite); err != nil {
		return fail("write", err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("write", err)
	}
	if err := syncFile(f); err != nil {
		return fail("fsync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := faultinject.ErrAt(SiteRename); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: rename %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: rename %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := os.Chmod(path, perm); err != nil {
		return fmt.Errorf("durable: chmod %s: %w", path, err)
	}
	return nil
}

// syncFile fsyncs f, honoring the fsync fault site.
func syncFile(f *os.File) error {
	if err := faultinject.ErrAt(SiteFsync); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := syncFile(d); err != nil {
		return fmt.Errorf("durable: fsync dir %s: %w", dir, err)
	}
	return nil
}

// numbered names the files of one kind in a directory by a zero-padded
// sequence number between a prefix and a suffix: WAL segments by their
// first record's seq, snapshots by the clock they cover.
type numbered struct{ prefix, suffix string }

const numberDigits = 20

var (
	segments  = numbered{"wal-", ".seg"}
	snapshots = numbered{"snap-", ".snap"}
)

func (n numbered) path(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", n.prefix, numberDigits, num, n.suffix))
}

// parse returns the number in name; ok is false for names of another kind.
func (n numbered) parse(name string) (uint64, bool) {
	mid, okPrefix := strings.CutPrefix(name, n.prefix)
	mid, okSuffix := strings.CutSuffix(mid, n.suffix)
	if !okPrefix || !okSuffix || len(mid) != numberDigits {
		return 0, false
	}
	num, err := strconv.ParseUint(mid, 10, 64)
	return num, err == nil
}

// list returns the numbers of this kind's files under dir, ascending.
func (n numbered) list(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s*%s: %w", n.prefix, n.suffix, err)
	}
	var nums []uint64
	for _, e := range ents {
		if num, ok := n.parse(e.Name()); ok && !e.IsDir() {
			nums = append(nums, num)
		}
	}
	slices.Sort(nums)
	return nums, nil
}
