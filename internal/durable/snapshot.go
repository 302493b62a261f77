package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Snapshot files capture the full detector state at a WAL position, so
// recovery loads the newest valid one and replays only the WAL tail behind
// it. Each file is written atomically (WriteFileAtomic) and named by the
// clock it covers:
//
//	snap-00000000000000001234.snap
//	magic "DSN1" | u32 version | u64 clock | payload | u32 crc32
//
// where crc32 is IEEE over everything between the magic and the checksum.
// A corrupt or torn snapshot simply fails validation and recovery falls
// back to the next-newest one (which is why PruneSnapshots keeps more than
// one), so a crash during snapshotting can never lose state: the WAL tail
// behind the older snapshot is still intact.

var snapMagic = [4]byte{'D', 'S', 'N', '1'}

const (
	snapVersion    = 1
	snapHeaderLen  = 4 + 4 + 8 // magic + version + clock
	snapTrailerLen = 4         // crc32
)

// ErrNoSnapshot reports that no valid snapshot exists in the directory.
var ErrNoSnapshot = errors.New("durable: no valid snapshot")

// WriteSnapshot atomically writes a snapshot of payload covering WAL
// position clock, returning the file path.
func WriteSnapshot(dir string, clock uint64, payload []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("durable: create snapshot dir: %w", err)
	}
	buf := make([]byte, 0, snapHeaderLen+len(payload)+snapTrailerLen)
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, clock)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[len(snapMagic):])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	path := snapshots.path(dir, clock)
	if err := WriteFileAtomic(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string, wantClock uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < snapHeaderLen+snapTrailerLen {
		return nil, fmt.Errorf("durable: snapshot %s: too short", path)
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("durable: snapshot %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("durable: snapshot %s: unsupported version %d", path, v)
	}
	body, trailer := data[:len(data)-snapTrailerLen], data[len(data)-snapTrailerLen:]
	if crc32.ChecksumIEEE(body[len(snapMagic):]) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("durable: snapshot %s: checksum mismatch", path)
	}
	if clock := binary.LittleEndian.Uint64(data[8:]); clock != wantClock {
		return nil, fmt.Errorf("durable: snapshot %s: clock %d does not match name", path, clock)
	}
	return body[snapHeaderLen:], nil
}

// SnapshotInfo describes what LatestSnapshot found.
type SnapshotInfo struct {
	// Clock is the WAL position the loaded snapshot covers.
	Clock uint64
	// Path is the loaded file.
	Path string
	// Skipped counts newer snapshot files that failed validation (torn or
	// corrupt) and were passed over.
	Skipped int
}

// LatestSnapshot loads the newest snapshot in dir that validates, skipping
// corrupt ones. ErrNoSnapshot means a cold start (no usable snapshot).
func LatestSnapshot(dir string) ([]byte, SnapshotInfo, error) {
	var info SnapshotInfo
	clocks, err := snapshots.list(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, info, ErrNoSnapshot
		}
		return nil, info, err
	}
	for i := len(clocks) - 1; i >= 0; i-- {
		path := snapshots.path(dir, clocks[i])
		payload, err := readSnapshot(path, clocks[i])
		if err != nil {
			info.Skipped++
			continue
		}
		info.Clock = clocks[i]
		info.Path = path
		return payload, info, nil
	}
	return nil, info, ErrNoSnapshot
}

// PruneSnapshots removes all but the newest keep snapshots (keep < 1 is
// clamped to 1; the newest is never removed). Returns how many were
// deleted.
func PruneSnapshots(dir string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	clocks, err := snapshots.list(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i < len(clocks)-keep; i++ {
		if err := os.Remove(snapshots.path(dir, clocks[i])); err != nil {
			return removed, fmt.Errorf("durable: prune snapshot: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
