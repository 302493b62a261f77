package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// collect recovers dir from seq `from` and returns the records seen.
func collect(t *testing.T, dir string, from uint64) (map[uint64]string, ReplayResult) {
	t.Helper()
	got := map[uint64]string{}
	w, res, err := Recover(dir, Options{}, from, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if err := w.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, 0)
	if len(got) != 100 || res.Records != 100 || res.LastSeq != 100 || res.TruncatedBytes != 0 {
		t.Fatalf("replay got %d records, res=%+v", len(got), res)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if got[seq] != fmt.Sprintf("rec-%d", seq) {
			t.Fatalf("record %d = %q", seq, got[seq])
		}
	}
	// Replay from an offset skips the prefix.
	got, res = collect(t, dir, 60)
	if len(got) != 40 || res.Records != 40 {
		t.Fatalf("offset replay got %d records, res=%+v", len(got), res)
	}
	if _, ok := got[60]; ok {
		t.Fatal("record 60 should be excluded (seq > from)")
	}
}

func TestWALSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for seq := uint64(1); seq <= 40; seq++ {
		if err := w.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	starts, err := segments.list(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("expected ≥ 3 segments after 40×80-byte frames at 256-byte cap, got %d", len(starts))
	}
	got, _ := collect(t, dir, 0)
	if len(got) != 40 {
		t.Fatalf("replay across segments got %d records", len(got))
	}
	// Prune everything a snapshot at seq 20 covers: only segments wholly
	// ≤ 20 go; the record stream after 20 must be untouched.
	removed, err := w.Prune(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("prune removed nothing")
	}
	got, _ = collect(t, dir, 20)
	if len(got) != 20 {
		t.Fatalf("post-prune replay from 20 got %d records, want 20", len(got))
	}
	if err := w.Append(41, payload); err != nil {
		t.Fatalf("append after prune: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 11} { // mid-header, mid-body, mid-frame
		dir := t.TempDir()
		w, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 10; seq++ {
			if err := w.Append(seq, []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		starts, err := segments.list(dir)
		if err != nil || len(starts) != 1 {
			t.Fatalf("segments: %v %v", starts, err)
		}
		path := segments.path(dir, starts[0])
		fi, _ := os.Stat(path)
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, dir, 0)
		if len(got) != 9 || res.LastSeq != 9 {
			t.Fatalf("cut %d: got %d records, res=%+v", cut, len(got), res)
		}
		if res.TruncatedBytes == 0 {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		// The torn frame is gone from disk; appending resumes cleanly.
		w2, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w2.mu.Lock()
		last := w2.lastSeq
		w2.mu.Unlock()
		if last != 9 {
			t.Fatalf("cut %d: reopened lastSeq = %d, want 9", cut, last)
		}
		if err := w2.Append(10, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ = collect(t, dir, 0)
		if len(got) != 10 || got[10] != "again" {
			t.Fatalf("cut %d: resumed log has %d records", cut, len(got))
		}
	}
}

func TestWALBitFlipTruncatesAtBadFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := w.Append(seq, []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, _ := segments.list(dir)
	path := segments.path(dir, starts[0])
	data, _ := os.ReadFile(path)
	// Flip a bit inside record 8's body: records 1–7 must survive, the
	// rest of the tail is dropped at the first bad checksum.
	frame := frameHeaderLen + 8 + len("payload-payload")
	data[7*frame+frameHeaderLen+9] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, 0)
	if len(got) != 7 || res.LastSeq != 7 || res.TruncatedBytes != int64(3*frame) {
		t.Fatalf("got %d records, res=%+v, want 7 records and %d truncated bytes", len(got), res, 3*frame)
	}
}

func TestWALCorruptionInOldSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		if err := w.Append(seq, make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, _ := segments.list(dir)
	if len(starts) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d", len(starts))
	}
	path := segments.path(dir, starts[0])
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(dir, Options{}, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over mid-log corruption returned %v, want ErrCorrupt", err)
	}
}

func TestWALAppendAllBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Entry
	for seq := uint64(1); seq <= 32; seq++ {
		batch = append(batch, Entry{Seq: seq, Payload: []byte{byte(seq)}})
	}
	if err := w.AppendAll(batch); err != nil {
		t.Fatal(err)
	}
	// Out-of-order and duplicate seqs are rejected before any bytes land.
	if err := w.AppendAll([]Entry{{Seq: 32, Payload: nil}}); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, 0)
	if len(got) != 32 {
		t.Fatalf("batch replay got %d records", len(got))
	}
}

func TestWALWriteErrorPoisonsLog(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	diskErr := errors.New("injected disk failure")
	faultinject.Arm(SiteWrite, faultinject.Fault{Err: diskErr, Times: 1})
	if err := w.Append(2, []byte("lost")); !errors.Is(err, diskErr) {
		t.Fatalf("append under write fault: %v", err)
	}
	// The fault fired once, but the WAL stays poisoned: no later append may
	// slip a frame after the failure point.
	if err := w.Append(3, []byte("refused")); !errors.Is(err, diskErr) {
		t.Fatalf("append after poison: %v", err)
	}
	w.mu.Lock()
	latched := w.err
	w.mu.Unlock()
	if !errors.Is(latched, diskErr) {
		t.Fatalf("latched error = %v", latched)
	}
	w.Close()
	got, _ := collect(t, dir, 0)
	if len(got) != 1 {
		t.Fatalf("on-disk log has %d records, want the pre-fault prefix of 1", len(got))
	}
}

func TestWALFsyncErrorPoisonsLog(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	diskErr := errors.New("injected fsync failure")
	faultinject.Arm(SiteFsync, faultinject.Fault{Err: diskErr, Times: 1})
	if err := w.Append(1, []byte("x")); !errors.Is(err, diskErr) {
		t.Fatalf("append under fsync fault: %v", err)
	}
	if err := w.Append(2, []byte("y")); !errors.Is(err, diskErr) {
		t.Fatalf("append after fsync poison: %v", err)
	}
}

func TestWALEmptyDirReplay(t *testing.T) {
	got, res := collect(t, t.TempDir(), 0)
	if len(got) != 0 || res.Records != 0 {
		t.Fatalf("empty dir replay: %v %+v", got, res)
	}
	// A directory that does not exist at all is also a cold start.
	got, res = collect(t, filepath.Join(t.TempDir(), "missing"), 0)
	if len(got) != 0 || res.Records != 0 {
		t.Fatalf("missing dir replay: %v %+v", got, res)
	}
}
