package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALScan feeds arbitrary bytes to the WAL decoder as the newest
// segment of a log. Whatever the bytes, the scan must not panic, must
// treat the input as a valid prefix plus a truncatable tail (never an
// error — a lone segment is always "the newest"), and after truncation a
// second replay must see exactly the same records with no further
// truncation (the cut is a fixpoint).
func FuzzWALScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A valid two-record log, a torn copy of it, and a bit-flipped one.
	valid, _ := appendFrame(nil, 1, []byte("hello"))
	valid, _ = appendFrame(valid, 2, bytes.Repeat([]byte{0xab}, 100))
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// A frame whose length prefix claims far more than the file holds.
	huge := []byte{0xff, 0xff, 0xff, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		type rec struct {
			seq     uint64
			payload string
		}
		var first []rec
		res, err := Replay(dir, 0, func(seq uint64, payload []byte) error {
			first = append(first, rec{seq, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("replay over arbitrary newest segment errored: %v", err)
		}
		if res.TruncatedBytes > int64(len(data)) {
			t.Fatalf("truncated %d bytes of a %d-byte segment", res.TruncatedBytes, len(data))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(data))-res.TruncatedBytes {
			t.Fatalf("file is %d bytes after truncating %d of %d", fi.Size(), res.TruncatedBytes, len(data))
		}
		var second []rec
		res2, err := Replay(dir, 0, func(seq uint64, payload []byte) error {
			second = append(second, rec{seq, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if res2.TruncatedBytes != 0 {
			t.Fatalf("truncation is not a fixpoint: second pass cut %d more bytes", res2.TruncatedBytes)
		}
		if len(first) != len(second) {
			t.Fatalf("replays disagree: %d vs %d records", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("record %d differs across replays", i)
			}
		}
		// The surviving log must accept appends after the last seen seq.
		w, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatalf("OpenWAL after truncation: %v", err)
		}
		if err := w.Append(res.LastSeq+1, []byte("resumed")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
