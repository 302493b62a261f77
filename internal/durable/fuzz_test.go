package durable

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// FuzzWALScan feeds arbitrary bytes to the WAL decoder as the newest
// segment of a log. Whatever the bytes, recovery must not panic, must
// treat the input as a valid prefix plus a truncatable tail (never an
// error — a lone segment is always "the newest"), and must leave the
// appender at the cut: a record appended at LastSeq+1 lands right after
// the records recovery saw, so a second recovery reads exactly those
// records plus the appended one, with no further truncation.
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
		path := segments.path(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		type rec struct {
			seq     uint64
			payload string
		}
		var first []rec
		w, res, err := Recover(dir, Options{}, 0, func(seq uint64, payload []byte) error {
			first = append(first, rec{seq, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("recovery over arbitrary newest segment errored: %v", err)
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
		if err := w.Append(res.LastSeq+1, []byte("resumed")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(first, rec{res.LastSeq + 1, "resumed"})
		var second []rec
		w2, res2, err := Recover(dir, Options{}, 0, func(seq uint64, payload []byte) error {
			second = append(second, rec{seq, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		defer w2.Close()
		if res2.TruncatedBytes != 0 {
			t.Fatalf("the resumed log is not clean: second recovery cut %d bytes", res2.TruncatedBytes)
		}
		if !slices.Equal(second, want) {
			t.Fatalf("second recovery read %v, want %v", second, want)
		}
	})
}
