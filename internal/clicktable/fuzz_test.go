package clicktable

import (
	"bytes"
	"testing"
)

// FuzzReadCSV asserts the CSV parser never panics and that anything it
// accepts round-trips through WriteCSV → ReadCSV unchanged.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("user_id,item_id,click\n1,2,3\n"))
	f.Add([]byte("user_id,item_id,click\n"))
	f.Add([]byte("user_id,item_id,click\n0,0,0\n4294967295,4294967295,4294967295\n"))
	f.Add([]byte("x"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("accepted table failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if back.Len() != tbl.Len() {
			t.Fatalf("round trip changed length: %d → %d", tbl.Len(), back.Len())
		}
		for i := 0; i < tbl.Len(); i++ {
			if back.Row(i) != tbl.Row(i) {
				t.Fatalf("row %d changed: %+v → %+v", i, tbl.Row(i), back.Row(i))
			}
		}
	})
}
