package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	missingAnchor := checkFlags("c.csv", -1, 0, 10)
	if missingAnchor == nil {
		t.Fatal("no -anchor and no -hot accepted")
	}
	for _, tc := range []struct {
		name   string
		in     string
		anchor int64
		hot    uint64
		k      int
		ok     bool
	}{
		{"anchor", "c.csv", 42, 0, 10, true},
		{"largest anchor", "c.csv", math.MaxUint32, 0, 10, true},
		{"hot", "c.csv", -1, 1000, 10, true},
		{"depth one", "c.csv", 42, 0, 1, true},
		{"no input", "", 42, 0, 10, false},
		{"anchor past uint32", "c.csv", math.MaxUint32 + 1, 0, 10, false},
		{"anchor past uint32 with hot", "c.csv", math.MaxUint32 + 1, 1000, 10, false},
		{"depth zero", "c.csv", 42, 0, 0, false},
		{"negative depth", "c.csv", -1, 1000, -1, false},
	} {
		err := checkFlags(tc.in, tc.anchor, tc.hot, tc.k)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.anchor > math.MaxUint32 && (err == nil || err.Error() != missingAnchor.Error()) {
			t.Errorf("%s: checkFlags = %v, want the missing-anchor error %q", tc.name, err, missingAnchor)
		}
	}
}
