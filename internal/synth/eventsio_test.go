package synth

import (
	"bytes"
	"strings"
	"testing"
)

func TestEventsCSVRoundTrip(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	events, err := EventStream(ds, DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadEventsRejectsBadInput(t *testing.T) {
	cases := []string{
		"a,b,c,d\n",
		"day,user_id,item_id,click\nx,1,1,1\n",
		"day,user_id,item_id,click\n0,1,1,1\n",          // day < 1
		"day,user_id,item_id,click\n2,1,1,1\n1,1,1,1\n", // out of order
		"day,user_id,item_id,click\n1,x,1,1\n",
		"day,user_id,item_id,click\n1,1,x,1\n",
		"day,user_id,item_id,click\n1,1,1,x\n",
		"day,user_id,item_id,click\n1,1,1\n",
	}
	for _, c := range cases {
		if _, err := ReadEvents(strings.NewReader(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestReadEventsEmpty(t *testing.T) {
	got, err := ReadEvents(strings.NewReader("day,user_id,item_id,click\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d events", len(got))
	}
}

func TestReadEventsErrorDiagnostics(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "missing header row"},
		{"day,user_id,item_id,click\n1,99999999999,1,1\n", "out of range for uint32"},
		{"day,user_id,item_id,click\n1,-3,1,1\n", "negative"},
		{"day,user_id,item_id,click\n1,1,1,x\n", "line 2"},
	}
	for _, tc := range cases {
		_, err := ReadEvents(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("no error for %q", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error for %q = %q, want it to mention %q", tc.in, err, tc.want)
		}
	}
}
