package synth

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/clicktable"
)

// EventsToTable aggregates a prefix of the stream (events with Day ≤ upToDay)
// back into a click table.
func EventsToTable(events []Event, upToDay int) *clicktable.Table {
	t := clicktable.New(len(events))
	for _, e := range events {
		if e.Day > upToDay {
			break // stream is day-ordered
		}
		t.Append(e.UserID, e.ItemID, e.Clicks)
	}
	return t.Aggregate()
}

func TestEventStreamConservesClicks(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	events, err := EventStream(ds, DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := EventsToTable(events, DefaultEventStreamConfig().Days)
	if full.Scale() != ds.Table.Scale() {
		t.Errorf("aggregated stream scale %+v != dataset scale %+v",
			full.Scale(), ds.Table.Scale())
	}
	// Per-pair weights must match exactly.
	want := map[uint64]uint32{}
	ds.Table.Each(func(r clicktable.Record) bool {
		want[uint64(r.UserID)<<32|uint64(r.ItemID)] += r.Clicks
		return true
	})
	full.Each(func(r clicktable.Record) bool {
		key := uint64(r.UserID)<<32 | uint64(r.ItemID)
		if want[key] != r.Clicks {
			t.Errorf("pair (%d,%d): %d clicks, want %d", r.UserID, r.ItemID, r.Clicks, want[key])
		}
		return true
	})
}

func TestEventStreamDayOrderedAndBounded(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	cfg := DefaultEventStreamConfig()
	events, err := EventStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, e := range events {
		if e.Day < prev {
			t.Fatal("events not day-ordered")
		}
		prev = e.Day
		if e.Day < 1 || e.Day > cfg.Days {
			t.Fatalf("event day %d outside window", e.Day)
		}
	}
}

func TestEventStreamAttackRespectsStartDay(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	cfg := DefaultEventStreamConfig()
	events, err := EventStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perDay [16]uint64
	for _, e := range events {
		if int(e.UserID) >= ds.NumNormalUsers {
			if e.Day < cfg.AttackStartDay {
				t.Fatalf("attack event on day %d before start day %d", e.Day, cfg.AttackStartDay)
			}
			perDay[e.Day] += uint64(e.Clicks)
		}
	}
	// Attack volume must ramp: last day carries more than the first.
	if perDay[cfg.Days] <= perDay[cfg.AttackStartDay] {
		t.Errorf("attack volume not ramping: day %d = %d, day %d = %d",
			cfg.AttackStartDay, perDay[cfg.AttackStartDay], cfg.Days, perDay[cfg.Days])
	}
}

func TestEventStreamDeterministic(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	a, err := EventStream(ds, DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EventStream(ds, DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEventStreamValidation(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	if _, err := EventStream(ds, EventStreamConfig{Days: 0, AttackStartDay: 1}); err == nil {
		t.Error("expected Days error")
	}
	if _, err := EventStream(ds, EventStreamConfig{Days: 5, AttackStartDay: 9}); err == nil {
		t.Error("expected AttackStartDay error")
	}
}

func TestEventsToTablePrefix(t *testing.T) {
	events := []Event{
		{Day: 1, UserID: 1, ItemID: 1, Clicks: 2},
		{Day: 2, UserID: 1, ItemID: 1, Clicks: 3},
		{Day: 3, UserID: 2, ItemID: 2, Clicks: 1},
	}
	tbl := EventsToTable(events, 2)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (aggregated)", tbl.Len())
	}
	if r := tbl.Row(0); r.Clicks != 5 {
		t.Errorf("clicks = %d, want 5", r.Clicks)
	}
}

// TestEventStreamOrderMatchesStableSort: EventStream's counting order is
// the events as drawn, stably sorted by day, over short and long windows.
func TestEventStreamOrderMatchesStableSort(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"small", SmallConfig()}, {"default", DefaultConfig()}} {
		ds := MustGenerate(c.cfg)
		for _, days := range []int{6, 30, 200} {
			t.Run(fmt.Sprintf("%s/%d_days", c.name, days), func(t *testing.T) {
				cfg := EventStreamConfig{Days: days, AttackStartDay: days / 2, Seed: 99}
				var want []Event
				unroll(ds, cfg, func(e Event) { want = append(want, e) })
				sort.SliceStable(want, func(i, j int) bool { return want[i].Day < want[j].Day })
				got, err := EventStream(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d events, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
