package synth

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/clicktable"
)

// Event CSV interchange format: header "day,user_id,item_id,click", one
// event per row, day-ordered. cmd/synthgen can emit it and cmd/stream
// replays it through the incremental detector.

var eventHeader = []string{"day", "user_id", "item_id", "click"}

// WriteEvents writes an event stream as CSV.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(eventHeader); err != nil {
		return fmt.Errorf("synth: write event header: %w", err)
	}
	rec := make([]string, 4)
	for i, e := range events {
		rec[0] = strconv.Itoa(e.Day)
		rec[1] = strconv.FormatUint(uint64(e.UserID), 10)
		rec[2] = strconv.FormatUint(uint64(e.ItemID), 10)
		rec[3] = strconv.FormatUint(uint64(e.Clicks), 10)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("synth: write event %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("synth: flush events: %w", err)
	}
	return bw.Flush()
}

// ReadEvents reads an event-stream CSV. Events must be day-ordered; out of
// order input is rejected so downstream day-windowed replay stays sound.
func ReadEvents(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = 4
	cr.ReuseRecord = true

	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("synth: empty event input: missing header row %q", strings.Join(eventHeader, ","))
	}
	if err != nil {
		return nil, fmt.Errorf("synth: read event header: %w", err)
	}
	for i, want := range eventHeader {
		if hdr[i] != want {
			return nil, fmt.Errorf("synth: bad event header column %d: got %q, want %q", i, hdr[i], want)
		}
	}

	var events []Event
	prevDay := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, fmt.Errorf("synth: events line %d: %w", line, err)
		}
		day, err := strconv.Atoi(rec[0])
		if err != nil || day < 1 {
			return nil, fmt.Errorf("synth: events line %d: bad day %q (must be an integer ≥ 1)", line, rec[0])
		}
		if day < prevDay {
			return nil, fmt.Errorf("synth: events line %d: day %d after day %d (stream must be ordered)",
				line, day, prevDay)
		}
		prevDay = day
		var f [3]uint32
		for k, name := range eventHeader[1:] {
			if f[k], err = clicktable.ParseUint32(name, rec[k+1]); err != nil {
				return nil, fmt.Errorf("synth: events line %d: %w", line, err)
			}
		}
		events = append(events, Event{Day: day, UserID: f[0], ItemID: f[1], Clicks: f[2]})
	}
}
