package clicktable

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CSV format: a header row "user_id,item_id,click" followed by one row per
// record. This is the interchange format of cmd/synthgen and cmd/ricd.

// csvHeader is the canonical header row.
var csvHeader = []string{"user_id", "item_id", "click"}

// WriteCSV writes the table in CSV format.
func WriteCSV(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("clicktable: write header: %w", err)
	}
	rec := make([]string, 3)
	for i := 0; i < t.Len(); i++ {
		r := t.Row(i)
		rec[0] = strconv.FormatUint(uint64(r.UserID), 10)
		rec[1] = strconv.FormatUint(uint64(r.ItemID), 10)
		rec[2] = strconv.FormatUint(uint64(r.Clicks), 10)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("clicktable: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("clicktable: flush: %w", err)
	}
	return bw.Flush()
}

// ParseUint32 parses one uint32 CSV field named name with an operator-grade
// diagnosis: negative values and values past the uint32 range get their own
// messages instead of strconv's generic ones. The error carries no prefix;
// each reader adds its own, with the line number.
func ParseUint32(name, s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err == nil {
		return uint32(v), nil
	}
	switch {
	case strings.HasPrefix(strings.TrimSpace(s), "-"):
		return 0, fmt.Errorf("%s %q is negative (must be a non-negative integer)", name, s)
	case errors.Is(err, strconv.ErrRange):
		return 0, fmt.Errorf("%s %q out of range for uint32 (max %d)", name, s, uint64(math.MaxUint32))
	default:
		return 0, fmt.Errorf("%s %q is not an unsigned integer", name, s)
	}
}

// ReadCSV reads a table in CSV format. The header row is validated.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true

	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("clicktable: empty input: missing header row %q", strings.Join(csvHeader, ","))
	}
	if err != nil {
		return nil, fmt.Errorf("clicktable: read header: %w", err)
	}
	for i, want := range csvHeader {
		if hdr[i] != want {
			return nil, fmt.Errorf("clicktable: bad header column %d: got %q, want %q", i, hdr[i], want)
		}
	}

	t := New(0)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("clicktable: line %d: %w", line, err)
		}
		var f [3]uint32
		for k, name := range csvHeader {
			if f[k], err = ParseUint32(name, rec[k]); err != nil {
				return nil, fmt.Errorf("clicktable: line %d: %w", line, err)
			}
		}
		t.Append(f[0], f[1], f[2])
	}
}
