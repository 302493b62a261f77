package synth

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/clicktable"
	"repro/internal/detect"
)

// Ground-truth label interchange format: a CSV with header "kind,id,group";
// kind is "user" or "item", id the node ID, group the zero-based injected-
// group index. cmd/synthgen writes it, cmd/ricd consumes it for evaluation.

var labelHeader = []string{"kind", "id", "group"}

// WriteLabels writes the dataset's ground truth in the label CSV format.
func WriteLabels(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(labelHeader); err != nil {
		return fmt.Errorf("synth: write label header: %w", err)
	}
	rec := make([]string, 3)
	for gi, grp := range ds.Groups {
		for _, u := range grp.Attackers {
			rec[0], rec[1], rec[2] = "user", strconv.FormatUint(uint64(u), 10), strconv.Itoa(gi)
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("synth: write label: %w", err)
			}
		}
		for _, v := range grp.Targets {
			rec[0], rec[1], rec[2] = "item", strconv.FormatUint(uint64(v), 10), strconv.Itoa(gi)
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("synth: write label: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("synth: flush labels: %w", err)
	}
	return bw.Flush()
}

// ReadLabels reads ground truth in the label CSV format. The group column
// is returned as a parallel structure: groups[gi] lists the node IDs of
// group gi, in file order.
func ReadLabels(r io.Reader) (*detect.Labels, []detect.Group, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true

	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("synth: empty label input: missing header row %q", strings.Join(labelHeader, ","))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("synth: read label header: %w", err)
	}
	for i, want := range labelHeader {
		if hdr[i] != want {
			return nil, nil, fmt.Errorf("synth: bad label header column %d: got %q, want %q", i, hdr[i], want)
		}
	}

	labels := detect.NewLabels()
	groupsByIdx := map[int]*detect.Group{}
	maxIdx := -1
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("synth: labels line %d: %w", line, err)
		}
		id, err := clicktable.ParseUint32("id", rec[1])
		if err != nil {
			return nil, nil, fmt.Errorf("synth: labels line %d: %w", line, err)
		}
		gi, err := strconv.Atoi(rec[2])
		if err != nil || gi < 0 {
			return nil, nil, fmt.Errorf("synth: labels line %d: bad group %q (must be a zero-based group index)", line, rec[2])
		}
		grp := groupsByIdx[gi]
		if grp == nil {
			grp = &detect.Group{}
			groupsByIdx[gi] = grp
		}
		if gi > maxIdx {
			maxIdx = gi
		}
		switch rec[0] {
		case "user":
			labels.Users[id] = true
			grp.Users = append(grp.Users, id)
		case "item":
			labels.Items[id] = true
			grp.Items = append(grp.Items, id)
		default:
			return nil, nil, fmt.Errorf("synth: labels line %d: bad kind %q", line, rec[0])
		}
	}
	groups := make([]detect.Group, maxIdx+1)
	for gi, grp := range groupsByIdx {
		groups[gi] = *grp
	}
	return labels, groups, nil
}
