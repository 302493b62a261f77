package fakeclick

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/synth"
)

// This file pins what the detector outputs, as SHA-256 digests of canonical
// dumps, so a change that claims "no behaviour change" is checked by the
// tier-1 suite rather than by a one-off comparison. Per workload it dumps:
//
//   - core.Detector.DetectContext at Workers 1 and 4: every group's members,
//     score and statistics by float bits, and both rankings;
//   - the Workers 1 audit trail, with each line's seq dropped;
//   - core.PruneCtx on a GraphGenerator clone: the stats, the removal epoch
//     and the residual's live counts and IDs;
//   - a day-by-day stream replay: one SweepContext per day, then one
//     FullDetectContext.
//
// Regenerate with
//
//	go test -run TestOutputsGolden -update .

// goldenWorkload is one dumped workload: a synthetic dataset and the
// detector parameters it runs under.
type goldenWorkload struct {
	name   string
	cfg    synth.Config
	params core.Params
}

func goldenWorkloads() []goldenWorkload {
	small := core.DefaultParams()
	small.THot = 400
	ws := []goldenWorkload{
		{"small", synth.SmallConfig(), small},
		{"default", synth.DefaultConfig(), core.DefaultParams()},
	}
	for i, c := range synth.EquivCorpus() {
		p := small
		switch i % 3 {
		case 1:
			p.Alpha = 0.8
		case 2:
			p.K1, p.K2 = 8, 8
		}
		if c.NumUsers < 1000 {
			p.THot = 200
		}
		ws = append(ws, goldenWorkload{fmt.Sprintf("corpus%02d", i), c, p})
	}
	return ws
}

// dump is a little-endian canonical encoding of one output; groups counts
// the groups it holds, so a corpus that detects nothing shows.
type dump struct {
	b      []byte
	groups int
}

func (d *dump) u64(v uint64)  { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *dump) int(v int)     { d.u64(uint64(int64(v))) }
func (d *dump) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *dump) str(s string)  { d.int(len(s)); d.b = append(d.b, s...) }

func (d *dump) ids(ids []bipartite.NodeID) {
	d.int(len(ids))
	for _, id := range ids {
		d.u64(uint64(id))
	}
}

func (d *dump) scored(s []detect.Scored) {
	d.int(len(s))
	for _, n := range s {
		d.u64(uint64(n.ID))
		d.f64(n.Score)
	}
}

// result dumps what a detection returns, leaving out its wall times.
func (d *dump) result(res *detect.Result, err error) {
	d.str(fmt.Sprint(err))
	d.str(fmt.Sprint(res.Partial, res.StageReached, res.Identified))
	d.int(len(res.Groups))
	d.groups += len(res.Groups)
	for _, g := range res.Groups {
		d.ids(g.Users)
		d.ids(g.Items)
		d.f64(g.Score)
		d.f64(g.Density)
		d.f64(g.MeanEdgeClicks)
		d.f64(g.OutsideShare)
	}
	d.scored(res.RankedUsers)
	d.scored(res.RankedItems)
}

func (d *dump) digest() string { return fmt.Sprintf("%x", sha256.Sum256(d.b)) }

// seqRe matches the sink-assigned sequence number that opens an audit line.
var seqRe = regexp.MustCompile(`(?m)^\{"seq":\d+,`)

// goldenDetect dumps a batch detection at the given worker count; with an
// audit buffer it also records the audit trail there.
func goldenDetect(g *bipartite.Graph, p core.Params, workers int, audit *bytes.Buffer) *dump {
	p.Workers = workers
	det := &core.Detector{Params: p}
	if audit != nil {
		det.Obs = obs.NewObserver("golden")
		det.Obs.Events = obs.NewEventSink(audit, 0)
	}
	var d dump
	d.result(det.DetectContext(context.Background(), g))
	return &d
}

// goldenPrune dumps a prune of the working graph GraphGenerator hands the
// detector.
func goldenPrune(g *bipartite.Graph, p core.Params) *dump {
	work := core.GraphGenerator(g, detect.Seeds{})
	st, err := core.PruneCtx(context.Background(), work, p, nil)
	var d dump
	d.str(fmt.Sprint(err))
	d.int(st.UsersRemoved)
	d.int(st.ItemsRemoved)
	d.int(st.Rounds)
	d.u64(work.RemovalEpoch())
	d.int(work.LiveUsers())
	d.int(work.LiveItems())
	d.int(work.LiveEdges())
	d.u64(work.LiveClicks())
	d.ids(work.LiveUserIDs())
	d.ids(work.LiveItemIDs())
	return &d
}

// goldenReplay feeds the dataset to a stream detector one day at a time,
// sweeping after each day, and ends with a full detection.
func goldenReplay(t *testing.T, ds *synth.Dataset, p core.Params) *dump {
	t.Helper()
	events, err := synth.EventStream(ds, synth.DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	sd, err := stream.New(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var d dump
	for i := 0; i < len(events); {
		day := events[i].Day
		var batch []clicktable.Record
		for ; i < len(events) && events[i].Day == day; i++ {
			e := events[i]
			batch = append(batch, clicktable.Record{UserID: e.UserID, ItemID: e.ItemID, Clicks: e.Clicks})
		}
		sd.AddBatch(batch)
		d.int(day)
		d.result(sd.SweepContext(context.Background()))
	}
	d.result(sd.FullDetectContext(context.Background()))
	return &d
}

// TestOutputsGolden compares the digests of every dump against
// testdata/outputs.golden.
func TestOutputsGolden(t *testing.T) {
	var lines []string
	groups := 0
	for _, w := range goldenWorkloads() {
		ds := synth.MustGenerate(w.cfg)
		var audit bytes.Buffer
		w1 := goldenDetect(ds.Graph, w.params, 1, &audit)
		trail := dump{b: []byte(seqRe.ReplaceAllString(audit.String(), "{"))}
		for _, d := range []struct {
			kind string
			d    *dump
		}{
			{"detect.w1", w1},
			{"detect.w4", goldenDetect(ds.Graph, w.params, 4, nil)},
			{"audit.w1", &trail},
			{"prune", goldenPrune(ds.Graph, w.params)},
			{"replay", goldenReplay(t, ds, w.params)},
		} {
			lines = append(lines, w.name+" "+d.kind+" "+d.d.digest())
			groups += d.d.groups
		}
	}
	if groups == 0 {
		t.Fatal("no dump holds a group; the digests would pin nothing")
	}
	t.Logf("the dumps hold %d groups", groups)
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "outputs.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range lines {
		if i >= len(wantLines) || l != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("output drifted from golden (run with -update if intended):\n got  %s\n want %s", l, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, the dumps %d", len(wantLines), len(lines))
	}
}
