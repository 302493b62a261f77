package stream

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/synth"
)

// resultCopy is a deep copy of what a detection result keeps.
type resultCopy struct {
	Groups                   []detect.Group
	RankedUsers, RankedItems []detect.Scored
	Identified, Partial      bool
	StageReached             string
}

func copyResult(res *detect.Result) resultCopy {
	c := resultCopy{
		RankedUsers:  slices.Clone(res.RankedUsers),
		RankedItems:  slices.Clone(res.RankedItems),
		Identified:   res.Identified,
		Partial:      res.Partial,
		StageReached: res.StageReached,
	}
	for _, g := range res.Groups {
		g.Users, g.Items = slices.Clone(g.Users), slices.Clone(g.Items)
		c.Groups = append(c.Groups, g)
	}
	return c
}

// graphCopy is a deep copy of what a graph shows through its accessors.
type graphCopy struct {
	Summary              string
	Epoch                uint64
	UserAlive, ItemAlive []bool
	UserDeg, ItemDeg     []int
	UserStr, ItemStr     []uint64
	UserArcs             [][]bipartite.Arc
}

func copyGraph(g *bipartite.Graph) graphCopy {
	c := graphCopy{Summary: g.String(), Epoch: g.RemovalEpoch()}
	for u := range bipartite.NodeID(g.NumUsers()) {
		c.UserAlive = append(c.UserAlive, g.UserAlive(u))
		c.UserDeg = append(c.UserDeg, g.UserDegree(u))
		c.UserStr = append(c.UserStr, g.UserStrength(u))
		c.UserArcs = append(c.UserArcs, slices.Clone(g.UserArcs(u)))
	}
	for v := range bipartite.NodeID(g.NumItems()) {
		c.ItemAlive = append(c.ItemAlive, g.ItemAlive(v))
		c.ItemDeg = append(c.ItemDeg, g.ItemDegree(v))
		c.ItemStr = append(c.ItemStr, g.ItemStrength(v))
	}
	return c
}

// TestLeasedScratchLeavesResultsAlone: a fixpoint's scratch (peel stack,
// dirty sets, certificates, wide masks, counters, component flags) and the
// graphs a detection builds only for itself (its working copy, its shard
// graphs) are leased from package pools and handed to the next detection,
// so nothing a result keeps may point into them, and a detection may hand
// back only what it leased. A result taken on one graph must read the same
// after detections on a larger and a smaller graph, at one and at four
// workers, and a stream sweep have reused every pooled buffer; every input
// graph must read as it did before all of them; and two detections running
// at once must each return what they return alone. Graph A is a Clone, which
// holds leased storage itself, so a detection that released its input
// instead of its working copy would empty it.
func TestLeasedScratchLeavesResultsAlone(t *testing.T) {
	detectOn := func(g *bipartite.Graph, workers int) *detect.Result {
		t.Helper()
		p := smallParams()
		p.Workers = workers
		res, err := (&core.Detector{Params: p}).DetectContext(context.Background(), g)
		if err != nil || res.Partial {
			t.Fatalf("detection: %v (partial %v)", err, res.Partial)
		}
		return res
	}
	larger := synth.SmallConfig()
	larger.Seed, larger.NumUsers, larger.NumItems = 7, 5000, 900
	graphA := synth.MustGenerate(synth.SmallConfig()).Graph.Clone()
	graphB := synth.MustGenerate(larger).Graph
	smaller := synth.MustGenerate(synth.EquivCorpus()[10])
	inputs := []*bipartite.Graph{graphA, graphB, smaller.Graph}
	var inputsBefore []graphCopy
	for _, g := range inputs {
		inputsBefore = append(inputsBefore, copyGraph(g))
	}

	a := detectOn(graphA, 4)
	if len(a.Groups) == 0 || len(a.RankedUsers) == 0 {
		t.Fatal("the detection on graph A found nothing; the check would be vacuous")
	}
	want := copyResult(a)

	serial := map[*bipartite.Graph]resultCopy{}
	for _, g := range []*bipartite.Graph{graphB, smaller.Graph} {
		for _, workers := range []int{1, 4} {
			serial[g] = copyResult(detectOn(g, workers))
		}
	}
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	smaller.Table.Each(func(r clicktable.Record) bool {
		d.AddClick(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	swept := d.Graph()
	inputs = append(inputs, swept)
	inputsBefore = append(inputsBefore, copyGraph(swept))
	mustSweep(t, d)
	d.AddClick(1, 1, 3)
	mustSweep(t, d)

	if got := copyResult(a); !reflect.DeepEqual(got, want) {
		t.Fatal("graph A's result changed after later detections and sweeps reused the pooled scratch")
	}

	var wg sync.WaitGroup
	got := make([]resultCopy, 2)
	for i, g := range []*bipartite.Graph{graphB, smaller.Graph} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := smallParams()
			p.Workers = 2
			res, err := (&core.Detector{Params: p}).DetectContext(context.Background(), g)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = copyResult(res)
		}()
	}
	wg.Wait()
	for i, g := range []*bipartite.Graph{graphB, smaller.Graph} {
		if !reflect.DeepEqual(got[i], serial[g]) {
			t.Errorf("concurrent detection %d differs from its serial run", i)
		}
	}
	for i, g := range inputs {
		if !reflect.DeepEqual(copyGraph(g), inputsBefore[i]) {
			t.Fatalf("input graph %d changed across the detections and sweeps that read it: %v", i, g)
		}
	}
}
