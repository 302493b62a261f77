// Command i2i inspects the item-to-item recommendation surface of a click
// table: the I2I score list (Eq 1) of an anchor item, with optional
// ground-truth labels to mark attack targets — the view a platform analyst
// uses to see what a "Ride Item's Coattails" attack did to a hot item.
//
// Usage:
//
//	i2i -in clicks.csv -anchor 42 [-k 10] [-labels labels.csv]
//	i2i -in clicks.csv -hot 1000 [-k 10] [-labels labels.csv]   # every hot anchor
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/detect"
	"repro/internal/i2i"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("i2i: ")

	var (
		in     = flag.String("in", "", "input click-table CSV (required)")
		anchor = flag.Int64("anchor", -1, "anchor item ID to inspect")
		hot    = flag.Uint64("hot", 0, "inspect every item with ≥ this many clicks instead of one anchor")
		k      = flag.Int("k", 10, "recommendation list depth")
		labels = flag.String("labels", "", "ground-truth label CSV; marks target items")
	)
	flag.Parse()
	if err := checkFlags(*in, *anchor, *hot, *k); err != nil {
		flag.Usage()
		log.Fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := clicktable.ReadCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	g := tbl.ToGraph()

	truth := detect.NewLabels()
	if *labels != "" {
		lf, err := os.Open(*labels)
		if err != nil {
			log.Fatal(err)
		}
		truth, _, err = synth.ReadLabels(lf)
		lf.Close()
		if err != nil {
			log.Fatal(err)
		}
	}

	var anchors []bipartite.NodeID
	if *anchor >= 0 {
		anchors = []bipartite.NodeID{uint32(*anchor)}
	} else {
		anchors = i2i.HotAnchors(g, *hot)
		fmt.Printf("%d anchors with ≥ %d clicks\n", len(anchors), *hot)
	}

	for _, a := range anchors {
		printAnchor(g, a, *k, truth)
	}

	if *labels != "" && len(anchors) > 1 {
		e := i2i.TargetExposure(g, anchors, truth.Items, *k)
		fmt.Printf("\nexposure: %d/%d slots (%.1f%%) held by labeled targets; %d/%d anchors hit\n",
			e.TargetSlots, e.Slots, 100*e.Share(), e.AnchorsHit, e.Anchors)
	}
}

// checkFlags returns the usage error for flags main cannot run with: no
// input, no anchor in the uint32 item ID space and no hot threshold, or a
// list depth below one. An anchor beyond that space is rejected even with
// -hot, since main would otherwise truncate it to another item's ID.
func checkFlags(in string, anchor int64, hot uint64, k int) error {
	switch {
	case in == "":
		return errors.New("missing -in")
	case anchor > math.MaxUint32 || (anchor < 0 && hot == 0):
		return errors.New("need -anchor (an item ID, 0 to 4294967295) or -hot")
	case k < 1:
		return fmt.Errorf("-k %d: the list depth must be at least 1", k)
	}
	return nil
}

func printAnchor(g *bipartite.Graph, anchor bipartite.NodeID, k int, truth *detect.Labels) {
	if !g.ItemAlive(anchor) {
		fmt.Printf("anchor %d: not in graph\n", anchor)
		return
	}
	fmt.Printf("anchor item %d (%d total clicks, %d clickers):\n",
		anchor, g.ItemStrength(anchor), g.ItemDegree(anchor))
	scores := i2i.Scores(g, anchor)
	if k > len(scores) {
		k = len(scores)
	}
	for i := 0; i < k; i++ {
		s := scores[i]
		mark := ""
		if truth.Items[s.Item] {
			mark = "  <- labeled attack target"
		}
		fmt.Printf("  #%-2d item %-8d score %.4f co-clicks %-6d%s\n",
			i+1, s.Item, s.Score, s.CoClicks, mark)
	}
}
