package lpa

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/synth"
)

func TestLPAFindsDenseBlocks(t *testing.T) {
	// Two disjoint 12×12 bicliques plus background noise pairs.
	b := bipartite.NewBuilder(40, 40)
	for blk := 0; blk < 2; blk++ {
		off := blk * 12
		for u := 0; u < 12; u++ {
			for v := 0; v < 12; v++ {
				b.Add(bipartite.NodeID(off+u), bipartite.NodeID(off+v), 5)
			}
		}
	}
	for i := 24; i < 40; i++ {
		b.Add(bipartite.NodeID(i), bipartite.NodeID(i), 1)
	}
	g := b.Build()
	d := DefaultDetector(10, 10)
	res, err := d.Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Groups))
	}
	for _, grp := range res.Groups {
		if len(grp.Users) != 12 || len(grp.Items) != 12 {
			t.Errorf("group = %d users / %d items, want 12/12", len(grp.Users), len(grp.Items))
		}
	}
}

func TestLPASizeFilter(t *testing.T) {
	// A 5×5 biclique is below the 10/10 bound and must be filtered.
	b := bipartite.NewBuilder(5, 5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 2)
		}
	}
	res, err := DefaultDetector(10, 10).Detect(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("got %d groups, want 0", len(res.Groups))
	}
}

func TestLPAValidation(t *testing.T) {
	g := bipartite.NewGraph(1, 1)
	if _, err := (&Detector{MaxRound: 0, MinUsers: 1, MinItems: 1}).Detect(g); err == nil {
		t.Error("expected MaxRound error")
	}
	if _, err := (&Detector{MaxRound: 5, MinUsers: 0, MinItems: 1}).Detect(g); err == nil {
		t.Error("expected MinUsers error")
	}
}

func TestLPAHighRecallOnSynthetic(t *testing.T) {
	// The paper's Fig 8a: community methods achieve high recall. On
	// synthetic data LPA+size-filter should catch most attack groups
	// (precision is screened later by +UI).
	ds := synth.MustGenerate(synth.SmallConfig())
	res, err := DefaultDetector(10, 10).Detect(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ev := metrics.Evaluate(res, ds.Truth)
	t.Logf("LPA small: %v, groups=%d", ev, len(res.Groups))
	if ev.Recall < 0.5 {
		t.Errorf("LPA recall = %v, want ≥ 0.5", ev.Recall)
	}
}

func TestLPADetectorInterface(t *testing.T) {
	var _ detect.Detector = (*Detector)(nil)
	if DefaultDetector(1, 1).Name() != "LPA" {
		t.Error("bad name")
	}
}

func TestLPAConvergesOnTwoComponents(t *testing.T) {
	// Two disjoint 3×3 bicliques must end with exactly two labels.
	b := bipartite.NewBuilder(6, 6)
	for blk := 0; blk < 2; blk++ {
		for u := 0; u < 3; u++ {
			for v := 0; v < 3; v++ {
				b.Add(bipartite.NodeID(blk*3+u), bipartite.NodeID(blk*3+v), 2)
			}
		}
	}
	userLabel, itemLabel := propagate(b.Build(), 10)
	blockLabels := func(lo, hi int) map[uint32]bool {
		set := map[uint32]bool{}
		for i := lo; i < hi; i++ {
			set[userLabel[i]] = true
			set[itemLabel[i]] = true
		}
		return set
	}
	blkA, blkB := blockLabels(0, 3), blockLabels(3, 6)
	if len(blkA) != 1 || len(blkB) != 1 {
		t.Fatalf("blocks not label-uniform: %v %v", blkA, blkB)
	}
	for l := range blkA {
		if blkB[l] {
			t.Error("disconnected blocks share a label")
		}
	}
}

// partitionDigest hashes a detection's groups — count, order, members.
func partitionDigest(groups []detect.Group) uint64 {
	h := fnv.New64a()
	put := func(ids []bipartite.NodeID) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(ids)))
		h.Write(b[:])
		for _, id := range ids {
			binary.LittleEndian.PutUint32(b[:], id)
			h.Write(b[:])
		}
	}
	for _, grp := range groups {
		put(grp.Users)
		put(grp.Items)
	}
	return h.Sum64()
}

// TestLPAPartitionPinned pins the partition — same groups, same members,
// same order — that label propagation produced when it ran as a vertex
// program on the BSP engine this package used to import; the digests were
// recorded from that implementation.
func TestLPAPartitionPinned(t *testing.T) {
	workloads := append([]synth.Config{synth.SmallConfig(), synth.DefaultConfig()}, synth.EquivCorpus()...)
	pinned := []struct {
		groups int
		digest uint64
	}{
		{4, 0x5a7b5d9b9b07a0b6},
		{9, 0xb2b110c15936d301},
		{4, 0xe7a502dec7fb07c8},
		{5, 0x5af33854e22eb0e7},
		{3, 0x81c313efbb3b86f},
		{4, 0x7a9af102ef6dadcf},
		{5, 0x6d24e1c414f56988},
		{3, 0x90439cc4b30dc396},
		{4, 0xe7ed9b7ad5fdb26f},
		{5, 0x45fc2703844353c3},
		{3, 0x213d66d835da8df7},
		{4, 0xbad6990f8ecb48dd},
		{5, 0x23a87b86eed3059d},
		{6, 0x81b3e22b913d9753},
		{3, 0x9243c2f77a3a34d0},
		{4, 0x72a031893b991fe},
		{5, 0x548dd95b8fde1339},
		{6, 0x310a960eb54e1863},
		{3, 0x672e12c1e7f3cbc9},
		{4, 0x549edcd6243c3561},
		{5, 0x168c936b8f8e4bef},
		{6, 0x901c1a3c1513f5c2},
	}
	if len(pinned) != len(workloads) {
		t.Fatalf("%d pinned partitions for %d workloads", len(pinned), len(workloads))
	}
	total := 0
	for i, cfg := range workloads {
		res, err := DefaultDetector(10, 10).Detect(synth.MustGenerate(cfg).Graph)
		if err != nil {
			t.Fatal(err)
		}
		if got := partitionDigest(res.Groups); len(res.Groups) != pinned[i].groups || got != pinned[i].digest {
			t.Errorf("workload %d: %d groups, digest %#x; pinned %d groups, digest %#x",
				i, len(res.Groups), got, pinned[i].groups, pinned[i].digest)
		}
		total += len(res.Groups)
	}
	if total == 0 {
		t.Fatal("no workload produced a group; the pin is vacuous")
	}
}
