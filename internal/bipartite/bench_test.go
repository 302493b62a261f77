package bipartite

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	builder := NewBuilder(5000, 1000)
	for e := 0; e < 40000; e++ {
		builder.Add(NodeID(rng.Intn(5000)), NodeID(rng.Intn(1000)), uint32(1+rng.Intn(10)))
	}
	return builder.Build()
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 40000)
	for i := range edges {
		edges[i] = Edge{
			U:      NodeID(rng.Intn(5000)),
			V:      NodeID(rng.Intn(1000)),
			Weight: uint32(1 + rng.Intn(10)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder(5000, 1000)
		builder.AddEdges(edges)
		_ = builder.Build()
	}
}

// BenchmarkConnectedComponents splits a whole graph, and a residual shaped
// like the one after the global core peel: 150k clicks over 20k users × 4k
// items with nine users in ten dead, so most of a live item's column leads
// to dead users.
func BenchmarkConnectedComponents(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	builder := NewBuilder(20000, 4000)
	for e := 0; e < 150000; e++ {
		builder.Add(NodeID(rng.Intn(20000)), NodeID(rng.Intn(4000)), 1)
	}
	residual := builder.Build()
	for u := 0; u < residual.NumUsers(); u++ {
		if u%10 != 0 {
			residual.RemoveUser(NodeID(u))
		}
	}
	for name, g := range map[string]*Graph{"whole": benchGraph(b), "residual": residual} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ConnectedComponents(g)
			}
		})
	}
}

func BenchmarkRemoveAndClone(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		for u := NodeID(0); u < 500; u++ {
			c.RemoveUser(u)
		}
	}
}

// BenchmarkPatchGraph patches a 150k-click graph over 20k users × 4k items
// with an aggregated delta of 128 edges (a stream's sweep) and of a day's
// 5.7k edges (a bulk delta).
func BenchmarkPatchGraph(b *testing.B) {
	const users, items = 20000, 4000
	rng := rand.New(rand.NewSource(1))
	builder := NewBuilder(users, items)
	for e := 0; e < 150000; e++ {
		builder.Add(NodeID(rng.Intn(users)), NodeID(rng.Intn(items)), 1)
	}
	base := builder.Build()
	delta := func(n int) []Edge {
		edges := make([]Edge, n)
		for i := range edges {
			edges[i] = Edge{U: NodeID(rng.Intn(users)), V: NodeID(rng.Intn(items)), Weight: 1}
		}
		return satAggregate(edges)
	}
	for _, c := range []struct {
		name  string
		delta []Edge
	}{{"delta128", delta(128)}, {"day", delta(5700)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PatchGraph(base, c.delta)
			}
		})
	}
}
