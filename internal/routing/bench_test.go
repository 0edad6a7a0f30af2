package routing

import (
	"math/rand"
	"testing"
)

// benchGraph approximates a QNTN snapshot: 31 ground nodes in three fiber
// cliques plus relays with dynamic links.
func benchGraph(relays int) *Graph {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 31+relays, 4*(31+relays))
	return g
}

// benchAlgorithm1 converges g on a reused, warmed scratch: the steady
// state of a run that re-routes every topology snapshot.
func benchAlgorithm1(b *testing.B, g *Graph) {
	var s BellmanFordScratch
	s.Run(g, DefaultEpsilon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(g, DefaultEpsilon)
	}
}

func BenchmarkBellmanFordAlgorithm1_40Nodes(b *testing.B) { benchAlgorithm1(b, benchGraph(9)) }

func BenchmarkBellmanFordAlgorithm1_139Nodes(b *testing.B) { benchAlgorithm1(b, benchGraph(108)) }

func BenchmarkClassicBellmanFord139Nodes(b *testing.B) {
	g := benchGraph(108)
	cost := InverseEtaCost(DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClassicBellmanFord(g, nodes[i%len(nodes)], cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstra139Nodes(b *testing.B) {
	g := benchGraph(108)
	cost := InverseEtaCost(DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dijkstra(g, nodes[i%len(nodes)], cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathReconstruction(b *testing.B) {
	g := benchGraph(108)
	tables := BellmanFord(g, DefaultEpsilon)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i*7+13)%len(nodes)]
		if _, err := tables.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
