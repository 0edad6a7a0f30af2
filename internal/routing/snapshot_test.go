package routing_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/routing"
)

// snapshotInstants spread over the paper's simulated day.
var snapshotInstants = []time.Duration{0, 7 * time.Minute, 3*time.Hour + 30*time.Second, 11 * time.Hour, 17*time.Hour + 45*time.Minute, 23 * time.Hour}

// TestAlgorithm1ChangeDrivenMatchesSweepSnapshots runs the differential
// check of TestAlgorithm1ChangeDrivenMatchesSweep on real topology
// snapshots: the 108-satellite space-ground network of Fig. 7 and the
// air-ground network, at instants across the day, on one reused scratch.
func TestAlgorithm1ChangeDrivenMatchesSweepSnapshots(t *testing.T) {
	p := qntn.DefaultParams()
	space, err := qntn.NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	air, err := qntn.NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	var s routing.BellmanFordScratch
	for _, sc := range []*qntn.Scenario{space, air} {
		g := routing.NewGraph()
		for _, at := range snapshotInstants {
			if err := sc.GraphInto(g, at); err != nil {
				t.Fatal(err)
			}
			routing.MatchSweep(t, fmt.Sprintf("%v at %v", sc.Arch, at), &s, g, sc.Params.RoutingEpsilon)
		}
	}
}

// BenchmarkBellmanFordSnapshot108 converges the Algorithm 1 tables of real
// Fig. 7 snapshots (108 satellites plus the ground hosts) on a reused
// scratch, cycling through instants across the day.
func BenchmarkBellmanFordSnapshot108(b *testing.B) {
	p := qntn.DefaultParams()
	sc, err := qntn.NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	graphs := make([]*routing.Graph, len(snapshotInstants))
	for k, at := range snapshotInstants {
		graphs[k] = routing.NewGraph()
		if err := sc.GraphInto(graphs[k], at); err != nil {
			b.Fatal(err)
		}
	}
	var s routing.BellmanFordScratch
	s.Run(graphs[0], p.RoutingEpsilon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(graphs[i%len(graphs)], p.RoutingEpsilon)
	}
}

// BenchmarkSingleSourceSnapshot108 times one single-source search plus
// path reconstruction between ground hosts of different networks on real
// Fig. 7 snapshots (108 satellites), cycling through instants across the
// day: the admission kernel DijkstraScratch.Run + PathInto next to the
// oracle routing.Dijkstra + PathTo. Each graph's CSR view is built on its
// first search and reused after, as within one admission step.
func BenchmarkSingleSourceSnapshot108(b *testing.B) {
	p := qntn.DefaultParams()
	sc, err := qntn.NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	graphs := make([]*routing.Graph, len(snapshotInstants))
	for k, at := range snapshotInstants {
		graphs[k] = routing.NewGraph()
		if err := sc.GraphInto(graphs[k], at); err != nil {
			b.Fatal(err)
		}
	}
	type pair struct{ src, dst string }
	var pairs []pair
	for i, a := range sc.LANs {
		c := sc.LANs[(i+1)%len(sc.LANs)]
		pairs = append(pairs, pair{sc.GroundIDs[a.Name][0], sc.GroundIDs[c.Name][0]})
	}
	cost := routing.InverseEtaCost(p.RoutingEpsilon)
	b.Run("scratch", func(b *testing.B) {
		var s routing.DijkstraScratch
		var path []string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, q := graphs[i%len(graphs)], pairs[i%len(pairs)]
			si, _ := g.IndexOf(q.src)
			di, _ := g.IndexOf(q.dst)
			s.Run(g, si, cost)
			path = s.PathInto(path[:0], g, di)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, q := graphs[i%len(graphs)], pairs[i%len(pairs)]
			res, err := routing.Dijkstra(g, q.src, cost)
			if err != nil {
				b.Fatal(err)
			}
			if math.IsInf(res.Dist[q.dst], 1) {
				continue
			}
			if _, err := res.PathTo(q.dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDisjointExtract108 times the protocol layer's route-set
// extraction (the primary plus up to three vertex-disjoint alternatives)
// between ground hosts of different networks on real Fig. 7 snapshots (108
// satellites), cycling through instants across the day on one reused
// scratch. Each graph's CSR view and cost column are built on its first
// extraction and reused after, as within one serve step.
func BenchmarkDisjointExtract108(b *testing.B) {
	p := qntn.DefaultParams()
	sc, err := qntn.NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		g       *routing.Graph
		primary []string
	}
	var queries []query
	for _, at := range snapshotInstants {
		g := routing.NewGraph()
		if err := sc.GraphInto(g, at); err != nil {
			b.Fatal(err)
		}
		for i, a := range sc.LANs {
			c := sc.LANs[(i+1)%len(sc.LANs)]
			primary, _, err := routing.BestTransmissivityPath(g, sc.GroundIDs[a.Name][0], sc.GroundIDs[c.Name][0])
			if err == nil {
				queries = append(queries, query{g, primary})
			}
		}
	}
	if len(queries) == 0 {
		b.Fatal("no routable ground pair in any snapshot")
	}
	var ds routing.DisjointScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := ds.Extract(q.g, q.primary, 4); err != nil {
			b.Fatal(err)
		}
	}
}
