package qntn

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/fault"
	"qntn/internal/orbit"
	"qntn/internal/routing"
)

// referenceGraph builds the topology at time at from independent per-pair
// EvaluateLink calls — the scalar physics path, with none of the per-step
// caching the batched evaluator performs.
func referenceGraph(t *testing.T, sc *Scenario, at time.Duration) *routing.Graph {
	t.Helper()
	g := routing.NewGraph()
	nodes := sc.Net.Nodes()
	for _, n := range nodes {
		g.AddNode(n.ID())
	}
	g.ResetEdges()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if eta, ok := sc.EvaluateLink(nodes[i].ID(), nodes[j].ID(), at); ok {
				if err := g.AddEdge(nodes[i].ID(), nodes[j].ID(), eta); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// edgeMap flattens a graph for failure diagnostics.
func edgeMap(g *routing.Graph) map[string]float64 {
	ids := g.Nodes()
	m := make(map[string]float64)
	g.EachEdge(func(i, j int, eta float64) {
		m[ids[i]+"~"+ids[j]] = eta
	})
	return m
}

// assertStepEquivalence drives the scenario through steps topology instants
// and requires the fast path (fresh Snapshot graphs and one arena-reused
// graph) to be DeepEqual — node order, edge set, and bit-exact
// transmissivities — to the reference graph at every instant.
func assertStepEquivalence(t *testing.T, sc *Scenario, steps int, stepGap time.Duration) {
	t.Helper()
	reused := routing.NewGraph()
	edges := 0
	for s := 0; s < steps; s++ {
		at := time.Duration(s) * stepGap
		want := referenceGraph(t, sc, at)
		edges += want.NumEdges()

		fresh, err := sc.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, want) {
			t.Fatalf("step %d (t=%v): fresh snapshot != reference\nfast: %v\nref:  %v",
				s, at, edgeMap(fresh), edgeMap(want))
		}
		if err := sc.GraphInto(reused, at); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("step %d (t=%v): reused snapshot != reference\nfast: %v\nref:  %v",
				s, at, edgeMap(reused), edgeMap(want))
		}
	}
	if edges == 0 {
		t.Fatal("degenerate equivalence run: no edges at any step")
	}
}

func TestSnapshotFastPathMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		sats    int
		steps   int
		stepGap time.Duration
		tweak   func(*Params)
	}{
		{name: "space-ground-6", sats: 6, steps: 120, stepGap: 30 * time.Second},
		{name: "space-ground-24", sats: 24, steps: 40, stepGap: 3 * time.Minute},
		{name: "space-ground-54-darkness", sats: 54, steps: 25, stepGap: 11 * time.Minute,
			tweak: func(p *Params) { p.RequireDarkness = true }},
		{name: "space-ground-108", sats: 108, steps: 100, stepGap: 7 * time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			if tc.tweak != nil {
				tc.tweak(&p)
			}
			sc, err := NewSpaceGround(tc.sats, p)
			if err != nil {
				t.Fatal(err)
			}
			assertStepEquivalence(t, sc, tc.steps, tc.stepGap)
		})
	}
}

// walkerKernelCases are the Walker-1k scenarios of the per-step kernel:
// the benchmark's full-mesh 1008/24/1@550:53 constellation over the paper's
// ground networks, where every ISL skips the elevation, plus two variants
// that still need it — two low shells whose ISLs cross enough atmosphere
// that η_atm can fall below 1, and the benchmark constellation under HV5/7
// turbulence.
func walkerKernelCases() map[string]func(p Params) (*Scenario, error) {
	walker := func(spec string) func(p Params) (*Scenario, error) {
		return func(p Params) (*Scenario, error) {
			shells, err := orbit.ParseWalkerShells(spec)
			if err != nil {
				return nil, err
			}
			return NewWalker(WalkerSpec{Shells: shells}, p)
		}
	}
	full := walker("1008/24/1@550:53")
	return map[string]func(p Params) (*Scenario, error){
		"walker-1008-full-mesh":  full,
		"walker-1008-low-shells": walker("504/24/1@200:53,504/24/5@260:70"),
		"walker-1008-hv57": func(p Params) (*Scenario, error) {
			hv := atmosphere.HV57()
			p.Turbulence = &hv
			return full(p)
		},
	}
}

// TestSnapshotFastPathMatchesReferenceWalker1k checks the Walker-1k kernel
// against the scalar reference pair by pair at 12 instants per scenario.
// The kernel is single-goroutine, so the race build skips the 540k-pair
// reference scans; it still runs the same scenarios through
// TestSnapshotIndexMatchesDense and TestCandidatePairsMatchCellNeighborhoods.
func TestSnapshotFastPathMatchesReferenceWalker1k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1039-node reference scans are slow; run without -short or -race")
	}
	for name, build := range walkerKernelCases() {
		t.Run(name, func(t *testing.T) {
			sc, err := build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			assertStepEquivalence(t, sc, 12, 17*time.Minute)
		})
	}
}

func TestSnapshotFastPathMatchesReferenceAirGround(t *testing.T) {
	p := DefaultParams()
	p.RequireDarkness = true
	p.HAPOutageProbability = 0.3
	sc, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	assertStepEquivalence(t, sc, 120, 12*time.Minute)
}

func TestSnapshotFastPathMatchesReferenceHybrid(t *testing.T) {
	p := DefaultParams()
	p.RequireDarkness = true
	p.HAPOutageProbability = 0.25
	sc, err := NewHybrid(12, p)
	if err != nil {
		t.Fatal(err)
	}
	assertStepEquivalence(t, sc, 100, 9*time.Minute)
}

// TestSnapshotIndexMatchesDense compares the index-backed fast path against
// the dense fast path (DisableSpatialIndex) graph by graph — node order,
// edge set, and bit-exact transmissivities — across the scenarios where the
// index is active, with and without a fault schedule, including the Walker
// ISL-grid constellation over the multi-continent ground set and the
// 1039-node Walker kernel scenarios (walkerKernelCases).
func TestSnapshotIndexMatchesDense(t *testing.T) {
	builders := map[string]func(p Params) (*Scenario, error){
		"space-ground-54-darkness": func(p Params) (*Scenario, error) {
			p.RequireDarkness = true
			return NewSpaceGround(54, p)
		},
		"space-ground-108": func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) },
		"walker-96-global": func(p Params) (*Scenario, error) { return NewWalker(walkerTestSpec(), p) },
	}
	// The 1039-node Walker scenarios run 12 instants instead of 30.
	walker1k := map[string]bool{}
	for name, build := range walkerKernelCases() {
		builders[name] = build
		walker1k[name] = true
	}
	for name, build := range builders {
		for _, faults := range []bool{false, true} {
			sub := name
			if faults {
				sub += "-faults"
			}
			t.Run(sub, func(t *testing.T) {
				p := DefaultParams()
				if faults {
					p.Fault = fault.Config{
						SatMTBF: 90 * time.Minute, SatMTTR: 15 * time.Minute,
						GroundMTBF: 4 * time.Hour, GroundMTTR: 20 * time.Minute,
						WeatherP: 0.25, WeatherAttenuation: 0.5, Seed: 5,
					}
				}
				indexed, err := build(p)
				if err != nil {
					t.Fatal(err)
				}
				pd := p
				pd.DisableSpatialIndex = true
				dense, err := build(pd)
				if err != nil {
					t.Fatal(err)
				}
				gi, gd := routing.NewGraph(), routing.NewGraph()
				edges := 0
				steps := 30
				if walker1k[name] {
					steps = 12
				}
				for s := 0; s < steps; s++ {
					at := time.Duration(s) * 9 * time.Minute
					if err := indexed.GraphInto(gi, at); err != nil {
						t.Fatal(err)
					}
					if err := dense.GraphInto(gd, at); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gi, gd) {
						t.Fatalf("step %d (t=%v): indexed snapshot != dense snapshot\nidx:   %v\ndense: %v",
							s, at, edgeMap(gi), edgeMap(gd))
					}
					edges += gi.NumEdges()
				}
				if edges == 0 {
					t.Fatal("degenerate dense-vs-index run: no edges at any step")
				}
			})
		}
	}
}

// TestSnapshotReusedAcrossScenarios checks that one arena graph survives
// being handed to scenarios with different node sets back to back — the
// SnapshotInto node-set mismatch path.
func TestSnapshotReusedAcrossScenarios(t *testing.T) {
	p := DefaultParams()
	g := routing.NewGraph()
	for _, sats := range []int{6, 18, 6, 12} {
		sc, err := NewSpaceGround(sats, p)
		if err != nil {
			t.Fatal(err)
		}
		at := 17 * time.Minute
		if err := sc.GraphInto(g, at); err != nil {
			t.Fatal(err)
		}
		want := referenceGraph(t, sc, at)
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%d satellites: reused-across-scenarios snapshot != reference", sats)
		}
	}
}

// TestScratchTablesMatchBellmanFordOverTime converges the routing tables
// with a reused scratch at many instants and compares against the
// allocating BellmanFord entry point.
func TestScratchTablesMatchBellmanFordOverTime(t *testing.T) {
	sc, err := NewSpaceGround(12, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := routing.NewGraph()
	var scratch routing.BellmanFordScratch
	for s := 0; s < 50; s++ {
		at := time.Duration(s) * 10 * time.Minute
		if err := sc.GraphInto(g, at); err != nil {
			t.Fatal(err)
		}
		got := scratch.Run(g, sc.Params.RoutingEpsilon)
		want := routing.BellmanFord(g, sc.Params.RoutingEpsilon)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: scratch tables != BellmanFord tables", s)
		}
	}
}

var benchEdgeCount int

func BenchmarkSnapshotReference12(b *testing.B) {
	// Scalar per-pair baseline at 12 satellites, for comparison against
	// BenchmarkSnapshot-style fast-path numbers in profiles.
	sc, err := NewSpaceGround(12, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	nodes := sc.Net.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i%100) * 30 * time.Second
		n := 0
		for x := 0; x < len(nodes); x++ {
			for y := x + 1; y < len(nodes); y++ {
				if _, ok := sc.EvaluateLink(nodes[x].ID(), nodes[y].ID(), at); ok {
					n++
				}
			}
		}
		benchEdgeCount = n
	}
}
