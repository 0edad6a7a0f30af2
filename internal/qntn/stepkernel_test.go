package qntn

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
)

// cellNeighbors reports whether two flattened cells of g differ by at most
// one cell along every axis.
func cellNeighbors(g *pairGrid, a, b int32) bool {
	near := func(u, v int32) bool { return u-v <= 1 && v-u <= 1 }
	dim := g.dim
	return near(a%dim, b%dim) && near((a/dim)%dim, (b/dim)%dim) && near(a/(dim*dim), b/(dim*dim))
}

// TestCandidatePairsMatchCellNeighborhoods pins the candidate list exactly,
// not just as a superset: pair (i, j), i < j, is a candidate iff both are
// ground hosts of the same network (the fiber list), or at least one is a
// relay and their cells are neighbors. The list must be that set in
// ascending order. Cross-network ground pairs that share a neighborhood
// must be absent, which is what the gather's ground mask is for.
func TestCandidatePairsMatchCellNeighborhoods(t *testing.T) {
	builders := map[string]func(p Params) (*Scenario, error){
		"space-ground-108":      func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) },
		"hybrid-54":             func(p Params) (*Scenario, error) { return NewHybrid(54, p) },
		"walker-96-global":      func(p Params) (*Scenario, error) { return NewWalker(walkerTestSpec(), p) },
		"walker-1008-full-mesh": walkerKernelCases()["walker-1008-full-mesh"],
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			sc, err := build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			nodes := sc.Net.Nodes()
			n := len(nodes)
			masked := 0
			for s := 0; s < 4; s++ {
				se := sc.beginStep(nodes, time.Duration(s)*37*time.Minute)
				cand, ok := se.CandidatePairs()
				if !ok {
					t.Fatal("spatial index inactive")
				}
				var want []netsim.PackedPair
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						gi, gj := se.kind[i] == netsim.Ground, se.kind[j] == netsim.Ground
						near := cellNeighbors(&se.grid, se.grid.cell[i], se.grid.cell[j])
						switch {
						case gi && gj:
							if se.network[i] != "" && se.network[i] == se.network[j] {
								want = append(want, netsim.PackPair(i, j))
							} else if near {
								masked++
							}
						case near:
							want = append(want, netsim.PackPair(i, j))
						}
					}
				}
				if !reflect.DeepEqual(cand, want) {
					t.Fatalf("step %d: %d candidates, want %d", s, len(cand), len(want))
				}
				se.Close()
			}
			if name == "space-ground-108" && masked == 0 {
				t.Fatal("no cross-network ground pair shares a neighborhood; the ground mask is untested")
			}
		})
	}
}

// TestRefreshRelayAtInvalidatesFrame: after refreshRelayAt moves a relay,
// its next elevation query must use a frame built at the new position, even
// if a frame was built earlier in the same step. Every relay pair of the
// refreshed evaluator must then match a fresh evaluator at the new instant.
// Both scenarios admit ISLs whose η reads the lower satellite's frame.
func TestRefreshRelayAtInvalidatesFrame(t *testing.T) {
	for _, name := range []string{"walker-1008-low-shells", "walker-1008-hv57"} {
		build := walkerKernelCases()[name]
		t.Run(name, func(t *testing.T) {
			sc, err := build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			nodes := sc.Net.Nodes()
			t0, t1 := time.Duration(0), 3*time.Minute
			var relays []int
			for i, node := range nodes {
				if node.Kind() != netsim.Ground {
					relays = append(relays, i)
				}
			}
			type pair struct{ i, j int }
			relayLinks := func(se *stepEval) map[pair]float64 {
				links := map[pair]float64{}
				for a, i := range relays {
					for _, j := range relays[a+1:] {
						if eta, ok := se.EvaluatePair(i, j); ok {
							links[pair{i, j}] = eta
						}
					}
				}
				return links
			}
			// The first instant with a relay–relay link.
			var want map[pair]float64
			for ; t1 < 6*time.Hour; t1 += 7 * time.Minute {
				fresh := sc.beginStep(nodes, t1)
				want = relayLinks(fresh)
				fresh.Close()
				if len(want) > 0 {
					break
				}
			}
			if len(want) == 0 {
				t.Fatal("no relay pair links in six hours")
			}

			se := &stepEval{sc: sc}
			se.init(nodes)
			se.reset(t0)
			se.setInstant(t1)
			// Build every relay's frame at its stale t0 position, then
			// move the relays.
			relayLinks(se)
			for _, i := range relays {
				se.refreshRelayAt(i, nodes[i].PositionAt(t1))
			}
			if got := relayLinks(se); !reflect.DeepEqual(got, want) {
				t.Fatalf("refreshed evaluator links %d relay pairs, fresh evaluator %d (or etas differ)", len(got), len(want))
			}
		})
	}
}

// TestWalkerKernelBranches checks that walkerKernelCases exercise both ISL
// branches: on the full-mesh 550 km constellation every admitted ISL is
// elevation-free, while the low-shell and turbulent variants admit ISLs
// that need the elevation.
func TestWalkerKernelBranches(t *testing.T) {
	for name, build := range walkerKernelCases() {
		t.Run(name, func(t *testing.T) {
			sc, err := build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			nodes := sc.Net.Nodes()
			free, needs := 0, 0
			for s := 0; s < 3; s++ {
				se := sc.beginStep(nodes, time.Duration(s)*41*time.Minute)
				cand, _ := se.CandidatePairs()
				for _, pp := range cand {
					i, j := pp.Unpack()
					if se.kind[i] != netsim.Satellite || se.kind[j] != netsim.Satellite {
						continue
					}
					if _, ok := se.EvaluatePair(i, j); !ok {
						continue
					}
					if sc.spaceFSO.ElevationFree(se.columnFraction(i, j)) {
						free++
					} else {
						needs++
					}
				}
				se.Close()
			}
			switch {
			case free+needs == 0:
				t.Fatal("no ISL admitted")
			case name == "walker-1008-full-mesh" && needs != 0:
				t.Fatalf("%d of %d ISLs need the elevation at 550 km", needs, free+needs)
			case name != "walker-1008-full-mesh" && needs == 0:
				t.Fatalf("no ISL needs the elevation (%d elevation-free)", free)
			}
		})
	}
}
