package qntn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
)

// bruteNeighbors returns, for a built grid, the union of neighborsAfter over
// all nodes as a pair set — the index's candidate relation, before any
// scenario-level filtering.
func gridPairSet(g *pairGrid, n int) map[[2]int32]bool {
	pairs := make(map[[2]int32]bool)
	var scratch []int32
	for i := 0; i < n; i++ {
		scratch = g.neighborsAfter(int32(i), scratch[:0])
		for _, j := range scratch {
			pairs[[2]int32{int32(i), j}] = true
		}
	}
	return pairs
}

// buildGrid bins the positions and builds the CSR layout, the way
// buildCandidates does for mover nodes.
func buildGrid(g *pairGrid, pos []geo.Vec3) {
	g.beginBuild(len(pos))
	for i, p := range pos {
		g.cell[i] = g.cellIndex(p)
	}
	g.finishBuild(len(pos))
}

// assertGridSuperset checks the index's one invariant: every pair within
// rangeM appears in some 3×3×3 neighborhood scan.
func assertGridSuperset(t *testing.T, g *pairGrid, pos []geo.Vec3, rangeM float64) {
	t.Helper()
	pairs := gridPairSet(g, len(pos))
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			d := pos[i].Sub(pos[j]).Norm()
			if !(d <= rangeM) {
				continue
			}
			if !pairs[[2]int32{int32(i), int32(j)}] {
				t.Fatalf("grid dropped in-range pair (%d,%d): distance %.3f m ≤ range %.3f m\n pi=%+v\n pj=%+v",
					i, j, d, rangeM, pos[i], pos[j])
			}
		}
	}
}

// TestPairGridSupersetRandom drives the grid with random point clouds at
// several universe scales and range-to-universe ratios, including positions
// far outside the configured universe and degenerate coordinates. The grid
// must never drop an in-range pair.
func TestPairGridSupersetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		maxNorm := 1e3 * math.Pow(10, rng.Float64()*4) // 1 km .. 10 000 km
		rangeM := maxNorm * (0.01 + rng.Float64()*0.5)
		n := 10 + rng.Intn(120)
		pos := make([]geo.Vec3, n)
		for i := range pos {
			scale := maxNorm
			if rng.Intn(8) == 0 {
				scale = 3 * maxNorm // outside the configured universe
			}
			pos[i] = geo.Vec3{
				X: (rng.Float64()*2 - 1) * scale,
				Y: (rng.Float64()*2 - 1) * scale,
				Z: (rng.Float64()*2 - 1) * scale,
			}
		}
		var g pairGrid
		g.configure(rangeM, maxNorm)
		buildGrid(&g, pos)
		assertGridSuperset(t, &g, pos, rangeM)
	}
}

// TestPairGridDegenerateCoordinates: NaN and infinite positions must bin
// somewhere (clamped) without panicking, and must not disturb other pairs.
func TestPairGridDegenerateCoordinates(t *testing.T) {
	pos := []geo.Vec3{
		{X: math.NaN(), Y: math.Inf(1), Z: math.Inf(-1)},
		{X: 100, Y: 100, Z: 100},
		{X: 150, Y: 100, Z: 100},
	}
	var g pairGrid
	g.configure(200, 1000)
	buildGrid(&g, pos)
	if !gridPairSet(&g, len(pos))[[2]int32{1, 2}] {
		t.Fatal("in-range pair (1,2) lost next to degenerate node 0")
	}
}

// FuzzPairGridBoundary perturbs positions sitting exactly on cell boundaries
// by tiny offsets — the regime where float rounding could flip a cell
// assignment — and asserts the superset invariant holds regardless of which
// side of the boundary each node lands on.
func FuzzPairGridBoundary(f *testing.F) {
	f.Add(int64(1), 0.0)
	f.Add(int64(2), 1e-9)
	f.Add(int64(3), -1e-9)
	f.Add(int64(4), 0.5)
	f.Add(int64(5), -123.456)
	f.Fuzz(func(t *testing.T, seed int64, offset float64) {
		if math.IsNaN(offset) || math.IsInf(offset, 0) {
			offset = 0
		}
		const rangeM = 1000.0
		const maxNorm = 8000.0
		var g pairGrid
		g.configure(rangeM, maxNorm)
		cellM := 1 / g.invCell
		rng := rand.New(rand.NewSource(seed))
		n := 32
		pos := make([]geo.Vec3, n)
		boundary := func() float64 {
			// An exact cell boundary, shifted by the fuzzed offset and a
			// small random jitter so pairs straddle boundaries both ways.
			b := g.originM + float64(rng.Intn(int(g.dim)+1))*cellM
			return b + offset + (rng.Float64()*2-1)*rangeM/4
		}
		for i := range pos {
			pos[i] = geo.Vec3{X: boundary(), Y: boundary(), Z: boundary()}
		}
		buildGrid(&g, pos)
		assertGridSuperset(t, &g, pos, rangeM)
	})
}

// walkerTestSpec is the two-shell ISL-grid constellation the white-box index
// tests share: 96 satellites (over the index cutoff) in two shells plus the
// multi-continent ground set.
func walkerTestSpec() WalkerSpec {
	return WalkerSpec{
		Shells: []orbit.WalkerShell{
			{TotalSats: 48, Planes: 8, Phasing: 1, InclinationDeg: 53, AltitudeM: 550e3},
			{TotalSats: 48, Planes: 8, Phasing: 1, InclinationDeg: 70, AltitudeM: 600e3},
		},
		ISLGrid: true,
		Ground:  GlobalGroundNetworks(),
	}
}

// TestCandidatePairsNeverDropAcceptedPair is the end-to-end property test:
// across scenario archetypes and many topology instants, every pair the
// dense evaluator accepts must appear in the candidate list, the candidate
// list must be strictly ascending (the dense visit order), and the culled
// count must reconcile with n(n-1)/2.
func TestCandidatePairsNeverDropAcceptedPair(t *testing.T) {
	p := DefaultParams()
	scSG, err := NewSpaceGround(54, p)
	if err != nil {
		t.Fatal(err)
	}
	scW, err := NewWalker(walkerTestSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*Scenario{"space-ground-54": scSG, "walker-96": scW} {
		t.Run(name, func(t *testing.T) {
			n := sc.Net.NumNodes()
			accepted := 0
			for s := 0; s < 16; s++ {
				at := time.Duration(s) * 11 * time.Minute
				ev := sc.Net.BeginStep(at)
				pe, ok := ev.(netsim.PairEnumerator)
				if !ok {
					t.Fatal("step evaluator does not enumerate pairs")
				}
				cand, ok := pe.CandidatePairs()
				if !ok {
					t.Fatalf("spatial index inactive at %d nodes", n)
				}
				inCand := make(map[netsim.PackedPair]bool, len(cand))
				for k, c := range cand {
					if k > 0 && cand[k-1] >= c {
						t.Fatalf("candidates not strictly ascending at %d: %v then %v", k, cand[k-1], c)
					}
					inCand[c] = true
				}
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if _, ok := ev.EvaluatePair(i, j); ok {
							accepted++
							if !inCand[netsim.PackPair(i, j)] {
								t.Fatalf("t=%v: accepted pair (%d,%d) missing from candidates", at, i, j)
							}
						}
					}
				}
				if ps, ok := ev.(netsim.PairStatser); ok {
					_, _, culled := ps.PairStats()
					if want := int64(n)*int64(n-1)/2 - int64(len(cand)); culled != want {
						t.Fatalf("t=%v: indexCulled %d, want %d (pairs %d, candidates %d)",
							at, culled, want, n*(n-1)/2, len(cand))
					}
					if culled <= 0 {
						t.Fatalf("t=%v: index culled nothing (%d candidates of %d pairs)", at, len(cand), n*(n-1)/2)
					}
				} else {
					t.Fatal("step evaluator does not report pair stats")
				}
				ev.Close()
			}
			if accepted == 0 {
				t.Fatal("degenerate property run: no pair accepted at any instant")
			}
		})
	}
}

// TestCandidatePairsDisabled: the enumeration must report ok=false — forcing
// the dense fallback — below the node cutoff and under DisableSpatialIndex.
func TestCandidatePairsDisabled(t *testing.T) {
	check := func(t *testing.T, sc *Scenario) {
		t.Helper()
		ev := sc.Net.BeginStep(0)
		defer ev.Close()
		if cand, ok := ev.(netsim.PairEnumerator).CandidatePairs(); ok {
			t.Fatalf("spatial index unexpectedly active: %d candidates", len(cand))
		}
	}
	t.Run("below-cutoff", func(t *testing.T) {
		sc, err := NewSpaceGround(6, DefaultParams()) // 37 nodes < cutoff
		if err != nil {
			t.Fatal(err)
		}
		check(t, sc)
	})
	t.Run("disabled", func(t *testing.T) {
		p := DefaultParams()
		p.DisableSpatialIndex = true
		sc, err := NewSpaceGround(108, p)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sc)
	})
}

// TestSnapshotZeroAllocsSpatialIndex: the index-backed snapshot must stay
// allocation-free in steady state, with the index demonstrably active, at
// the paper's 108 satellites and on the 1039-node Walker constellation.
func TestSnapshotZeroAllocsSpatialIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	walker := walkerKernelCases()["walker-1008-full-mesh"]
	builders := map[string]func(p Params) (*Scenario, error){
		"space-ground-108":      func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) },
		"walker-1008-full-mesh": walker,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			sc, err := build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			g := routing.NewGraph()
			var st netsim.SnapshotStats
			for i := 0; i < 3; i++ {
				if err := sc.Net.SnapshotIntoStats(g, time.Duration(i)*time.Minute, &st); err != nil {
					t.Fatal(err)
				}
			}
			if st.IndexCulled <= 0 {
				t.Fatalf("spatial index culled nothing: %+v", st)
			}
			if n := testing.AllocsPerRun(20, func() {
				if err := sc.Net.SnapshotIntoStats(g, 5*time.Minute, &st); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("index-backed snapshot allocates %v times per step", n)
			}
		})
	}
}

// TestWalkerGridAdjacency pins the +grid ISL topology: four neighbors per
// satellite (ring fore/aft plus the same slot in both adjacent planes),
// symmetric, sorted, and never crossing shells.
func TestWalkerGridAdjacency(t *testing.T) {
	spec := walkerTestSpec()
	sc, err := NewWalker(spec, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.islAdj == nil {
		t.Fatal("ISLGrid spec produced no adjacency")
	}
	if got, want := len(sc.islAdj), 96; got != want {
		t.Fatalf("adjacency covers %d satellites, want %d", got, want)
	}
	for id, nbrs := range sc.islAdj {
		if len(nbrs) != 4 {
			t.Fatalf("%s has %d grid neighbors, want 4: %v", id, len(nbrs), nbrs)
		}
		for k, nb := range nbrs {
			if k > 0 && nbrs[k-1] >= nb {
				t.Fatalf("%s neighbors not sorted: %v", id, nbrs)
			}
			found := false
			for _, back := range sc.islAdj[nb] {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %s lists %s but not vice versa", id, nb)
			}
		}
	}
	// Shell 0 is SAT-0001..SAT-0048, shell 1 the rest: no edge may cross.
	shell := func(id string) int {
		var k int
		if _, err := fmt.Sscanf(id, "SAT-%04d", &k); err != nil {
			t.Fatalf("bad satellite ID %q: %v", id, err)
		}
		if k <= 48 {
			return 0
		}
		return 1
	}
	for id, nbrs := range sc.islAdj {
		for _, nb := range nbrs {
			if shell(id) != shell(nb) {
				t.Fatalf("grid edge crosses shells: %s ~ %s", id, nb)
			}
		}
	}
}
