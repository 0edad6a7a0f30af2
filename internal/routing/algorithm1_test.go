package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sweepBF is the full-sweep Algorithm 1 solver the change-driven
// BellmanFordScratch.Run replaced, kept as its differential oracle: every
// round evaluates every (i, u, v) in ascending order, in place.
type sweepBF struct {
	t      Tables
	nbrs   []int32
	off    []int32
	rounds int
}

// run converges g with the full sweep into fresh tables.
func (s *sweepBF) run(g *Graph, epsilon float64) *Tables {
	epsilon = validEpsilon(epsilon)
	t := &s.t
	t.Epsilon = epsilon
	t.ids = append([]string(nil), g.ids...)
	t.index = make(map[string]int, len(t.ids))
	for i, id := range t.ids {
		t.index[id] = i
	}
	n := len(t.ids)
	t.n = n
	if n == 0 {
		return t
	}
	t.cost = make([]float64, n*n)
	t.via = make([]int32, n*n)
	s.off = append(s.off[:0], 0)
	for u := 0; u < n; u++ {
		if u < g.matN {
			row := g.mat[u*g.matN : (u+1)*g.matN]
			for v, eta := range row {
				if eta >= 0 {
					s.nbrs = append(s.nbrs, int32(v))
				}
			}
		}
		s.off = append(s.off, int32(len(s.nbrs)))
	}
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		var arow []float64
		if i < g.matN {
			arow = g.mat[i*g.matN : (i+1)*g.matN]
		}
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				row[j] = 0
				vrow[j] = -1
			case j < len(arow) && arow[j] >= 0:
				row[j] = CostFromEta(arow[j], epsilon)
				vrow[j] = int32(j)
			default:
				row[j] = inf
				vrow[j] = -1
			}
		}
	}
	for round := 0; round < n-1; round++ {
		s.rounds = round + 1
		if !s.relax() {
			break
		}
	}
	return t
}

// relax is one in-place UPDATE round over all (i, u, v), verbatim from the
// retired production loop.
func (s *sweepBF) relax() bool {
	t := &s.t
	n := t.n
	changed := false
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		for u := 0; u < n; u++ {
			if u == i {
				continue
			}
			for _, v := range s.nbrs[s.off[u]:s.off[u+1]] {
				if int(v) == i {
					// Reaching u directly as our neighbor was already
					// seeded in INITIALIZE.
					continue
				}
				cand := row[v] + t.cost[int(v)*n+u]
				if cand < row[u] {
					row[u] = cand
					vrow[u] = v
					changed = true
				}
			}
		}
	}
	return changed
}

// refPath is the recursive waypoint expansion Tables.Path replaced, kept
// as its differential oracle.
func refPath(t *Tables, src, dst string) ([]string, error) {
	si, ok := t.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := t.index[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown destination %q", dst)
	}
	budget := 4 * t.n // recursion guard
	path, err := refExpand(t, si, di, &budget)
	if err != nil {
		return nil, err
	}
	return path, nil
}

func refExpand(t *Tables, src, dst int, budget *int) ([]string, error) {
	if *budget <= 0 {
		return nil, fmt.Errorf("routing: path expansion exceeded budget (cycle in tables?)")
	}
	*budget--
	if src == dst {
		return []string{t.ids[src]}, nil
	}
	if math.IsInf(t.cost[src*t.n+dst], 1) {
		return nil, fmt.Errorf("routing: %s unreachable from %s", t.ids[dst], t.ids[src])
	}
	via := t.via[src*t.n+dst]
	if via < 0 {
		return nil, fmt.Errorf("routing: missing waypoint for %s -> %s", t.ids[src], t.ids[dst])
	}
	if int(via) == dst {
		return []string{t.ids[src], t.ids[dst]}, nil
	}
	first, err := refExpand(t, src, int(via), budget)
	if err != nil {
		return nil, err
	}
	second, err := refExpand(t, int(via), dst, budget)
	if err != nil {
		return nil, err
	}
	return append(first, second[1:]...), nil
}

// matchSweep converges g on the reused scratch s and on the full sweep and
// fails t unless the two agree bit for bit: every cost's bits, every
// waypoint, the round count, and Path (route or error) for every pair
// against the recursive expansion.
func matchSweep(t *testing.T, name string, s *BellmanFordScratch, g *Graph, epsilon float64) {
	t.Helper()
	got := s.Run(g, epsilon)
	var ref sweepBF
	want := ref.run(g, epsilon)
	if s.Rounds() != ref.rounds {
		t.Fatalf("%s: Rounds() = %d, sweep ran %d", name, s.Rounds(), ref.rounds)
	}
	if got.Epsilon != want.Epsilon || got.n != want.n || !slices.Equal(got.ids, want.ids) {
		t.Fatalf("%s: table header differs: ε %g/%g, n %d/%d", name, got.Epsilon, want.Epsilon, got.n, want.n)
	}
	for k := range want.cost {
		if math.Float64bits(got.cost[k]) != math.Float64bits(want.cost[k]) || got.via[k] != want.via[k] {
			t.Fatalf("%s: entry (%d,%d): cost %v via %d, sweep %v via %d", name,
				k/want.n, k%want.n, got.cost[k], got.via[k], want.cost[k], want.via[k])
		}
	}
	for _, a := range want.ids {
		for _, b := range want.ids {
			gp, gerr := got.Path(a, b)
			wp, werr := refPath(want, a, b)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("%s: Path(%s,%s) = %v, %v; sweep %v, %v", name, a, b, gp, gerr, wp, werr)
			}
		}
	}
}

// sparseGraph builds a random graph with edge probability p and η drawn
// from etas (continuous in [0,1] when etas is nil); small p leaves it
// disconnected.
func sparseGraph(rng *rand.Rand, n int, p float64, etas []float64) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() >= p {
				continue
			}
			eta := rng.Float64()
			if etas != nil {
				eta = etas[rng.Intn(len(etas))]
			}
			_ = g.AddEdgeByIndex(i, j, eta)
		}
	}
	return g
}

// TestAlgorithm1ChangeDrivenMatchesSweep pins the change-driven convergence
// loop to the full in-place sweep it replaced, on one scratch reused across
// every case so stale buffers from larger and smaller graphs are exercised.
func TestAlgorithm1ChangeDrivenMatchesSweep(t *testing.T) {
	var s BellmanFordScratch
	rng := rand.New(rand.NewSource(14))
	quantized := []float64{0, 0.25, 0.5, 0.5, 1}
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(150)
		matchSweep(t, fmt.Sprintf("random connected %d (n=%d)", k, n), &s, randomConnectedGraph(rng, n, rng.Intn(3*n+1)), DefaultEpsilon)
	}
	for k := 0; k < 100; k++ {
		n := 2 + rng.Intn(140)
		p := 4 / float64(n) * rng.Float64()
		matchSweep(t, fmt.Sprintf("tie-heavy %d (n=%d)", k, n), &s, sparseGraph(rng, n, p, quantized), DefaultEpsilon)
	}
	for k := 0; k < 100; k++ {
		n := 2 + rng.Intn(140)
		p := 1.5 / float64(n) * rng.Float64()
		eps := []float64{0, 1e-3, DefaultEpsilon}[k%3]
		matchSweep(t, fmt.Sprintf("disconnected %d (n=%d, ε=%g)", k, n, eps), &s, sparseGraph(rng, n, p, nil), eps)
	}
	for k := 0; k < 10; k++ {
		matchSweep(t, fmt.Sprintf("dense tie-heavy %d", k), &s, sparseGraph(rng, 70, 0.5, quantized), DefaultEpsilon)
	}

	one := NewGraph()
	one.AddNode("solo")
	matchSweep(t, "n=1", &s, one, DefaultEpsilon)
	two := NewGraph()
	two.AddNode("a")
	two.AddNode("b")
	matchSweep(t, "n=2 no edge", &s, two, DefaultEpsilon)
	if err := two.AddEdge("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	matchSweep(t, "n=2 edge", &s, two, DefaultEpsilon)
	matchSweep(t, "n=0", &s, NewGraph(), DefaultEpsilon)

	// Nodes added after the last edge operation lie outside the matrix.
	late := randomConnectedGraph(rng, 40, 40)
	late.AddNode("late-1")
	late.AddNode("late-2")
	matchSweep(t, "nodes beyond the matrix", &s, late, DefaultEpsilon)
}

// TestBellmanFordScratchZeroAllocs pins the steady state: re-converging a
// snapshot on a warmed scratch allocates nothing.
func TestBellmanFordScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 139, 4*139)
	var s BellmanFordScratch
	s.Run(g, DefaultEpsilon)
	if allocs := testing.AllocsPerRun(50, func() { s.Run(g, DefaultEpsilon) }); allocs != 0 {
		t.Fatalf("steady-state Run allocated %v times, want 0", allocs)
	}
}

// TestEpsilonNonFiniteFallsBack: an ε that is not a positive finite number
// means DefaultEpsilon for the Algorithm 1 tables and both cost functions,
// rather than NaN costs (NaN) or all-zero ones (+Inf).
func TestEpsilonNonFiniteFallsBack(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(9)), 30, 30)
	want := BellmanFord(g, DefaultEpsilon)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if got := BellmanFord(g, eps); !reflect.DeepEqual(got, want) {
			t.Errorf("BellmanFord(ε=%g) differs from ε=DefaultEpsilon", eps)
		}
		for _, eta := range []float64{0, 0.5, 1} {
			if got, w := InverseEtaCost(eps)(eta), InverseEtaCost(DefaultEpsilon)(eta); got != w {
				t.Errorf("InverseEtaCost(ε=%g)(%g) = %g, want %g", eps, eta, got, w)
			}
			if got, w := NegLogEtaCost(eps)(eta), NegLogEtaCost(DefaultEpsilon)(eta); got != w {
				t.Errorf("NegLogEtaCost(ε=%g)(%g) = %g, want %g", eps, eta, got, w)
			}
		}
	}
}

// TestPathCycleBudget: waypoints that expand into each other end in the
// budget error after the same number of segments as the recursive
// expansion, not in a loop.
func TestPathCycleBudget(t *testing.T) {
	tbl := BellmanFord(lineGraph(0.9, 0.9, 0.9), DefaultEpsilon)
	n := tbl.n
	tbl.via[0*n+3] = 2 // n0→n3 through n2 ...
	tbl.via[0*n+2] = 3 // ... and n0→n2 through n3
	got, err := tbl.Path("n0", "n3")
	want, werr := refPath(tbl, "n0", "n3")
	if err == nil || werr == nil || err.Error() != werr.Error() || got != nil || want != nil {
		t.Fatalf("Path = %v, %v; recursive expansion %v, %v", got, err, want, werr)
	}
}
