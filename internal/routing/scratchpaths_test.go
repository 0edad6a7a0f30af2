package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// tieGraph builds a random graph whose transmissivities come from a tiny
// set, so −log η costs collide constantly and equal-cost predecessor
// choices (the hard part of scratch/baseline equivalence) are exercised on
// nearly every source.
func tieGraph(t *testing.T, rng *rand.Rand, n int, p float64) *Graph {
	t.Helper()
	etas := []float64{0.25, 0.5, 0.5, 1.0} // repeats skew toward ties
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(nodeName(i), nodeName(j), etas[rng.Intn(len(etas))]); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
		}
	}
	return g
}

func nodeName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

// TestDijkstraScratchMatchesBaseline pins the scratch replica against the
// map-packed heap baseline: bit-identical distances AND predecessors, on
// tie-heavy graphs, from every source, under both cost metrics.
func TestDijkstraScratchMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	costs := map[string]CostFunc{
		"neglog":  NegLogEtaCost(0),
		"inverse": InverseEtaCost(0),
	}
	var scratch DijkstraScratch
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(24)
		g := tieGraph(t, rng, n, 0.3)
		for name, cost := range costs {
			for si := 0; si < n; si++ {
				src := nodeName(si)
				want, err := Dijkstra(g, src, cost)
				if err != nil {
					t.Fatalf("Dijkstra: %v", err)
				}
				scratch.Run(g, si, cost)
				for i, id := range g.ids {
					if scratch.dist[i] != want.Dist[id] && !(math.IsInf(scratch.dist[i], 1) && math.IsInf(want.Dist[id], 1)) {
						t.Fatalf("trial %d cost %s src %s: dist[%s] = %v, baseline %v",
							trial, name, src, id, scratch.dist[i], want.Dist[id])
					}
					var wantPrev string
					if p := scratch.prev[i]; p >= 0 {
						wantPrev = g.ids[p]
					}
					if wantPrev != want.Prev[id] {
						t.Fatalf("trial %d cost %s src %s: prev[%s] = %q, baseline %q",
							trial, name, src, id, wantPrev, want.Prev[id])
					}
				}
			}
		}
	}
}

// refDisjointPaths is the clone-and-delete reference for DisjointScratch:
// delete every incident edge of a consumed path's interior vertices (and
// the direct src–dst edge when the path is a single hop), then re-run the
// baseline Dijkstra. The oracletest protocol reference uses this same
// procedure verbatim.
func refDisjointPaths(t *testing.T, g *Graph, primary []string, k int) [][]string {
	t.Helper()
	work := g.Clone()
	src, dst := primary[0], primary[len(primary)-1]
	consume := func(path []string) {
		for i := 1; i+1 < len(path); i++ {
			for _, nb := range work.Neighbors(path[i]) {
				work.RemoveEdge(path[i], nb)
			}
		}
		if len(path) == 2 {
			work.RemoveEdge(src, dst)
		}
	}
	paths := [][]string{primary}
	consume(primary)
	for len(paths) < k {
		res, err := Dijkstra(work, src, NegLogEtaCost(0))
		if err != nil {
			t.Fatalf("reference Dijkstra: %v", err)
		}
		path, err := res.PathTo(dst)
		if err != nil {
			break // unreachable in the residual graph: done
		}
		paths = append(paths, path)
		consume(path)
	}
	return paths
}

// TestDisjointScratchMatchesReference pins blocked-flag extraction against
// clone-and-delete extraction across random graphs, endpoints and budgets.
func TestDisjointScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ds DisjointScratch
	checked := 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		g := tieGraph(t, rng, n, 0.35)
		for pair := 0; pair < 5; pair++ {
			src, dst := nodeName(rng.Intn(n)), nodeName(rng.Intn(n))
			if src == dst {
				continue
			}
			primary, _, err := BestTransmissivityPath(g, src, dst)
			if err != nil {
				continue // unreachable pair
			}
			k := 1 + rng.Intn(4)
			want := refDisjointPaths(t, g, primary, k)
			got, err := ds.Extract(g, primary, k)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s->%s k=%d: scratch %v, reference %v", trial, src, dst, k, got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d reachable pairs exercised; generator too sparse", checked)
	}
}

// TestDisjointScratchDirectEdge pins the single-hop alternative: when the
// best disjoint alternative is the direct src–dst edge (no interior
// vertices to block), extraction must consume that edge and terminate
// rather than re-extracting it forever.
func TestDisjointScratchDirectEdge(t *testing.T) {
	g := NewGraph()
	// Primary a-m-b (η product 0.81) beats direct a-b (0.5); the direct
	// edge is the only disjoint alternative.
	for _, e := range []struct {
		a, b string
		eta  float64
	}{{"a", "m", 0.9}, {"m", "b", 0.9}, {"a", "b", 0.5}} {
		if err := g.AddEdge(e.a, e.b, e.eta); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	primary := []string{"a", "m", "b"}
	var ds DisjointScratch
	got, err := ds.Extract(g, primary, 5)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := [][]string{{"a", "m", "b"}, {"a", "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract = %v, want %v", got, want)
	}
}

// TestDisjointScratchReuse verifies a reused scratch gives identical
// results to a fresh one (state from earlier extractions must not leak).
func TestDisjointScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := tieGraph(t, rng, 18, 0.4)
	var reused DisjointScratch
	type query struct {
		primary []string
		k       int
	}
	var queries []query
	for i := 0; i < 12; i++ {
		src, dst := nodeName(rng.Intn(18)), nodeName(rng.Intn(18))
		if src == dst {
			continue
		}
		if p, _, err := BestTransmissivityPath(g, src, dst); err == nil {
			queries = append(queries, query{p, 1 + rng.Intn(4)})
		}
	}
	for qi, q := range queries {
		var fresh DisjointScratch
		want, err := fresh.Extract(g, q.primary, q.k)
		if err != nil {
			t.Fatalf("fresh Extract: %v", err)
		}
		got, err := reused.Extract(g, q.primary, q.k)
		if err != nil {
			t.Fatalf("reused Extract: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reused %v, fresh %v", qi, got, want)
		}
	}
}

// TestEdgeEtasIntoMatchesEdgeEtas pins the allocation-free variant against
// the allocating one, including the reuse path.
func TestEdgeEtasIntoMatchesEdgeEtas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tieGraph(t, rng, 15, 0.4)
	buf := make([]float64, 0, 8)
	for i := 0; i < 20; i++ {
		src, dst := nodeName(rng.Intn(15)), nodeName(rng.Intn(15))
		if src == dst {
			continue
		}
		path, _, err := BestTransmissivityPath(g, src, dst)
		if err != nil {
			continue
		}
		want, err := g.EdgeEtas(path)
		if err != nil {
			t.Fatalf("EdgeEtas: %v", err)
		}
		got, err := g.EdgeEtasInto(buf[:0], path)
		if err != nil {
			t.Fatalf("EdgeEtasInto: %v", err)
		}
		buf = got
		if !reflect.DeepEqual(append([]float64(nil), got...), want) {
			t.Fatalf("EdgeEtasInto = %v, EdgeEtas = %v", got, want)
		}
	}
}

// matchSingleSource pins DijkstraScratch.Run + PathInto against the oracle
// routing.Dijkstra + PathTo from every source of g: distance bits,
// reachability and the reconstructed paths.
func matchSingleSource(t *testing.T, label string, s *DijkstraScratch, g *Graph, cost CostFunc) {
	t.Helper()
	var buf []string
	for si, src := range g.ids {
		want, err := Dijkstra(g, src, cost)
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", label, err)
		}
		s.Run(g, si, cost)
		for di, dst := range g.ids {
			wd := want.Dist[dst]
			if math.Float64bits(s.dist[di]) != math.Float64bits(wd) {
				t.Fatalf("%s: dist %s->%s = %v, oracle %v", label, src, dst, s.dist[di], wd)
			}
			buf = s.PathInto(buf[:0], g, di)
			if !s.Reachable(di) {
				if !math.IsInf(wd, 1) || len(buf) != 0 {
					t.Fatalf("%s: %s->%s unreachable with path %v, oracle dist %v", label, src, dst, buf, wd)
				}
				continue
			}
			wp, err := want.PathTo(dst)
			if err != nil {
				t.Fatalf("%s: PathTo: %v", label, err)
			}
			if !slices.Equal(buf, wp) {
				t.Fatalf("%s: path %s->%s = %v, oracle %v", label, src, dst, buf, wp)
			}
		}
	}
}

// TestDijkstraScratchRunMatchesOracleAcrossMutations drives one graph and
// one scratch through a random mutation sequence — out-of-order inserts,
// η updates, removals, ResetEdges, AddNode with and without the matrix
// re-stride that follows, and Reset — and queries after every step, so a
// mutator that leaves the cached CSR view stale shows up as a distance or
// path mismatch against the oracle, which scans the dense matrix.
func TestDijkstraScratchRunMatchesOracleAcrossMutations(t *testing.T) {
	etas := []float64{0.25, 0.5, 0.5, 1.0}
	costs := []CostFunc{NegLogEtaCost(0), InverseEtaCost(0)}
	ops := map[string]int{}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := tieGraph(t, rng, 6+rng.Intn(14), 0.3)
		var s DijkstraScratch
		next := g.NumNodes()
		addRandom := func(count int) {
			for k := 0; k < count; k++ {
				n := g.NumNodes()
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				if err := g.AddEdgeByIndex(i, j, etas[rng.Intn(len(etas))]); err != nil {
					t.Fatalf("AddEdgeByIndex: %v", err)
				}
			}
		}
		for step := 0; step < 40; step++ {
			var op string
			switch r := rng.Intn(12); {
			case r < 4:
				op = "insert"
				addRandom(1 + rng.Intn(3))
			case r < 6:
				op = "update"
				if g.NumEdges() > 0 {
					i, j := unpackKey(g.keys[rng.Intn(g.NumEdges())])
					if err := g.AddEdgeByIndex(i, j, etas[rng.Intn(len(etas))]); err != nil {
						t.Fatalf("AddEdgeByIndex: %v", err)
					}
				}
			case r < 9:
				op = "remove"
				if g.NumEdges() > 0 {
					i, j := unpackKey(g.keys[rng.Intn(g.NumEdges())])
					g.RemoveEdgeByIndex(j, i)
				}
			case r < 10:
				op = "reset-edges"
				g.ResetEdges()
				matchSingleSource(t, fmt.Sprintf("trial %d step %d (%s, empty)", trial, step, op), &s, g, costs[step%2])
				addRandom(g.NumNodes())
			case r < 11:
				op = "add-node"
				u := g.AddNode(nodeName(next))
				next++
				matchSingleSource(t, fmt.Sprintf("trial %d step %d (%s, before re-stride)", trial, step, op), &s, g, costs[step%2])
				if err := g.AddEdgeByIndex(u, rng.Intn(u), etas[rng.Intn(len(etas))]); err != nil {
					t.Fatalf("AddEdgeByIndex: %v", err)
				}
			default:
				op = "reset"
				g.Reset()
				next = 5 + rng.Intn(14)
				for i := 0; i < next; i++ {
					g.AddNode(nodeName(i))
				}
				matchSingleSource(t, fmt.Sprintf("trial %d step %d (%s, no edges)", trial, step, op), &s, g, costs[step%2])
				addRandom(2 * next)
			}
			ops[op]++
			matchSingleSource(t, fmt.Sprintf("trial %d step %d (%s)", trial, step, op), &s, g, costs[step%2])
		}
	}
	for _, op := range []string{"insert", "update", "remove", "reset-edges", "add-node", "reset"} {
		if ops[op] == 0 {
			t.Fatalf("mutation %q never exercised: %v", op, ops)
		}
	}
}

// matchExtract pins ds.Extract on g against a fresh scratch and the
// clone-and-delete reference for every ordered endpoint pair the primary
// search reaches, at budget k. It returns how many extractions found an
// alternative route (so searched the cost column).
func matchExtract(t *testing.T, label string, ds *DisjointScratch, g *Graph, k int) int {
	t.Helper()
	searched := 0
	for _, src := range g.ids {
		for _, dst := range g.ids {
			if src == dst {
				continue
			}
			primary, _, err := BestTransmissivityPath(g, src, dst)
			if err != nil {
				continue
			}
			want := refDisjointPaths(t, g, primary, k)
			var fresh DisjointScratch
			fp, err := fresh.Extract(g, primary, k)
			if err != nil {
				t.Fatalf("%s: fresh Extract: %v", label, err)
			}
			if !reflect.DeepEqual(fp, want) {
				t.Fatalf("%s %s->%s: fresh scratch %v, reference %v", label, src, dst, fp, want)
			}
			got, err := ds.Extract(g, primary, k)
			if err != nil {
				t.Fatalf("%s: Extract: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s->%s: reused scratch %v, reference %v", label, src, dst, got, want)
			}
			if len(got) > 1 {
				searched++
			}
		}
	}
	return searched
}

// TestDisjointScratchCostColumnAcrossMutations drives one DisjointScratch
// through every graph mutator — η update, removal, ResetEdges, AddNode
// before and after the re-stride that follows, Reset — and alternates it
// between two graphs whose CSR views have the same generation. After each
// step its routes must equal a fresh scratch's and the reference's, so a
// cost column reused across a view rebuild, or across graphs, shows up as
// a route mismatch (or an out-of-range read).
func TestDisjointScratchCostColumnAcrossMutations(t *testing.T) {
	etas := []float64{0.25, 0.5, 0.5, 1.0}
	ops := map[string]int{}
	searched := 0
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		g := tieGraph(t, rng, 8+rng.Intn(8), 0.35)
		var ds DisjointScratch
		next := g.NumNodes()
		addRandom := func(count int) {
			for c := 0; c < count; c++ {
				n := g.NumNodes()
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				if err := g.AddEdgeByIndex(i, j, etas[rng.Intn(len(etas))]); err != nil {
					t.Fatalf("AddEdgeByIndex: %v", err)
				}
			}
		}
		check := func(op, note string) {
			searched += matchExtract(t, fmt.Sprintf("trial %d %s%s", trial, op, note), &ds, g, 2+rng.Intn(3))
		}
		check("initial", "")
		for step := 0; step < 24; step++ {
			var op string
			switch step % 6 {
			case 0:
				op = "update"
				for c := 0; c < 1+g.NumEdges()/4 && g.NumEdges() > 0; c++ {
					i, j := unpackKey(g.keys[rng.Intn(g.NumEdges())])
					if err := g.AddEdgeByIndex(i, j, etas[rng.Intn(len(etas))]); err != nil {
						t.Fatalf("AddEdgeByIndex: %v", err)
					}
				}
			case 1:
				op = "remove"
				for c := 0; c < 2 && g.NumEdges() > 0; c++ {
					i, j := unpackKey(g.keys[rng.Intn(g.NumEdges())])
					g.RemoveEdgeByIndex(i, j)
				}
			case 2:
				op = "reset-edges"
				g.ResetEdges()
				check(op, " (empty)")
				addRandom(2 * g.NumNodes())
			case 3:
				op = "add-node"
				u := g.AddNode(nodeName(next))
				next++
				check(op, " (before re-stride)")
				for c := 0; c < 3; c++ {
					if err := g.AddEdgeByIndex(u, rng.Intn(u), etas[rng.Intn(len(etas))]); err != nil {
						t.Fatalf("AddEdgeByIndex: %v", err)
					}
				}
			case 4:
				op = "reset"
				g.Reset()
				next = 8 + rng.Intn(8)
				for i := 0; i < next; i++ {
					g.AddNode(nodeName(i))
				}
				check(op, " (no edges)")
				addRandom(2 * next)
			default:
				// Two fresh graphs over the same node set have views of
				// the same generation after one search each; alternating
				// between them leaves only the graph to tell the columns
				// apart.
				op = "alternate"
				h1 := tieGraph(t, rng, g.NumNodes(), 0.35)
				h2 := tieGraph(t, rng, g.NumNodes(), 0.35)
				for round := 0; round < 2; round++ {
					for hi, h := range []*Graph{h1, h2} {
						searched += matchExtract(t, fmt.Sprintf("trial %d alternate graph %d round %d", trial, hi, round), &ds, h, 3)
					}
				}
				if h1.csrGen != h2.csrGen {
					t.Fatalf("alternated views have generations %d and %d, want equal", h1.csrGen, h2.csrGen)
				}
			}
			ops[op]++
			check(op, "")
		}
	}
	for _, op := range []string{"update", "remove", "reset-edges", "add-node", "reset", "alternate"} {
		if ops[op] == 0 {
			t.Fatalf("mutation %q never exercised: %v", op, ops)
		}
	}
	if searched < 200 {
		t.Fatalf("only %d extractions found an alternative route; generator too sparse", searched)
	}
}

// TestDisjointScratchWarmExtractZeroAllocs pins the steady state: on a
// warmed scratch and an unchanged view, Extract allocates nothing, the
// cost column included.
func TestDisjointScratchWarmExtractZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 139, 4*139)
	var primary []string
	for _, dst := range g.ids[1:] {
		p, _, err := BestTransmissivityPath(g, g.ids[0], dst)
		if err == nil && len(p) > 2 {
			primary = p
			break
		}
	}
	if primary == nil {
		t.Fatal("no multi-hop primary path")
	}
	var ds DisjointScratch
	paths, err := ds.Extract(g, primary, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("Extract found %d routes, want an alternative", len(paths))
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ds.Extract(g, primary, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Extract allocated %v times, want 0", allocs)
	}
}
