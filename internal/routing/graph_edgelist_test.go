package routing

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// edgeRec is one undirected edge as EachEdge reports it.
type edgeRec struct {
	i, j int
	eta  float64
}

// matrixScan is the reference edge enumeration: the row-major i < j scan of
// the dense matrix, which EachEdge's live-edge list must reproduce exactly.
func matrixScan(t *testing.T, g *Graph) []edgeRec {
	t.Helper()
	var out []edgeRec
	for i := 0; i < g.matN; i++ {
		for j := i + 1; j < g.matN; j++ {
			v := g.mat[i*g.matN+j]
			if w := g.mat[j*g.matN+i]; v != w {
				t.Fatalf("matrix asymmetric at (%d,%d): %v vs %v", i, j, v, w)
			}
			if v >= 0 {
				out = append(out, edgeRec{i, j, v})
			}
		}
	}
	return out
}

// graphModel is an independent map-backed model of a Graph's contents.
type graphModel struct {
	ids   []string
	edges map[[2]string]float64
}

func (m *graphModel) addNode(id string) {
	for _, x := range m.ids {
		if x == id {
			return
		}
	}
	m.ids = append(m.ids, id)
}

func modelKey(a, b string) [2]string { return [2]string{min(a, b), max(a, b)} }

func (m *graphModel) neighbors(id string) []string {
	var out []string
	for k := range m.edges {
		switch id {
		case k[0]:
			out = append(out, k[1])
		case k[1]:
			out = append(out, k[0])
		}
	}
	sort.Strings(out)
	return out
}

// checkGraph asserts the live-edge invariant after one operation: EachEdge
// is exactly the matrix scan, NumEdges is its length, and the contents
// (edges and Neighbors) match the model.
func checkGraph(t *testing.T, step int, op string, g *Graph, m *graphModel) {
	t.Helper()
	var each []edgeRec
	g.EachEdge(func(i, j int, eta float64) { each = append(each, edgeRec{i, j, eta}) })
	scan := matrixScan(t, g)
	if !reflect.DeepEqual(each, scan) {
		t.Fatalf("step %d (%s): EachEdge = %v, matrix scan = %v", step, op, each, scan)
	}
	if g.NumEdges() != len(scan) {
		t.Fatalf("step %d (%s): NumEdges = %d, matrix scan has %d", step, op, g.NumEdges(), len(scan))
	}
	if !slices.Equal(g.Nodes(), m.ids) {
		t.Fatalf("step %d (%s): Nodes = %v, model %v", step, op, g.Nodes(), m.ids)
	}
	got := make(map[[2]string]float64, len(each))
	for _, e := range each {
		got[modelKey(g.NodeID(e.i), g.NodeID(e.j))] = e.eta
	}
	if !maps.Equal(got, m.edges) {
		t.Fatalf("step %d (%s): edges = %v, model %v", step, op, got, m.edges)
	}
	for _, id := range m.ids {
		if nb, want := g.Neighbors(id), m.neighbors(id); !slices.Equal(nb, want) {
			t.Fatalf("step %d (%s): Neighbors(%s) = %v, model %v", step, op, id, nb, want)
		}
	}
}

// TestGraphEdgeListDifferential drives seeded random mutation sequences —
// node growth (including re-stride after edges exist), edge adds and
// updates by ID and by index, removals (including double removes and
// indices past the materialized matrix), ResetEdges, Reset and Clone — and
// checks the live-edge list against the dense matrix after every step.
func TestGraphEdgeListDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		m := &graphModel{edges: make(map[[2]string]float64)}
		id := func() string { return fmt.Sprintf("n%d", rng.Intn(24)) }
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 10:
				op = "AddNode"
				x := id()
				g.AddNode(x)
				m.addNode(x)
			case r < 35:
				op = "AddEdge"
				a, b := id(), id()
				eta := rng.Float64()
				if err := g.AddEdge(a, b, eta); err == nil {
					m.addNode(a)
					m.addNode(b)
					m.edges[modelKey(a, b)] = eta
				} else if a != b {
					t.Fatalf("seed %d step %d: AddEdge(%s,%s): %v", seed, step, a, b, err)
				}
			case r < 60:
				op = "AddEdgeByIndex"
				n := g.NumNodes()
				if n < 2 {
					continue
				}
				i, j := rng.Intn(n), rng.Intn(n)
				eta := rng.Float64()
				if err := g.AddEdgeByIndex(i, j, eta); err == nil {
					m.edges[modelKey(m.ids[i], m.ids[j])] = eta
				} else if i != j {
					t.Fatalf("seed %d step %d: AddEdgeByIndex(%d,%d): %v", seed, step, i, j, err)
				}
			case r < 72:
				op = "RemoveEdge"
				a, b := id(), id()
				g.RemoveEdge(a, b)
				delete(m.edges, modelKey(a, b))
			case r < 90:
				op = "RemoveEdgeByIndex"
				// Draw past the node count too: indices beyond matN (or
				// beyond the node set) must be a no-op.
				i, j := rng.Intn(g.NumNodes()+3)-1, rng.Intn(g.NumNodes()+3)-1
				g.RemoveEdgeByIndex(i, j)
				if i >= 0 && j >= 0 && i < len(m.ids) && j < len(m.ids) {
					delete(m.edges, modelKey(m.ids[i], m.ids[j]))
				}
			case r < 95:
				op = "ResetEdges"
				g.ResetEdges()
				clear(m.edges)
			case r < 97:
				op = "Reset"
				g.Reset()
				m.ids = m.ids[:0]
				clear(m.edges)
			default:
				op = "Clone"
				g = g.Clone()
			}
			checkGraph(t, step, fmt.Sprintf("seed %d: %s", seed, op), g, m)
		}
	}
}

// stepEdges returns a fixed, realistic ascending edge set over n nodes: a
// random connected graph with about five edges per node.
func stepEdges(n int) []edgeRec {
	rng := rand.New(rand.NewSource(7))
	var out []edgeRec
	randomConnectedGraph(rng, n, 4*n).EachEdge(func(i, j int, eta float64) {
		out = append(out, edgeRec{i, j, eta})
	})
	return out
}

// TestGraphStepZeroAllocs pins the steady state of per-snapshot reuse: on a
// warmed graph, ResetEdges followed by re-adding the same edge set — in
// ascending snapshot order or in shuffled event-delta order — allocates
// nothing.
func TestGraphStepZeroAllocs(t *testing.T) {
	edges := stepEdges(139)
	shuffled := append([]edgeRec(nil), edges...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(a, b int) {
		shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
	})
	g := NewGraph()
	for i := 0; i < 139; i++ {
		g.AddNode(fmt.Sprintf("v%03d", i))
	}
	for _, tc := range []struct {
		name  string
		edges []edgeRec
	}{{"ascending", edges}, {"shuffled", shuffled}} {
		step := func() {
			g.ResetEdges()
			for _, e := range tc.edges {
				if err := g.AddEdgeByIndex(e.i, e.j, e.eta); err != nil {
					t.Fatal(err)
				}
			}
		}
		step() // warm the matrix and the key capacity
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("%s: ResetEdges + re-add allocated %v times per step, want 0", tc.name, allocs)
		}
		if g.NumEdges() != len(edges) {
			t.Fatalf("%s: NumEdges = %d, want %d", tc.name, g.NumEdges(), len(edges))
		}
	}
}

// BenchmarkGraphStep is the steady-state graph maintenance of one topology
// step: ResetEdges, re-add a fixed edge set in ascending (snapshot) order,
// then one EachEdge pass (the coverage bridge check's walk). n = 139 is the
// 108-satellite hybrid network, n = 1039 the Walker-1k constellation.
func BenchmarkGraphStep(b *testing.B) {
	for _, n := range []int{139, 1039} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			edges := stepEdges(n)
			g := NewGraph()
			for i := 0; i < n; i++ {
				g.AddNode(fmt.Sprintf("v%04d", i))
			}
			var sum float64
			step := func() {
				g.ResetEdges()
				for _, e := range edges {
					if err := g.AddEdgeByIndex(e.i, e.j, e.eta); err != nil {
						b.Fatal(err)
					}
				}
				g.EachEdge(func(_, _ int, eta float64) { sum += eta })
			}
			step() // warm the matrix and the key capacity
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				step()
			}
			if sum < 0 {
				b.Fatal("negative transmissivity")
			}
		})
	}
}
