// Package routing implements the paper's entanglement routing layer: the
// distance-vector Bellman-Ford of Algorithm 1 with the 1/(η+ε) cost metric,
// plus two baselines used by the ablation benchmarks — classic single-source
// Bellman-Ford and Dijkstra on −log η weights (which finds the true
// maximum-transmissivity path, since transmissivities multiply along a
// path).
package routing

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// absentEdge is the adjacency-matrix sentinel for "no edge". Valid
// transmissivities live in [0,1], so any negative value is unambiguous.
const absentEdge = -1

// Graph is an undirected graph whose edges carry a transmissivity
// η ∈ [0, 1]. Nodes are identified by string IDs.
//
// The adjacency is a dense n×n matrix backed by a single slice, sized for
// the simulator's topology snapshots (O(100)–O(1000) nodes, re-evaluated at
// thousands of instants), next to an ascending list of the live edges.
// The matrix answers edge lookups in O(1); the list lets ResetEdges and
// EachEdge cost O(E) rather than O(n²). Reset and ResetEdges let callers
// reuse one Graph across snapshots without reallocating; see those methods
// for the invariants.
//
// Single-source searches (DijkstraScratch, DisjointScratch) scan a
// compressed-sparse-row neighbour view instead of the dense rows: per node,
// its neighbours ascending with their η. The view is built from the
// live-edge list on the first search after a mutation and reused until the
// next one; AddNode of a new node, every edge mutator, Reset and
// ResetEdges mark it stale. BellmanFordScratch reads the same view. Because
// a read may rebuild the view, a Graph is not safe for concurrent use, not
// even by readers only.
//
// Every rebuild bumps the view's generation number. A reader that derives a
// column from the view (DisjointScratch's −log η costs) keys it by the
// graph and that generation: the column is current exactly when both still
// match, since no mutation reaches a search without a rebuild in between.
type Graph struct {
	ids   []string
	index map[string]int
	// mat[i*matN+j] holds the transmissivity of edge i-j, or absentEdge.
	// The matrix is materialized lazily on the first edge operation and
	// covers the first matN nodes; nodes added after that have no edges
	// until the next edge operation re-strides it.
	mat  []float64
	matN int
	// keys lists the live edges as edgeKey(i, j), ascending, so it is the
	// row-major i < j order of the matrix. Every matrix mutator keeps it
	// in step; its length is the edge count.
	keys []uint64
	// The CSR neighbour view, one row per node, valid while csrOK:
	// node u's neighbours are csrNbr[csrOff[u]:csrOff[u+1]], ascending,
	// and csrEta holds the matching transmissivities.
	csrOff []int32
	csrNbr []int32
	csrEta []float64
	csrOK  bool
	// csrGen counts the view's rebuilds; see the type comment.
	csrGen uint64
}

// edgeKey packs the undirected edge i-j as min<<32 | max, so ascending
// keys are ascending (i, j) with i < j.
func edgeKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(j)
}

// unpackKey inverts edgeKey.
func unpackKey(k uint64) (i, j int) { return int(k >> 32), int(k & 0xffffffff) }

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddNode inserts a node if not already present and returns its dense
// index. Indices are assigned in insertion order, so re-adding the same ID
// sequence after Reset yields the same indices.
func (g *Graph) AddNode(id string) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.ids = append(g.ids, id)
	g.index[id] = i
	g.csrOK = false
	return i
}

// ensureMat sizes the adjacency matrix for the current node count.
//
//qntn:hotpath steady state (matN == n) returns immediately
func (g *Graph) ensureMat() {
	n := len(g.ids)
	if g.matN == n && g.mat != nil {
		return
	}
	need := n * n
	if len(g.keys) > 0 {
		// Re-striding with live edges: build a fresh matrix and copy the
		// old rows into place (growing in-place would alias old and new
		// strides). Keys do not depend on the stride, so the list stands.
		old, oldN := g.mat, g.matN
		//qntn:coldpath re-stride happens only when nodes were added
		m := make([]float64, need)
		for i := range m {
			m[i] = absentEdge
		}
		for i := 0; i < oldN; i++ {
			copy(m[i*n:i*n+oldN], old[i*oldN:(i+1)*oldN])
		}
		g.mat = m
	} else {
		if cap(g.mat) >= need {
			g.mat = g.mat[:need]
		} else {
			//qntn:coldpath amortized capacity growth
			g.mat = make([]float64, need)
		}
		for i := range g.mat {
			g.mat[i] = absentEdge
		}
	}
	g.matN = n
}

// Reset empties the graph (nodes and edges) while keeping the allocated
// capacity, so a reused Graph reaches a steady state with no per-snapshot
// allocation.
func (g *Graph) Reset() {
	g.ids = g.ids[:0]
	clear(g.index)
	g.mat = g.mat[:0]
	g.matN = 0
	g.keys = g.keys[:0]
	g.csrOK = false
}

// ResetEdges removes every edge while keeping the node set. In the steady
// state (no nodes added since the last edge operation) it clears only the
// listed edges, O(E); otherwise it re-sizes and clears the whole matrix for
// the new node count. This is the per-snapshot reuse entry point for
// topologies whose node set is fixed.
//
//qntn:hotpath once per snapshot; steady state reuses the backing array
func (g *Graph) ResetEdges() {
	if n := len(g.ids); g.matN == n {
		for _, k := range g.keys {
			i, j := unpackKey(k)
			g.mat[i*n+j] = absentEdge
			g.mat[j*n+i] = absentEdge
		}
	}
	g.keys = g.keys[:0]
	g.csrOK = false
	g.ensureMat()
}

// setEdge stores eta on the undirected edge i-j; indices must be < matN.
// A new edge is listed in key order: snapshot assembly admits edges
// ascending, so that is an append; out-of-order deltas shift into place.
//
//qntn:hotpath
func (g *Graph) setEdge(i, j int, eta float64) {
	if g.mat[i*g.matN+j] < 0 {
		k := edgeKey(i, j)
		n := len(g.keys)
		//qntn:coldpath amortized growth: keys reuse their capacity across steps
		g.keys = append(g.keys, k)
		if n > 0 && g.keys[n-1] > k {
			at, _ := slices.BinarySearch(g.keys[:n], k)
			copy(g.keys[at+1:], g.keys[at:n])
			g.keys[at] = k
		}
	}
	g.mat[i*g.matN+j] = eta
	g.mat[j*g.matN+i] = eta
	g.csrOK = false
}

// removeEdge clears the undirected edge i-j and unlists it if present;
// indices must be < matN.
func (g *Graph) removeEdge(i, j int) {
	if g.mat[i*g.matN+j] < 0 {
		return
	}
	g.mat[i*g.matN+j] = absentEdge
	g.mat[j*g.matN+i] = absentEdge
	at, _ := slices.BinarySearch(g.keys, edgeKey(i, j))
	copy(g.keys[at:], g.keys[at+1:])
	g.keys = g.keys[:len(g.keys)-1]
	g.csrOK = false
}

// AddEdge inserts (or updates) the undirected edge a-b with the given
// transmissivity. Nodes are created as needed.
func (g *Graph) AddEdge(a, b string, eta float64) error {
	if a == b {
		return fmt.Errorf("routing: self-loop on %q", a)
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, a, b)
	}
	i, j := g.AddNode(a), g.AddNode(b)
	g.ensureMat()
	g.setEdge(i, j, eta)
	return nil
}

// AddEdgeByIndex inserts (or updates) the undirected edge between the nodes
// at dense indices i and j (as returned by AddNode), skipping the ID
// lookups of AddEdge — the fast path for batched snapshot construction.
//
//qntn:hotpath once per admitted link of every snapshot
func (g *Graph) AddEdgeByIndex(i, j int, eta float64) error {
	if i < 0 || j < 0 || i >= len(g.ids) || j >= len(g.ids) {
		return fmt.Errorf("routing: edge index (%d,%d) outside [0,%d)", i, j, len(g.ids))
	}
	if i == j {
		return fmt.Errorf("routing: self-loop on %q", g.ids[i])
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, g.ids[i], g.ids[j])
	}
	g.ensureMat()
	g.setEdge(i, j, eta)
	return nil
}

// RemoveEdge deletes the undirected edge a-b if present.
func (g *Graph) RemoveEdge(a, b string) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj || i >= g.matN || j >= g.matN {
		return
	}
	g.removeEdge(i, j)
}

// RemoveEdgeByIndex deletes the undirected edge between the nodes at dense
// indices i and j if present, skipping the ID lookups of RemoveEdge — the
// fast path for incremental (event-driven) snapshot maintenance. Indices
// outside the materialized matrix are a no-op, matching RemoveEdge.
//
//qntn:hotpath once per closed link of every topology event
func (g *Graph) RemoveEdgeByIndex(i, j int) {
	if i < 0 || j < 0 || i >= g.matN || j >= g.matN {
		return
	}
	g.removeEdge(i, j)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return len(g.keys) }

// Nodes returns the node IDs in insertion order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.ids))
	copy(out, g.ids)
	return out
}

// NodeID returns the ID of the node at dense index i (as returned by
// AddNode or passed to EachEdge's callback).
func (g *Graph) NodeID(i int) string { return g.ids[i] }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// IndexOf returns the dense index of id and whether it is present.
//
//qntn:hotpath
func (g *Graph) IndexOf(id string) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// etaAt returns the transmissivity between dense indices i and j and
// whether that edge exists.
//
//qntn:hotpath
func (g *Graph) etaAt(i, j int) (float64, bool) {
	if i >= g.matN || j >= g.matN {
		return 0, false
	}
	if v := g.mat[i*g.matN+j]; v >= 0 {
		return v, true
	}
	return 0, false
}

// Eta returns the transmissivity of edge a-b and whether the edge exists.
func (g *Graph) Eta(a, b string) (float64, bool) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj {
		return 0, false
	}
	return g.etaAt(i, j)
}

// EachEdge calls fn for every undirected edge (i < j) in ascending (i, j)
// order, without allocating. It walks the live-edge list, O(E).
//
//qntn:hotpath
func (g *Graph) EachEdge(fn func(i, j int, eta float64)) {
	for _, k := range g.keys {
		i, j := unpackKey(k)
		fn(i, j, g.mat[i*g.matN+j])
	}
}

// Neighbors returns the IDs adjacent to id, sorted for determinism.
func (g *Graph) Neighbors(id string) []string {
	i, ok := g.index[id]
	if !ok || i >= g.matN {
		return nil
	}
	row := g.mat[i*g.matN : (i+1)*g.matN]
	out := make([]string, 0, 8)
	for j, v := range row {
		if v >= 0 {
			out = append(out, g.ids[j])
		}
	}
	sort.Strings(out)
	return out
}

// csr returns the CSR neighbour view, rebuilding it if a mutation made it
// stale. It has one row per node; nodes added since the last edge
// operation have empty rows.
//
//qntn:hotpath once per single-source search; rebuilds once per mutation epoch
func (g *Graph) csr() (off, nbr []int32, eta []float64) {
	if !g.csrOK {
		g.buildCSR()
	}
	return g.csrOff, g.csrNbr, g.csrEta
}

// buildCSR fills the CSR view from the live-edge list in O(n+E). The list
// is ascending (i, j) with i < j, so appending j to i and i to j in list
// order leaves every row ascending — first the smaller neighbours (keys
// (a, u), a < u), then the larger ones (keys (u, b)). Rows therefore visit
// neighbours in the order of a dense-row scan.
//
//qntn:hotpath buffers keep their capacity across snapshots
func (g *Graph) buildCSR() {
	n, m := len(g.ids), 2*len(g.keys)
	//qntn:coldpath amortized growth: the view reuses its capacity
	off := resize(g.csrOff, n+1)
	//qntn:coldpath amortized growth: the view reuses its capacity
	nbr := resize(g.csrNbr, m)
	//qntn:coldpath amortized growth: the view reuses its capacity
	eta := resize(g.csrEta, m)
	clear(off)
	for _, k := range g.keys {
		i, j := unpackKey(k)
		off[i+1]++
		off[j+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Fill with off[u] as node u's cursor, then shift the advanced cursors
	// (each now the end of its row) back into start offsets.
	for _, k := range g.keys {
		i, j := unpackKey(k)
		e := g.mat[i*g.matN+j]
		nbr[off[i]], eta[off[i]] = int32(j), e
		off[i]++
		nbr[off[j]], eta[off[j]] = int32(i), e
		off[j]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.csrOff, g.csrNbr, g.csrEta = off, nbr, eta
	g.csrOK = true
	g.csrGen++
}

// neighborIndices returns adjacent dense indices in ascending order.
func (g *Graph) neighborIndices(i int) []int {
	if i >= g.matN {
		return nil
	}
	row := g.mat[i*g.matN : (i+1)*g.matN]
	var out []int
	for j, v := range row {
		if v >= 0 {
			out = append(out, j)
		}
	}
	return out
}

// PathEta returns the end-to-end transmissivity (product of edge
// transmissivities) along the given node path, or an error if a hop is
// missing.
func (g *Graph) PathEta(path []string) (float64, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("routing: empty path")
	}
	eta := 1.0
	for i := 0; i+1 < len(path); i++ {
		e, ok := g.Eta(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("routing: path uses missing edge %s-%s", path[i], path[i+1])
		}
		eta *= e
	}
	return eta, nil
}

// EdgeEtas returns the per-hop transmissivities along path.
func (g *Graph) EdgeEtas(path []string) ([]float64, error) {
	return g.EdgeEtasInto(nil, path)
}

// EdgeEtasInto appends the per-hop transmissivities along path to dst
// (usually dst[:0] of a reused buffer) and returns it — the allocation-free
// variant of EdgeEtas for per-request hot paths.
//
//qntn:hotpath once per protocol path attempt of every served request
func (g *Graph) EdgeEtasInto(dst []float64, path []string) ([]float64, error) {
	if len(path) < 2 {
		return dst, nil
	}
	for i := 0; i+1 < len(path); i++ {
		e, ok := g.Eta(path[i], path[i+1])
		if !ok {
			return dst, fmt.Errorf("routing: path uses missing edge %s-%s", path[i], path[i+1])
		}
		//qntn:coldpath amortized growth: dst is the caller's reused buffer
		dst = append(dst, e)
	}
	return dst, nil
}
