package routing

import (
	"fmt"
	"math"
)

// DijkstraScratch is a reusable, allocation-free (after warm-up) replica of
// Dijkstra over the graph's CSR neighbour view. It must stay BIT-IDENTICAL
// to the map-packed baseline: same relaxation order (ascending CSR rows,
// matching neighborIndices' dense-row scan), same strict-improvement rule,
// and a binary heap transliterating container/heap's exact sift arithmetic
// — so that predecessor choices agree even on cost ties, where which
// equal-cost parent wins is decided purely by heap pop order. The
// differential suite in scratchpaths_test.go pins this against
// routing.Dijkstra on randomized tie-heavy graphs, across mutations.
type DijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
	heap []heapItem
	src  int
}

// Run computes single-source shortest paths under cost from the node at
// dense index src (as returned by AddNode or IndexOf), which must be
// present. cost must be nonnegative, as the baseline requires. The results
// stay readable through Reachable and PathInto until the next Run.
//
//qntn:hotpath once per source of every admission step
func (s *DijkstraScratch) Run(g *Graph, src int, cost CostFunc) {
	off, nbr, etas := g.csr()
	s.start(g.NumNodes(), src)
	for len(s.heap) > 0 {
		u := s.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		du := s.dist[u]
		for e := off[u]; e < off[u+1]; e++ {
			v := int(nbr[e])
			if c := du + cost(etas[e]); c < s.dist[v] {
				s.dist[v] = c
				s.prev[v] = u
				s.push(heapItem{node: v, dist: c})
			}
		}
	}
}

// Reachable reports whether the last Run reached the node at dense index
// dst.
func (s *DijkstraScratch) Reachable(dst int) bool {
	return !math.IsInf(s.dist[dst], 1)
}

// PathInto appends the last Run's shortest path from its source to the
// node at dense index dst to buf, as the graph's node IDs, and returns the
// extended slice — routing.Dijkstra + PathTo without the allocations when
// buf has capacity. An unreachable dst appends nothing.
//
//qntn:hotpath once per routed request
func (s *DijkstraScratch) PathInto(buf []string, g *Graph, dst int) []string {
	if !s.Reachable(dst) {
		return buf
	}
	start := len(buf)
	for cur := dst; ; cur = s.prev[cur] {
		//qntn:coldpath amortized growth: buf is the caller's reused buffer
		buf = append(buf, g.ids[cur])
		if cur == s.src {
			break
		}
	}
	seg := buf[start:]
	for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
		seg[i], seg[j] = seg[j], seg[i]
	}
	return buf
}

// runColumn is Run over a restricted graph, with precomputed weights:
// CSR entry e of g's current view costs costs[e], nodes with blocked[v]
// true are unusable (blocked holds one flag per node), and when
// skipA/skipB are ≥ 0 the single direct edge between them is ignored in
// both directions — the scratch equivalent of deleting vertices (rsp. one
// edge) from a cloned graph. Run's relaxation with costs[e] = cost(η)
// gives the same bits.
//
//qntn:hotpath once per redundant protocol route of every served request
func (s *DijkstraScratch) runColumn(g *Graph, src int, costs []float64, blocked []bool, skipA, skipB int) {
	off, nbr, _ := g.csr()
	s.start(g.NumNodes(), src)
	for len(s.heap) > 0 {
		u := s.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		du := s.dist[u]
		for e := off[u]; e < off[u+1]; e++ {
			v := int(nbr[e])
			if blocked[v] {
				continue
			}
			if (u == skipA && v == skipB) || (u == skipB && v == skipA) {
				continue
			}
			if c := du + costs[e]; c < s.dist[v] {
				s.dist[v] = c
				s.prev[v] = u
				s.push(heapItem{node: v, dist: c})
			}
		}
	}
}

// start sizes the scratch for n nodes and seeds a search from src.
func (s *DijkstraScratch) start(n, src int) {
	if cap(s.dist) < n {
		//qntn:coldpath warm-up sizing
		s.dist = make([]float64, n)
		//qntn:coldpath warm-up sizing
		s.prev = make([]int, n)
		//qntn:coldpath warm-up sizing
		s.done = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.done = s.done[:n]
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		s.dist[i] = inf
		s.prev[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	s.src = src
	s.heap = s.heap[:0]
	s.push(heapItem{node: src, dist: 0})
}

// push appends and sifts up with container/heap's exact arithmetic
// (heap.Push: append, then up(n−1)).
//
//qntn:hotpath heap insertion inside the scratch Dijkstra relaxation loop
func (s *DijkstraScratch) push(it heapItem) {
	//qntn:coldpath amortized growth: the heap buffer is reused across runs
	s.heap = append(s.heap, it)
	j := len(s.heap) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		j = i
	}
}

// pop removes the minimum with container/heap's exact arithmetic
// (heap.Pop: swap(0, n−1), down(0, n−1), then pop the tail).
func (s *DijkstraScratch) pop() heapItem {
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], s.heap[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.heap[j2].dist < s.heap[j1].dist {
			j = j2
		}
		if !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		i = j
	}
	it := s.heap[n]
	s.heap = s.heap[:n]
	return it
}

// DisjointScratch extracts, without steady-state allocation, the route set
// the protocol layer purifies over: the primary path followed by up to k−1
// further paths, each internally vertex-disjoint from all earlier ones
// (endpoints shared), chosen greedily by best end-to-end transmissivity
// (Dijkstra on −log η) over the remaining graph. Semantically identical to
// clone-and-delete extraction with Dijkstra + PathTo — the scalar
// reference in qntn/oracletest pins this: blocking interior vertices here
// replaces deleting their incident edges there, and a consumed direct
// src–dst edge is skipped rather than removed.
//
// The searches read −log η from a column aligned to the graph's CSR view
// instead of taking a logarithm per scanned entry. The column is keyed by
// (graph, view generation) and refilled on the first search after either
// changes: any mutation makes the view stale, the next search rebuilds it
// and bumps the generation, so a matching key means the column holds the
// cost of every entry of the current view. The scratch holds the graph
// pointer, so the graph cannot be freed and its address reused while the
// key names it.
type DisjointScratch struct {
	dij          DijkstraScratch
	cost         CostFunc
	costs        []float64
	costG        *Graph
	costGen      uint64
	blocked      []bool
	arena        []string
	paths        [][]string
	src, dst     int
	skipA, skipB int
}

// Extract returns the disjoint route set for the given primary path: the
// primary itself first, then up to k−1 disjoint alternatives in greedy
// order. The returned slices are valid only until the next Extract call on
// the same scratch. k ≤ 1 returns just the primary.
//
//qntn:hotpath once per multi-hop protocol request evaluation
func (s *DisjointScratch) Extract(g *Graph, primary []string, k int) ([][]string, error) {
	if len(primary) < 2 {
		return nil, fmt.Errorf("routing: disjoint extraction needs a path, got %d nodes", len(primary))
	}
	if s.cost == nil {
		//qntn:coldpath first use of the scratch
		s.cost = NegLogEtaCost(0)
	}
	n := g.NumNodes()
	if cap(s.blocked) < n {
		//qntn:coldpath warm-up sizing
		s.blocked = make([]bool, n)
	}
	s.blocked = s.blocked[:n]
	for i := range s.blocked {
		s.blocked[i] = false
	}
	var ok bool
	if s.src, ok = g.IndexOf(primary[0]); !ok {
		return nil, fmt.Errorf("routing: unknown path node %q", primary[0])
	}
	if s.dst, ok = g.IndexOf(primary[len(primary)-1]); !ok {
		return nil, fmt.Errorf("routing: unknown path node %q", primary[len(primary)-1])
	}
	s.skipA, s.skipB = -1, -1
	s.paths = s.paths[:0]
	s.arena = s.arena[:0]
	//qntn:coldpath amortized growth: the route list is reused across calls
	s.paths = append(s.paths, primary)
	if err := s.block(g, primary); err != nil {
		return nil, err
	}
	for len(s.paths) < k {
		s.dij.runColumn(g, s.src, s.costColumn(g), s.blocked, s.skipA, s.skipB)
		if !s.dij.Reachable(s.dst) {
			break
		}
		start := len(s.arena)
		s.arena = s.dij.PathInto(s.arena, g, s.dst)
		seg := s.arena[start:len(s.arena):len(s.arena)]
		//qntn:coldpath amortized growth: the route list is reused across calls
		s.paths = append(s.paths, seg)
		if err := s.block(g, seg); err != nil {
			return nil, err
		}
	}
	return s.paths, nil
}

// costColumn returns cost(η) for every entry of g's CSR view, refilling
// the column only when g or its view generation differs from the last
// fill.
func (s *DisjointScratch) costColumn(g *Graph) []float64 {
	_, _, etas := g.csr()
	if s.costG != g || s.costGen != g.csrGen {
		//qntn:coldpath column fill, once per view rebuild; the column reuses its capacity
		s.costs = resize(s.costs, len(etas))
		for e, eta := range etas {
			s.costs[e] = s.cost(eta)
		}
		s.costG, s.costGen = g, g.csrGen
	}
	return s.costs
}

// block marks a consumed path's interior vertices unusable. A single-edge
// path has no interior, so its direct src–dst edge is retired instead —
// otherwise the identical path would be re-extracted forever.
func (s *DisjointScratch) block(g *Graph, path []string) error {
	for i := 1; i+1 < len(path); i++ {
		idx, ok := g.IndexOf(path[i])
		if !ok {
			return fmt.Errorf("routing: unknown path node %q", path[i])
		}
		s.blocked[idx] = true
	}
	if len(path) == 2 {
		s.skipA, s.skipB = s.src, s.dst
	}
	return nil
}
