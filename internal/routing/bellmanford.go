package routing

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultEpsilon is the small positive ε of the paper's 1/(η+ε) cost
// metric, preventing division by zero on η = 0 edges.
const DefaultEpsilon = 1e-6

// CostFromEta converts a transmissivity into the paper's additive routing
// cost 1/(η+ε). Larger transmissivity means smaller cost.
func CostFromEta(eta, epsilon float64) float64 {
	return 1 / (eta + epsilon)
}

// Tables holds the converged routing table of every node: for each (node,
// destination) pair the minimal total cost and the Algorithm 1 Via waypoint
// needed to reconstruct the path. Storage is dense (one cost and one
// waypoint index per pair), matching the dense Graph it is computed from.
type Tables struct {
	Epsilon float64

	ids   []string
	index map[string]int
	n     int
	// cost[i*n+j] is node i's converged cost to reach j; via holds the
	// Algorithm 1 waypoint (-1 none, j itself for direct edges).
	cost []float64
	via  []int32
}

// BellmanFordScratch is the reusable workspace of the Algorithm 1 solver.
// Run converges the tables for a graph, reusing the buffers of previous
// runs; the returned Tables alias the scratch and are valid only until the
// next Run on the same scratch. The zero value is ready to use. A scratch
// must not be shared between goroutines.
type BellmanFordScratch struct {
	t Tables
	// The current graph's CSR neighbor lists, aliased for the Run: node
	// u's neighbors are nbrs[off[u]:off[u+1]], ascending.
	nbrs []int32
	off  []int32
	// words is ⌈n/64⌉, the stride of the node bitsets below.
	words int
	// adj[u*words:(u+1)*words] is node u's neighbor set.
	adj []uint64
	// pend[i*words:(i+1)*words] is the set of destinations u whose entry
	// (i, u) row i's next pass must re-evaluate; cur is the set of the
	// pass in progress.
	pend []uint64
	cur  []uint64
	// rounds is the number of relaxation rounds the last Run executed
	// before converging (early exit included).
	rounds int
}

// Rounds reports how many relaxation rounds the last Run executed. Exposed
// for telemetry: convergence speed is a direct measure of topology diameter
// and routing cost per snapshot.
func (s *BellmanFordScratch) Rounds() int { return s.rounds }

// BellmanFord runs the paper's Algorithm 1 on the graph: every node
// initializes a table with cost 0 to itself, 1/(η+ε) to adjacent nodes and
// +Inf elsewhere, then up to N−1 rounds of relaxation update each table.
// A round updates the tables in place (Gauss–Seidel): row i, destination u
// and neighbor v of u are taken in ascending order, and each improvement
// is visible to every later evaluation of the same round, which is why
// snapshot topologies converge in one or two rounds. Callers converging
// tables for many topology snapshots should allocate a BellmanFordScratch
// and call Run instead.
func BellmanFord(g *Graph, epsilon float64) *Tables {
	return new(BellmanFordScratch).Run(g, epsilon)
}

// validEpsilon returns epsilon when it is a positive finite number and
// DefaultEpsilon otherwise (zero, negative, NaN or ±Inf).
func validEpsilon(epsilon float64) float64 {
	if !(epsilon > 0) || math.IsInf(epsilon, 1) {
		return DefaultEpsilon
	}
	return epsilon
}

// Run converges the Algorithm 1 tables for g, reusing the scratch buffers.
// The result is valid until the next Run call on the same scratch. An
// epsilon that is not a positive finite number means DefaultEpsilon.
func (s *BellmanFordScratch) Run(g *Graph, epsilon float64) *Tables {
	epsilon = validEpsilon(epsilon)
	t := &s.t
	t.Epsilon = epsilon
	s.rounds = 0
	n := g.NumNodes()
	s.setIDs(g.ids)
	if n == 0 {
		return t
	}
	s.words = (n + 63) / 64
	t.cost = resize(t.cost, n*n)
	t.via = resize(t.via, n*n)
	s.adj = resize(s.adj, n*s.words)
	s.pend = resize(s.pend, n*s.words)
	s.cur = resize(s.cur, s.words)

	s.flatten(g)
	s.initialize(g, epsilon)
	s.seed()

	// N−1 rounds of UPDATE (Algorithm 1), with early exit once a round
	// improves nothing.
	for round := 0; round < n-1; round++ {
		s.rounds = round + 1
		if !s.relax() {
			break
		}
	}
	return t
}

// resize returns buf with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T int32 | float64 | uint64](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// flatten takes the graph's ascending CSR neighbor lists and builds the
// neighbor bitsets from its live-edge list in O(n+E).
//
//qntn:hotpath runs on every converged snapshot; buffers are sized by Run
func (s *BellmanFordScratch) flatten(g *Graph) {
	s.off, s.nbrs, _ = g.csr()
	w, adj := s.words, s.adj
	clear(adj)
	for _, k := range g.keys {
		i, j := unpackKey(k)
		adj[i*w+j>>6] |= 1 << (j & 63)
		adj[j*w+i>>6] |= 1 << (i & 63)
	}
}

// initialize seeds the tables per Algorithm 1's INITIALIZE: cost 0 to
// self, 1/(η+ε) to adjacent nodes, +Inf elsewhere.
//
//qntn:hotpath runs on every converged snapshot; buffers are sized by Run
func (s *BellmanFordScratch) initialize(g *Graph, epsilon float64) {
	t := &s.t
	n := t.n
	fill(t.cost, math.Inf(1))
	fill(t.via, -1)
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		row[i] = 0
		for _, v := range s.nbrs[s.off[i]:s.off[i+1]] {
			row[v] = CostFromEta(g.mat[i*g.matN+int(v)], epsilon)
			vrow[v] = v
		}
	}
}

// fill sets every element of buf to x, doubling the filled prefix with
// one copy per step.
func fill[T int32 | float64](buf []T, x T) {
	if len(buf) == 0 {
		return
	}
	buf[0] = x
	for k := 1; k < len(buf); k *= 2 {
		copy(buf[k:], buf[:k])
	}
}

// seed marks, for every row i, the destinations the first round must
// evaluate: an evaluation (i, u, v) can only improve row i's entry for u
// when cost(i→v) is finite, which before any update means v is a neighbor
// of i, so row i starts with the union of its neighbors' neighbor sets.
//
//qntn:hotpath runs on every converged snapshot; buffers are sized by Run
func (s *BellmanFordScratch) seed() {
	w := s.words
	for i := 0; i < s.t.n; i++ {
		p := s.pend[i*w : (i+1)*w]
		clear(p)
		for _, v := range s.nbrs[s.off[i]:s.off[i+1]] {
			for k, m := range s.adj[int(v)*w : (int(v)+1)*w] {
				p[k] |= m
			}
		}
	}
}

// relax runs one UPDATE round of Algorithm 1 — for every node i, every
// destination u and every neighbor v of u, try reaching u through v using
// v's table — and reports whether any table entry improved.
//
// The round makes exactly the updates, in exactly the order, of an
// in-place sweep over all (i, u, v) in ascending order, but evaluates only
// the destinations whose inputs moved. An evaluation (i, u, v) compares
// cost(i→v) + cost(v→u) against cost(i→u), and cost(i→u) only ever
// decreases, so it can succeed only if cost(i→v) or cost(v→u) changed
// since the triple was last evaluated. Every change therefore marks the
// destinations it feeds, at the first point of the sweep order that reads
// it, and every unmarked evaluation is skipped as a certain no-op:
//   - cost(i→u) feeds (i, y, u) for y ∈ nbrs(u): y > u later in this pass
//     (cur), y < u in row i's next pass (pend[i]);
//   - if u ∈ nbrs(i), cost(i→u) is also the edge term of (r, u, i) for
//     every other row r: rows after i read it this round, rows before i in
//     the next, both through pend[r].
//
// Cost, waypoints and the changed flag, and so Rounds, are bit-identical
// to the full sweep's.
//
//qntn:hotpath the inner loop of every routing convergence; buffers are sized by Run
func (s *BellmanFordScratch) relax() bool {
	t := &s.t
	n, w := t.n, s.words
	cur := s.cur
	changed := false
	for i := 0; i < n; i++ {
		pend := s.pend[i*w : (i+1)*w]
		copy(cur, pend)
		clear(pend)
		own := s.adj[i*w : (i+1)*w]
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		for k := 0; k < w; k++ {
			for cur[k] != 0 {
				b := bits.TrailingZeros64(cur[k])
				cur[k] &^= 1 << b
				u := k<<6 | b
				if u == i {
					continue
				}
				improved := false
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
						improved = true
					}
				}
				if !improved {
					continue
				}
				changed = true
				nu := s.adj[u*w : (u+1)*w]
				above := ^uint64(0) << b << 1
				for x := 0; x < k; x++ {
					pend[x] |= nu[x]
				}
				pend[k] |= nu[k] &^ above
				cur[k] |= nu[k] & above
				for x := k + 1; x < w; x++ {
					cur[x] |= nu[x]
				}
				if own[k]&(1<<b) != 0 {
					for r := 0; r < n; r++ {
						if r != i {
							s.pend[r*w+k] |= 1 << b
						}
					}
				}
			}
		}
	}
	return changed
}

// setIDs refreshes the scratch tables' node labels from the graph, reusing
// the previous labels and index map when they already match (the common
// case when one scratch serves consecutive snapshots of a fixed node set).
func (s *BellmanFordScratch) setIDs(ids []string) {
	t := &s.t
	t.n = len(ids)
	same := len(t.ids) == len(ids)
	if same {
		for i, id := range ids {
			if t.ids[i] != id {
				same = false
				break
			}
		}
	}
	if same {
		return
	}
	t.ids = append(t.ids[:0], ids...)
	if t.index == nil {
		t.index = make(map[string]int, len(ids))
	} else {
		clear(t.index)
	}
	for i, id := range t.ids {
		t.index[id] = i
	}
}

// Cost returns the converged cost from src to dst.
func (t *Tables) Cost(src, dst string) (float64, error) {
	si, ok := t.index[src]
	if !ok {
		return 0, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := t.index[dst]
	if !ok {
		return 0, fmt.Errorf("routing: unknown destination %q", dst)
	}
	return t.cost[si*t.n+di], nil
}

// Path reconstructs the minimum-cost path from src to dst. Algorithm 1
// stores, for each destination, a Via waypoint: either the destination
// itself (direct edge, as seeded by INITIALIZE) or an intermediate node v
// such that cost(src→dst) = cost(src→v) + cost(v→dst) with both legs
// resolved by the converged tables. Reconstruction therefore expands
// waypoints depth-first, src→v before v→dst, appending each resolved hop
// to one path. Returns an error if dst is unreachable, or if the
// expansion visits more than 4N segments (a cycle in the tables).
func (t *Tables) Path(src, dst string) ([]string, error) {
	si, ok := t.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := t.index[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown destination %q", dst)
	}
	// The path is built in a local buffer and returned as an exact-size
	// copy: served paths are retained per request, so slack would stay
	// live for the whole run.
	var hops [16]string
	path := append(hops[:0], t.ids[si])
	// stack holds the segments still to expand, the next one on top; the
	// path built so far always ends at the top segment's source.
	var segs [32][2]int32
	stack := append(segs[:0], [2]int32{int32(si), int32(di)})
	budget := 4 * t.n
	for len(stack) > 0 {
		seg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a, b := int(seg[0]), int(seg[1])
		if budget <= 0 {
			return nil, fmt.Errorf("routing: path expansion exceeded budget (cycle in tables?)")
		}
		budget--
		if a == b {
			continue
		}
		if math.IsInf(t.cost[a*t.n+b], 1) {
			return nil, fmt.Errorf("routing: %s unreachable from %s", t.ids[b], t.ids[a])
		}
		via := t.via[a*t.n+b]
		if via < 0 {
			return nil, fmt.Errorf("routing: missing waypoint for %s -> %s", t.ids[a], t.ids[b])
		}
		if int(via) == b {
			path = append(path, t.ids[b])
			continue
		}
		stack = append(stack, [2]int32{via, seg[1]}, [2]int32{seg[0], via})
	}
	return slices.Clone(path), nil
}

// Reachable reports whether dst has finite cost from src.
func (t *Tables) Reachable(src, dst string) bool {
	c, err := t.Cost(src, dst)
	return err == nil && !math.IsInf(c, 1)
}
