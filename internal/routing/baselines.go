package routing

import (
	"container/heap"
	"fmt"
	"math"
)

// CostFunc maps an edge transmissivity to an additive cost. All costs must
// be positive.
type CostFunc func(eta float64) float64

// InverseEtaCost returns the paper's cost function 1/(η+ε). An epsilon
// that is not a positive finite number means DefaultEpsilon.
func InverseEtaCost(epsilon float64) CostFunc {
	epsilon = validEpsilon(epsilon)
	return func(eta float64) float64 { return CostFromEta(eta, epsilon) }
}

// NegLogEtaCost returns −log(η) with η clamped to [ε, 1]. Minimizing its
// sum maximizes the product of transmissivities, i.e. finds the true best
// end-to-end transmissivity path. Used as the optimal baseline in the
// routing-metric ablation. An epsilon that is not a positive finite
// number means DefaultEpsilon.
func NegLogEtaCost(epsilon float64) CostFunc {
	epsilon = validEpsilon(epsilon)
	return func(eta float64) float64 {
		if eta < epsilon {
			eta = epsilon
		} else if eta > 1 {
			eta = 1
		}
		return -math.Log(eta)
	}
}

// HopCountCost charges 1 per edge regardless of transmissivity.
func HopCountCost() CostFunc {
	return func(float64) float64 { return 1 }
}

// SingleSourceResult holds distances and predecessors from one source.
type SingleSourceResult struct {
	Source string
	Dist   map[string]float64
	Prev   map[string]string
}

// ClassicBellmanFord runs the textbook single-source Bellman-Ford with the
// given cost function. It serves as a correctness oracle for the paper's
// distance-vector Algorithm 1.
func ClassicBellmanFord(g *Graph, src string, cost CostFunc) (*SingleSourceResult, error) {
	si, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[si] = 0
	for round := 0; round < n-1; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, v := range g.neighborIndices(u) {
				eta, _ := g.etaAt(u, v)
				c := cost(eta)
				if c < 0 {
					return nil, fmt.Errorf("routing: negative edge cost %g", c)
				}
				if dist[u]+c < dist[v] {
					dist[v] = dist[u] + c
					prev[v] = u
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return g.packResult(src, dist, prev), nil
}

// Dijkstra runs the standard priority-queue Dijkstra with the given cost
// function.
func Dijkstra(g *Graph, src string, cost CostFunc) (*SingleSourceResult, error) {
	si, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[si] = 0
	pq := &nodeHeap{items: []heapItem{{node: si, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, v := range g.neighborIndices(u) {
			eta, _ := g.etaAt(u, v)
			c := cost(eta)
			if c < 0 {
				return nil, fmt.Errorf("routing: negative edge cost %g", c)
			}
			if dist[u]+c < dist[v] {
				dist[v] = dist[u] + c
				prev[v] = u
				heap.Push(pq, heapItem{node: v, dist: dist[v]})
			}
		}
	}
	return g.packResult(src, dist, prev), nil
}

func (g *Graph) packResult(src string, dist []float64, prev []int) *SingleSourceResult {
	res := &SingleSourceResult{
		Source: src,
		Dist:   make(map[string]float64, len(dist)),
		Prev:   make(map[string]string, len(prev)),
	}
	for i, id := range g.ids {
		res.Dist[id] = dist[i]
		if prev[i] >= 0 {
			res.Prev[id] = g.ids[prev[i]]
		}
	}
	return res
}

// PathTo reconstructs the path from the result's source to dst.
func (r *SingleSourceResult) PathTo(dst string) ([]string, error) {
	d, ok := r.Dist[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown destination %q", dst)
	}
	if math.IsInf(d, 1) {
		return nil, fmt.Errorf("routing: %s unreachable from %s", dst, r.Source)
	}
	var rev []string
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == r.Source {
			break
		}
		next, ok := r.Prev[cur]
		if !ok {
			return nil, fmt.Errorf("routing: broken predecessor chain at %q", cur)
		}
		if len(rev) > len(r.Dist) {
			return nil, fmt.Errorf("routing: predecessor cycle")
		}
		cur = next
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// BestTransmissivityPath returns the path from src to dst with maximal
// end-to-end transmissivity (Dijkstra over −log η weights) along with that
// transmissivity.
func BestTransmissivityPath(g *Graph, src, dst string) ([]string, float64, error) {
	res, err := Dijkstra(g, src, NegLogEtaCost(0))
	if err != nil {
		return nil, 0, err
	}
	path, err := res.PathTo(dst)
	if err != nil {
		return nil, 0, err
	}
	eta, err := g.PathEta(path)
	if err != nil {
		return nil, 0, err
	}
	return path, eta, nil
}

type heapItem struct {
	node int
	dist float64
}

type nodeHeap struct{ items []heapItem }

func (h *nodeHeap) Len() int           { return len(h.items) }
func (h *nodeHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *nodeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *nodeHeap) Push(x any)         { h.items = append(h.items, x.(heapItem)) }
func (h *nodeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
