package qntn

import "qntn/internal/geo"

// This file implements the ECEF uniform grid behind candidate-pair
// generation. The cell edge is at least the maximum usable FSO range, so two
// nodes that can possibly link differ by at most one cell along each axis
// and the 3×3×3 neighborhood around a node's cell is a conservative
// superset of its in-range partners. Cells are flattened x-fastest, which
// makes the three x-adjacent cells of one (y, z) row contiguous in the CSR
// layout: a neighborhood scan is nine contiguous bucket ranges, not
// twenty-seven cell lookups.
//
// Determinism: the per-node gather is an n-bit set (markNeighbors), read
// out word by word from node i's word upward, so each node's partners
// j > i come out ascending without a sort, and the packed candidate list
// is ascending — exactly the order the dense "for i { for j := i+1 }" loop
// visits pairs. The equivalence suite asserts the resulting graphs
// byte-identical to the dense scan.

// spatialIndexMinNodes is the node count below which the index is skipped:
// the dense n² scan on small scenarios is cheaper than building the grid.
const spatialIndexMinNodes = 48

// pairGridMaxDim caps the grid resolution per axis. dim³ cells are cleared
// per step, so the cap bounds the clear at ~128 KiB of int32 starts;
// enlarging cells beyond the range bound is always safe (the neighborhood
// stays a superset), just less selective.
const pairGridMaxDim = 32

// pairGrid is a uniform ECEF grid over the scenario's node universe. The
// geometry (origin, cell size, dimension) is configured once per node set;
// the per-step build reuses every backing array, so steady-state rebuilds
// allocate nothing.
type pairGrid struct {
	// ok reports whether the grid is configured and eligible this node set.
	ok bool
	// originM is the universe's minimum corner along each axis; invCell is
	// 1/cellM with cellM the effective cell edge in meters.
	originM float64
	invCell float64
	dim     int32
	// cell holds each node's flattened cell index for the current step.
	cell []int32
	// starts/bucket are the CSR cell→nodes layout; cursor is the per-cell
	// placement cursor reused across builds.
	starts []int32
	cursor []int32
	bucket []int32
}

// configure sets the grid geometry for a universe of half-extent
// maxNormM + cell and a minimum cell edge of rangeM. The relative margin
// absorbs float rounding in the axis computation (it dwarfs the 1e-9
// margins already inside the range bounds), and the cap on dim only ever
// enlarges cells, which keeps the neighborhood a superset.
func (g *pairGrid) configure(rangeM, maxNormM float64) {
	cellM := rangeM*(1+1e-6) + 1.0
	half := maxNormM + cellM
	dim := int32(2 * half / cellM)
	if dim < 1 {
		dim = 1
	}
	if dim > pairGridMaxDim {
		dim = pairGridMaxDim
	}
	g.dim = dim
	g.originM = -half
	// Effective cell edge 2·half/dim ≥ cellM because dim ≤ 2·half/cellM.
	g.invCell = float64(dim) / (2 * half)
	ncells := int(dim) * int(dim) * int(dim)
	g.starts = grow(g.starts, ncells+1)
	g.cursor = grow(g.cursor, ncells)
	g.ok = true
}

// axis maps one ECEF coordinate to its cell coordinate, clamped into
// [0, dim-1]. Clamping happens in float space before the int conversion
// (out-of-range float→int conversion is implementation-defined in Go), and
// is NaN-safe. Clamping is monotone, so it never increases the cell-
// coordinate difference of a pair: positions outside the configured
// universe still land in a conservative neighborhood.
//
//qntn:hotpath
func (g *pairGrid) axis(x float64) int32 {
	u := (x - g.originM) * g.invCell
	if !(u >= 0) {
		return 0
	}
	if max := float64(g.dim - 1); u > max {
		u = max
	}
	return int32(u)
}

// cellIndex flattens a position's cell coordinates x-fastest.
//
//qntn:hotpath
func (g *pairGrid) cellIndex(p geo.Vec3) int32 {
	cx := g.axis(p.X)
	cy := g.axis(p.Y)
	cz := g.axis(p.Z)
	return (cz*g.dim+cy)*g.dim + cx
}

// beginBuild prepares the per-node cell array for n nodes. The caller fills
// cell[0:n] and then calls finishBuild.
//
//qntn:hotpath
func (g *pairGrid) beginBuild(n int) {
	//qntn:coldpath amortized growth: capacity is stable across steps
	g.cell = grow(g.cell, n)
}

// finishBuild builds the CSR cell→nodes layout from cell[0:n] with a
// counting sort. Nodes are placed in ascending index order, so each cell's
// bucket slice is itself ascending.
//
//qntn:hotpath
func (g *pairGrid) finishBuild(n int) {
	ncells := int(g.dim) * int(g.dim) * int(g.dim)
	starts := g.starts[:ncells+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, c := range g.cell[:n] {
		starts[c+1]++
	}
	for c := 1; c <= ncells; c++ {
		starts[c] += starts[c-1]
	}
	cursor := g.cursor[:ncells]
	copy(cursor, starts[:ncells])
	//qntn:coldpath amortized growth: capacity is stable across steps
	g.bucket = grow(g.bucket, n)
	for i := 0; i < n; i++ {
		c := g.cell[i]
		g.bucket[cursor[c]] = int32(i)
		cursor[c]++
	}
}

// neighborhood returns the inclusive cell-coordinate bounds of the 3×3×3
// neighborhood around cell c, clipped to the grid.
//
//qntn:hotpath
func (g *pairGrid) neighborhood(c int32) (x0, x1, y0, y1, z0, z1 int32) {
	dim := g.dim
	cx := c % dim
	cy := (c / dim) % dim
	cz := c / (dim * dim)
	return max(cx-1, 0), min(cx+1, dim-1),
		max(cy-1, 0), min(cy+1, dim-1),
		max(cz-1, 0), min(cz+1, dim-1)
}

// neighborsAfter appends to dst every node j > i in the 3×3×3 cell
// neighborhood of node i's cell and returns the extended slice. Appended
// order is bucket order, not ascending. The window precomputation's mover
// sweep uses it; per-step candidate generation uses markNeighbors.
//
//qntn:hotpath
func (g *pairGrid) neighborsAfter(i int32, dst []int32) []int32 {
	dim := g.dim
	x0, x1, y0, y1, z0, z1 := g.neighborhood(g.cell[i])
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*dim + y) * dim
			lo := g.starts[row+x0]
			hi := g.starts[row+x1+1]
			for _, j := range g.bucket[lo:hi] {
				if j > i {
					//qntn:coldpath amortized growth: scratch capacity is stable
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// markNeighbors sets in the bit set mark the bit of every node in the
// 3×3×3 cell neighborhood of node i's cell, i itself included, and returns
// the highest word index it touched. It sets bits unconditionally; the
// caller reads only the words from i's upward.
//
//qntn:hotpath
func (g *pairGrid) markNeighbors(i int32, mark []uint64) (hi int) {
	dim := g.dim
	x0, x1, y0, y1, z0, z1 := g.neighborhood(g.cell[i])
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*dim + y) * dim
			for _, j := range g.bucket[g.starts[row+x0]:g.starts[row+x1+1]] {
				w := int(j >> 6)
				mark[w] |= 1 << (j & 63)
				hi = max(hi, w)
			}
		}
	}
	return hi
}
