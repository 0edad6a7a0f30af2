package qntn

import (
	"math"
	"math/bits"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/channel"
	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// scenarioModel binds a Scenario to netsim's link-model interfaces. The
// per-pair Evaluate is the reference physics; BeginStep returns the batched
// fast path, which reproduces Evaluate's results exactly (the snapshot
// equivalence tests assert bit-identity pair by pair).
type scenarioModel struct{ sc *Scenario }

// Evaluate implements netsim.LinkModel.
func (m scenarioModel) Evaluate(a, b netsim.Node, t time.Duration) (float64, bool) {
	return m.sc.evaluateLink(a, b, t)
}

// BeginStep implements netsim.StepModel.
func (m scenarioModel) BeginStep(nodes []netsim.Node, t time.Duration) netsim.StepEvaluator {
	return m.sc.beginStep(nodes, t)
}

// beginStep returns a step evaluator for the given node set at instant t,
// drawing from the scenario's pool so steady-state snapshots allocate
// nothing. The caller must Close the evaluator to return it to the pool.
// Evaluators are independent, so concurrent sweep workers can each hold
// one.
//
//qntn:hotpath one call per topology step of every sweep worker
func (sc *Scenario) beginStep(nodes []netsim.Node, t time.Duration) *stepEval {
	se, _ := sc.stepPool.Get().(*stepEval)
	if se == nil {
		//qntn:coldpath pool miss: first checkout constructs the evaluator
		se = &stepEval{sc: sc}
	}
	if !se.sameNodes(nodes) {
		//qntn:coldpath static caches rebuild only when the node set changes
		se.init(nodes)
	}
	se.reset(t)
	return se
}

// stepEval is the per-instant link-evaluation fast path: it hoists every
// per-node quantity out of the O(N²) pair loop — each relay's position,
// geodetic conversion and extinction column term, each ground host's
// darkness and each HAP's availability are computed exactly once per
// timestep — and then answers pair queries from the cache. Cheap
// conservative prefilters (horizon test, squared-range gate) reject most
// pairs before the full FSO evaluation; pairs that survive run the exact
// reference computation, so results are bit-identical to
// Scenario.evaluateLink.
//
// The FSO evaluation takes the pair's extinction column fraction as
// col[lo] − col[hi], where col[i] = Extinction.ColumnAbove(altM[i]) is the
// term ColumnFraction would recompute per pair, so every pair costs two
// fewer math.Exp calls. An ISL whose path lies so high that
// channel.FSOConfig.ElevationFree holds (η_atm is then exactly 1 at any
// elevation, and without turbulence nothing else reads the elevation)
// skips the elevation entirely. Relay observation frames are therefore
// built lazily, on a relay's first elevation query in a step.
type stepEval struct {
	sc    *Scenario
	nodes []netsim.Node

	// Static per-node data (valid while the node set is unchanged).
	kind    []netsim.NodeKind
	network []string
	ground  []*netsim.GroundHost
	gFrame  []geo.Frame // ground hosts: observation frame
	gPos    []geo.Vec3  // ground-kind nodes: PositionAt(0)

	// Per-node altitude and extinction column term: static for ground
	// hosts (set in init), per step for relays.
	altM []float64 // geodetic altitude (ground hosts: LLA().AltM)
	col  []float64 // Extinction.ColumnAbove(altM)

	// Per-step data (valid for one instant t).
	t     time.Duration
	pos   []geo.Vec3 // relays: PositionAt(t)
	normM []float64  // relays: pos.Norm()
	lla   []geo.LLA  // relays: geo.ToLLA(pos)
	dark  []bool     // ground hosts: IsDark (when RequireDarkness)
	avail []bool     // HAPs: hapAvailable(t)

	// Relay observation frames, built on first use in a step (relayFrame):
	// frame[i] is current iff frameStamp[i] == stamp. reset and setInstant
	// advance stamp, and refreshRelayAt clears one node's entry, so a
	// frame never outlives the position it was built from.
	frame      []geo.Frame
	frameStamp []uint64
	stamp      uint64

	// Spatial index (geometry and static assignments valid while the node
	// set is unchanged; see spatialindex.go). staticCell holds the cell of
	// nodes fixed in ECEF (ground hosts, HAPs) so only movers re-bin per
	// step; -1 marks a mover. fiberStart/fiberList are the CSR adjacency of
	// same-network ground pairs (j > i), which are not FSO-range-gated and
	// therefore bypass the grid. islNbr, when non-nil, restricts
	// satellite↔satellite links to the scenario's ISL grid topology.
	grid       pairGrid
	staticCell []int32
	fiberStart []int32
	fiberList  []int32
	islNbr     [][]int32

	// Per-step candidate list, built lazily on the first CandidatePairs
	// call so callers that evaluate targeted pairs (the sweep engine, the
	// event-driven engine) never pay for it. candMark is the n-bit gather
	// set of buildCandidates, all zero between builds; relayBits has bit j
	// set iff node j is not a ground node.
	cand        []netsim.PackedPair
	candMark    []uint64
	relayBits   []uint64
	candBuilt   bool
	indexCulled int64

	// Per-step prefilter hit counts, drained via PairStats. Plain ints:
	// an evaluator is single-goroutine between BeginStep and Close, and
	// incrementing them is noise next to the geometry they sit beside.
	horizonRejects int64
	rangeRejects   int64
}

// PairStats implements netsim.PairStatser: the number of pairs this step
// rejected by the horizon and squared-range prefilters, plus the number the
// spatial index culled from the candidate set before evaluation.
//
//qntn:hotpath
func (se *stepEval) PairStats() (horizonRejects, rangeRejects, indexCulled int64) {
	return se.horizonRejects, se.rangeRejects, se.indexCulled
}

// CandidatePairs implements netsim.PairEnumerator: a sorted conservative
// superset of the step's usable pairs, or ok=false when the node set is too
// small, the index is disabled, or a range bound is unusable — callers then
// fall back to the dense scan. The list is built lazily and cached for the
// step.
//
//qntn:hotpath
func (se *stepEval) CandidatePairs() ([]netsim.PackedPair, bool) {
	if !se.grid.ok {
		return nil, false
	}
	if !se.candBuilt {
		se.buildCandidates()
	}
	return se.cand, true
}

// buildCandidates bins this step's node positions into the grid (static
// nodes reuse their precomputed cells) and gathers, per node i, the
// candidate partners j > i: static fiber partners plus grid neighbors
// within one cell. Ground↔ground grid hits are dropped — same-network pairs
// come from the fiber list and cross-network pairs can never link — so the
// gather is duplicate-free. The gather is an n-bit set: the neighborhood's
// nodes are ORed in, ground bits masked off for a ground i, the fiber
// partners ORed in, and the words from i's upward read out in ascending
// bit order (bits ≤ i dropped) and cleared. Each i's partners therefore
// come out ascending without a sort, and the packed list is globally
// ascending, i.e. exact dense-loop order.
//
//qntn:hotpath
func (se *stepEval) buildCandidates() {
	se.candBuilt = true
	n := len(se.nodes)
	g := &se.grid
	g.beginBuild(n)
	for i := 0; i < n; i++ {
		if c := se.staticCell[i]; c >= 0 {
			g.cell[i] = c
		} else {
			g.cell[i] = g.cellIndex(se.pos[i])
		}
	}
	g.finishBuild(n)
	se.cand = se.cand[:0]
	mark := se.candMark
	for i := 0; i < n; i++ {
		// i is in its own neighborhood, so iw <= hi. Bits the gather sets
		// below word iw are never read: every later i reads only from its
		// own word upward. The set is cleared once, after the loop.
		hi := g.markNeighbors(int32(i), mark)
		iw := i >> 6
		if se.kind[i] == netsim.Ground {
			relay := se.relayBits[iw : hi+1]
			for w := range relay {
				mark[iw+w] &= relay[w]
			}
			for _, j := range se.fiberList[se.fiberStart[i]:se.fiberStart[i+1]] {
				w := int(j >> 6)
				mark[w] |= 1 << (j & 63)
				hi = max(hi, w)
			}
		}
		// Keep only bits above i in its own word.
		mark[iw] &^= 2<<(i&63) - 1
		base := uint64(i) << 32
		for w := iw; w <= hi; w++ {
			x := mark[w]
			mark[w] = 0
			for x != 0 {
				j := uint64(w<<6 | bits.TrailingZeros64(x))
				//qntn:coldpath amortized growth: candidate capacity is stable
				se.cand = append(se.cand, netsim.PackedPair(base|j))
				x &= x - 1
			}
		}
	}
	clear(mark)
	se.indexCulled = int64(n)*int64(n-1)/2 - int64(len(se.cand))
}

// sameNodes reports whether the evaluator's static caches were built for
// exactly this node slice (node identity, not just IDs).
//
//qntn:hotpath
func (se *stepEval) sameNodes(nodes []netsim.Node) bool {
	if len(se.nodes) != len(nodes) {
		return false
	}
	for i, n := range nodes {
		if se.nodes[i] != n {
			return false
		}
	}
	return true
}

// grow returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified — callers overwrite every element.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// init rebuilds the static per-node caches.
func (se *stepEval) init(nodes []netsim.Node) {
	n := len(nodes)
	se.nodes = append(se.nodes[:0], nodes...)
	se.kind = grow(se.kind, n)
	se.network = grow(se.network, n)
	se.ground = grow(se.ground, n)
	se.gFrame = grow(se.gFrame, n)
	se.gPos = grow(se.gPos, n)
	se.altM = grow(se.altM, n)
	se.col = grow(se.col, n)
	se.pos = grow(se.pos, n)
	se.normM = grow(se.normM, n)
	se.lla = grow(se.lla, n)
	se.dark = grow(se.dark, n)
	se.avail = grow(se.avail, n)
	se.frame = grow(se.frame, n)
	se.frameStamp = grow(se.frameStamp, n)
	// stamp only grows and is positive from here on, so a zeroed entry
	// never matches it.
	clear(se.frameStamp)
	se.stamp++
	ext := se.extinction()
	for i, node := range nodes {
		se.kind[i] = node.Kind()
		se.network[i] = node.Network()
		gh, _ := node.(*netsim.GroundHost)
		se.ground[i] = gh
		se.altM[i], se.col[i] = 0, 0
		if gh != nil {
			se.gFrame[i] = geo.NewFrame(gh.LLA())
			se.altM[i] = gh.LLA().AltM
			se.col[i] = ext.ColumnAbove(se.altM[i])
		}
		if se.kind[i] == netsim.Ground {
			se.gPos[i] = node.PositionAt(0)
		}
	}
	se.initSpatial(nodes)
}

// extinction returns the atmosphere model of the scenario's FSO channels.
// The space, HAP and satellite–HAP configurations are all built from
// Params.extinction, so one per-node column term serves every pair kind.
//
//qntn:hotpath
func (se *stepEval) extinction() atmosphere.Extinction {
	return se.sc.spaceFSO.Extinction
}

// initSpatial rebuilds the static spatial-index state for a new node set:
// grid geometry, fixed cell assignments, the fiber adjacency, and the ISL
// allowlist. Cold path — runs only when the node set changes.
func (se *stepEval) initSpatial(nodes []netsim.Node) {
	n := len(nodes)
	sc := se.sc
	se.islNbr = nil
	if sc.islAdj != nil {
		se.islNbr = growZero(se.islNbr, n)
		byID := make(map[string]int, n)
		for i, node := range nodes {
			byID[node.ID()] = i
		}
		for i, node := range nodes {
			ids := sc.islAdj[node.ID()]
			nbr := se.islNbr[i][:0]
			for _, id := range ids {
				if j, ok := byID[id]; ok {
					nbr = append(nbr, int32(j))
				}
			}
			se.islNbr[i] = nbr
		}
	}
	se.grid.ok = false
	se.candBuilt = false
	if n < spatialIndexMinNodes || sc.Params.DisableSpatialIndex {
		return
	}
	// All FSO range bounds must be finite and positive: an infinite bound
	// (threshold ≤ 0 or a degenerate beam) means distance never gates a
	// link and only the dense scan is safe.
	maxGate := sc.spaceMaxRangeM2
	if sc.hapMaxRangeM2 > maxGate {
		maxGate = sc.hapMaxRangeM2
	}
	if sc.satHAPMaxRangeM2 > maxGate {
		maxGate = sc.satHAPMaxRangeM2
	}
	if !(maxGate > 0) || math.IsInf(maxGate, 1) {
		return
	}
	maxNorm := 0.0
	for _, node := range nodes {
		if nm := node.PositionAt(0).Norm(); nm > maxNorm {
			maxNorm = nm
		}
	}
	se.grid.configure(math.Sqrt(maxGate), maxNorm)
	se.staticCell = grow(se.staticCell, n)
	for i, node := range nodes {
		se.staticCell[i] = -1
		if se.kind[i] == netsim.Ground {
			se.staticCell[i] = se.grid.cellIndex(se.gPos[i])
		} else if _, hap := node.(*netsim.HAPNode); hap {
			se.staticCell[i] = se.grid.cellIndex(node.PositionAt(0))
		}
	}
	se.fiberStart = grow(se.fiberStart, n+1)
	se.fiberList = se.fiberList[:0]
	for i := 0; i < n; i++ {
		se.fiberStart[i] = int32(len(se.fiberList))
		if se.kind[i] != netsim.Ground || se.network[i] == "" {
			continue
		}
		for j := i + 1; j < n; j++ {
			if se.kind[j] == netsim.Ground && se.network[j] == se.network[i] {
				se.fiberList = append(se.fiberList, int32(j))
			}
		}
	}
	se.fiberStart[n] = int32(len(se.fiberList))
	words := (n + 63) / 64
	se.candMark = grow(se.candMark, words)
	clear(se.candMark)
	se.relayBits = grow(se.relayBits, words)
	clear(se.relayBits)
	for i := 0; i < n; i++ {
		if se.kind[i] != netsim.Ground {
			se.relayBits[i>>6] |= 1 << (i & 63)
		}
	}

	// Prime the per-step arrays with one candidate build at t=0, so the
	// first real snapshot runs at steady state: grid buckets and the
	// candidate list reach working capacity here, on the cold path,
	// instead of allocating inside the first hot step. A little headroom
	// on the candidate list absorbs instants with slightly larger
	// candidate sets than t=0.
	for i, node := range nodes {
		if se.staticCell[i] < 0 {
			se.pos[i] = node.PositionAt(0)
		}
	}
	se.buildCandidates()
	if c := 3 * len(se.cand) / 2; cap(se.cand) < c {
		se.cand = make([]netsim.PackedPair, 0, c)
	}
	se.candBuilt = false
	se.indexCulled = 0
}

// growZero is grow for slice-of-slice scratch: reused entries keep their
// backing arrays, new entries start nil.
func growZero(s [][]int32, n int) [][]int32 {
	if cap(s) >= n {
		s = s[:n]
		return s
	}
	out := make([][]int32, n)
	copy(out, s)
	return out
}

// reset recomputes the per-step caches for instant t: one position, norm,
// geodetic conversion and column term per relay; one darkness bit per
// ground host; one availability bit per HAP. Relay frames are invalidated
// and rebuilt on first use.
//
//qntn:hotpath
func (se *stepEval) reset(t time.Duration) {
	se.setInstant(t)
	sc := se.sc
	ext := se.extinction()
	requireDark := sc.Params.RequireDarkness
	var twilightRad float64
	if requireDark {
		twilightRad = sc.Params.twilight()
	}
	for i, node := range se.nodes {
		if se.kind[i] == netsim.Ground {
			if requireDark && se.ground[i] != nil {
				se.dark[i] = sc.sun.IsDark(se.ground[i].LLA(), t, twilightRad)
			}
			continue
		}
		p := node.PositionAt(t)
		se.pos[i] = p
		se.normM[i] = p.Norm()
		l := geo.ToLLA(p)
		se.lla[i] = l
		se.altM[i] = l.AltM
		se.col[i] = ext.ColumnAbove(l.AltM)
		if se.kind[i] == netsim.HAP {
			se.avail[i] = sc.hapAvailable(node, t)
		}
	}
}

// setInstant rebinds the evaluator to instant t without touching any cached
// per-node data except the lazily built relay frames, which it invalidates.
// The event-driven engine uses it together with refreshNode /
// refreshRelayAt to refresh only the nodes that participate in open
// visibility windows, instead of reset's full per-node sweep.
//
//qntn:hotpath
func (se *stepEval) setInstant(t time.Duration) {
	se.t = t
	se.stamp++
	se.horizonRejects = 0
	se.rangeRejects = 0
	se.indexCulled = 0
	se.candBuilt = false
}

// refreshNode recomputes the per-step cache entries of node i at the
// evaluator's current instant — exactly reset's per-node body for one node.
func (se *stepEval) refreshNode(i int) {
	sc := se.sc
	t := se.t
	if se.kind[i] == netsim.Ground {
		if sc.Params.RequireDarkness && se.ground[i] != nil {
			se.dark[i] = sc.sun.IsDark(se.ground[i].LLA(), t, sc.Params.twilight())
		}
		return
	}
	se.refreshRelayAt(i, se.nodes[i].PositionAt(t))
}

// refreshRelayAt installs a relay position computed elsewhere (e.g. the
// window engine's memoized propagation) and derives the dependent caches,
// exactly as reset would from PositionAt. i must be a relay (non-Ground).
func (se *stepEval) refreshRelayAt(i int, p geo.Vec3) {
	se.pos[i] = p
	se.normM[i] = p.Norm()
	l := geo.ToLLA(p)
	se.lla[i] = l
	se.altM[i] = l.AltM
	se.col[i] = se.extinction().ColumnAbove(l.AltM)
	se.frameStamp[i] = 0
	if se.kind[i] == netsim.HAP {
		se.avail[i] = se.sc.hapAvailable(se.nodes[i], se.t)
	}
}

// relayFrame returns relay i's observation frame at its current position,
// building it on the first call in a step.
//
//qntn:hotpath
func (se *stepEval) relayFrame(i int) *geo.Frame {
	if se.frameStamp[i] != se.stamp {
		se.frame[i] = geo.NewFrame(se.lla[i])
		se.frameStamp[i] = se.stamp
	}
	return &se.frame[i]
}

// columnFraction returns Extinction.ColumnFraction(altM[a], altM[b]) from
// the cached column terms: the same swap test on the same altitudes, then
// the same subtraction of the same two exponentials.
//
//qntn:hotpath
func (se *stepEval) columnFraction(a, b int) float64 {
	if se.altM[b] < se.altM[a] {
		a, b = b, a
	}
	return se.col[a] - se.col[b]
}

// Close implements netsim.StepEvaluator, returning the evaluator to its
// scenario's pool.
//
//qntn:hotpath
func (se *stepEval) Close() { se.sc.stepPool.Put(se) }

// EvaluatePair implements netsim.StepEvaluator. It mirrors the dispatch of
// Scenario.evaluateLink exactly (order so kind[a] <= kind[b], then switch
// on the kind pair).
//
//qntn:hotpath every node pair of every step goes through here
func (se *stepEval) EvaluatePair(i, j int) (float64, bool) {
	a, b := i, j
	if se.kind[a] > se.kind[b] {
		a, b = b, a
	}
	switch {
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.Ground:
		return se.fiberPair(a, b)
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.Satellite:
		return se.groundRelayPair(a, b, &se.sc.spaceFSO, se.sc.spaceMaxRangeM2)
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.HAP:
		return se.groundRelayPair(a, b, &se.sc.hapFSO, se.sc.hapMaxRangeM2)
	case se.kind[a] == netsim.Satellite && se.kind[b] == netsim.Satellite:
		return se.islPair(a, b)
	case se.kind[a] == netsim.Satellite && se.kind[b] == netsim.HAP:
		return se.satHAPPair(a, b)
	default:
		return 0, false
	}
}

// fiberPair mirrors Scenario.fiberLink on cached positions.
//
//qntn:hotpath
func (se *stepEval) fiberPair(a, b int) (float64, bool) {
	if se.network[a] != se.network[b] || se.network[a] == "" {
		return 0, false
	}
	eta := se.sc.fiber.Transmissivity(se.gPos[a].Distance(se.gPos[b]))
	if eta < se.sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// groundRelayPair mirrors Scenario.groundSpaceLink on cached geometry, with
// two conservative prefilters ahead of the full evaluation: the horizon
// test (a relay below the host's horizon cannot meet the non-negative
// elevation mask) and the squared-range gate (beyond it the transmissivity
// provably falls below the threshold).
//
//qntn:hotpath
func (se *stepEval) groundRelayPair(a, b int, cfg *channel.FSOConfig, maxRangeM2 float64) (float64, bool) {
	gh := se.ground[a]
	if gh == nil {
		return 0, false
	}
	sc := se.sc
	if sc.Params.RequireDarkness && !se.dark[a] {
		return 0, false
	}
	if se.kind[b] == netsim.HAP && !se.avail[b] {
		return 0, false
	}
	f := &se.gFrame[a]
	if !f.AboveHorizon(se.pos[b]) {
		se.horizonRejects++
		return 0, false
	}
	elev, rng := f.Elevation(se.pos[b])
	if elev < sc.Params.MinElevationRad {
		return 0, false
	}
	if rng*rng > maxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	eta := cfg.BreakdownColumn(channel.FSOGeometry{
		RangeM:       rng,
		ElevationRad: elev,
		LoAltM:       se.altM[a],
		HiAltM:       se.altM[b],
	}, se.columnFraction(a, b)).Total()
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// islPair mirrors Scenario.interSatelliteLink on cached geometry, with the
// squared-range gate applied before the line-of-sight test (at the paper's
// threshold the gate rejects the large majority of satellite pairs). When
// the scenario restricts ISLs to a grid topology, non-neighbors are
// rejected first.
//
//qntn:hotpath
func (se *stepEval) islPair(a, b int) (float64, bool) {
	sc := se.sc
	if se.islNbr != nil && !se.islAllowed(a, b) {
		return 0, false
	}
	pa, pb := se.pos[a], se.pos[b]
	d := pb.Sub(pa)
	if d.Dot(d) > sc.spaceMaxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	if !geo.LineOfSight(pa, pb, sc.islClearance) {
		return 0, false
	}
	cfg := &sc.spaceFSO
	frac := se.columnFraction(a, b)
	var elev float64
	if !cfg.ElevationFree(frac) {
		lo, hi := a, b
		if se.normM[lo] > se.normM[hi] {
			lo, hi = hi, lo
		}
		elev, _ = se.relayFrame(lo).Elevation(se.pos[hi])
	}
	eta := cfg.BreakdownColumn(channel.FSOGeometry{
		RangeM:       pa.Distance(pb),
		ElevationRad: elev,
		LoAltM:       se.altM[a],
		HiAltM:       se.altM[b],
	}, frac).Total()
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// islAllowed reports whether the grid topology permits an ISL between a and
// b. Neighbor lists are symmetric and at most a handful of entries, so a
// linear scan from a's side suffices.
//
//qntn:hotpath
func (se *stepEval) islAllowed(a, b int) bool {
	for _, j := range se.islNbr[a] {
		if int(j) == b {
			return true
		}
	}
	return false
}

// satHAPPair mirrors Scenario.satelliteHAPLink on cached geometry, with the
// squared-range gate first.
//
//qntn:hotpath
func (se *stepEval) satHAPPair(a, b int) (float64, bool) {
	sc := se.sc
	ps, ph := se.pos[a], se.pos[b]
	d := ph.Sub(ps)
	if d.Dot(d) > sc.satHAPMaxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	lo, hi := a, b
	if se.normM[lo] > se.normM[hi] {
		lo, hi = hi, lo
	}
	elev, _ := se.relayFrame(lo).Elevation(se.pos[hi])
	if elev < sc.Params.MinElevationRad {
		return 0, false
	}
	if !geo.LineOfSight(ps, ph, sc.islClearance) {
		return 0, false
	}
	eta := sc.satHAPFSO.BreakdownColumn(channel.FSOGeometry{
		RangeM:       ps.Distance(ph),
		ElevationRad: elev,
		LoAltM:       se.altM[b],
		HiAltM:       se.altM[a],
	}, se.columnFraction(b, a)).Total()
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}
