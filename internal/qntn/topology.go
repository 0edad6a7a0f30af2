package qntn

import (
	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// topoSource yields the topology snapshot of every step of one run's
// sample grid. Every run loop — Coverage, DetailedCoverage, RunServe,
// RunArrivals and RunTraffic — is written once against it; the two
// implementations produce identical graphs at every step, which the
// oracletest matrices assert DeepEqual end to end.
type topoSource interface {
	// step advances to grid step k and returns the snapshot there. Steps
	// are visited in increasing order, each once. The graph is owned by
	// the source and valid until the next call. The stats are non-nil
	// exactly when the scenario is instrumented.
	step(k int) (*routing.Graph, *netsim.SnapshotStats, error)
	// Close releases the source's pooled state.
	Close()
}

// steppedSource rebuilds every snapshot from scratch into one reused graph
// (GraphInto, or SnapshotIntoStats when instrumented). It is the semantic
// oracle the event engine is pinned against.
type steppedSource struct {
	sc    *Scenario
	grid  sampleGrid
	g     *routing.Graph
	st    netsim.SnapshotStats
	stats bool
}

func (s *steppedSource) step(k int) (*routing.Graph, *netsim.SnapshotStats, error) {
	at := s.grid.at(k)
	if !s.stats {
		return s.g, nil, s.sc.GraphInto(s.g, at)
	}
	return s.g, &s.st, s.sc.Net.SnapshotIntoStats(s.g, at, &s.st)
}

func (s *steppedSource) Close() {}

// topology opens the topology source of one run over grid. This is the one
// place the engine is chosen: the event engine (eventloop.go) when
// Params.EventDriven is set and the scenario is not instrumented — per-step
// snapshot stats have no event-driven equivalent — and the stepped rebuild
// otherwise. A grid without steps never pays for a window scan.
func (sc *Scenario) topology(grid sampleGrid) (topoSource, error) {
	if sc.Params.EventDriven && sc.tel == nil && grid.steps > 0 {
		eng, err := sc.newEventEngine(grid)
		if err != nil {
			return nil, err
		}
		return eng, nil
	}
	return &steppedSource{sc: sc, grid: grid, g: routing.NewGraph(), stats: sc.tel != nil}, nil
}
