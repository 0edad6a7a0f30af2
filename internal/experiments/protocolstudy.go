package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/runner"
)

// ProtocolPoint reports one (architecture, memory T2, purification budget)
// cell of the entanglement-protocol study, with Enabled false for the
// seed-model baseline row the protocol cells are compared against.
type ProtocolPoint struct {
	Architecture string
	// Satellites is the constellation size (the relay count for the hybrid
	// row).
	Satellites int
	Enabled    bool
	// MemoryT2 is the swap-chain memory coherence time of the cell (zero in
	// the baseline row, where no memory model applies).
	MemoryT2 time.Duration
	// SwapSuccess and PurifyPaths echo the protocol mix of the cell.
	SwapSuccess float64
	PurifyPaths int
	// ServedPercent drops as swap chains fail; MeanFidelity moves with both
	// dephasing (down) and purification (up) — the study's tradeoff axes.
	ServedPercent float64
	MeanFidelity  float64
	MeanPathEta   float64
}

// protocolHybridRelays is the hybrid-architecture relay count the study
// samples alongside the constellation sweep. Space-ground routes rarely
// offer a vertex-disjoint alternative (one satellite bridges the LANs), so
// the hybrid mix — where HAP and satellite routes coexist and purification
// actually consumes redundant paths — is what makes the purify-budget axis
// informative.
const protocolHybridRelays = 12

// ProtocolStudyParallel quantifies the fidelity/served tradeoff of the
// entanglement-protocol layer: for every space-ground constellation size
// plus the hybrid architecture it runs the serve experiment once with the
// protocol disabled (the paper's seed model) and once per (memory T2,
// purification budget) grid cell. base carries the grid-invariant protocol
// knobs — swap success probability and draw seed; its MemoryT2 and
// PurifyPaths are overridden per cell.
//
// Every cell, size and cfg is validated before any serve run starts, and
// the largest constellation is propagated once for the whole study (the
// protocol does not enter propagation). The runs then form one task pool:
// task c·(len(sizes)+1)+i serves size i of cell c, the last task of each
// cell its hybrid, so rows come out cell-major in task order and no cell
// waits for the previous one to finish. Each task — hybrid included —
// writes telemetry to its own shard, merged in task order after the pool,
// so the counters and the flushed event stream do not depend on workers
// (workers <= 0 selects one per CPU). Deterministic for fixed inputs and
// worker-count invariant, pinned by the worker-matrix golden test and by
// the cell-sequential reference in the tests.
func ProtocolStudyParallel(p qntn.Params, cfg qntn.ServeConfig, base protocol.Config, sizes []int, t2s []time.Duration, budgets []int, workers int) ([]ProtocolPoint, error) {
	if len(sizes) == 0 || len(t2s) == 0 || len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: protocol study requires sizes, T2 levels and purify budgets")
	}
	type studyCell struct {
		label  string
		params qntn.Params
		cache  *qntn.EphemerisCache
		point  ProtocolPoint
	}
	pp := p
	pp.Protocol = protocol.Config{}
	cache, err := qntn.ServeEphemeris(pp, sizes, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: protocol study baseline: %w", err)
	}
	cells := []studyCell{{label: "baseline", params: pp, cache: cache}}
	for _, t2 := range t2s {
		for _, k := range budgets {
			pc := base
			pc.MemoryT2 = t2
			pc.PurifyPaths = k
			label := fmt.Sprintf("cell (t2=%v, k=%d)", t2, k)
			cc, err := cache.WithProtocol(pc)
			if err != nil {
				return nil, fmt.Errorf("experiments: protocol study %s: %w", label, err)
			}
			cp := p
			cp.Protocol = pc
			cells = append(cells, studyCell{label: label, params: cp, cache: cc, point: ProtocolPoint{
				Enabled:     true,
				MemoryT2:    t2,
				SwapSuccess: pc.SwapSuccess,
				PurifyPaths: pc.Paths(),
			}})
		}
	}
	perCell := len(sizes) + 1
	rows := make([]ProtocolPoint, len(cells)*perCell)
	shards := p.Telemetry.Shards(len(rows))
	err = runner.Map(context.Background(), len(rows), workers, func(_ context.Context, task int) error {
		c := &cells[task/perCell]
		r := c.point
		var sc *qntn.Scenario
		var err error
		if i := task % perCell; i < len(sizes) {
			r.Architecture, r.Satellites = qntn.SpaceGround.String(), sizes[i]
			sc, err = c.cache.Scenario(sizes[i])
		} else {
			r.Architecture, r.Satellites = qntn.Hybrid.String(), protocolHybridRelays
			sc, err = qntn.NewHybrid(protocolHybridRelays, c.params)
		}
		if err != nil {
			return fmt.Errorf("experiments: protocol study %s: %w", c.label, err)
		}
		if shards != nil {
			sc.Instrument(shards[task])
		}
		res, err := sc.RunServe(cfg)
		if err != nil {
			return fmt.Errorf("experiments: protocol study %s, %s at %d relays: %w", c.label, r.Architecture, r.Satellites, err)
		}
		r.ServedPercent = res.ServedPercent
		r.MeanFidelity = res.MeanFidelity
		r.MeanPathEta = res.MeanPathEta
		rows[task] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.Telemetry.MergeShards(shards)
	return rows, nil
}

// ProtocolCSV writes the protocol study.
func ProtocolCSV(w io.Writer, rows []ProtocolPoint) error {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		proto := "off"
		if r.Enabled {
			proto = "on"
		}
		cells[i] = []string{
			r.Architecture,
			strconv.Itoa(r.Satellites),
			proto,
			strconv.FormatFloat(r.MemoryT2.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(r.SwapSuccess, 'f', 4, 64),
			strconv.Itoa(r.PurifyPaths),
			strconv.FormatFloat(r.ServedPercent, 'f', 4, 64),
			strconv.FormatFloat(r.MeanFidelity, 'f', 6, 64),
			strconv.FormatFloat(r.MeanPathEta, 'f', 6, 64),
		}
	}
	return WriteCSV(w, []string{
		"architecture", "satellites", "protocol", "memory_t2_s", "swap_success",
		"purify_paths", "served_percent", "mean_fidelity", "mean_path_eta",
	}, cells)
}
