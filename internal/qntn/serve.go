package qntn

import (
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/stats"
	"qntn/internal/telemetry"
)

// ServeConfig parameterizes the paper's §IV-B/§IV-C experiments:
// RequestsPerStep random inter-LAN requests are attempted at each of Steps
// topology instants spread evenly over Horizon, and the served fraction and
// average fidelity of resolved requests are reported.
type ServeConfig struct {
	RequestsPerStep int           // paper: 100
	Steps           int           // paper: 100 "time steps of satellite movement"
	Horizon         time.Duration // period the steps sample; default one day
	Seed            int64
}

// DefaultServeConfig returns the paper's workload.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{RequestsPerStep: 100, Steps: 100, Horizon: orbit.Day, Seed: 1}
}

// withDefaults returns the config with the paper's one-day horizon applied
// when none is set — the normalization RunServe performs, hoisted so sweeps
// can precompute the sample times it implies.
func (cfg ServeConfig) withDefaults() ServeConfig {
	if cfg.Horizon <= 0 {
		cfg.Horizon = orbit.Day
	}
	return cfg
}

// validate checks the workload shape.
func (cfg ServeConfig) validate() error {
	if cfg.RequestsPerStep <= 0 || cfg.Steps <= 0 {
		return fmt.Errorf("qntn: serve config requires positive requests and steps")
	}
	return nil
}

// stepGap returns the spacing between this config's sample instants:
// Horizon/Steps, falling back to the scenario's topology-update cadence
// when the integer division underflows to zero (Horizon shorter than Steps
// nanoseconds). RunServe's grid and the sweeps' precomputed sampleTimes
// both derive from this single definition; a duplicated fallback once
// made a serve path drift a step short (see the shared regression test).
func (cfg ServeConfig) stepGap(p Params) time.Duration {
	cfg = cfg.withDefaults()
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	if gap <= 0 {
		gap = p.TopologyStep()
	}
	return gap
}

// grid returns the sample grid RunServe evaluates under these parameters:
// Steps instants spread stepGap apart from t = 0.
func (cfg ServeConfig) grid(p Params) sampleGrid {
	return sampleGrid{gap: cfg.stepGap(p), steps: cfg.Steps}
}

// sampleTimes lists the instants of cfg.grid — what sweeps precompute to
// propagate ephemerides exactly where RunServe will evaluate.
func (cfg ServeConfig) sampleTimes(p Params) []time.Duration {
	grid := cfg.grid(p)
	times := make([]time.Duration, grid.steps)
	for k := range times {
		times[k] = grid.at(k)
	}
	return times
}

// ServeResult aggregates one serve experiment.
type ServeResult struct {
	Config  ServeConfig
	Metrics netsim.Metrics
	// ServedPercent is the paper's "percentage of served requests".
	ServedPercent float64
	// MeanFidelity is the average end-to-end fidelity over served
	// requests.
	MeanFidelity float64
	// FidelitySummary describes the served-fidelity distribution.
	FidelitySummary stats.Summary
	// MeanPathEta is the average end-to-end transmissivity of served
	// requests.
	MeanPathEta float64
}

// RunServe executes the serve experiment against the scenario. At each
// step it takes the topology snapshot, converges the Algorithm 1 routing
// tables once, and attempts every request of the batch: a request is served
// when a path exists and the request evaluator delivers a pair over it (the
// FidelityModel's fidelity over the path's per-hop transmissivities, or the
// entanglement-protocol layer's verdict when Params.Protocol enables it).
func (sc *Scenario) RunServe(cfg ServeConfig) (*ServeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	res := &ServeResult{Config: cfg}
	wl, err := NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	grid := cfg.grid(sc.Params)
	// One outcome per request: sizing the slice up front spares the run
	// the append doubling, most of the bytes a serve sweep allocates.
	res.Metrics.Outcomes = make([]netsim.Outcome, 0, grid.steps*cfg.RequestsPerStep)
	src, err := sc.topology(grid)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	// One Bellman-Ford scratch and one evaluator serve every step: the node
	// set is fixed, so per-step work reuses their storage.
	var scratch routing.BellmanFordScratch
	ev := sc.newEvaluator()

	tel := sc.tel
	var label string
	if tel != nil {
		label = sc.serveLabel(cfg.Seed)
	}

	var fids, etas []float64
	for k := 0; k < grid.steps; k++ {
		graph, st, err := src.step(k)
		if err != nil {
			return nil, err
		}
		at := grid.at(k)
		tables := scratch.Run(graph, sc.Params.RoutingEpsilon)
		stepServed, stepDropped := 0, 0
		var stepFidSum float64
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			out := netsim.Outcome{Request: req, At: at}
			if tables.Reachable(req.Src, req.Dst) {
				path, err := tables.Path(req.Src, req.Dst)
				if err != nil {
					return nil, fmt.Errorf("qntn: step %d request %d: %w", k, req.ID, err)
				}
				e, err := ev.evaluate(graph, path, req, at)
				if err != nil {
					return nil, fmt.Errorf("qntn: step %d request %d: %w", k, req.ID, err)
				}
				if tel != nil {
					tel.addProto(&e)
				}
				if e.served {
					out.Served = true
					out.Path = path
					out.EndToEndEta = e.primaryEta
					out.Fidelity = e.fidelity
					fids = append(fids, out.Fidelity)
					etas = append(etas, out.EndToEndEta)
					stepServed++
					stepFidSum += out.Fidelity
					if tel != nil {
						tel.fidelity.Observe(out.Fidelity)
					}
				}
			}
			if !out.Served {
				stepDropped++
			}
			res.Metrics.Record(out)
		}
		if tel != nil {
			rounds := scratch.Rounds()
			tel.relaxRounds.Add(uint64(rounds))
			tel.requestsServed.Add(uint64(stepServed))
			tel.requestsDropped.Add(uint64(stepDropped))
			sc.recordStepEvent(label, k, at, st, func(e *telemetry.Event) {
				e.RelaxRounds = int64(rounds)
				e.Served = int64(stepServed)
				e.Dropped = int64(stepDropped)
				if stepServed > 0 {
					e.MeanFidelity = stepFidSum / float64(stepServed)
				}
			})
		}
	}
	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(fids)
	res.MeanPathEta = stats.Mean(etas)
	return res, nil
}
