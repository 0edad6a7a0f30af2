package main

import (
	"fmt"
	"reflect"
	"time"

	"qntn/internal/geo"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

// walkerShells is the `qntnsim walker` default constellation,
// 1008/24/f@550:53, with the phasing factor f drawn from the seed
// (f = seed mod 24, so seed 1 is the CLI default itself).
func walkerShells(seed int64) (string, []orbit.WalkerShell, error) {
	spec := fmt.Sprintf("1008/24/%d@550:53", (seed%24+24)%24)
	shells, err := orbit.ParseWalkerShells(spec)
	return spec, shells, err
}

// coverageSpans holds the span handles of a coverage replay.
type coverageSpans struct{ graph, bridged int32 }

func newCoverageSpans(tr *tracer) *coverageSpans {
	return &coverageSpans{
		graph:   tr.name("qntn.Scenario.GraphInto", layerSnapshot),
		bridged: tr.name("qntn.Scenario.Bridged", layerCoverage),
	}
}

// replayCoverage re-runs Scenario.Coverage through public calls: at every
// step instant from 0 through duration-step, GraphInto then Bridged,
// folding the verdicts exactly as the library does.
func replayCoverage(tr *tracer, sp *coverageSpans, sc *qntn.Scenario, duration time.Duration) (qntn.CoverageResult, error) {
	step := sc.Params.StepInterval
	res := qntn.CoverageResult{Total: duration}
	g := routing.NewGraph()
	for at := time.Duration(0); at <= duration-step; at += step {
		if err := tr.do(sp.graph, int64(res.Steps), func() error { return sc.GraphInto(g, at) }); err != nil {
			return res, err
		}
		s := tr.begin(sp.bridged, int64(res.Steps))
		covered := sc.Bridged(g)
		tr.end(s)
		res.Steps++
		if !covered {
			continue
		}
		res.CoveredSteps++
		res.Covered += step
		if n := len(res.Intervals); n > 0 && res.Intervals[n-1].End == at {
			res.Intervals[n-1].End = at + step
		} else {
			res.Intervals = append(res.Intervals, qntn.Interval{Start: at, End: at + step})
		}
	}
	return res, nil
}

// walkerGateHorizon bounds the untraced run's replay check; the traced run
// checks the full day.
const walkerGateHorizon = 2 * time.Hour

func runWalkerCoverage(e *env) (*report, error) {
	rep := &report{layers: make(map[string]float64)}
	p := qntn.DefaultParams()
	spec, shells, err := walkerShells(e.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "walker-coverage constellation %s over %v\n", spec, orbit.Day)
	var sc *qntn.Scenario
	for i := 0; i < setupRepeats; i++ {
		s, err := timed(func() (err error) {
			sc, err = qntn.NewWalker(qntn.WalkerSpec{Shells: shells}, p)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}

	gateLib, err := sc.Coverage(walkerGateHorizon)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gateReplay, err := replayCoverage(tr, newCoverageSpans(tr), sc, walkerGateHorizon)
	if err != nil {
		return nil, err
	}
	rep.check(fmt.Sprintf("walker-coverage replay equals Coverage over %v", walkerGateHorizon), reflect.DeepEqual(*gateLib, gateReplay))

	if !e.traced {
		// At least two days even when one overruns the budget, so every run
		// reports the same statistic: a single day's peak resident set reads
		// low, as the heap has not yet grown to its steady size.
		var first *qntn.CoverageResult
		reps, rss, err := repeatFor(e.seconds, 2, func() error {
			res, err := sc.Coverage(orbit.Day)
			if err != nil {
				return err
			}
			if first == nil {
				first = res
			}
			rep.tally(reflect.DeepEqual(first, res))
			return nil
		})
		if err != nil {
			return nil, err
		}
		printReps(e.out, "walker-coverage", reps)
		rep.runS, rep.peakRSS = median(reps), median(rss)
		return rep, nil
	}

	before := sampleCPU()
	var lib *qntn.CoverageResult
	libS, err := timed(func() (err error) {
		lib, err = sc.Coverage(orbit.Day)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.layers["runtime.gc_cpu_ratio"] = gcRatio(before, sampleCPU())

	// Traced replay on the instrumented scenario, then the library's own
	// instrumented run for its counters.
	replayCol := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	sc.Instrument(replayCol)
	tr = newTracer()
	sp := newCoverageSpans(tr)
	root := tr.name("walker-coverage replay", layerRoot)
	var replay qntn.CoverageResult
	err = tr.do(root, -1, func() (err error) {
		replay, err = replayCoverage(tr, sp, sc, orbit.Day)
		return err
	})
	if err != nil {
		return nil, err
	}
	libCol := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	sc.Instrument(libCol)
	instrumented, err := sc.Coverage(orbit.Day)
	if err != nil {
		return nil, err
	}
	sc.Instrument(nil)
	rep.check("walker-coverage traced replay equals untraced Coverage", reflect.DeepEqual(*lib, replay))
	rep.check("walker-coverage instrumented Coverage equals untraced Coverage", reflect.DeepEqual(lib, instrumented))
	lc := counters(libCol.Registry)
	rep.check("walker-coverage replay snapshot counters equal the library's", sameSnapshotCounters(counters(replayCol.Registry), lc))
	rep.check("walker-coverage steps equal coverage_steps_total", uint64(replay.Steps) == lc["coverage_steps_total"])

	elems, err := orbit.WalkerShells(shells)
	if err != nil {
		return nil, err
	}
	elems = withJ2(elems, p)
	positions := replay.Steps * len(elems)
	nsPer := positionCost(elems, stepInstants(p.StepInterval, orbit.Day))
	a := tr.attribute(layerRoot)
	a.move(layerSnapshot, layerOrbit, time.Duration(float64(positions)*nsPer), positions)
	snapshotLayers(rep.layers, lc)
	snapshotTimes(rep.layers, a.row(layerSnapshot).self)
	rep.layers["orbit.positions"] = float64(positions)
	rep.layers["orbit.ns_per_position"] = nsPer
	rep.layers["coverage.bridge_ns_per_step"] = perCall(tr.byName()["qntn.Scenario.Bridged"])
	rep.layers["coverage.covered_steps"] = float64(replay.CoveredSteps)
	overhead := ratio(a.wall.Seconds(), libS)
	rep.layers["trace.overhead_ratio"] = overhead
	rep.layers["trace.unattributed_ratio"] = a.unattributedRatio(layerRoot)
	a.print(e.out, layerRoot, overhead)
	return rep, tr.dump(spanPath(e))
}

// stepInstants lists 0, step, ... up to duration-step.
func stepInstants(step, duration time.Duration) []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at <= duration-step; at += step {
		out = append(out, at)
	}
	return out
}

// withJ2 applies the scenario's J2 setting, as the constructors do.
func withJ2(elems []orbit.Elements, p qntn.Params) []orbit.Elements {
	for i := range elems {
		elems[i].ApplyJ2 = p.UseJ2
	}
	return elems
}

// catalogElements is the paper's full Table II catalog as the scenarios
// propagate it.
func catalogElements(p qntn.Params) []orbit.Elements {
	elems, err := orbit.PaperConstellationWith(orbit.MaxPaperSatellites, p.SatelliteAltitudeM, p.InclinationDeg)
	if err != nil {
		panic(err) // the catalog size is a constant the package accepts
	}
	return withJ2(elems, p)
}

// positionSink keeps the probe's results observable to the compiler.
var positionSink geo.Vec3

// positionProbeCalls caps the probe's PositionECEF calls.
const positionProbeCalls = 300_000

// positionCost times Elements.PositionECEF over every satellite at evenly
// thinned instants, returning nanoseconds per position.
func positionCost(elems []orbit.Elements, times []time.Duration) float64 {
	stride := 1
	if n := len(elems) * len(times); n > positionProbeCalls {
		stride = (n + positionProbeCalls - 1) / positionProbeCalls
	}
	calls := 0
	start := time.Now()
	for k := 0; k < len(times); k += stride {
		for _, el := range elems {
			positionSink = el.PositionECEF(times[k])
			calls++
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(calls))
}
