package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"qntn/internal/experiments"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/telemetry"
)

// paperServeConfig is the Fig. 7/8 workload: 100 requests at each of 100
// steps over one day, with the benchmark seed as the request seed.
func paperServeConfig(seed int64) qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 100, Steps: 100, Horizon: orbit.Day, Seed: seed}
}

// sweepCSV runs ServeSweepParallel and renders the fig7/fig8 CSV.
func sweepCSV(p qntn.Params, cfg qntn.ServeConfig, workers int) ([]byte, []qntn.ServePoint, error) {
	points, err := qntn.ServeSweepParallel(p, qntn.PaperSweepSizes(), cfg, workers)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := experiments.Fig78CSV(&buf, points); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), points, nil
}

// ephemerisSetup propagates the full catalog at the serve instants and
// assembles one scenario per sweep size: the inputs the traced replay
// walks. It is the paper-serve and protocol-serve set-up.
func ephemerisSetup(p qntn.Params, cfg qntn.ServeConfig, sizes []int) ([]*qntn.Scenario, float64, error) {
	var cache *qntn.EphemerisCache
	buildS, err := timed(func() (err error) {
		cache, err = qntn.NewEphemerisCache(orbit.MaxPaperSatellites, p, sampleTimes(p, cfg))
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	scs := make([]*qntn.Scenario, len(sizes))
	for i, n := range sizes {
		if scs[i], err = cache.Scenario(n); err != nil {
			return nil, 0, err
		}
	}
	return scs, buildS, nil
}

func runPaperServe(e *env) (*report, error) {
	rep := &report{layers: make(map[string]float64)}
	p := qntn.DefaultParams()
	cfg := paperServeConfig(e.seed)
	sizes := qntn.PaperSweepSizes()

	var scs []*qntn.Scenario
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := timed(func() (err error) {
			var b float64
			scs, b, err = ephemerisSetup(p, cfg, sizes)
			builds = append(builds, b)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}

	// Gate: the paper's own configuration reproduces the committed Fig. 7
	// CSV, and at the workload seed one worker agrees with nproc workers.
	golden, err := os.ReadFile(filepath.Join(e.root, "docs", "results", "csv", "fig7.csv"))
	if err != nil {
		return nil, err
	}
	paperCSV, _, err := sweepCSV(p, paperServeConfig(1), e.nproc)
	if err != nil {
		return nil, err
	}
	rep.check("paper-serve seed 1 equals docs/results/csv/fig7.csv", bytes.Equal(paperCSV, golden))
	want, points, err := sweepCSV(p, cfg, e.nproc)
	if err != nil {
		return nil, err
	}
	one, _, err := sweepCSV(p, cfg, 1)
	if err != nil {
		return nil, err
	}
	rep.check(fmt.Sprintf("paper-serve seed %d: 1 worker equals %d workers", e.seed, e.nproc), bytes.Equal(one, want))

	if !e.traced {
		reps, rss, err := repeatFor(e.seconds, 3, func() error {
			got, _, err := sweepCSV(p, cfg, e.nproc)
			rep.tally(bytes.Equal(got, want))
			return err
		})
		if err != nil {
			return nil, err
		}
		printReps(e.out, "paper-serve", reps)
		rep.runS, rep.peakRSS = median(reps), median(rss)
		return rep, nil
	}

	// Traced run. Untraced references first: the sweep at nproc workers
	// with its GC share, and at one worker, the traced replay's baseline.
	before := sampleCPU()
	nS, err := timed(func() error { _, _, err := sweepCSV(p, cfg, e.nproc); return err })
	if err != nil {
		return nil, err
	}
	rep.layers["runtime.gc_cpu_ratio"] = gcRatio(before, sampleCPU())
	ones, _, err := repeatFor(0, 3, func() error { _, _, err := sweepCSV(p, cfg, 1); return err })
	if err != nil {
		return nil, err
	}
	oneS := median(ones)
	rep.layers["runner.parallel_efficiency"] = ratio(oneS, float64(e.nproc)*nS)
	rep.layers["ephemeris.build_s"] = median(builds)

	// Deterministic counters from the library's own instruments, at one
	// worker, at nproc workers, and again at nproc.
	sweep := func(workers int) func(qntn.Params) error {
		return func(pi qntn.Params) error {
			_, err := qntn.ServeSweepParallel(pi, sizes, cfg, workers)
			return err
		}
	}
	c1, err := instrumentedCounters(p, sweep(1))
	if err != nil {
		return nil, err
	}
	cn, err := instrumentedCounters(p, sweep(e.nproc))
	if err != nil {
		return nil, err
	}
	cn2, err := instrumentedCounters(p, sweep(e.nproc))
	if err != nil {
		return nil, err
	}
	rep.check("paper-serve counters equal across worker counts and repeats", reflect.DeepEqual(c1, cn) && reflect.DeepEqual(cn, cn2))

	// Traced replay, one worker, every size in sweep order, on scenarios
	// instrumented so their snapshot counters can be held against the
	// library's.
	col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	for _, sc := range scs {
		sc.Instrument(col)
	}
	tr := newTracer()
	sp := newServeSpans(tr)
	root := tr.name("paper-serve replay", layerRoot)
	var cnt serveCounts
	replayed := make([]qntn.ServeResult, len(sizes))
	err = tr.do(root, -1, func() error {
		for i, sc := range scs {
			res, err := replayServe(tr, sp, sc, cfg, 0, &cnt)
			if err != nil {
				return err
			}
			replayed[i] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	same := true
	for i := range sizes {
		same = same && sameServe(replayed[i], points[i].Result)
	}
	rep.check("paper-serve traced replay equals ServeSweepParallel", same)

	rep.check("paper-serve replay snapshot counters equal the library's", sameSnapshotCounters(counters(col.Registry), cn))
	a := tr.attribute(layerRoot)
	by := tr.byName()
	snapshotLayers(rep.layers, cn)
	snapshotTimes(rep.layers, a.row(layerSnapshot).self)
	rep.check("paper-serve replay relax rounds equal relax_rounds_total", uint64(cnt.relaxRounds) == cn["relax_rounds_total"])
	rep.check("paper-serve replay steps equal snapshot_steps_total", uint64(cnt.steps) == cn["snapshot_steps_total"])
	routingLayers(rep.layers, by, a, cnt)
	rep.layers["orbit.ns_per_position"] = positionCost(catalogElements(p), sampleTimes(p, cfg))
	overhead := ratio(a.wall.Seconds(), oneS)
	rep.layers["trace.overhead_ratio"] = overhead
	rep.layers["trace.unattributed_ratio"] = a.unattributedRatio(layerRoot)
	a.print(e.out, layerRoot, overhead)
	return rep, tr.dump(spanPath(e))
}

// routingLayers fills the routing and fidelity metrics of a serve replay.
func routingLayers(layers map[string]float64, by map[string]*nameStats, a *attribution, cnt serveCounts) {
	bf := by["routing.BellmanFordScratch.Run"]
	layers["routing.bf_calls"] = float64(cnt.bfCalls)
	layers["routing.bf_ns_per_call"] = perCall(bf)
	layers["routing.bf_relax_rounds"] = float64(cnt.relaxRounds)
	layers["routing.bf_self_s"] = a.row(layerBF).self.Seconds()
	layers["routing.path_calls"] = float64(cnt.requests)
	layers["routing.path_ns_per_call"] = perCall(by["routing.Tables.Path"])
	layers["routing.extract_calls"] = float64(cnt.extracts)
	layers["routing.extract_ns_per_call"] = perCall(by["routing.DisjointScratch.Extract"])
	layers["fidelity.ns_per_request"] = perCall(by["qntn.PathFidelity"])
	layers["serve.reachable_ratio"] = ratio(float64(cnt.reachable), float64(cnt.requests))
}
