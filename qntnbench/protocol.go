package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"qntn/internal/experiments"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/telemetry"
)

// protocolStudy is one entanglement-protocol study configuration.
type protocolStudy struct {
	cfg     qntn.ServeConfig
	base    protocol.Config
	sizes   []int
	t2s     []time.Duration
	budgets []int
}

// cliProtocolStudy is the `qntnsim protocol` study: its sizes, T2 levels,
// purification budgets and swap mix, with the benchmark seed as the
// request seed.
func cliProtocolStudy(seed int64) protocolStudy {
	return protocolStudy{
		cfg:     paperServeConfig(seed),
		base:    protocol.Config{SwapSuccess: 0.85, Seed: 5},
		sizes:   []int{6, 24, 54, 108},
		t2s:     []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond},
		budgets: []int{1, 2, 4},
	}
}

// goldenProtocolStudy is the reduced configuration behind
// internal/experiments/testdata/golden/protocol.csv.
func goldenProtocolStudy() protocolStudy {
	return protocolStudy{
		cfg:     qntn.ServeConfig{RequestsPerStep: 10, Steps: 10, Seed: 1},
		base:    protocol.Config{SwapSuccess: 0.85, Seed: 5},
		sizes:   []int{6, 24},
		t2s:     []time.Duration{10 * time.Millisecond, 100 * time.Millisecond},
		budgets: []int{1, 3},
	}
}

func (s protocolStudy) run(p qntn.Params, workers int) ([]byte, error) {
	rows, err := experiments.ProtocolStudyParallel(p, s.cfg, s.base, s.sizes, s.t2s, s.budgets, workers)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = experiments.ProtocolCSV(&buf, rows)
	return buf.Bytes(), err
}

// cells lists the study's protocol configurations: the protocol-off
// baseline first, then every (T2, budget) cell in the study's order.
func (s protocolStudy) cells() []protocol.Config {
	out := []protocol.Config{{}}
	for _, t2 := range s.t2s {
		for _, k := range s.budgets {
			c := s.base
			c.MemoryT2 = t2
			c.PurifyPaths = k
			out = append(out, c)
		}
	}
	return out
}

// protocolHybridRelays mirrors the study's hybrid row.
const protocolHybridRelays = 12

// studyScenarios assembles the study's scenarios for one protocol cell:
// every constellation size from a shared ephemeris, then the hybrid.
func (s protocolStudy) scenarios(p qntn.Params) ([]*qntn.Scenario, error) {
	scs, _, err := ephemerisSetup(p, s.cfg, s.sizes)
	if err != nil {
		return nil, err
	}
	hyb, err := qntn.NewHybrid(protocolHybridRelays, p)
	if err != nil {
		return nil, err
	}
	return append(scs, hyb), nil
}

func runProtocolServe(e *env) (*report, error) {
	rep := &report{layers: make(map[string]float64)}
	p := qntn.DefaultParams()
	study := cliProtocolStudy(e.seed)

	var scs []*qntn.Scenario
	for i := 0; i < setupRepeats; i++ {
		s, err := timed(func() (err error) {
			scs, err = study.scenarios(p)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}

	golden, err := os.ReadFile(filepath.Join(e.root, "internal", "experiments", "testdata", "golden", "protocol.csv"))
	if err != nil {
		return nil, err
	}
	small, err := goldenProtocolStudy().run(p, e.nproc)
	if err != nil {
		return nil, err
	}
	rep.check("protocol-serve golden config equals testdata/golden/protocol.csv", bytes.Equal(small, golden))
	want, err := study.run(p, e.nproc)
	if err != nil {
		return nil, err
	}
	one, err := study.run(p, 1)
	if err != nil {
		return nil, err
	}
	rep.check(fmt.Sprintf("protocol-serve seed %d: 1 worker equals %d workers", e.seed, e.nproc), bytes.Equal(one, want))

	if !e.traced {
		reps, rss, err := repeatFor(e.seconds, 3, func() error {
			got, err := study.run(p, e.nproc)
			rep.tally(bytes.Equal(got, want))
			return err
		})
		if err != nil {
			return nil, err
		}
		printReps(e.out, "protocol-serve", reps)
		rep.runS, rep.peakRSS = median(reps), median(rss)
		return rep, nil
	}

	before := sampleCPU()
	nS, err := timed(func() error { _, err := study.run(p, e.nproc); return err })
	if err != nil {
		return nil, err
	}
	rep.layers["runtime.gc_cpu_ratio"] = gcRatio(before, sampleCPU())
	ones, _, err := repeatFor(0, 3, func() error { _, err := study.run(p, 1); return err })
	if err != nil {
		return nil, err
	}
	oneS := median(ones)
	rep.layers["runner.parallel_efficiency"] = ratio(oneS, float64(e.nproc)*nS)
	build, err := timed(func() error {
		_, err := qntn.NewEphemerisCache(orbit.MaxPaperSatellites, p, sampleTimes(p, study.cfg))
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.layers["ephemeris.build_s"] = build

	studyAt := func(workers int) func(qntn.Params) error {
		return func(pi qntn.Params) error {
			_, err := experiments.ProtocolStudyParallel(pi, study.cfg, study.base, study.sizes, study.t2s, study.budgets, workers)
			return err
		}
	}
	c1, err := instrumentedCounters(p, studyAt(1))
	if err != nil {
		return nil, err
	}
	cn, err := instrumentedCounters(p, studyAt(e.nproc))
	if err != nil {
		return nil, err
	}
	cn2, err := instrumentedCounters(p, studyAt(e.nproc))
	if err != nil {
		return nil, err
	}
	rep.check("protocol-serve counters equal across worker counts and repeats", reflect.DeepEqual(c1, cn) && reflect.DeepEqual(cn, cn2))

	// Traced run: the protocol-off cell replayed through public calls, with
	// k-path extraction on every served request; then every cell's
	// RunServe per scenario, so protocol-on minus protocol-off isolates the
	// protocol layer, which has no public entry point of its own.
	tr := newTracer()
	sp := newServeSpans(tr)
	root := tr.name("protocol-serve replay", layerRoot)
	assemble := tr.name("qntn.EphemerisCache.Scenario+NewHybrid", layerScenario)
	offName := tr.name("qntn.Scenario.RunServe[protocol off]", layerServe)
	onName := tr.name("qntn.Scenario.RunServe[protocol on]", layerServe)
	maxK := study.budgets[len(study.budgets)-1]
	var cnt serveCounts
	var rows []qntn.ServeResult
	col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	for _, sc := range scs {
		sc.Instrument(col)
	}
	cells := study.cells()
	offS := make([]time.Duration, len(scs))
	var onS time.Duration
	var points []experiments.ProtocolPoint
	err = tr.do(root, -1, func() error {
		for _, sc := range scs {
			res, err := replayServe(tr, sp, sc, study.cfg, maxK, &cnt)
			if err != nil {
				return err
			}
			rows = append(rows, res)
		}
		for ci, pc := range cells {
			pi := p
			pi.Protocol = pc
			var cellScs []*qntn.Scenario
			if err := tr.do(assemble, int64(ci), func() (err error) {
				cellScs, err = study.scenarios(pi)
				return err
			}); err != nil {
				return err
			}
			for si, sc := range cellScs {
				name := onName
				if ci == 0 {
					name = offName
				}
				s := tr.begin(name, int64(ci))
				res, err := sc.RunServe(study.cfg)
				tr.end(s)
				if err != nil {
					return err
				}
				point := experiments.ProtocolPoint{
					Architecture:  qntn.SpaceGround.String(),
					Satellites:    len(sc.RelayIDs),
					Enabled:       ci > 0,
					ServedPercent: res.ServedPercent,
					MeanFidelity:  res.MeanFidelity,
					MeanPathEta:   res.MeanPathEta,
				}
				if sc.Arch == qntn.Hybrid {
					point.Architecture = qntn.Hybrid.String()
					point.Satellites = protocolHybridRelays
				}
				if ci > 0 {
					point.MemoryT2, point.SwapSuccess, point.PurifyPaths = pc.MemoryT2, pc.SwapSuccess, pc.Paths()
				}
				points = append(points, point)
				d := tr.spans[s].end - tr.spans[s].start
				if ci == 0 {
					offS[si] = d
					rep.check(fmt.Sprintf("protocol-serve replay equals RunServe (scenario %d, protocol off)", si), sameServe(rows[si], *res))
				} else if d > offS[si] {
					onS += d - offS[si]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cellsCSV bytes.Buffer
	if err := experiments.ProtocolCSV(&cellsCSV, points); err != nil {
		return nil, err
	}
	rep.check("protocol-serve per-cell RunServe equals ProtocolStudyParallel", bytes.Equal(cellsCSV.Bytes(), want))
	a := tr.attribute(layerRoot)
	by := tr.byName()
	a.move(layerServe, layerProtocol, onS, (len(cells)-1)*len(scs))
	// Snapshot and routing figures describe one cell: every cell snapshots
	// and routes the same graphs, which the checks below confirm. The
	// protocol counters cover the whole study.
	cell := offCellCounters(cn, len(cells))
	rep.check("protocol-serve replay snapshot counters equal one cell's", sameSnapshotCounters(counters(col.Registry), cell))
	rep.check("protocol-serve replay relax rounds equal one cell's", uint64(cnt.relaxRounds*len(cells)) == cn["relax_rounds_total"])
	hybridSats, err := orbit.PaperConstellationWith(protocolHybridRelays, p.SatelliteAltitudeM, p.InclinationDeg)
	if err != nil {
		return nil, err
	}
	// The hybrid's satellites propagate on demand inside its snapshots.
	positions := len(hybridSats) * study.cfg.Steps
	nsPer := positionCost(withJ2(hybridSats, p), sampleTimes(p, study.cfg))
	a.move(layerSnapshot, layerOrbit, time.Duration(float64(positions)*nsPer), positions)
	rep.layers["orbit.positions"] = float64(positions)
	rep.layers["orbit.ns_per_position"] = nsPer
	snapshotLayers(rep.layers, cell)
	snapshotTimes(rep.layers, a.row(layerSnapshot).self)
	routingLayers(rep.layers, by, a, cnt)
	rep.layers["protocol.overhead_s"] = onS.Seconds()
	rep.layers["protocol.swaps"] = float64(cn["protocol_swaps_total"])
	rep.layers["protocol.swap_failures"] = float64(cn["protocol_swap_failures_total"])
	rep.layers["protocol.purify_rounds"] = float64(cn["protocol_purify_rounds_total"])
	rep.layers["protocol.purify_accepted"] = float64(cn["protocol_purify_accepted_total"])
	rep.layers["protocol.purify_accept_ratio"] = ratio(float64(cn["protocol_purify_accepted_total"]), float64(cn["protocol_purify_rounds_total"]))
	overhead := ratio(a.wall.Seconds(), oneS)
	rep.layers["trace.overhead_ratio"] = overhead
	rep.layers["trace.unattributed_ratio"] = a.unattributedRatio(layerRoot)
	a.print(e.out, layerRoot, overhead)
	return rep, tr.dump(spanPath(e))
}

// offCellCounters scales the study's snapshot counters down to one cell:
// every cell snapshots the same scenarios at the same instants.
func offCellCounters(study map[string]uint64, cells int) map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range snapshotCounterNames {
		out[n] = study[n] / uint64(cells)
	}
	return out
}
