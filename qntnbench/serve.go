package main

import (
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/stats"
	"qntn/internal/telemetry"
)

// Layer names shared by the attribution tables.
const (
	layerRoot      = "replay"
	layerOrbit     = "orbit"
	layerScenario  = "qntn.scenario"
	layerWorkload  = "qntn.workload"
	layerSnapshot  = "netsim.snapshot"
	layerCoverage  = "qntn.coverage"
	layerBF        = "routing.bellman-ford"
	layerPath      = "routing.path"
	layerDijkstra  = "routing.dijkstra"
	layerExtract   = "routing.extract"
	layerFidelity  = "qntn.fidelity"
	layerServe     = "qntn.serve (protocol off)"
	layerProtocol  = "quantum/protocol"
	layerTraffic   = "qntn.traffic"
	layerTelemetry = "telemetry.ndjson"
)

// serveSpans holds the span handles of a serve replay.
type serveSpans struct {
	workload, batch, graph, bf, path, fidelity, extract int32
}

func newServeSpans(tr *tracer) *serveSpans {
	return &serveSpans{
		workload: tr.name("qntn.NewWorkload", layerWorkload),
		batch:    tr.name("qntn.Workload.Batch", layerWorkload),
		graph:    tr.name("qntn.Scenario.GraphInto", layerSnapshot),
		bf:       tr.name("routing.BellmanFordScratch.Run", layerBF),
		path:     tr.name("routing.Tables.Path", layerPath),
		fidelity: tr.name("qntn.PathFidelity", layerFidelity),
		extract:  tr.name("routing.DisjointScratch.Extract", layerExtract),
	}
}

// serveCounts accumulates the replay's own work counts.
type serveCounts struct {
	steps, bfCalls, relaxRounds, requests, reachable, extracts int
}

// sampleTimes are the instants a serve run evaluates: Steps instants
// Horizon/Steps apart from t = 0, falling back to the topology step when
// the division underflows — the schedule RunServe documents.
func sampleTimes(p qntn.Params, cfg qntn.ServeConfig) []time.Duration {
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	if gap <= 0 {
		gap = p.TopologyStep()
	}
	times := make([]time.Duration, cfg.Steps)
	for k := range times {
		times[k] = time.Duration(k) * gap
	}
	return times
}

// replayServe re-runs the protocol-off serve experiment through public
// calls, one span around each: per step GraphInto and
// BellmanFordScratch.Run, per request Tables.Reachable/Path and
// Graph.EdgeEtas with PathFidelity. With extractK > 0 every served
// request's primary path also goes through DisjointScratch.Extract, the
// k-path routing the protocol layer performs. The summary figures are
// computed exactly as RunServe computes them, so they must equal the
// library's.
func replayServe(tr *tracer, sp *serveSpans, sc *qntn.Scenario, cfg qntn.ServeConfig, extractK int, cnt *serveCounts) (qntn.ServeResult, error) {
	res := qntn.ServeResult{Config: cfg}
	var wl *qntn.Workload
	err := tr.do(sp.workload, -1, func() (err error) {
		wl, err = qntn.NewWorkload(sc, cfg.Seed)
		return err
	})
	if err != nil {
		return res, err
	}
	graph := routing.NewGraph()
	var bf routing.BellmanFordScratch
	var ds routing.DisjointScratch
	var fids, etas []float64
	eps := sc.Params.RoutingEpsilon
	model := sc.Params.FidelityModel
	for step, at := range sampleTimes(sc.Params, cfg) {
		if err := tr.do(sp.graph, int64(step), func() error { return sc.GraphInto(graph, at) }); err != nil {
			return res, err
		}
		s := tr.begin(sp.bf, int64(step))
		tables := bf.Run(graph, eps)
		tr.end(s)
		cnt.steps++
		cnt.bfCalls++
		cnt.relaxRounds += bf.Rounds()
		s = tr.begin(sp.batch, int64(step))
		reqs := wl.Batch(cfg.RequestsPerStep)
		tr.end(s)
		for _, req := range reqs {
			out := netsim.Outcome{Request: req, At: at}
			var path []string
			s := tr.begin(sp.path, int64(req.ID))
			reachable := tables.Reachable(req.Src, req.Dst)
			if reachable {
				path, err = tables.Path(req.Src, req.Dst)
			}
			tr.end(s)
			if err != nil {
				return res, fmt.Errorf("step %d request %d: %w", step, req.ID, err)
			}
			cnt.requests++
			if reachable {
				cnt.reachable++
				s := tr.begin(sp.fidelity, int64(req.ID))
				hops, err := graph.EdgeEtas(path)
				eta := 1.0
				for _, h := range hops {
					eta *= h
				}
				fid := qntn.PathFidelity(hops, model)
				tr.end(s)
				if err != nil {
					return res, fmt.Errorf("step %d request %d: %w", step, req.ID, err)
				}
				out.Served, out.Path, out.EndToEndEta, out.Fidelity = true, path, eta, fid
				fids = append(fids, fid)
				etas = append(etas, eta)
				if extractK > 0 {
					s := tr.begin(sp.extract, int64(req.ID))
					_, err := ds.Extract(graph, path, extractK)
					tr.end(s)
					if err != nil {
						return res, fmt.Errorf("step %d request %d: %w", step, req.ID, err)
					}
					cnt.extracts++
				}
			}
			res.Metrics.Record(out)
		}
	}
	res.ServedPercent = 100 * res.Metrics.ServedFraction()
	res.MeanFidelity = res.Metrics.MeanServedFidelity()
	res.FidelitySummary = stats.Summarize(fids)
	res.MeanPathEta = stats.Mean(etas)
	return res, nil
}

// sameServe reports whether two serve results agree on every figure the
// paper's CSVs carry, exactly.
func sameServe(a, b qntn.ServeResult) bool {
	return a.ServedPercent == b.ServedPercent && a.MeanFidelity == b.MeanFidelity &&
		a.MeanPathEta == b.MeanPathEta && a.FidelitySummary == b.FidelitySummary
}

// counters returns the counter readings of a registry by name.
func counters(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range reg.Snapshot() {
		if m.Kind == "counter" {
			out[m.Name] = uint64(m.Value)
		}
	}
	return out
}

// instrumentedCounters runs fn with params whose Telemetry collects
// metrics (no events) and returns the counter readings.
func instrumentedCounters(p qntn.Params, fn func(qntn.Params) error) (map[string]uint64, error) {
	col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
	p.Telemetry = col
	if err := fn(p); err != nil {
		return nil, err
	}
	return counters(col.Registry), nil
}

// snapshotCounterNames are the network instruments every snapshot flushes.
var snapshotCounterNames = []string{
	"snapshot_steps_total", "pairs_evaluated_total", "links_admitted_total", "index_culled_pairs_total",
	"horizon_prefilter_rejects_total", "range_prefilter_rejects_total",
}

// sameSnapshotCounters compares the snapshot counters of two readings.
func sameSnapshotCounters(a, b map[string]uint64) bool {
	for _, n := range snapshotCounterNames {
		if a[n] != b[n] {
			return false
		}
	}
	return true
}

// snapshotLayers fills the snapshot-layer counts from a registry of the
// network's standard instruments.
func snapshotLayers(layers map[string]float64, c map[string]uint64) {
	pairs := float64(c["pairs_evaluated_total"])
	culled := float64(c["index_culled_pairs_total"])
	visited := pairs - culled
	admitted := float64(c["links_admitted_total"])
	layers["snapshot.calls"] = float64(c["snapshot_steps_total"])
	layers["snapshot.pairs"] = pairs
	layers["snapshot.pairs_visited"] = visited
	layers["snapshot.index_cull_ratio"] = ratio(culled, pairs)
	layers["snapshot.prefilter_rejects"] = float64(c["horizon_prefilter_rejects_total"] + c["range_prefilter_rejects_total"])
	layers["snapshot.links_admitted"] = admitted
	layers["snapshot.admit_ratio"] = ratio(admitted, visited)
}

// snapshotTimes fills the snapshot-layer times from its attributed self
// time and the counts snapshotLayers set.
func snapshotTimes(layers map[string]float64, self time.Duration) {
	layers["snapshot.self_s"] = self.Seconds()
	layers["snapshot.ns_per_call"] = ratio(float64(self.Nanoseconds()), layers["snapshot.calls"])
	layers["snapshot.ns_per_visited_pair"] = ratio(float64(self.Nanoseconds()), layers["snapshot.pairs_visited"])
}

// perCall is a span name's mean duration in nanoseconds.
func perCall(st *nameStats) float64 {
	if st == nil {
		return 0
	}
	return ratio(float64(st.total.Nanoseconds()), float64(st.calls))
}
