package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

// Offered load of daemon-traffic, in queries per second. BENCHMARK.json
// records the rates and the limit.
const (
	lowRate  = 4.0
	highRate = 16.0
	// latencyLimit is the query_p95 limit a ladder rung must meet.
	latencyLimit = 250 * time.Millisecond
	// rungSeconds is how long each ladder rung offers its rate.
	rungSeconds = 3 * time.Second
)

// ladderRates are the rungs max_qps is read from, lowest first.
var ladderRates = []float64{4, 8, 16, 24, 32, 40, 48, 64}

// mixHorizons are the query horizons; the daemon's ephemeris cache holds
// one propagation per horizon, warmed during set-up.
var mixHorizons = []string{"30m", "45m", "1h"}

// daemonMix is the query deck of daemon-traffic. Its composition is fixed
// so the offered work is the same at every seed: for each horizon,
// space-ground queries at 24, 54 and 108 satellites and two rates, one
// air-ground and one 12-satellite hybrid query (both bypass the ephemeris
// cache), all with a diurnal profile peaking one hour in. The seed draws
// the order of the deck and each query's traffic seed.
func daemonMix(seed int64) []qntn.TrafficQuery {
	var deck []qntn.TrafficQuery
	for _, h := range mixHorizons {
		for _, n := range []int{24, 54, 108} {
			for _, rate := range []float64{15, 30} {
				deck = append(deck, qntn.TrafficQuery{Arch: "space-ground", Satellites: n, RatePerHourPerSite: rate, Horizon: h})
			}
		}
		deck = append(deck,
			qntn.TrafficQuery{Arch: "air-ground", RatePerHourPerSite: 30, Horizon: h},
			qntn.TrafficQuery{Arch: "hybrid", Satellites: 12, RatePerHourPerSite: 30, Horizon: h})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for i := range deck {
		deck[i].Seed = 1 + rng.Int63n(1<<31)
		deck[i].DiurnalAmplitude = 0.5
		deck[i].PeakHour = 1
	}
	return deck
}

// inProcess evaluates queries in process, exactly as the daemon does: the
// scenario from a per-horizon ephemeris cache (space-ground) or a fresh
// constructor, instrumented with a fresh collector, RunTraffic, then the
// event sink's NDJSON.
type inProcess struct {
	p      qntn.Params
	caches map[time.Duration]*qntn.EphemerisCache
}

func newInProcess(p qntn.Params) *inProcess {
	return &inProcess{p: p, caches: make(map[time.Duration]*qntn.EphemerisCache)}
}

func (ip *inProcess) config(q qntn.TrafficQuery) (qntn.TrafficConfig, error) {
	h, err := time.ParseDuration(q.Horizon)
	return qntn.TrafficConfig{
		RatePerHourPerSite: q.RatePerHourPerSite,
		Diurnal:            qntn.DiurnalProfile{Amplitude: q.DiurnalAmplitude, PeakHour: q.PeakHour},
		Horizon:            h,
		Seed:               q.Seed,
		Workers:            q.Workers,
	}, err
}

// cache returns the horizon's ephemeris, built as the daemon builds it:
// the full catalog at every topology instant from 0 through the horizon.
func (ip *inProcess) cache(horizon time.Duration) (*qntn.EphemerisCache, error) {
	if c, ok := ip.caches[horizon]; ok {
		return c, nil
	}
	c, err := qntn.NewEphemerisCache(orbit.MaxPaperSatellites, ip.p, stepInstants(ip.p.TopologyStep(), horizon+ip.p.TopologyStep()))
	if err == nil {
		ip.caches[horizon] = c
	}
	return c, err
}

// scenario assembles the query's scenario.
func (ip *inProcess) scenario(q qntn.TrafficQuery, horizon time.Duration) (*qntn.Scenario, error) {
	switch q.Arch {
	case "air-ground":
		return qntn.NewAirGround(ip.p)
	case "hybrid":
		return qntn.NewHybrid(q.Satellites, ip.p)
	}
	c, err := ip.cache(horizon)
	if err != nil {
		return nil, err
	}
	return c.Scenario(q.Satellites)
}

// queryRun is one in-process evaluation.
type queryRun struct {
	body     []byte
	res      *qntn.TrafficResult
	counters map[string]uint64
}

func (ip *inProcess) run(q qntn.TrafficQuery) (queryRun, error) {
	cfg, err := ip.config(q)
	if err != nil {
		return queryRun{}, err
	}
	sc, err := ip.scenario(q, cfg.Horizon)
	if err != nil {
		return queryRun{}, err
	}
	col := telemetry.NewCollector()
	sc.Instrument(col)
	res, err := sc.RunTraffic(cfg)
	if err != nil {
		return queryRun{}, err
	}
	var buf bytes.Buffer
	if err := col.Events.WriteNDJSON(&buf); err != nil {
		return queryRun{}, err
	}
	return queryRun{body: buf.Bytes(), res: res, counters: counters(col.Registry)}, nil
}

// daemonServer is a qntn.Daemon behind a loopback HTTP server, with a
// client holding at most nproc connections to it.
type daemonServer struct {
	d      *qntn.Daemon
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func startDaemon(p qntn.Params, conns int) (*daemonServer, error) {
	d, err := qntn.NewDaemon(p, time.Now)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &daemonServer{
		d:   d,
		srv: &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String() + "/v1/traffic",
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *daemonServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one query and reads the whole body.
func (s *daemonServer) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

// phaseResult is one open-loop phase at a fixed offered rate.
type phaseResult struct {
	latencies  []float64 // seconds, scheduled send to last body byte
	lags       []float64 // seconds, scheduled send to actual send
	backlogMax int       // most queries due but not yet sent
	backlogEnd int       // queries still waiting when the last one fell due
	rssMB      []float64 // peak resident set of each pass over the deck
	sent       int
	failed     int
}

// poissonSchedule returns the send offsets of a Poisson stream at rate
// queries per second, drawn from seed: as many whole passes over a deck of
// deckLen queries as fit in dur at that rate (at least one), so every
// phase offers each deck query equally often.
func poissonSchedule(rate float64, dur time.Duration, deckLen int, seed int64) []time.Duration {
	passes := max(1, int(rate*dur.Seconds())/deckLen)
	rng := rand.New(rand.NewSource(seed))
	sched := make([]time.Duration, passes*deckLen)
	var at time.Duration
	for i := range sched {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		sched[i] = at
	}
	return sched
}

// openLoop offers the deck on a Poisson schedule at rate queries per
// second for about dur (see poissonSchedule), through at most conns
// connections. Each query is timed from its scheduled send, so a stall
// also charges the queries queued behind it. A query fails on a transport
// error, a non-200 status, or a body that differs from want.
func (s *daemonServer) openLoop(bodies, want [][]byte, rate float64, dur time.Duration, seed int64, conns int) phaseResult {
	sched := poissonSchedule(rate, dur, len(bodies), seed)
	type job struct {
		i   int
		due time.Time
	}
	type outcome struct {
		lag, latency time.Duration
		ok           bool
	}
	// Sized to the number of sends, so the scheduler never blocks and its
	// length is the backlog.
	jobs := make(chan job, len(sched))
	outcomes := make([]outcome, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				k := j.i % len(bodies)
				sent := time.Now()
				status, body, err := s.post(bodies[k])
				outcomes[j.i] = outcome{
					lag:     sent.Sub(j.due),
					latency: time.Since(j.due),
					ok:      err == nil && status == http.StatusOK && bytes.Equal(body, want[k]),
				}
			}
		}()
	}
	res := phaseResult{sent: len(sched)}
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		if i%len(bodies) == 0 {
			if i > 0 {
				res.rssMB = append(res.rssMB, peakRSSMB())
			}
			resetPeakRSS()
		}
		backlog := len(jobs)
		if backlog > res.backlogMax {
			res.backlogMax = backlog
		}
		if i == len(sched)-1 {
			res.backlogEnd = backlog
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	res.rssMB = append(res.rssMB, peakRSSMB())
	for _, o := range outcomes {
		res.latencies = append(res.latencies, o.latency.Seconds())
		res.lags = append(res.lags, o.lag.Seconds())
		if !o.ok {
			res.failed++
		}
	}
	return res
}

// sustained reports whether a phase met the latency limit with no failed
// query and a backlog that did not grow: fewer queries waiting when the
// last fell due than there are connections.
func (r phaseResult) sustained(conns int) bool {
	return r.failed == 0 && r.backlogEnd < conns && quantile(r.latencies, 0.95) <= latencyLimit.Seconds()
}

// queryBodies encodes the deck.
func queryBodies(deck []qntn.TrafficQuery) ([][]byte, error) {
	out := make([][]byte, len(deck))
	for i, q := range deck {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// daemonSetup starts a daemon and warms its ephemeris cache with one
// space-ground query per horizon of the mix.
func daemonSetup(p qntn.Params, conns int) (*daemonServer, error) {
	s, err := startDaemon(p, conns)
	if err != nil {
		return nil, err
	}
	for _, h := range mixHorizons {
		b, err := json.Marshal(qntn.TrafficQuery{Arch: "space-ground", Satellites: orbit.MaxPaperSatellites, RatePerHourPerSite: 1, Horizon: h, Seed: 1})
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		status, _, err := s.post(b)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up query for horizon %s: status %d", h, status)
		}
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	return s, nil
}

func runDaemonTraffic(e *env) (rep *report, err error) {
	rep = &report{layers: make(map[string]float64)}
	p := qntn.DefaultParams()
	deck := daemonMix(e.seed)
	bodies, err := queryBodies(deck)
	if err != nil {
		return nil, err
	}
	var srv *daemonServer
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		s, err := timed(func() (err error) {
			srv, err = daemonSetup(p, e.nproc)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}
	defer func() { err = errors.Join(err, srv.close()) }()

	// Gate: every deck query evaluated in process; a seed-chosen sample
	// sent over HTTP must stream byte-identical bodies. Every timed
	// response is then held against the in-process body too.
	ip := newInProcess(p)
	for _, h := range mixHorizons {
		d, err := time.ParseDuration(h)
		if err == nil {
			_, err = ip.cache(d)
		}
		if err != nil {
			return nil, err
		}
	}
	ref := make([]queryRun, len(deck))
	want := make([][]byte, len(deck))
	for i, q := range deck {
		if ref[i], err = ip.run(q); err != nil {
			return nil, err
		}
		want[i] = ref[i].body
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range rng.Perm(len(deck))[:4] {
		status, body, err := srv.post(bodies[k])
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("daemon-traffic query %d (%s) body equals in-process RunTraffic", k, deck[k].Arch),
			status == http.StatusOK && bytes.Equal(body, want[k]))
	}

	if !e.traced {
		ph := srv.openLoop(bodies, want, lowRate, e.seconds, e.seed, e.nproc)
		rep.attempted += ph.sent
		rep.failed += ph.failed
		rep.runS, rep.peakRSS = median(ph.latencies), median(ph.rssMB)
		fmt.Fprintf(e.out, "daemon-traffic low rate %.0f/s: %d queries, p50 %.1f ms, p95 %.1f ms, lag p95 %.1f ms, backlog max %d\n",
			lowRate, ph.sent, 1e3*median(ph.latencies), 1e3*quantile(ph.latencies, 0.95), 1e3*quantile(ph.lags, 0.95), ph.backlogMax)
		return rep, nil
	}

	// Tracing stays off for both fixed rates and the ladder.
	before := sampleCPU()
	allocBefore := allocatedBytes()
	low := srv.openLoop(bodies, want, lowRate, e.seconds, e.seed, e.nproc)
	rep.layers["runtime.gc_cpu_ratio"] = gcRatio(before, sampleCPU())
	rep.layers["daemon.alloc_bytes_per_query"] = ratio(float64(allocatedBytes()-allocBefore), float64(low.sent))
	high := srv.openLoop(bodies, want, highRate, e.seconds/2, e.seed+1, e.nproc)
	rep.attempted += low.sent + high.sent
	rep.failed += low.failed + high.failed
	rep.layers["query_p50_ms.low"] = 1e3 * median(low.latencies)
	rep.layers["query_p95_ms.low"] = 1e3 * quantile(low.latencies, 0.95)
	rep.layers["query_p50_ms.high"] = 1e3 * median(high.latencies)
	rep.layers["query_p95_ms.high"] = 1e3 * quantile(high.latencies, 0.95)
	rep.layers["gen.lag_p95_ms"] = 1e3 * quantile(append(append([]float64(nil), low.lags...), high.lags...), 0.95)
	rep.layers["gen.backlog_max"] = float64(max(low.backlogMax, high.backlogMax))
	for i, r := range ladderRates {
		ph := srv.openLoop(bodies, want, r, rungSeconds, e.seed+2+int64(i), e.nproc)
		ok := ph.sustained(e.nproc)
		fmt.Fprintf(e.out, "ladder %5.1f/s: %3d queries, p95 %7.1f ms, backlog end %d, failed %d, sustained %v\n",
			r, ph.sent, 1e3*quantile(ph.latencies, 0.95), ph.backlogEnd, ph.failed, ok)
		if !ok {
			break
		}
		rep.layers["max_qps"] = r
	}

	// In-process untraced reference, one query at a time; then the same
	// queries over HTTP, whose client-observed time less the in-process
	// time is the HTTP layer's cost, while the daemon's evaluated-requests
	// counter must match the library's.
	inProcS := make([]float64, len(deck))
	for i, q := range deck {
		if inProcS[i], err = timed(func() error { _, err := ip.run(q); return err }); err != nil {
			return nil, err
		}
	}
	evalBefore := srv.d.RequestsEvaluated()
	var httpOver []float64
	wantEvaluated := 0
	for i := range deck {
		s, err := timed(func() error {
			status, body, err := srv.post(bodies[i])
			if err == nil && (status != http.StatusOK || !bytes.Equal(body, want[i])) {
				err = fmt.Errorf("query %d: status %d or body differs from in-process", i, status)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		httpOver = append(httpOver, s-inProcS[i])
		wantEvaluated += ref[i].res.RequestsEvaluated
	}
	rep.check("daemon_requests_evaluated_total equals in-process RequestsEvaluated", srv.d.RequestsEvaluated()-evalBefore == uint64(wantEvaluated))
	rep.layers["http.overhead_ms"] = 1e3 * median(httpOver)
	bypass := 0
	for _, q := range deck {
		if q.Arch == "air-ground" || q.Arch == "hybrid" {
			bypass++
		}
	}
	rep.layers["daemon.cache_bypass_share"] = ratio(float64(bypass), float64(len(deck)))

	return rep, traceDaemon(e, rep, ip, deck, ref, sum(inProcS))
}

// traceDaemon replays every deck query in process with spans: scenario
// assembly, Instrument, RunTraffic, WriteNDJSON; then GraphInto at every
// topology step of the query on a second instrumented scenario, and
// Dijkstra from the first host of every network on each step graph.
func traceDaemon(e *env, rep *report, ip *inProcess, deck []qntn.TrafficQuery, ref []queryRun, refS float64) error {
	tr := newTracer()
	root := tr.name("daemon-traffic replay", layerRoot)
	nScenario := tr.name("qntn scenario assembly", layerScenario)
	nInstrument := tr.name("qntn.Scenario.Instrument", layerScenario)
	nTraffic := tr.name("qntn.Scenario.RunTraffic", layerTraffic)
	nNDJSON := tr.name("telemetry.EventSink.WriteNDJSON", layerTelemetry)
	nGraph := tr.name("qntn.Scenario.GraphInto", layerSnapshot)
	nDijkstra := tr.name("routing.Dijkstra", layerDijkstra)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var dijkstraBytes uint64
	var steps, arrivals, evaluated, events, ndjsonBytes, dijkstraCalls int
	var residual time.Duration
	same := true
	sameCounters := true
	err := tr.do(root, -1, func() error {
		for i, q := range deck {
			cfg, err := ip.config(q)
			if err != nil {
				return err
			}
			id := int64(i)
			var sc *qntn.Scenario
			if err := tr.do(nScenario, id, func() (err error) {
				sc, err = ip.scenario(q, cfg.Horizon)
				return err
			}); err != nil {
				return err
			}
			col := telemetry.NewCollector()
			s := tr.begin(nInstrument, id)
			sc.Instrument(col)
			tr.end(s)
			var res *qntn.TrafficResult
			s = tr.begin(nTraffic, id)
			res, err = sc.RunTraffic(cfg)
			tr.end(s)
			if err != nil {
				return err
			}
			trafficD := tr.spans[s].end - tr.spans[s].start
			var buf bytes.Buffer
			if err := tr.do(nNDJSON, id, func() error { return col.Events.WriteNDJSON(&buf) }); err != nil {
				return err
			}
			same = same && bytes.Equal(buf.Bytes(), ref[i].body)
			steps += res.Steps
			arrivals += res.Arrivals
			evaluated += res.RequestsEvaluated
			events += col.Events.Len()
			ndjsonBytes += buf.Len()

			// The snapshots RunTraffic took, replayed on a twin scenario.
			twin, err := ip.scenario(q, cfg.Horizon)
			if err != nil {
				return err
			}
			twinCol := &telemetry.Collector{Registry: telemetry.NewRegistry()}
			twin.Instrument(twinCol)
			g := routing.NewGraph()
			var graphD time.Duration
			cost := routing.InverseEtaCost(ip.p.RoutingEpsilon)
			for k := 0; k < res.Steps; k++ {
				at := time.Duration(k) * ip.p.TopologyStep()
				s := tr.begin(nGraph, id)
				err := twin.GraphInto(g, at)
				tr.end(s)
				if err != nil {
					return err
				}
				graphD += tr.spans[s].end - tr.spans[s].start
				metrics.Read(allocs)
				a0 := allocs[0].Value.Uint64()
				for _, lan := range twin.LANs {
					src := twin.GroundIDs[lan.Name][0]
					if err := tr.do(nDijkstra, id, func() error {
						_, err := routing.Dijkstra(g, src, cost)
						return err
					}); err != nil {
						return err
					}
					dijkstraCalls++
				}
				metrics.Read(allocs)
				dijkstraBytes += allocs[0].Value.Uint64() - a0
			}
			sameCounters = sameCounters && sameSnapshotCounters(counters(twinCol.Registry), ref[i].counters)
			if trafficD > graphD {
				residual += trafficD - graphD
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.check("daemon-traffic traced replay bodies equal untraced in-process bodies", same)
	rep.check("daemon-traffic replayed snapshot counters equal RunTraffic's", sameCounters)

	by := tr.byName()
	a := tr.attribute(layerRoot)
	snap := make(map[string]uint64)
	for _, r := range ref {
		for _, n := range snapshotCounterNames {
			snap[n] += r.counters[n]
		}
	}
	// The snapshot work inside RunTraffic, estimated by the replayed
	// GraphInto calls, is carved out of the traffic row; the hybrid
	// queries' on-demand propagation out of the replayed snapshots.
	a.move(layerTraffic, "netsim.snapshot inside RunTraffic", a.row(layerSnapshot).self, int(snap["snapshot_steps_total"]))
	positions := 0
	for i, q := range deck {
		if q.Arch == "hybrid" {
			positions += q.Satellites * ref[i].res.Steps
		}
	}
	nsPer := positionCost(catalogElements(ip.p), stepInstants(ip.p.TopologyStep(), time.Hour))
	a.move(layerSnapshot, layerOrbit, time.Duration(float64(positions)*nsPer), positions)
	rep.layers["orbit.positions"] = float64(positions)
	rep.layers["orbit.ns_per_position"] = nsPer
	snapshotLayers(rep.layers, snap)
	snapshotTimes(rep.layers, a.row(layerSnapshot).self)
	rep.layers["routing.dijkstra_calls"] = float64(dijkstraCalls)
	rep.layers["routing.dijkstra_ns_per_call"] = perCall(by["routing.Dijkstra"])
	rep.layers["routing.dijkstra_alloc_bytes_per_call"] = ratio(float64(dijkstraBytes), float64(dijkstraCalls))
	rep.layers["traffic.run_s"] = by["qntn.Scenario.RunTraffic"].total.Seconds()
	rep.layers["traffic.steps"] = float64(steps)
	rep.layers["traffic.arrivals"] = float64(arrivals)
	rep.layers["traffic.requests_evaluated"] = float64(evaluated)
	rep.layers["traffic.evals_per_arrival"] = ratio(float64(evaluated), float64(arrivals))
	rep.layers["admission.residual_s"] = residual.Seconds()
	rep.layers["ndjson.events"] = float64(events)
	rep.layers["ndjson.bytes"] = float64(ndjsonBytes)
	rep.layers["ndjson.ns_per_event"] = ratio(float64(by["telemetry.EventSink.WriteNDJSON"].total.Nanoseconds()), float64(events))

	build, err := timed(func() error {
		_, err := newInProcess(ip.p).cache(time.Hour)
		return err
	})
	if err != nil {
		return err
	}
	rep.layers["ephemeris.build_s"] = build

	// Overhead compares like with like: the spans of the calls the
	// untraced reference also made.
	var mirrored time.Duration
	for _, n := range []string{"qntn scenario assembly", "qntn.Scenario.Instrument", "qntn.Scenario.RunTraffic", "telemetry.EventSink.WriteNDJSON"} {
		if st := by[n]; st != nil {
			mirrored += st.total
		}
	}
	overhead := ratio(mirrored.Seconds(), refS)
	rep.layers["trace.overhead_ratio"] = overhead
	rep.layers["trace.unattributed_ratio"] = a.unattributedRatio(layerRoot)
	a.print(e.out, layerRoot, overhead)
	return tr.dump(spanPath(e))
}
