package qntn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/stats"
)

// ArrivalConfig parameterizes the arrival-driven experiment: entanglement
// requests arrive as a Poisson process and queue until their LAN pair is
// bridged — the operational view of the paper's "all requests are served
// while in range" assumption.
type ArrivalConfig struct {
	// RatePerHour is the mean Poisson arrival rate of inter-LAN requests.
	RatePerHour float64
	// Horizon is the simulated period.
	Horizon time.Duration
	Seed    int64
}

// DefaultArrivalConfig returns a moderate request load over one day.
func DefaultArrivalConfig() ArrivalConfig {
	return ArrivalConfig{RatePerHour: 120, Horizon: 24 * time.Hour, Seed: 1}
}

// ArrivalResult summarizes the arrival-driven run.
type ArrivalResult struct {
	Config ArrivalConfig
	// Arrivals counts generated requests; Served counts those delivered
	// within the horizon; the rest are censored in queue.
	Arrivals int
	Served   int
	// ServedImmediately counts requests delivered by the arrival handler
	// itself — the pair was bridged the moment the request arrived. The
	// classification is by serve site, not by zero wait: a queued request
	// drained at the exact instant it arrived also has zero wait but did
	// pass through the queue.
	ServedImmediately int
	// RequestsEvaluated counts admission attempts: one per arrival plus
	// one per queued request per drain — the unit the serve daemon's
	// throughput gauge reports.
	RequestsEvaluated int
	// Wait statistics over served requests.
	MeanWait time.Duration
	MaxWait  time.Duration
	// MeanFidelity at the moment of service.
	MeanFidelity float64
	// MaxQueueDepth is the largest number of requests simultaneously
	// waiting.
	MaxQueueDepth int
	// EventsProcessed counts discrete events (arrivals + topology
	// updates).
	EventsProcessed int
}

// ServedPercent returns the delivered fraction.
func (r *ArrivalResult) ServedPercent() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return 100 * float64(r.Served) / float64(r.Arrivals)
}

// queuedRequest is a waiting arrival.
type queuedRequest struct {
	req     netsim.Request
	arrived time.Duration
}

// admission is the batched request-scheduling core shared by RunArrivals
// and RunTraffic: the run's topology source (topology.go) refreshed at each
// update instant, a single-source Dijkstra memo valid until the next
// refresh, and the FIFO wait queue with its drain loop. Batching admission
// per topology update keeps the per-step cost amortized: the graph
// storage, the memo's slot table and scratch pool, the path buffer and the
// queue backing array are all reused across the run, so a warm admission
// step does not allocate.
type admission struct {
	sc    *Scenario
	graph *routing.Graph // the current topology, owned by the source
	cost  routing.CostFunc
	// The per-step memo: slot[v] indexes the pool scratch holding this
	// step's single-source result from dense node v, or is -1; the first
	// used entries of pool are this step's.
	slot  []int32
	pool  []routing.DijkstraScratch
	used  int
	path  []string // the current request's primary path
	queue []queuedRequest
	// ev evaluates each routed attempt; a request whose protocol attempt
	// fails stays queued and redraws at the next drain instant (PairKey
	// includes the evaluation time).
	ev    *evaluator
	proto evaluation // accumulated draw counters over the run

	served    int
	immediate int
	evaluated int // admission attempts: arrivals plus drain retries
	maxQueue  int
	maxWait   time.Duration
	waits     []float64 // seconds, in serve order
	fids      []float64 // fidelity at serve time, in serve order
	fidSum    float64
}

func newAdmission(sc *Scenario) *admission {
	return &admission{
		sc:   sc,
		cost: routing.InverseEtaCost(sc.Params.RoutingEpsilon),
		ev:   sc.newEvaluator(),
	}
}

// refresh installs the step's topology and empties the memo, keeping the
// slot table's and the pool's storage.
func (ad *admission) refresh(g *routing.Graph) {
	ad.graph = g
	n := g.NumNodes()
	if cap(ad.slot) < n {
		ad.slot = make([]int32, n)
	}
	ad.slot = ad.slot[:n]
	for i := range ad.slot {
		ad.slot[i] = -1
	}
	ad.used = 0
}

// route returns the memoized single-source result from dense node src on
// the current topology, running Dijkstra into the next pool scratch on a
// miss.
//
//qntn:hotpath once per admission attempt
func (ad *admission) route(src int) *routing.DijkstraScratch {
	if k := ad.slot[src]; k >= 0 {
		return &ad.pool[k]
	}
	if ad.used == len(ad.pool) {
		//qntn:coldpath amortized growth: the pool is reused across steps
		ad.pool = append(ad.pool, routing.DijkstraScratch{})
	}
	ds := &ad.pool[ad.used]
	ds.Run(ad.graph, src, ad.cost)
	ad.slot[src] = int32(ad.used)
	ad.used++
	return ds
}

// arrival is one request of an admission run's time-sorted arrival stream.
type arrival struct {
	at   time.Duration
	site int // RunTraffic's canonical site index, the merge tie-breaker
	req  netsim.Request
}

// updateGrid returns the topology-update grid of an admission run: one
// update every Params.TopologyStep from 0 through the horizon inclusive.
func (sc *Scenario) updateGrid(horizon time.Duration) sampleGrid {
	step := sc.Params.TopologyStep()
	return sampleGrid{gap: step, steps: int(horizon/step) + 1}
}

// run is the admission loop: a deterministic two-stream merge of the
// topology updates on grid with the time-sorted arrivals. Each update
// refreshes the topology, invalidates the routing memo and drains the
// queue, then calls onStep (when non-nil) with the update's step index,
// instant, snapshot stats and the number of arrivals admitted so far. At a
// time tie the update runs first — the order of the retired event-heap
// implementation, which enqueued every update before any arrival — so
// results are byte-identical to the reference in arrivals_ref_test.go.
func (ad *admission) run(grid sampleGrid, arrivals []arrival, onStep func(k int, at time.Duration, st *netsim.SnapshotStats, admitted int)) error {
	src, err := ad.sc.topology(grid)
	if err != nil {
		return err
	}
	defer src.Close()
	k, i := 0, 0
	for k < grid.steps || i < len(arrivals) {
		if k < grid.steps && (i >= len(arrivals) || grid.at(k) <= arrivals[i].at) {
			g, st, err := src.step(k)
			if err != nil {
				return err
			}
			at := grid.at(k)
			ad.refresh(g)
			if _, err := ad.drain(at); err != nil {
				return err
			}
			if onStep != nil {
				onStep(k, at, st, i)
			}
			k++
		} else {
			if err := ad.arrive(arrivals[i].at, arrivals[i].req); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// tryServe attempts to deliver q against the current topology. onArrival
// marks the serve site — true from the arrival handler, false from the
// drain loop — which is what the immediate classification reports. The
// route is the one routing.Dijkstra + PathTo would return, bit for bit,
// and an unknown endpoint fails with the same error.
//
//qntn:hotpath once per arrival and per queued request at every drain
func (ad *admission) tryServe(now time.Duration, q queuedRequest, onArrival bool) (bool, error) {
	ad.evaluated++
	src, ok := ad.graph.IndexOf(q.req.Src)
	if !ok {
		return false, fmt.Errorf("routing: unknown source %q", q.req.Src)
	}
	dst, ok := ad.graph.IndexOf(q.req.Dst)
	if !ok {
		return false, fmt.Errorf("routing: unknown destination %q", q.req.Dst)
	}
	sp := ad.route(src)
	if !sp.Reachable(dst) {
		return false, nil
	}
	ad.path = sp.PathInto(ad.path[:0], ad.graph, dst)
	e, err := ad.ev.evaluate(ad.graph, ad.path, q.req, now)
	if err != nil {
		return false, err
	}
	ad.proto.add(&e)
	if !e.served {
		// Swap chain or distillation failed: the request stays queued and
		// redraws at the next topology instant.
		return false, nil
	}
	wait := now - q.arrived
	ad.served++
	if onArrival {
		ad.immediate++
	}
	//qntn:coldpath amortized growth: one entry per served request
	ad.waits = append(ad.waits, wait.Seconds())
	if wait > ad.maxWait {
		ad.maxWait = wait
	}
	//qntn:coldpath amortized growth: one entry per served request
	ad.fids = append(ad.fids, e.fidelity)
	ad.fidSum += e.fidelity
	return true, nil
}

// arrive admits one new request: served on the spot or appended to the
// wait queue.
func (ad *admission) arrive(now time.Duration, req netsim.Request) error {
	q := queuedRequest{req: req, arrived: now}
	ok, err := ad.tryServe(now, q, true)
	if err != nil {
		return err
	}
	if !ok {
		ad.queue = append(ad.queue, q)
		if len(ad.queue) > ad.maxQueue {
			ad.maxQueue = len(ad.queue)
		}
	}
	return nil
}

// drain retries every queued request against the refreshed topology,
// keeping the still-unroutable ones in FIFO order, and returns the number
// served.
func (ad *admission) drain(now time.Duration) (int, error) {
	before := ad.served
	remaining := ad.queue[:0]
	for _, q := range ad.queue {
		ok, err := ad.tryServe(now, q, false)
		if err != nil {
			return 0, err
		}
		if !ok {
			remaining = append(remaining, q)
		}
	}
	ad.queue = remaining
	return ad.served - before, nil
}

// validate checks the arrival shape. The negated comparison rejects NaN,
// and an infinite rate would make every interarrival gap zero: either way
// the Poisson generator would never pass the horizon.
func (cfg ArrivalConfig) validate() error {
	if !(cfg.RatePerHour > 0) || math.IsInf(cfg.RatePerHour, 1) {
		return fmt.Errorf("qntn: arrival rate must be positive and finite, got %g", cfg.RatePerHour)
	}
	return nil
}

// RunArrivals executes the arrival-driven experiment: Poisson arrivals
// interleave with the periodic topology updates; each arrival is served
// against the most recent topology or queued, and every topology update
// drains the queue of newly reachable requests. All randomness is seeded;
// runs are reproducible.
func (sc *Scenario) RunArrivals(cfg ArrivalConfig) (*ArrivalResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	res := &ArrivalResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wl, err := NewWorkload(sc, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// Poisson arrival instants: exponential interarrivals, drawn in the
	// exact order the event-heap implementation drew them; requests come
	// from the workload's own generator in arrival order.
	meanGapS := 3600 / cfg.RatePerHour
	var arrivals []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGapS * float64(time.Second))
		if at >= cfg.Horizon {
			break
		}
		arrivals = append(arrivals, arrival{at: at, req: wl.Next()})
	}

	ad := newAdmission(sc)
	grid := sc.updateGrid(cfg.Horizon)
	if err := ad.run(grid, arrivals, nil); err != nil {
		return nil, err
	}

	res.Arrivals = len(arrivals)
	res.EventsProcessed = len(arrivals) + grid.steps
	res.Served = ad.served
	res.ServedImmediately = ad.immediate
	res.RequestsEvaluated = ad.evaluated
	res.MaxQueueDepth = ad.maxQueue
	res.MaxWait = ad.maxWait
	res.MeanWait = secs(stats.Mean(ad.waits))
	res.MeanFidelity = stats.Mean(ad.fids)
	return res, nil
}
