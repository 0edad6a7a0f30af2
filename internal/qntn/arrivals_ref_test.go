package qntn

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/stats"
)

// runArrivalsReference is the retired event-heap implementation of
// RunArrivals, kept verbatim as the differential oracle for the pooled
// fast-path rewrite: fresh sc.Graph per topology update, refSimulator
// event ordering, per-update Dijkstra memo. The only additions are the
// RequestsEvaluated counter and serve-site immediate classification, both
// of which are provably identical to the old accounting under the heap's
// update-before-arrival tie order.
func runArrivalsReference(sc *Scenario, cfg ArrivalConfig) (*ArrivalResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	res := &ArrivalResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wl, err := NewWorkload(sc, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	sim := newRefSimulator()
	var simErr error

	var graph *routing.Graph
	var dijkstraMemo map[string]*routing.SingleSourceResult
	var queue []queuedRequest
	var waits, fids []float64

	refreshTopology := func(s *refSimulator) bool {
		g, err := sc.Graph(s.Now())
		if err != nil {
			simErr = err
			s.Stop()
			return false
		}
		graph = g
		dijkstraMemo = make(map[string]*routing.SingleSourceResult)
		return true
	}

	tryServe := func(now time.Duration, q queuedRequest, onArrival bool) (bool, error) {
		res.RequestsEvaluated++
		src := q.req.Src
		sp, ok := dijkstraMemo[src]
		if !ok {
			var err error
			sp, err = routing.Dijkstra(graph, src, routing.InverseEtaCost(sc.Params.RoutingEpsilon))
			if err != nil {
				return false, err
			}
			dijkstraMemo[src] = sp
		}
		if math.IsInf(sp.Dist[q.req.Dst], 1) {
			return false, nil
		}
		path, err := sp.PathTo(q.req.Dst)
		if err != nil {
			return false, err
		}
		etas, err := graph.EdgeEtas(path)
		if err != nil {
			return false, err
		}
		wait := now - q.arrived
		res.Served++
		if onArrival {
			res.ServedImmediately++
		}
		waits = append(waits, wait.Seconds())
		if wait > res.MaxWait {
			res.MaxWait = wait
		}
		fids = append(fids, PathFidelity(etas, sc.Params.FidelityModel))
		return true, nil
	}

	step := sc.Params.TopologyStep()
	if err := sim.ScheduleEvery(0, step, cfg.Horizon, "topology-update", func(s *refSimulator) {
		if !refreshTopology(s) {
			return
		}
		remaining := queue[:0]
		for _, q := range queue {
			ok, err := tryServe(s.Now(), q, false)
			if err != nil {
				simErr = err
				s.Stop()
				return
			}
			if !ok {
				remaining = append(remaining, q)
			}
		}
		queue = remaining
	}); err != nil {
		return nil, err
	}

	meanGapS := 3600 / cfg.RatePerHour
	for at := time.Duration(0); ; {
		gap := time.Duration(rng.ExpFloat64() * meanGapS * float64(time.Second))
		at += gap
		if at >= cfg.Horizon {
			break
		}
		if err := sim.Schedule(at, "arrival", func(s *refSimulator) {
			res.Arrivals++
			q := queuedRequest{req: wl.Next(), arrived: s.Now()}
			ok, err := tryServe(s.Now(), q, true)
			if err != nil {
				simErr = err
				s.Stop()
				return
			}
			if !ok {
				queue = append(queue, q)
				if len(queue) > res.MaxQueueDepth {
					res.MaxQueueDepth = len(queue)
				}
			}
		}); err != nil {
			return nil, err
		}
	}

	if err := sim.Run(cfg.Horizon); err != nil {
		return nil, err
	}
	if simErr != nil {
		return nil, simErr
	}
	res.MeanWait = secs(stats.Mean(waits))
	res.MeanFidelity = stats.Mean(fids)
	res.EventsProcessed = sim.Processed
	return res, nil
}

// TestRunArrivalsMatchesReference is the migration gate: the merged-loop
// fast path must reproduce the event-heap reference bit for bit — every
// counter, every wait and fidelity aggregate — across architectures,
// seeds, and a fault-decorated link model.
func TestRunArrivalsMatchesReference(t *testing.T) {
	faulted := DefaultParams()
	faulted.Fault.Seed = 11
	faulted.Fault.SatMTBF = 6 * time.Hour
	faulted.Fault.SatMTTR = 20 * time.Minute

	cases := []struct {
		name  string
		build func() (*Scenario, error)
		cfg   ArrivalConfig
	}{
		{
			name:  "air-ground",
			build: func() (*Scenario, error) { return NewAirGround(DefaultParams()) },
			cfg:   ArrivalConfig{RatePerHour: 240, Horizon: 90 * time.Minute, Seed: 3},
		},
		{
			name:  "space-ground-36",
			build: func() (*Scenario, error) { return NewSpaceGround(36, DefaultParams()) },
			cfg:   ArrivalConfig{RatePerHour: 90, Horizon: 2 * time.Hour, Seed: 7},
		},
		{
			name:  "space-ground-faulted",
			build: func() (*Scenario, error) { return NewSpaceGround(54, faulted) },
			cfg:   ArrivalConfig{RatePerHour: 120, Horizon: time.Hour, Seed: 21},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.RunArrivals(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runArrivalsReference(sc, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path diverged from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunArrivalsZeroStepInterval pins the cadence fallback: a zero
// StepInterval on hand-mutated params once fed the event heap a
// degenerate interval and errored out; it must fall back to the 30 s
// default through Params.TopologyStep like every other run path.
func TestRunArrivalsZeroStepInterval(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sc.Params.StepInterval = 0
	cfg := ArrivalConfig{RatePerHour: 120, Horizon: 30 * time.Minute, Seed: 4}
	res, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatalf("zero step interval should fall back, got error: %v", err)
	}
	// 30 s cadence over 30 min: 61 updates (0..horizon inclusive) plus the
	// arrivals.
	if got := res.EventsProcessed - res.Arrivals; got != 61 {
		t.Fatalf("expected 61 topology updates under the fallback cadence, got %d", got)
	}

	// The fallback must match an explicit 30 s interval bit for bit.
	sc.Params.StepInterval = 30 * time.Second
	want, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("fallback cadence diverged from explicit 30 s interval:\n got %+v\nwant %+v", res, want)
	}
}

// TestArrivalImmediateClassificationBoundary pins the serve-site
// classification on the case the old wait==0 predicate got wrong: a queued
// request drained at the exact instant it arrived has zero wait but was
// not served on arrival.
func TestArrivalImmediateClassificationBoundary(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	src := sc.GroundIDs[sc.LANs[0].Name][0]
	dst := sc.GroundIDs[sc.LANs[1].Name][0]

	ad := newAdmission(sc)
	at := 30 * time.Second
	g := routing.NewGraph()
	if err := sc.GraphInto(g, at); err != nil {
		t.Fatal(err)
	}
	ad.refresh(g)

	// A request that entered the queue at t and is drained at the same t:
	// zero wait, but served by the drain loop.
	ad.queue = append(ad.queue, queuedRequest{req: netsim.Request{ID: 1, Src: src, Dst: dst}, arrived: at})
	served, err := ad.drain(at)
	if err != nil {
		t.Fatal(err)
	}
	if served != 1 || ad.served != 1 {
		t.Fatalf("drain should serve the queued request, served %d", served)
	}
	if ad.maxWait != 0 || ad.waits[0] != 0 {
		t.Fatalf("boundary request should record zero wait, got %v", ad.maxWait)
	}
	if ad.immediate != 0 {
		t.Fatal("queued request drained at its arrival instant counted as immediate")
	}

	// The same pair served by the arrival handler is immediate.
	if err := ad.arrive(at, netsim.Request{ID: 2, Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	if ad.served != 2 || ad.immediate != 1 {
		t.Fatalf("arrival-handler serve should be immediate: served %d immediate %d", ad.served, ad.immediate)
	}
}

// The reference's event heap: the deterministic discrete-event executor
// that once drove the run loops, kept here verbatim (identifiers renamed)
// because runArrivalsReference depends on its exact ordering — time, then
// FIFO among simultaneous events.

// refEvent is a scheduled callback.
type refEvent struct {
	At   time.Duration
	Name string
	Fn   func(*refSimulator)
	seq  int
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refSimulator is a deterministic discrete-event executor over virtual time.
type refSimulator struct {
	now     time.Duration
	queue   refEventHeap
	nextSeq int
	stopped bool
	// Processed counts executed events (for diagnostics and tests).
	Processed int
}

// newRefSimulator returns a simulator at virtual time zero.
func newRefSimulator() *refSimulator {
	return &refSimulator{}
}

// Now returns the current virtual time.
func (s *refSimulator) Now() time.Duration { return s.now }

// Schedule enqueues fn to run at virtual time at. Scheduling in the past is
// an error.
func (s *refSimulator) Schedule(at time.Duration, name string, fn func(*refSimulator)) error {
	if at < s.now {
		return fmt.Errorf("netsim: cannot schedule %q at %v, now is %v", name, at, s.now)
	}
	if fn == nil {
		return fmt.Errorf("netsim: nil event function for %q", name)
	}
	heap.Push(&s.queue, &refEvent{At: at, Name: name, Fn: fn, seq: s.nextSeq})
	s.nextSeq++
	return nil
}

// ScheduleEvery enqueues fn at start, start+interval, ... up to and
// including end.
func (s *refSimulator) ScheduleEvery(start, interval, end time.Duration, name string, fn func(*refSimulator)) error {
	if interval <= 0 {
		return fmt.Errorf("netsim: non-positive interval %v for %q", interval, name)
	}
	for at := start; at <= end; at += interval {
		if err := s.Schedule(at, name, fn); err != nil {
			return err
		}
	}
	return nil
}

// Stop halts the run loop after the current event completes.
func (s *refSimulator) Stop() { s.stopped = true }

// Run executes events in time order until the queue empties, an event past
// `until` is reached (which remains queued), or Stop is called.
func (s *refSimulator) Run(until time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.At > until {
			break
		}
		heap.Pop(&s.queue)
		if next.At < s.now {
			return fmt.Errorf("netsim: event %q would move time backwards", next.Name)
		}
		s.now = next.At
		s.Processed++
		next.Fn(s)
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
	return nil
}

// Pending returns the number of queued events.
func (s *refSimulator) Pending() int { return len(s.queue) }

func TestSimulatorOrdersEvents(t *testing.T) {
	s := newRefSimulator()
	var order []string
	add := func(name string) func(*refSimulator) {
		return func(*refSimulator) { order = append(order, name) }
	}
	if err := s.Schedule(30*time.Second, "b", add("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(10*time.Second, "a", add("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(30*time.Second, "c", add("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("execution order %v", order)
	}
	if s.Now() != time.Minute {
		t.Fatalf("final time %v", s.Now())
	}
	if s.Processed != 3 {
		t.Fatalf("processed %d", s.Processed)
	}
}

func TestSimulatorSimultaneousEventsFIFO(t *testing.T) {
	s := newRefSimulator()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := s.Schedule(time.Second, "e", func(*refSimulator) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSimulatorRejectsPastEvents(t *testing.T) {
	s := newRefSimulator()
	if err := s.Schedule(time.Minute, "x", func(*refSimulator) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(time.Second, "past", func(*refSimulator) {}); err == nil {
		t.Fatal("past event accepted")
	}
	if err := s.Schedule(time.Minute, "nil", nil); err == nil {
		t.Fatal("nil event accepted")
	}
}

func TestSimulatorRunUntilLeavesFutureEvents(t *testing.T) {
	s := newRefSimulator()
	ran := 0
	for _, at := range []time.Duration{time.Second, time.Hour} {
		if err := s.Schedule(at, "e", func(*refSimulator) { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || s.Pending() != 1 {
		t.Fatalf("ran=%d pending=%d", ran, s.Pending())
	}
	// Resume.
	if err := s.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran=%d after resume", ran)
	}
}

func TestSimulatorStop(t *testing.T) {
	s := newRefSimulator()
	ran := 0
	_ = s.Schedule(time.Second, "a", func(sim *refSimulator) { ran++; sim.Stop() })
	_ = s.Schedule(2*time.Second, "b", func(*refSimulator) { ran++ })
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("stop did not halt the loop, ran=%d", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending=%d", s.Pending())
	}
}

func TestSimulatorEventsCanSchedule(t *testing.T) {
	s := newRefSimulator()
	var ticks []time.Duration
	var tick func(*refSimulator)
	tick = func(sim *refSimulator) {
		ticks = append(ticks, sim.Now())
		if sim.Now() < 90*time.Second {
			_ = sim.Schedule(sim.Now()+30*time.Second, "tick", tick)
		}
	}
	_ = s.Schedule(0, "tick", tick)
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 30 * time.Second, 60 * time.Second, 90 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v", ticks)
		}
	}
}

func TestScheduleEvery(t *testing.T) {
	s := newRefSimulator()
	n := 0
	if err := s.ScheduleEvery(0, 30*time.Second, 5*time.Minute, "step", func(*refSimulator) { n++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("step count %d, want 11", n)
	}
	if err := s.ScheduleEvery(0, 0, time.Minute, "bad", func(*refSimulator) {}); err == nil {
		t.Fatal("zero interval accepted")
	}
}
