package qntn

import (
	"strconv"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
	"qntn/internal/runner"
)

// evaluation is the verdict on one request attempt over a routed path.
type evaluation struct {
	// served reports whether an end-to-end pair was delivered (with the
	// protocol layer: at least one pair survived swapping and
	// distillation); fidelity is its root-convention fidelity when it was.
	served   bool
	fidelity float64
	// primaryEta is the end-to-end transmissivity of the primary route,
	// reported as the outcome's EndToEndEta.
	primaryEta float64
	// Protocol draw counters, for telemetry (zero with the layer off).
	swapAttempts   int
	swapFailures   int
	purifyRounds   int
	purifyAccepted int
}

// add accumulates another evaluation's draw counters.
func (e *evaluation) add(o *evaluation) {
	e.swapAttempts += o.swapAttempts
	e.swapFailures += o.swapFailures
	e.purifyRounds += o.purifyRounds
	e.purifyAccepted += o.purifyAccepted
}

// evaluator is the one request evaluator every serving loop shares:
// route hop etas → fidelity, through the entanglement-protocol layer when
// Params.Protocol enables it. All buffers are reused across requests, so
// the per-request evaluation is allocation-free after warm-up (asserted in
// protocol_alloc_test.go); one evaluator must therefore never be shared
// across goroutines — each sweep task builds its own, exactly like the
// Bellman-Ford scratch.
type evaluator struct {
	sc     *Scenario
	proto  bool // protocol layer enabled
	cfg    protocol.Config
	k      int
	ds     routing.DisjointScratch
	etaBuf []float64
	att    []float64
	key    []byte
}

// newEvaluator returns the run's request evaluator.
func (sc *Scenario) newEvaluator() *evaluator {
	p := sc.Params.Protocol
	return &evaluator{sc: sc, proto: p.Enabled(), cfg: p, k: p.Paths()}
}

// pairKey folds the request identity into the draw-seed task index over a
// reused buffer: the same bytes — "src|dst|id|atNanos" — that
// protocol.PairKey hashes, pinned equal by TestPairKeyMatchesBytesFold.
//
//qntn:hotpath once per protocol request evaluation
func (pe *evaluator) pairKey(req netsim.Request, at time.Duration) uint64 {
	b := pe.key[:0]
	b = append(b, req.Src...) //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, '|')        //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, req.Dst...) //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, '|')        //qntn:coldpath amortized growth: key buffer is reused
	b = strconv.AppendInt(b, int64(req.ID), 10)
	b = append(b, '|') //qntn:coldpath amortized growth: key buffer is reused
	b = strconv.AppendInt(b, int64(at), 10)
	pe.key = b
	return runner.FNV64aBytes(b)
}

// evaluate delivers one request routed over the primary path at topology
// instant at:
//
//  1. With the protocol layer off, and for zero-swap routes (a single
//     edge, e.g. same-LAN fiber) with it on, the request is served with the
//     FidelityModel's fidelity over the path's hop etas — no heralding
//     wait, no draws. A naive implementation that charged the 2L/c
//     heralding wait and a swap loop to a direct route would dephase pairs
//     that never sit in memory; the zero-hop regression test pins the
//     bypass.
//  2. Otherwise up to k internally-vertex-disjoint routes are extracted
//     (primary first). Each route attempts an elementary pair per hop,
//     connected by per-relay swaps whose success draws derive from
//     (Config.Seed, request identity, attempt, swap); the surviving
//     end-to-end pair dephases in T2 memories for the route's heralding
//     latency.
//  3. Surviving attempts are sorted best-first and distilled pairwise
//     (protocol.Distill); the request is served iff a pair survives.
//
// The scalar reference in oracletest reimplements the protocol pipeline
// naively (cloned graphs, map Dijkstra, verbatim formulas); the
// differential matrix pins the two DeepEqual-identical.
//
//qntn:hotpath once per admission attempt with a route
func (pe *evaluator) evaluate(g *routing.Graph, path []string, req netsim.Request, at time.Duration) (evaluation, error) {
	var out evaluation
	model := pe.sc.Params.FidelityModel
	if !pe.proto || len(path) <= 2 {
		etas, err := g.EdgeEtasInto(pe.etaBuf[:0], path)
		pe.etaBuf = etas
		if err != nil {
			return out, err
		}
		out.served = true
		out.fidelity = PathFidelity(etas, model)
		out.primaryEta = product(etas)
		return out, nil
	}
	chainSeed := protocol.ChainSeed(pe.cfg.Seed, pe.pairKey(req, at))
	paths, err := pe.ds.Extract(g, path, pe.k)
	if err != nil {
		return out, err
	}
	pe.att = pe.att[:0]
	for j, p := range paths {
		etas, err := g.EdgeEtasInto(pe.etaBuf[:0], p)
		pe.etaBuf = etas
		if err != nil {
			return out, err
		}
		if j == 0 {
			out.primaryEta = product(etas)
		}
		w := protocol.WernerFromRoot(PathFidelity(etas[:1], model))
		ok := true
		for s := 0; s+1 < len(etas); s++ {
			out.swapAttempts++
			if protocol.Draw(chainSeed, uint64(j), uint64(s)) >= pe.cfg.SwapSuccess {
				out.swapFailures++
				ok = false
				break
			}
			w = protocol.SwapWerner(w, protocol.WernerFromRoot(PathFidelity(etas[s+1:s+2], model)))
		}
		if !ok {
			continue
		}
		if len(etas) >= 2 {
			lengthM, err := pe.sc.PathLengthM(p, at)
			if err != nil {
				return out, err
			}
			w = protocol.DephaseWerner(w, pe.sc.HeraldingLatency(lengthM, len(etas)), pe.cfg.MemoryT2)
		}
		//qntn:coldpath amortized growth: the attempt buffer holds ≤ k entries
		pe.att = append(pe.att, w)
	}
	// Best-first stable ordering (insertion sort over the tiny attempt
	// buffer; ≤ k elements, no allocation).
	att := pe.att
	for i := 1; i < len(att); i++ {
		for j := i; j > 0 && att[j] > att[j-1]; j-- {
			att[j], att[j-1] = att[j-1], att[j]
		}
	}
	w, served, rounds, accepted := protocol.Distill(att, chainSeed)
	out.purifyRounds += rounds
	out.purifyAccepted += accepted
	if !served {
		return out, nil
	}
	out.served = true
	out.fidelity = protocol.RootFromWerner(w)
	return out, nil
}
