package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what every workload receives: the generated-input seed, the
// measuring budget, whether this is the traced run, and where the
// repository's golden files live.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string
	nproc    int
	out      io.Writer
}

// report is one workload's outcome. Gates lists the correctness checks
// that ran, each with its verdict; attempted and failed count every
// operation whose output was checked — gate checks and measured
// repetitions alike — and those whose output was wrong.
type report struct {
	gates     []gate
	attempted int
	failed    int
	setupS    []float64
	runS      float64
	peakRSS   float64
	layers    map[string]float64
}

type gate struct {
	name string
	ok   bool
}

func (r *report) check(name string, ok bool) {
	r.gates = append(r.gates, gate{name, ok})
	r.tally(ok)
}

// tally counts one checked operation.
func (r *report) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 15

// workloads maps each workload name to the function that runs it. The
// reason each exists is recorded in BENCHMARK.json.
var workloads = map[string]func(*env) (*report, error){
	"paper-serve":     runPaperServe,
	"protocol-serve":  runProtocolServe,
	"walker-coverage": runWalkerCoverage,
	"daemon-traffic":  runDaemonTraffic,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qntnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring budget of the run, in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload with spans and prints per-layer metrics; 0 prints end-to-end metrics")
	root := fs.String("root", ".", "repository root (holds docs/ and internal/ golden files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "qntnbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		root:     *root,
		nproc:    runtime.NumCPU(),
		out:      stdout,
	}
	host := hostRecord(e)
	fmt.Fprintf(stdout, "host %s\n", mustJSON(host))

	rep, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "qntnbench: %s: %v\n", *name, err)
		return 1
	}
	for _, g := range rep.gates {
		verdict := "ok"
		if !g.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(stdout, "gate %-58s %s\n", g.name, verdict)
	}
	res := result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	if e.traced {
		for _, m := range perLayerMetrics {
			if m.name == "runner.parallel_efficiency" && host.GOMAXPROCS == 1 {
				// A one-CPU "speedup" is noise; leave it out rather than
				// record it.
				continue
			}
			res.Metrics[m.name] = metricValue{rep.layers[m.name], m.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s":     median(rep.setupS),
			"run_s":       rep.runS,
			"peak_rss_mb": rep.peakRSS,
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are encoded
	}
	return string(b)
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics is every metric the untraced run prints, in
// BENCHMARK.json order.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics is every metric the traced run prints, in BENCHMARK.json
// order. A metric of a layer the workload does not exercise reads 0.
var perLayerMetrics = []metricSpec{
	{"ephemeris.build_s", "s"},
	{"orbit.positions", "count"},
	{"orbit.ns_per_position", "ns"},
	{"snapshot.calls", "count"},
	{"snapshot.ns_per_call", "ns"},
	{"snapshot.self_s", "s"},
	{"snapshot.pairs", "count"},
	{"snapshot.pairs_visited", "count"},
	{"snapshot.index_cull_ratio", "fraction"},
	{"snapshot.prefilter_rejects", "count"},
	{"snapshot.links_admitted", "count"},
	{"snapshot.admit_ratio", "fraction"},
	{"snapshot.ns_per_visited_pair", "ns"},
	{"coverage.bridge_ns_per_step", "ns"},
	{"coverage.covered_steps", "count"},
	{"routing.bf_calls", "count"},
	{"routing.bf_ns_per_call", "ns"},
	{"routing.bf_relax_rounds", "count"},
	{"routing.bf_self_s", "s"},
	{"routing.path_calls", "count"},
	{"routing.path_ns_per_call", "ns"},
	{"routing.dijkstra_calls", "count"},
	{"routing.dijkstra_ns_per_call", "ns"},
	{"routing.dijkstra_alloc_bytes_per_call", "bytes"},
	{"routing.extract_calls", "count"},
	{"routing.extract_ns_per_call", "ns"},
	{"fidelity.ns_per_request", "ns"},
	{"serve.reachable_ratio", "fraction"},
	{"protocol.overhead_s", "s"},
	{"protocol.swaps", "count"},
	{"protocol.swap_failures", "count"},
	{"protocol.purify_rounds", "count"},
	{"protocol.purify_accepted", "count"},
	{"protocol.purify_accept_ratio", "fraction"},
	{"traffic.run_s", "s"},
	{"traffic.steps", "count"},
	{"traffic.arrivals", "count"},
	{"traffic.requests_evaluated", "count"},
	{"traffic.evals_per_arrival", "ratio"},
	{"admission.residual_s", "s"},
	{"ndjson.events", "count"},
	{"ndjson.bytes", "bytes"},
	{"ndjson.ns_per_event", "ns"},
	{"http.overhead_ms", "ms"},
	{"daemon.alloc_bytes_per_query", "bytes"},
	{"daemon.cache_bypass_share", "fraction"},
	{"query_p50_ms.low", "ms"},
	{"query_p95_ms.low", "ms"},
	{"query_p50_ms.high", "ms"},
	{"query_p95_ms.high", "ms"},
	{"max_qps", "1/s"},
	{"gen.lag_p95_ms", "ms"},
	{"gen.backlog_max", "count"},
	{"runtime.gc_cpu_ratio", "fraction"},
	{"runner.parallel_efficiency", "fraction"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "fraction"},
}
