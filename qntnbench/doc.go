// Command qntnbench is the repository's benchmark: four workloads of the
// QNTN simulator, each gated on correct output before any figure is
// reported, measured end to end with tracing off and attributed to layers
// in a separate traced run. Run it through run.sh, which builds it from
// the checkout:
//
//	bash qntnbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it record the host
// (nproc, GOMAXPROCS, CPU model, Go version, commit, workload seed), every
// correctness gate and, in the traced run, the attribution table.
//
// # Workloads
//
//   - paper-serve: the Fig. 7/8 sweep, ServeSweepParallel over the paper's
//     18 sizes, 100 requests × 100 steps over one day, stepped engine,
//     nproc workers. Dominated by all-pairs Bellman-Ford.
//   - protocol-serve: the `qntnsim protocol` study through
//     ProtocolStudyParallel (sizes 6/24/54/108 plus the 12-relay hybrid,
//     T2 10/50/200 ms, purification budgets 1/2/4, swap success 0.85). The
//     only workload where k-path extraction and the protocol math work.
//   - walker-coverage: daylong Scenario.Coverage on the 1008-satellite
//     Walker shell 1008/24/f@550:53 (f = seed mod 24) with the paper's
//     ground networks: 1039 nodes, almost all of the time in link
//     evaluation, candidate generation and on-demand propagation.
//   - daemon-traffic: an open-loop Poisson stream of POST /v1/traffic
//     queries to a qntn.Daemon on loopback, from one process with at most
//     nproc connections. The query deck has a fixed composition (per
//     horizon 30m/45m/1h: space-ground at 24/54/108 satellites and two
//     rates, one air-ground and one hybrid query, which bypass the
//     ephemeris cache); the seed draws its order and every query's
//     traffic seed.
//
// The seed is the only input: it is the request seed of the serve
// workloads, the Walker phasing of walker-coverage, and the deck order,
// query seeds and arrival schedule of daemon-traffic.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: median time to build the inputs before timing starts, over
//     several builds: ephemeris propagation and scenario assembly
//     (paper-serve, protocol-serve), NewWalker (walker-coverage), and
//     daemon start with its ephemeris cache warmed for the deck's horizons
//     (daemon-traffic).
//   - run_s: median wall time of one user-level operation, over the run's
//     repetitions: one sweep, one study, one coverage day, or — for
//     daemon-traffic — one query at the fixed low offered rate, timed from
//     its scheduled send to its last body byte.
//   - peak_rss_mb: peak resident memory of the process during one
//     repetition (one pass over the query deck for daemon-traffic), median
//     over the run's repetitions. The kernel's peak tracking is reset
//     before each repetition through /proc/self/clear_refs; a single
//     process-lifetime maximum swings by tens of percent with GC timing.
//
// # Per-layer metrics (--trace 1)
//
// The traced run first repeats the workload untraced (the reference for
// trace.overhead_ratio, runner.parallel_efficiency and
// runtime.gc_cpu_ratio), then runs the library's instrumented entry points
// at one and nproc workers for the deterministic counters, and finally
// replays the workload through the same public calls with a span around
// each. Counters come from Scenario.Instrument; they must be identical
// across worker counts, repeats and the replay. A metric of a layer the
// workload never calls reads 0. Estimated rows — work inside a library
// call that the benchmark cannot wrap — are marked "(est.)" in the
// attribution table: orbit propagation inside snapshots (positions × the
// measured PositionECEF cost), the protocol layer (protocol-on minus
// protocol-off RunServe), and snapshots inside RunTraffic (the replayed
// GraphInto calls). daemon-traffic's latency percentiles at both fixed
// rates and max_qps, the highest ladder rung whose p95 stays under
// latencyLimit with no failure and no growing backlog, are measured with
// tracing off inside the traced run.
//
// Spans are kept in memory and written at the end of the traced run to
// .bench_build/spans/<workload>.csv.gz.
package main
