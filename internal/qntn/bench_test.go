package qntn

import (
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

func BenchmarkSnapshot108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Graph(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "Snapshot108", 1, allocs, bytes)
}

// BenchmarkSnapshotInto108Satellites measures the arena-reuse path: the
// same topology work as BenchmarkSnapshot108Satellites, but into one
// caller-owned graph — the steady state of RunServe and Coverage.
func BenchmarkSnapshotInto108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	g := routing.NewGraph()
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if err := sc.GraphInto(g, time.Duration(i)*30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "SnapshotInto108", 1, allocs, bytes)
}

// BenchmarkSnapshotInto108TelemetrySatellites is the enabled half of the
// telemetry overhead pair: the same steady-state loop as
// BenchmarkSnapshotInto108Satellites (the nil-sink baseline), but with a
// metrics-only collector attached, so BENCH_sweep.json documents the cost
// of instrumentation — a handful of atomic adds per step — next to the
// uninstrumented numbers.
func BenchmarkSnapshotInto108TelemetrySatellites(b *testing.B) {
	p := DefaultParams()
	p.Telemetry = &telemetry.Collector{Registry: telemetry.NewRegistry()}
	sc, err := NewSpaceGround(108, p)
	if err != nil {
		b.Fatal(err)
	}
	g := routing.NewGraph()
	var st netsim.SnapshotStats
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if err := sc.Net.SnapshotIntoStats(g, time.Duration(i)*30*time.Second, &st); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "SnapshotInto108Telemetry", 1, allocs, bytes)
}

func BenchmarkRoutesAirGround(b *testing.B) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(0); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "RoutesAirGround", 1, allocs, bytes)
}

func BenchmarkRoutes108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Routes(time.Duration(i) * 30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "Routes108", 1, allocs, bytes)
}

func BenchmarkCoverageHour108Satellites(b *testing.B) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m allocMeter
	m.start()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Coverage(time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	allocs, bytes := m.stop()
	recordSweepBench(b, "CoverageHour108", 1, allocs, bytes)
}

func BenchmarkPathFidelityBestSplit(b *testing.B) {
	etas := []float64{0.93, 0.88, 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PathFidelity(etas, SourceAtBestSplit)
	}
}

func BenchmarkPathFidelityExact(b *testing.B) {
	etas := []float64{0.93, 0.88, 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PathFidelityExact(etas, SourceAtBestSplit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotIntoWalker1k measures one steady-state snapshot of the
// full-mesh Walker 1008/24/1@550:53 constellation over the paper's ground
// networks (1039 nodes) at a fixed instant, into one reused graph: the
// per-step kernel of the walker-coverage workload (relay caches, candidate
// gather, link evaluation, graph assembly).
func BenchmarkSnapshotIntoWalker1k(b *testing.B) {
	shells, err := orbit.ParseWalkerShells("1008/24/1@550:53")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewWalker(WalkerSpec{Shells: shells}, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	g := routing.NewGraph()
	const at = 47 * time.Minute
	if err := sc.GraphInto(g, at); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.GraphInto(g, at); err != nil {
			b.Fatal(err)
		}
	}
}
