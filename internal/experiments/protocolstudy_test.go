package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/telemetry"
)

// protocolStudyCellSequential is the reference driver for
// ProtocolStudyParallel: the cells run one after another, each as a
// ServeSweepParallel over the sizes followed by its hybrid RunServe, which
// writes straight into p.Telemetry. The pooled study must reproduce its
// rows, counters and event stream exactly.
func protocolStudyCellSequential(p qntn.Params, cfg qntn.ServeConfig, base protocol.Config, sizes []int, t2s []time.Duration, budgets []int, workers int) ([]ProtocolPoint, error) {
	cell := func(pc qntn.Params, point ProtocolPoint) ([]ProtocolPoint, error) {
		srv, err := qntn.ServeSweepParallel(pc, sizes, cfg, workers)
		if err != nil {
			return nil, err
		}
		var rows []ProtocolPoint
		for i := range sizes {
			r := point
			r.Architecture = qntn.SpaceGround.String()
			r.Satellites = sizes[i]
			r.ServedPercent = srv[i].Result.ServedPercent
			r.MeanFidelity = srv[i].Result.MeanFidelity
			r.MeanPathEta = srv[i].Result.MeanPathEta
			rows = append(rows, r)
		}
		sc, err := qntn.NewHybrid(protocolHybridRelays, pc)
		if err != nil {
			return nil, err
		}
		hyb, err := sc.RunServe(cfg)
		if err != nil {
			return nil, err
		}
		r := point
		r.Architecture = qntn.Hybrid.String()
		r.Satellites = protocolHybridRelays
		r.ServedPercent = hyb.ServedPercent
		r.MeanFidelity = hyb.MeanFidelity
		r.MeanPathEta = hyb.MeanPathEta
		return append(rows, r), nil
	}
	pp := p
	pp.Protocol = protocol.Config{}
	rows, err := cell(pp, ProtocolPoint{})
	if err != nil {
		return nil, err
	}
	for _, t2 := range t2s {
		for _, k := range budgets {
			pc := p
			pc.Protocol = base
			pc.Protocol.MemoryT2 = t2
			pc.Protocol.PurifyPaths = k
			if err := pc.Protocol.Validate(); err != nil {
				return nil, err
			}
			cellRows, err := cell(pc, ProtocolPoint{
				Enabled:     true,
				MemoryT2:    t2,
				SwapSuccess: pc.Protocol.SwapSuccess,
				PurifyPaths: pc.Protocol.Paths(),
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, cellRows...)
		}
	}
	return rows, nil
}

// studyTelemetry runs one protocol study driver under a fresh instrumented
// collector and returns its rows, its metrics and its flushed NDJSON
// event stream.
func studyTelemetry(t *testing.T, driver func(qntn.Params) ([]ProtocolPoint, error)) ([]ProtocolPoint, []telemetry.Metric, []byte) {
	t.Helper()
	col := &telemetry.Collector{Registry: telemetry.NewRegistry(), Events: telemetry.NewEventSink()}
	p := goldenParams()
	p.Telemetry = col
	rows, err := driver(p)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := col.Events.WriteNDJSON(&ndjson); err != nil {
		t.Fatal(err)
	}
	return rows, col.Registry.Snapshot(), ndjson.Bytes()
}

// TestProtocolStudyPoolMatchesCellSequential pins the one-pool study
// against the cell-sequential reference at several worker counts: the same
// rows, the same counter and histogram readings, and the same flushed
// event stream.
func TestProtocolStudyPoolMatchesCellSequential(t *testing.T) {
	cfg := goldenServeConfig()
	base := protocol.Config{SwapSuccess: 0.85, Seed: 5}
	sizes := []int{6, 24}
	t2s := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	budgets := []int{1, 3}
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wantRows, wantMetrics, wantEvents := studyTelemetry(t, func(p qntn.Params) ([]ProtocolPoint, error) {
				return protocolStudyCellSequential(p, cfg, base, sizes, t2s, budgets, workers)
			})
			gotRows, gotMetrics, gotEvents := studyTelemetry(t, func(p qntn.Params) ([]ProtocolPoint, error) {
				return ProtocolStudyParallel(p, cfg, base, sizes, t2s, budgets, workers)
			})
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("rows differ:\npool      %+v\nreference %+v", gotRows, wantRows)
			}
			if len(gotMetrics) != len(wantMetrics) {
				t.Fatalf("pool has %d metrics, reference %d", len(gotMetrics), len(wantMetrics))
			}
			counters := 0
			for i, g := range gotMetrics {
				w := wantMetrics[i]
				// The reference's hybrid observes straight into the study
				// histogram while the pool adds a shard's sum, so the
				// float sum may round differently; every count is exact.
				sumOK := math.Abs(g.Sum-w.Sum) <= 1e-9*math.Max(1, math.Abs(w.Sum))
				g.Sum, w.Sum = 0, 0
				if !sumOK || !reflect.DeepEqual(g, w) {
					t.Fatalf("metric %s: pool %+v, reference %+v", w.Name, gotMetrics[i], wantMetrics[i])
				}
				if g.Kind == "counter" && g.Value > 0 {
					counters++
				}
			}
			if counters < 5 {
				t.Fatalf("only %d nonzero counters; instrumentation not reached", counters)
			}
			if len(wantEvents) == 0 || !bytes.Equal(gotEvents, wantEvents) {
				t.Fatalf("event streams differ (%d vs %d bytes)", len(gotEvents), len(wantEvents))
			}
		})
	}
}

// TestProtocolStudyValidatesBeforeWork pins that a bad cell, size or serve
// config is rejected before any serve run starts: the instrumented study
// returns the error with no snapshot taken.
func TestProtocolStudyValidatesBeforeWork(t *testing.T) {
	base := protocol.Config{SwapSuccess: 0.85, Seed: 5}
	t2s := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	for _, tc := range []struct {
		name  string
		cfg   qntn.ServeConfig
		sizes []int
		t2s   []time.Duration
		want  string
	}{
		{"negative T2", goldenServeConfig(), []int{6, 24}, []time.Duration{10 * time.Millisecond, -time.Millisecond}, "t2=-1ms"},
		{"zero size", goldenServeConfig(), []int{6, 0}, t2s, "size 0"},
		{"oversized", goldenServeConfig(), []int{6, 114}, t2s, "114"},
		{"no requests", qntn.ServeConfig{Steps: 10, Seed: 1}, []int{6, 24}, t2s, "requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := &telemetry.Collector{Registry: telemetry.NewRegistry()}
			p := goldenParams()
			p.Telemetry = col
			_, err := ProtocolStudyParallel(p, tc.cfg, base, tc.sizes, tc.t2s, []int{1, 3}, 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
			if steps := col.Registry.Counter("snapshot_steps_total").Value(); steps != 0 {
				t.Fatalf("rejected after %d snapshot steps, want 0", steps)
			}
		})
	}
}

// BenchmarkProtocolStudy times the `qntnsim protocol` study (sizes 6–108
// plus the 12-relay hybrid, T2 × purification budget, swap success 0.85,
// 100 requests × 100 steps over a day) on one worker and on GOMAXPROCS.
func BenchmarkProtocolStudy(b *testing.B) {
	p := qntn.DefaultParams()
	cfg := qntn.ServeConfig{RequestsPerStep: 100, Steps: 100, Seed: 1}
	base := protocol.Config{SwapSuccess: 0.85, Seed: 5}
	sizes := []int{6, 24, 54, 108}
	t2s := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	budgets := []int{1, 2, 4}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProtocolStudyParallel(p, cfg, base, sizes, t2s, budgets, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
