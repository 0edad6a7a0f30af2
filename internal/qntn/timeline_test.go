package qntn

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/quantum/protocol"
)

// servedLatencies runs RunServe and returns the heralding latency of every
// served request's path at its serving instant (PathLengthM +
// HeraldingLatency, the latency study's columns), with the path lengths.
func servedLatencies(t *testing.T, sc *Scenario, cfg ServeConfig) (latencies []time.Duration, lengthsM []float64) {
	t.Helper()
	res, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Metrics.Outcomes {
		if !o.Served {
			continue
		}
		l, err := sc.PathLengthM(o.Path, o.At)
		if err != nil {
			t.Fatal(err)
		}
		lengthsM = append(lengthsM, l)
		latencies = append(latencies, sc.HeraldingLatency(l, len(o.Path)-1))
	}
	if len(latencies) == 0 {
		t.Fatal("nothing served")
	}
	return latencies, lengthsM
}

func meanDuration(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// TestIdealProtocolServesLikeRunServe pins what the latency study relies
// on: with ideal memories, deterministic swaps and no purification, the
// protocol layer serves exactly the requests protocol-off RunServe serves,
// over the same paths with the same transmissivities — only the fidelity
// model differs.
func TestIdealProtocolServesLikeRunServe(t *testing.T) {
	cfg := quickServeCfg()
	plainSc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainSc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Protocol = protocol.Config{SwapSuccess: 1, PurifyPaths: 1}
	protoSc, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := protoSc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if proto.ServedPercent != plain.ServedPercent || proto.MeanPathEta != plain.MeanPathEta {
		t.Fatalf("served %g%% eta %g vs %g%% eta %g", proto.ServedPercent, proto.MeanPathEta, plain.ServedPercent, plain.MeanPathEta)
	}
	for i, o := range proto.Metrics.Outcomes {
		if w := plain.Metrics.Outcomes[i]; o.Served != w.Served || !reflect.DeepEqual(o.Path, w.Path) {
			t.Fatalf("outcome %d: served %v path %v vs %v %v", i, o.Served, o.Path, w.Served, w.Path)
		}
	}
}

func TestServedPathLatencyPlausible(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	latencies, lengths := servedLatencies(t, sc, quickServeCfg())
	// Air-ground paths are ~150-170 km of optics; heralding is two
	// passes plus nothing else → roughly a millisecond.
	if mean := meanDuration(latencies); mean < 500*time.Microsecond || mean > 5*time.Millisecond {
		t.Fatalf("mean HAP latency %v implausible", mean)
	}
	for i, l := range lengths {
		if l < 100e3 || l > 400e3 {
			t.Fatalf("path length %g m implausible for air-ground", l)
		}
		if latencies[i] <= 0 {
			t.Fatal("served path without latency")
		}
	}
}

func TestServedPathLatencySpaceLargerThanAir(t *testing.T) {
	p := DefaultParams()
	air, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickServeCfg()
	airLat, _ := servedLatencies(t, air, cfg)
	spaceLat, _ := servedLatencies(t, space, cfg)
	// Satellites at 500+ km are necessarily farther than a 30 km HAP:
	// the paper's latency argument for the air-ground architecture.
	if meanDuration(spaceLat) <= meanDuration(airLat) {
		t.Fatalf("space latency %v not above air latency %v", meanDuration(spaceLat), meanDuration(airLat))
	}
}

func TestMemoryDecoherenceReducesFidelity(t *testing.T) {
	ideal := DefaultParams()
	ideal.Protocol = protocol.Config{SwapSuccess: 1, PurifyPaths: 1}
	lossy := ideal
	lossy.Protocol.MemoryT2 = 10 * time.Millisecond // comparable to ms-scale latency
	cfg := quickServeCfg()

	scIdeal, err := NewAirGround(ideal)
	if err != nil {
		t.Fatal(err)
	}
	scLossy, err := NewAirGround(lossy)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := scIdeal.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := scLossy.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rl.MeanFidelity >= ri.MeanFidelity {
		t.Fatalf("decoherence did not reduce fidelity: %g vs %g", rl.MeanFidelity, ri.MeanFidelity)
	}
	if rl.ServedPercent != ri.ServedPercent {
		t.Fatal("decoherence should not change reachability")
	}
}

func TestProcessingDelayAddsLatency(t *testing.T) {
	base := DefaultParams()
	delayed := DefaultParams()
	delayed.ProcessingDelayPerHop = 5 * time.Millisecond
	cfg := quickServeCfg()

	scBase, err := NewAirGround(base)
	if err != nil {
		t.Fatal(err)
	}
	scDelayed, err := NewAirGround(delayed)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := servedLatencies(t, scBase, cfg)
	rd, _ := servedLatencies(t, scDelayed, cfg)
	// Two hops → +10 ms.
	gap := meanDuration(rd) - meanDuration(rb)
	if gap < 9*time.Millisecond || gap > 11*time.Millisecond {
		t.Fatalf("processing delay contributed %v, want ≈10ms", gap)
	}
}

func TestPathLengthM(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ttu := sc.GroundIDs[NetworkTTU][0]
	ornl := sc.GroundIDs[NetworkORNL][0]
	l, err := sc.PathLengthM([]string{ttu, HAPID, ornl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// TTU→HAP ≈ 75 km, HAP→ORNL ≈ 80 km.
	if l < 130e3 || l > 200e3 {
		t.Fatalf("path length %g m", l)
	}
	if _, err := sc.PathLengthM([]string{ttu, "nope"}, 0); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestHeraldingLatency(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// 150 km path → 2·150e3/c ≈ 1.0007 ms.
	got := sc.HeraldingLatency(150e3, 2)
	seconds := 2 * 150e3 / SpeedOfLightMPerS
	want := time.Duration(seconds * float64(time.Second))
	if got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
}
