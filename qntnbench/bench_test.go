package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/qntn"
)

// smallServe is a serve workload small enough for unit tests.
func smallServe(seed int64) qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 20, Steps: 12, Horizon: orbit.Day, Seed: seed}
}

func TestReplayServeEqualsRunServe(t *testing.T) {
	p := qntn.DefaultParams()
	cfg := smallServe(3)
	scs, _, err := ephemerisSetup(p, cfg, []int{12, 108})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 4} {
		for _, sc := range scs {
			tr := newTracer()
			var cnt serveCounts
			got, err := replayServe(tr, newServeSpans(tr), sc, cfg, k, &cnt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.RunServe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameServe(got, *want) {
				t.Errorf("%d satellites, extract k=%d: replay %+v, RunServe %+v", len(sc.RelayIDs), k, got, *want)
			}
			if cnt.steps != cfg.Steps || cnt.requests != cfg.Steps*cfg.RequestsPerStep {
				t.Errorf("replay counted %d steps and %d requests", cnt.steps, cnt.requests)
			}
		}
	}
}

func TestReplayServeMatchesSweep(t *testing.T) {
	p := qntn.DefaultParams()
	cfg := smallServe(1)
	sizes := []int{6, 54}
	points, err := qntn.ServeSweepParallel(p, sizes, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	scs, _, err := ephemerisSetup(p, cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		tr := newTracer()
		got, err := replayServe(tr, newServeSpans(tr), sc, cfg, 0, &serveCounts{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameServe(got, points[i].Result) {
			t.Errorf("size %d: replay differs from ServeSweepParallel", sizes[i])
		}
	}
}

func TestReplayCoverageEqualsCoverage(t *testing.T) {
	shells, err := orbit.ParseWalkerShells("120/12/1@550:53")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := qntn.NewWalker(qntn.WalkerSpec{Shells: shells}, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{30 * time.Second, 3 * time.Hour} {
		want, err := sc.Coverage(d)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := replayCoverage(tr, newCoverageSpans(tr), sc, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*want, got) {
			t.Errorf("horizon %v: replay %+v, Coverage %+v", d, got, *want)
		}
	}
}

func TestDaemonBodiesEqualInProcess(t *testing.T) {
	p := qntn.DefaultParams()
	srv, err := startDaemon(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.close(); err != nil {
			t.Error(err)
		}
	}()
	deck := []qntn.TrafficQuery{
		{Arch: "space-ground", Satellites: 24, RatePerHourPerSite: 15, Horizon: "30m", Seed: 7},
		{Arch: "air-ground", RatePerHourPerSite: 15, Horizon: "30m", Seed: 8, DiurnalAmplitude: 0.5, PeakHour: 3},
		{Arch: "hybrid", Satellites: 6, RatePerHourPerSite: 15, Horizon: "30m", Seed: 9},
	}
	bodies, err := queryBodies(deck)
	if err != nil {
		t.Fatal(err)
	}
	ip := newInProcess(p)
	want := make([][]byte, len(deck))
	for i, q := range deck {
		r, err := ip.run(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.body
		status, body, err := srv.post(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || !bytes.Equal(body, want[i]) {
			t.Errorf("query %d: status %d, body equal %v", i, status, bytes.Equal(body, want[i]))
		}
	}
	ph := srv.openLoop(bodies, want, 20, 100*time.Millisecond, 1, 2)
	if ph.sent != len(deck) || ph.failed != 0 || len(ph.latencies) != ph.sent {
		t.Errorf("open loop sent %d, failed %d, timed %d", ph.sent, ph.failed, len(ph.latencies))
	}
	// A body that differs from the reference counts as a failure.
	wrong := [][]byte{[]byte("x"), want[1], want[2]}
	if ph := srv.openLoop(bodies, wrong, 20, 100*time.Millisecond, 1, 2); ph.failed != 1 {
		t.Errorf("mismatched body: %d failures, want 1", ph.failed)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricSpec, recorded []struct{ Name, Unit string }) {
		if len(code) != len(recorded) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(recorded))
		}
		seen := map[string]bool{}
		for i, m := range code {
			if !metricName.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if recorded[i].Name != m.name || recorded[i].Unit != m.unit {
				t.Errorf("%s %d: code %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, recorded[i].Name, recorded[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, spec.EndToEnd)
	check("per_layer", perLayerMetrics, spec.PerLayer)
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, got)
	}
}

func TestSeedReachesInputs(t *testing.T) {
	if paperServeConfig(7).Seed != 7 || cliProtocolStudy(7).cfg.Seed != 7 {
		t.Error("serve workloads ignore the seed")
	}
	spec1, _, err := walkerShells(1)
	if err != nil {
		t.Fatal(err)
	}
	spec2, _, err := walkerShells(2)
	if err != nil {
		t.Fatal(err)
	}
	if spec1 != "1008/24/1@550:53" || spec1 == spec2 {
		t.Errorf("walker specs %q, %q", spec1, spec2)
	}
	a, b := daemonMix(1), daemonMix(2)
	if !reflect.DeepEqual(a, daemonMix(1)) || reflect.DeepEqual(a, b) {
		t.Error("daemon mix is not a function of the seed alone")
	}
	s1 := poissonSchedule(6, 10*time.Second, len(a), 1)
	if !reflect.DeepEqual(s1, poissonSchedule(6, 10*time.Second, len(a), 1)) ||
		reflect.DeepEqual(s1, poissonSchedule(6, 10*time.Second, len(a), 2)) {
		t.Error("arrival schedule is not a function of the seed alone")
	}
	if len(s1)%len(a) != 0 {
		t.Errorf("schedule of %d sends is not whole passes over a %d-query deck", len(s1), len(a))
	}
}

func TestDeckComposition(t *testing.T) {
	count := func(deck []qntn.TrafficQuery) map[qntn.TrafficQuery]int {
		out := map[qntn.TrafficQuery]int{}
		for _, q := range deck {
			q.Seed = 0
			out[q]++
		}
		return out
	}
	if !reflect.DeepEqual(count(daemonMix(1)), count(daemonMix(99))) {
		t.Error("deck composition depends on the seed")
	}
}

func TestAttributionSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.name("root", layerRoot)
	outer := tr.name("outer", "a")
	inner := tr.name("inner", "b")
	r := tr.begin(root, -1)
	o := tr.begin(outer, 1)
	i := tr.begin(inner, 1)
	tr.end(i)
	tr.end(o)
	tr.end(r)
	// Fix the clock readings so the arithmetic is exact.
	tr.spans[r].start, tr.spans[r].end = 0, 100
	tr.spans[o].start, tr.spans[o].end = 10, 70
	tr.spans[i].start, tr.spans[i].end = 20, 50
	a := tr.attribute(layerRoot)
	if a.wall != 100 || a.row("a").self != 30 || a.row("b").self != 30 || a.row(layerRoot).self != 40 {
		t.Errorf("wall %v, self a %v b %v root %v", a.wall, a.row("a").self, a.row("b").self, a.row(layerRoot).self)
	}
	a.move("a", "est", 50, 3)
	if a.row("a").self != 0 || a.row("est").self != 30 || !a.row("est").estimated {
		t.Errorf("move: a %v est %v", a.row("a").self, a.row("est").self)
	}
	if got := a.unattributedRatio(layerRoot); got != 0.4 {
		t.Errorf("unattributed ratio %v, want 0.4", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 || median(nil) != 0 {
		t.Errorf("median %v", median(xs))
	}
}
