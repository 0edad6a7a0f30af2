package qntn

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// withinDeadline runs fn on its own goroutine and fails the test when fn
// has not returned within d or panicked, so a hang or a crash in the code
// under test is reported as a failure instead of stalling or killing the
// test binary.
func withinDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		if r != nil {
			t.Fatalf("panicked: %v", r)
		}
	case <-time.After(d):
		t.Fatalf("did not return within %v", d)
	}
}

// TestCoverageZeroStepInterval pins the cadence fallback of the coverage
// loops: a hand-set StepInterval of 0 once made stepped Coverage error,
// stepped DetailedCoverage loop forever and both event-driven variants
// divide by zero. On both engines both loops must fall back to
// Params.TopologyStep and reproduce the explicit 30 s run exactly.
func TestCoverageZeroStepInterval(t *testing.T) {
	const duration = 2 * time.Hour
	for _, eventDriven := range []bool{false, true} {
		p := DefaultParams()
		p.StepInterval = 30 * time.Second
		p.EventDriven = eventDriven
		sc, err := NewSpaceGround(12, p)
		if err != nil {
			t.Fatal(err)
		}
		wantCov, err := sc.Coverage(duration)
		if err != nil {
			t.Fatal(err)
		}
		wantDetail, err := sc.DetailedCoverage(duration)
		if err != nil {
			t.Fatal(err)
		}
		sc.Params.StepInterval = 0
		var gotCov *CoverageResult
		var gotDetail *CoverageDetail
		var covErr, detailErr error
		withinDeadline(t, time.Minute, func() {
			gotCov, covErr = sc.Coverage(duration)
			gotDetail, detailErr = sc.DetailedCoverage(duration)
		})
		if covErr != nil || detailErr != nil {
			t.Fatalf("eventDriven=%v: zero step interval should fall back, got %v / %v", eventDriven, covErr, detailErr)
		}
		if !reflect.DeepEqual(gotCov, wantCov) {
			t.Fatalf("eventDriven=%v: coverage diverged from the 30 s run\n got: %+v\nwant: %+v", eventDriven, gotCov, wantCov)
		}
		if !reflect.DeepEqual(gotDetail, wantDetail) {
			t.Fatalf("eventDriven=%v: detailed coverage diverged from the 30 s run\n got: %+v\nwant: %+v", eventDriven, gotDetail, wantDetail)
		}
	}
}

func TestAirGroundFullCoverage(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Coverage(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Percent(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("air-ground coverage %.2f%%, want 100%%", got)
	}
	if len(res.Intervals) != 1 {
		t.Fatalf("air-ground coverage should be one contiguous interval, got %d", len(res.Intervals))
	}
	if res.Intervals[0].Start != 0 || res.Intervals[0].End != time.Hour {
		t.Fatalf("interval %+v", res.Intervals[0])
	}
	if res.Steps != 120 || res.CoveredSteps != 120 {
		t.Fatalf("steps %d/%d", res.CoveredSteps, res.Steps)
	}
}

func TestSpaceGroundPartialCoverage(t *testing.T) {
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.Percent()
	if pct <= 0 || pct >= 100 {
		t.Fatalf("space-ground 2h coverage %.2f%% should be partial", pct)
	}
	// Interval bookkeeping must be self-consistent.
	var sum time.Duration
	for i, iv := range res.Intervals {
		if iv.End <= iv.Start {
			t.Fatalf("interval %d is degenerate: %+v", i, iv)
		}
		if i > 0 && iv.Start < res.Intervals[i-1].End {
			t.Fatalf("intervals overlap: %+v then %+v", res.Intervals[i-1], iv)
		}
		sum += iv.Duration()
	}
	if sum != res.Covered {
		t.Fatalf("interval sum %v != covered %v", sum, res.Covered)
	}
	if res.Covered != time.Duration(res.CoveredSteps)*sc.Params.StepInterval {
		t.Fatal("covered duration inconsistent with covered steps")
	}
}

func TestSmallConstellationLowCoverage(t *testing.T) {
	// 6 satellites cannot out-cover 108.
	p := DefaultParams()
	small, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	const window = 3 * time.Hour
	smallCov, err := small.Coverage(window)
	if err != nil {
		t.Fatal(err)
	}
	bigCov, err := big.Coverage(window)
	if err != nil {
		t.Fatal(err)
	}
	if smallCov.Percent() > bigCov.Percent() {
		t.Fatalf("6 sats cover %.2f%% > 108 sats %.2f%%", smallCov.Percent(), bigCov.Percent())
	}
}

func TestCoverageRejectsBadDuration(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Coverage(0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := sc.Coverage(-time.Hour); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestBridgedRequiresRelays(t *testing.T) {
	// With no relays the ground LANs are mutually isolated.
	p := DefaultParams()
	sc, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	// Find a time when no satellite covers Tennessee; scan for one.
	found := false
	for at := time.Duration(0); at < 12*time.Hour; at += 10 * time.Minute {
		g, err := sc.Graph(at)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Bridged(g) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("6-satellite constellation appears always bridged — implausible")
	}
}

func TestCoveragePercentZeroTotal(t *testing.T) {
	if (CoverageResult{}).Percent() != 0 {
		t.Fatal("zero-total coverage should report 0%")
	}
}

func TestIntervalDuration(t *testing.T) {
	iv := Interval{Start: time.Minute, End: 3 * time.Minute}
	if iv.Duration() != 2*time.Minute {
		t.Fatal("interval duration wrong")
	}
}
