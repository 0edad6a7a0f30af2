package protocol_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"qntn/internal/quantum"
	"qntn/internal/quantum/protocol"
	"qntn/internal/runner"
)

const tol = 1e-9

// wernerOf returns the projection fidelity of WernerState(p): p + (1−p)/4.
func wernerOf(p float64) float64 { return p + (1-p)/4 }

// TestSwapWernerMatchesDensityMatrix pins the closed form against the exact
// Bell-measurement swap on Werner inputs: mixing parameters multiply.
func TestSwapWernerMatchesDensityMatrix(t *testing.T) {
	for _, p1 := range []float64{0, 0.2, 0.5, 0.8, 1} {
		for _, p2 := range []float64{0, 0.3, 0.7, 1} {
			avg, _, err := quantum.Swap(quantum.WernerState(p1), quantum.WernerState(p2))
			if err != nil {
				t.Fatalf("Swap(%g,%g): %v", p1, p2, err)
			}
			root := quantum.BellFidelity(avg)
			got := protocol.SwapWerner(wernerOf(p1), wernerOf(p2))
			if math.Abs(got-root*root) > tol {
				t.Errorf("SwapWerner(%g,%g) = %.12f, density matrix %.12f", p1, p2, got, root*root)
			}
		}
	}
}

// TestDephaseWernerMatchesStoreBellPair pins the closed form against the
// exact two-sided phase-damping channel on Werner inputs.
func TestDephaseWernerMatchesStoreBellPair(t *testing.T) {
	t2 := 50 * time.Millisecond
	for _, p := range []float64{0, 0.4, 0.75, 1} {
		for _, wait := range []time.Duration{0, time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
			stored, err := quantum.StoreBellPair(quantum.WernerState(p), wait, t2)
			if err != nil {
				t.Fatalf("StoreBellPair: %v", err)
			}
			root := quantum.BellFidelity(stored)
			got := protocol.DephaseWerner(wernerOf(p), wait, t2)
			if math.Abs(got-root*root) > tol {
				t.Errorf("DephaseWerner(p=%g, wait=%v) = %.12f, density matrix %.12f", p, wait, got, root*root)
			}
		}
	}
}

// TestPurifyWernerMatchesDensityMatrix pins the closed form — output
// fidelity AND postselection probability — against the exact recurrence
// circuit. On Werner inputs BBPSSW and DEJMPS coincide, so both schemes
// must match the same closed form.
func TestPurifyWernerMatchesDensityMatrix(t *testing.T) {
	for _, scheme := range []quantum.PurifyScheme{quantum.BBPSSW, quantum.DEJMPS} {
		for _, p1 := range []float64{0.1, 0.5, 0.8, 1} {
			for _, p2 := range []float64{0.2, 0.6, 1} {
				res, err := quantum.Purify(quantum.WernerState(p1), quantum.WernerState(p2), scheme)
				if err != nil {
					t.Fatalf("Purify(%v): %v", scheme, err)
				}
				out, pOK := protocol.PurifyWerner(wernerOf(p1), wernerOf(p2))
				exact := res.FidelityAfter * res.FidelityAfter
				if math.Abs(out-exact) > tol {
					t.Errorf("%v: PurifyWerner(%g,%g) fidelity = %.12f, circuit %.12f", scheme, p1, p2, out, exact)
				}
				if math.Abs(pOK-res.SuccessProbability) > tol {
					t.Errorf("%v: PurifyWerner(%g,%g) pSuccess = %.12f, circuit %.12f", scheme, p1, p2, pOK, res.SuccessProbability)
				}
			}
		}
	}
}

// TestDephaseWernerMonotoneInWait: fidelity never increases with storage
// time, reaches the input at wait 0, and stays in the Werner domain.
func TestDephaseWernerMonotoneInWait(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := 0.25 + 0.75*rng.Float64()
		t2 := time.Duration(1+rng.Intn(1000)) * time.Millisecond
		prev := protocol.DephaseWerner(w, 0, t2)
		if prev != w {
			t.Fatalf("DephaseWerner(%g, 0) = %g, want unchanged", w, prev)
		}
		for wait := time.Millisecond; wait < 10*time.Second; wait *= 4 {
			cur := protocol.DephaseWerner(w, wait, t2)
			if cur > prev+tol {
				t.Fatalf("fidelity increased with wait: %g -> %g at wait=%v", prev, cur, wait)
			}
			if cur < protocol.MinWernerFidelity-tol || cur > 1+tol {
				t.Fatalf("DephaseWerner out of range: %g", cur)
			}
			prev = cur
		}
	}
}

// TestSwapChainMonotoneInHops: composing one more swap never increases the
// chain fidelity, and the result stays in the Werner domain.
func TestSwapChainMonotoneInHops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		w := 0.25 + 0.75*rng.Float64()
		for hop := 0; hop < 12; hop++ {
			link := 0.25 + 0.75*rng.Float64()
			next := protocol.SwapWerner(w, link)
			if next > w+tol {
				t.Fatalf("fidelity increased across swap: %g -> %g (link %g)", w, next, link)
			}
			if next < protocol.MinWernerFidelity-tol || next > 1+tol {
				t.Fatalf("SwapWerner out of range: %g", next)
			}
			w = next
		}
	}
}

// TestPurifyWernerImprovesEqualInputs: one recurrence round on equal pairs
// above 1/2 strictly improves fidelity (the textbook BBPSSW threshold).
func TestPurifyWernerImprovesEqualInputs(t *testing.T) {
	for w := 0.51; w < 1.0; w += 0.02 {
		out, pOK := protocol.PurifyWerner(w, w)
		if out <= w {
			t.Errorf("PurifyWerner(%g,%g) = %g, want strict improvement", w, w, out)
		}
		if pOK <= 0 || pOK > 1+tol {
			t.Errorf("pSuccess %g outside (0,1] at w=%g", pOK, w)
		}
	}
	// At the fixed points there is no improvement.
	if out, _ := protocol.PurifyWerner(1, 1); out != 1 {
		t.Errorf("PurifyWerner(1,1) = %g, want 1", out)
	}
	if out, _ := protocol.PurifyWerner(0.25, 0.25); math.Abs(out-0.25) > tol {
		t.Errorf("PurifyWerner(0.25,0.25) = %g, want 0.25", out)
	}
}

// TestDistillNeverBelowBestInput: whenever every round of the schedule
// postselects successfully, the surviving fidelity is at least the best
// input — the schedule-level guarantee that raw recurrence (which can land
// below the better of two unequal inputs) does not give.
func TestDistillNeverBelowBestInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	allAccepted := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(5)
		att := make([]float64, n)
		for i := range att {
			att[i] = 0.5 + 0.5*rng.Float64()
		}
		// The schedule contract: caller sorts descending.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && att[j] > att[j-1]; j-- {
				att[j], att[j-1] = att[j-1], att[j]
			}
		}
		best := att[0]
		w, ok, rounds, accepted := protocol.Distill(att, int64(trial))
		if rounds < accepted {
			t.Fatalf("accepted %d > rounds %d", accepted, rounds)
		}
		if ok && (w < protocol.MinWernerFidelity-tol || w > 1+tol) {
			t.Fatalf("Distill out of range: %g", w)
		}
		if accepted == rounds {
			allAccepted++
			if !ok {
				t.Fatalf("all rounds accepted but no survivor")
			}
			if w < best-tol {
				t.Fatalf("Distill = %g below best input %g with all rounds accepted (att %v)", w, best, att)
			}
		}
	}
	if allAccepted < 200 {
		t.Fatalf("only %d/2000 trials had all-accepted schedules; draws suspiciously harsh", allAccepted)
	}
}

// TestDistillCounterexampleWithoutGuard documents why the schedule keeps
// max(output, bank): raw recurrence on very unequal inputs lands below the
// better input.
func TestDistillCounterexampleWithoutGuard(t *testing.T) {
	out, _ := protocol.PurifyWerner(0.99, 0.51)
	if out >= 0.99 {
		t.Fatalf("expected raw recurrence below best input, got %g", out)
	}
	if out < 0.7 || out > 0.8 {
		t.Fatalf("counterexample drifted: PurifyWerner(0.99, 0.51) = %g, expected ≈0.753", out)
	}
}

// TestDrawProperties: draws are deterministic in (seed, stream, index),
// land in [0,1), and distinct coordinates decorrelate.
func TestDrawProperties(t *testing.T) {
	seen := make(map[float64]bool)
	for stream := uint64(0); stream < 8; stream++ {
		for idx := uint64(0); idx < 8; idx++ {
			d := protocol.Draw(12345, stream, idx)
			if d < 0 || d >= 1 || math.IsNaN(d) {
				t.Fatalf("Draw(12345,%d,%d) = %g outside [0,1)", stream, idx, d)
			}
			if d != protocol.Draw(12345, stream, idx) {
				t.Fatalf("Draw not deterministic at (%d,%d)", stream, idx)
			}
			seen[d] = true
		}
	}
	if len(seen) < 60 {
		t.Fatalf("only %d/64 distinct draws; coordinates collide", len(seen))
	}
	if protocol.Draw(1, 0, 0) == protocol.Draw(2, 0, 0) {
		t.Fatalf("draws insensitive to seed")
	}
	// The reserved purification stream must not collide with small
	// path-attempt streams.
	if protocol.Draw(7, protocol.PurifyStream, 0) == protocol.Draw(7, 0, 0) {
		t.Fatalf("PurifyStream collides with attempt stream 0")
	}
}

// TestPairKeyMatchesBytesFold pins the allocation-free byte-buffer hash the
// serving fast path uses against the canonical Sprintf-based PairKey.
func TestPairKeyMatchesBytesFold(t *testing.T) {
	cases := []struct {
		src, dst string
		id       int
		at       int64
	}{
		{"or-gs", "mem-gs", 1, 0},
		{"a", "b", 42, 7_200_000_000_000},
		{"", "", 0, -1},
		{"x|y", "z", -3, math.MaxInt64},
	}
	for _, c := range cases {
		var buf []byte
		buf = append(buf, c.src...)
		buf = append(buf, '|')
		buf = append(buf, c.dst...)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(c.id), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, c.at, 10)
		if got, want := runner.FNV64aBytes(buf), protocol.PairKey(c.src, c.dst, c.id, c.at); got != want {
			t.Errorf("bytes fold %x != PairKey %x for %+v", got, want, c)
		}
	}
}

// TestRootWernerRoundTrip: the two convention conversions invert each other
// on the shared domain and clamp outside it.
func TestRootWernerRoundTrip(t *testing.T) {
	for f := 0.5; f <= 1.0; f += 0.01 {
		w := protocol.WernerFromRoot(f)
		if back := protocol.RootFromWerner(w); math.Abs(back-f) > tol {
			t.Errorf("round trip %g -> %g -> %g", f, w, back)
		}
	}
	if w := protocol.WernerFromRoot(math.NaN()); w != protocol.MinWernerFidelity {
		t.Errorf("WernerFromRoot(NaN) = %g, want floor", w)
	}
	if w := protocol.WernerFromRoot(2); w != 1 {
		t.Errorf("WernerFromRoot(2) = %g, want 1", w)
	}
	if r := protocol.RootFromWerner(0); r != 0.5 {
		t.Errorf("RootFromWerner(0) = %g, want clamp to 0.5", r)
	}
}

// TestConfigValidate covers the enabled/disabled split and each rejection.
func TestConfigValidate(t *testing.T) {
	if (protocol.Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if err := (protocol.Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	good := protocol.Config{MemoryT2: 10 * time.Millisecond, SwapSuccess: 0.5, PurifyPaths: 2, Seed: 9}
	if !good.Enabled() {
		t.Fatal("configured protocol reports disabled")
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	bad := []protocol.Config{
		{MemoryT2: -time.Second, SwapSuccess: 1},
		{SwapSuccess: 0, Seed: 1},
		{SwapSuccess: 1.5},
		{SwapSuccess: 1, PurifyPaths: -1},
		{SwapSuccess: 1, PurifyPaths: 1000},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, c)
		}
	}
	if got := (protocol.Config{SwapSuccess: 1}).Paths(); got != 1 {
		t.Errorf("Paths() = %d with zero budget, want 1", got)
	}
	if got := (protocol.Config{SwapSuccess: 1, PurifyPaths: 3}).Paths(); got != 3 {
		t.Errorf("Paths() = %d, want 3", got)
	}
}

// TestConfigValidateRejectsNaN: a NaN swap success probability fails
// every comparison, so only the negated in-range check rejects it.
func TestConfigValidateRejectsNaN(t *testing.T) {
	c := protocol.Config{SwapSuccess: math.NaN(), PurifyPaths: 2}
	if err := c.Validate(); err == nil {
		t.Fatalf("Validate accepted %+v", c)
	}
}

// TestChainSeedDistinctKeys: distinct pair keys derive distinct chain seeds
// (splitmix injectivity), and the same key replays identically.
func TestChainSeedDistinctKeys(t *testing.T) {
	seen := make(map[int64]string)
	for i := 0; i < 100; i++ {
		key := protocol.PairKey("src", "dst", i, int64(i)*1e9)
		s := protocol.ChainSeed(5, key)
		if s != protocol.ChainSeed(5, key) {
			t.Fatal("ChainSeed not deterministic")
		}
		id := fmt.Sprintf("%d", i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("chain seed collision between request %s and %s", prev, id)
		}
		seen[s] = id
	}
}
