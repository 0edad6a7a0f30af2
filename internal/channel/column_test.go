package channel

import (
	"math"
	"math/rand"
	"testing"

	"qntn/internal/atmosphere"
)

// refBreakdown is the FSO channel written out as one straight-line
// function: the column fraction, slant depth and η_atm are spelled out here
// rather than taken from the atmosphere package, so the hoisted-column
// entry points and the elevation skip are checked against an independent
// oracle.
func refBreakdown(c FSOConfig, g FSOGeometry) FSOBreakdown {
	b := FSOBreakdown{Receiver: c.ReceiverEfficiency, FriedParameterM: math.Inf(1)}
	if g.RangeM <= 0 {
		b.Diffraction = 1
		b.Atmospheric = 1
		b.BeamRadiusM = c.waist()
		return b
	}
	w0 := c.waist()
	zR := math.Pi * w0 * w0 / c.WavelengthM
	wd2 := w0 * w0 * (1 + (g.RangeM/zR)*(g.RangeM/zR))
	weff2 := wd2
	if c.Turbulence != nil {
		icn2 := c.Turbulence.IntegrateCn2(g.LoAltM, g.HiAltM, g.ElevationRad)
		if icn2 > 0 {
			k := 2 * math.Pi / c.WavelengthM
			r0 := math.Pow(0.423*k*k*icn2, -3.0/5.0)
			b.FriedParameterM = r0
			spread := 2 * c.WavelengthM * g.RangeM / (math.Pi * r0)
			weff2 += spread * spread
			b.RytovVariance = c.Turbulence.RytovVariance(g.LoAltM, g.HiAltM, g.ElevationRad, c.WavelengthM)
		}
	}
	if c.PointingJitterRad > 0 {
		j := c.PointingJitterRad * g.RangeM
		weff2 += 4 * j * j
	}
	b.BeamRadiusM = math.Sqrt(weff2)
	a := c.RxApertureRadiusM
	b.Diffraction = 1 - math.Exp(-2*a*a/weff2)
	b.Atmospheric = refTransmission(c.Extinction, refColumnFraction(c.Extinction, g.LoAltM, g.HiAltM), g.ElevationRad)
	return b
}

func refScaleHeight(e atmosphere.Extinction) float64 {
	if e.ScaleHeightM == 0 {
		return atmosphere.DefaultScaleHeightM
	}
	return e.ScaleHeightM
}

func refColumnFraction(e atmosphere.Extinction, loM, hiM float64) float64 {
	if hiM < loM {
		loM, hiM = hiM, loM
	}
	h := refScaleHeight(e)
	return math.Exp(-math.Max(0, loM)/h) - math.Exp(-math.Max(0, hiM)/h)
}

func refTransmission(e atmosphere.Extinction, frac, elevationRad float64) float64 {
	depth := 0.0
	if !(frac <= 0) {
		s := math.Sin(elevationRad)
		airmass := 38.0
		if s > 1.0/38.0 {
			airmass = 1 / s
		}
		depth = e.ZenithOpticalDepth * frac * airmass
	}
	return math.Exp(-depth)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBreakdown(a, b FSOBreakdown) bool {
	return sameBits(a.Diffraction, b.Diffraction) && sameBits(a.Atmospheric, b.Atmospheric) &&
		sameBits(a.Receiver, b.Receiver) && sameBits(a.BeamRadiusM, b.BeamRadiusM) &&
		sameBits(a.RytovVariance, b.RytovVariance) && sameBits(a.FriedParameterM, b.FriedParameterM)
}

// hoistedFraction is the column fraction the way a per-step cache forms
// it: one ColumnAbove per endpoint, subtracted in ColumnFraction's order.
func hoistedFraction(e atmosphere.Extinction, loM, hiM float64) float64 {
	colLo, colHi := e.ColumnAbove(loM), e.ColumnAbove(hiM)
	if hiM < loM {
		colLo, colHi = colHi, colLo
	}
	return colLo - colHi
}

// randomLink draws a configuration and geometry spanning the channel's
// regimes: ground, HAP and LEO endpoints in either order, zero and negative
// ranges and altitudes, grazing to zenith elevations, optional turbulence
// and pointing jitter, and non-default scale heights.
func randomLink(rng *rand.Rand) (FSOConfig, FSOGeometry) {
	c := testFSO()
	c.Extinction.ZenithOpticalDepth = []float64{0, 0.015, 0.2, rng.Float64()}[rng.Intn(4)]
	if rng.Intn(3) == 0 {
		c.Extinction.ScaleHeightM = 1000 + rng.Float64()*9000
	}
	if rng.Intn(3) == 0 {
		hv := atmosphere.HV57().Scaled(0.5 + rng.Float64()*4)
		c.Turbulence = &hv
	}
	if rng.Intn(3) == 0 {
		c.PointingJitterRad = rng.Float64() * 5e-6
	}
	alt := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return rng.Float64() * 3000 // ground
		case 1:
			return -rng.Float64() * 100 // below sea level
		case 2:
			return 20e3 + rng.Float64()*20e3 // HAP
		default:
			return 150e3 + rng.Float64()*1050e3 // LEO
		}
	}
	g := FSOGeometry{
		RangeM:       rng.Float64() * 3000e3,
		ElevationRad: (rng.Float64()*2 - 1) * math.Pi / 2,
		LoAltM:       alt(),
		HiAltM:       alt(),
	}
	switch rng.Intn(20) {
	case 0:
		g.RangeM = 0
	case 1:
		g.RangeM = -1
	case 2:
		g.HiAltM = g.LoAltM // frac == 0
	case 3:
		g.ElevationRad = 0 // airmass cap
	}
	return c, g
}

// TestBreakdownColumnMatchesReference: the hoisted-column entry points are
// bit-equal to Breakdown, Transmissivity and Extinction.Transmission and to
// the written-out oracle on random geometries, and whenever ElevationFree
// holds the result does not depend on the elevation passed.
func TestBreakdownColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	free := 0
	for trial := 0; trial < 20000; trial++ {
		c, g := randomLink(rng)
		want := refBreakdown(c, g)
		frac := hoistedFraction(c.Extinction, g.LoAltM, g.HiAltM)
		if !sameBits(frac, c.Extinction.ColumnFraction(g.LoAltM, g.HiAltM)) {
			t.Fatalf("trial %d: hoisted fraction %v != ColumnFraction %v", trial, frac, c.Extinction.ColumnFraction(g.LoAltM, g.HiAltM))
		}
		if got := c.BreakdownColumn(g, frac); !sameBreakdown(got, want) {
			t.Fatalf("trial %d: BreakdownColumn %+v != reference %+v\nconfig %+v\ngeometry %+v", trial, got, want, c, g)
		}
		if got := c.Breakdown(g); !sameBreakdown(got, want) {
			t.Fatalf("trial %d: Breakdown %+v != reference %+v\ngeometry %+v", trial, got, want, g)
		}
		if got, ref := c.BreakdownColumn(g, frac).Total(), c.Transmissivity(g); !sameBits(got, ref) || !sameBits(got, want.Total()) {
			t.Fatalf("trial %d: BreakdownColumn total %v, Transmissivity %v, reference %v", trial, got, ref, want.Total())
		}
		e := c.Extinction
		atm := refTransmission(e, frac, g.ElevationRad)
		if got := e.TransmissionColumn(frac, g.ElevationRad); !sameBits(got, atm) {
			t.Fatalf("trial %d: TransmissionColumn %v != reference %v", trial, got, atm)
		}
		if got := e.Transmission(g.LoAltM, g.HiAltM, g.ElevationRad); !sameBits(got, atm) {
			t.Fatalf("trial %d: Transmission %v != reference %v", trial, got, atm)
		}
		if !c.ElevationFree(frac) {
			continue
		}
		free++
		for _, elev := range []float64{0, math.Pi / 2, -math.Pi / 2, math.NaN(), rng.Float64()} {
			moved := g
			moved.ElevationRad = elev
			if got := c.BreakdownColumn(moved, frac); !sameBreakdown(got, want) {
				t.Fatalf("trial %d: ElevationFree(%v) but elevation %v changes the breakdown: %+v != %+v",
					trial, frac, elev, got, want)
			}
		}
	}
	if free == 0 {
		t.Fatal("no trial exercised the elevation-free path")
	}
}

// TestElevationFreeBoundary straddles the skip bound 2⁻⁵⁴/(τ·38) by a few
// ulps at several optical depths and at the airmass cap, where the skipped
// exponential is largest: on both sides, and at frac ≤ 0, TransmissionColumn
// must equal the oracle bit for bit, and the skip must engage exactly below
// the bound.
func TestElevationFreeBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	below, above := 0, 0
	for _, tau := range []float64{0.015, 0.2, 1, 3.7, 1e-3} {
		e := atmosphere.Extinction{ZenithOpticalDepth: tau}
		c := testFSO()
		c.Extinction = e
		bound := 0x1p-54 / (tau * 38)
		frac := bound
		for k := 0; k < 8; k++ {
			frac = math.Nextafter(frac, 0)
		}
		for k := 0; k < 16; k++ {
			frac = math.Nextafter(frac, 1)
			if c.ElevationFree(frac) {
				below++
				if !(tau*frac*38 < 0x1p-54) {
					t.Fatalf("τ=%v frac=%v: skip engaged at depth bound %v ≥ 2⁻⁵⁴", tau, frac, tau*frac*38)
				}
			} else {
				above++
			}
			for _, elev := range []float64{0, 1.0 / 38, 0.02, 0.5, math.Pi / 2, rng.Float64()} {
				want := refTransmission(e, frac, elev)
				if got := e.TransmissionColumn(frac, elev); !sameBits(got, want) {
					t.Fatalf("τ=%v frac=%v elev=%v: TransmissionColumn %v != reference %v", tau, frac, elev, got, want)
				}
				g := FSOGeometry{RangeM: 1500e3, ElevationRad: elev, LoAltM: 500e3, HiAltM: 550e3}
				wantB := refBreakdown(c, g)
				wantB.Atmospheric = want
				if got := c.BreakdownColumn(g, frac); !sameBreakdown(got, wantB) {
					t.Fatalf("τ=%v frac=%v elev=%v: BreakdownColumn %+v != reference %+v", tau, frac, elev, got, wantB)
				}
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("boundary sweep did not straddle the bound: %d below, %d above", below, above)
	}
	e := atmosphere.Extinction{ZenithOpticalDepth: 0.015}
	for _, frac := range []float64{0, math.Copysign(0, -1), -1e-300, -0.5} {
		if !e.ElevationFree(frac) {
			t.Fatalf("frac %v ≤ 0 is not elevation-free", frac)
		}
		if got, want := e.TransmissionColumn(frac, 0.3), refTransmission(e, frac, 0.3); !sameBits(got, want) {
			t.Fatalf("frac %v: TransmissionColumn %v != reference %v", frac, got, want)
		}
	}
	hv := atmosphere.HV57()
	turb := testFSO()
	turb.Turbulence = &hv
	if turb.ElevationFree(1e-30) {
		t.Fatal("a turbulent channel must never skip the elevation")
	}
	for _, frac := range []float64{math.NaN(), math.Inf(1)} {
		if e.ElevationFree(frac) {
			t.Fatalf("frac %v must take the full formula", frac)
		}
	}
}
