// Package atmosphere models the optical properties of the atmosphere needed
// by the FSO channel: slant-path extinction through an exponential
// atmosphere (Beer-Lambert), and optical turbulence via the Hufnagel-Valley
// Cn² profile with the resulting Rytov variance and beam-spread statistics.
//
// The paper follows Ghalaii & Pirandola ("Quantum communications in a
// moderate-to-strong turbulent space") in decomposing FSO transmissivity as
// η = η_turb · η_atm · η_eff; this package supplies η_atm and the
// turbulence statistics behind η_turb.
package atmosphere

import (
	"fmt"
	"math"
	"sync"
)

// DefaultScaleHeightM is the exponential scale height of atmospheric
// extinction, in meters. Aerosol+molecular extinction decays with altitude
// roughly on this scale.
const DefaultScaleHeightM = 6600.0

// Extinction describes Beer-Lambert attenuation through an exponentially
// stratified atmosphere.
type Extinction struct {
	// ZenithOpticalDepth is the total optical depth looking straight up
	// from sea level (dimensionless). Transmission at zenith from the
	// ground to space is exp(-ZenithOpticalDepth).
	ZenithOpticalDepth float64
	// ScaleHeightM is the exponential decay height of the extinction
	// coefficient. Zero selects DefaultScaleHeightM.
	ScaleHeightM float64
}

// Validate reports whether the parameters are physical: a finite,
// non-negative optical depth and scale height. The comparisons are written
// so that NaN fails them.
func (e Extinction) Validate() error {
	if !(e.ZenithOpticalDepth >= 0) || math.IsInf(e.ZenithOpticalDepth, 1) {
		return fmt.Errorf("atmosphere: zenith optical depth %g is not a finite non-negative number", e.ZenithOpticalDepth)
	}
	if !(e.ScaleHeightM >= 0) || math.IsInf(e.ScaleHeightM, 1) {
		return fmt.Errorf("atmosphere: scale height %g is not a finite non-negative number", e.ScaleHeightM)
	}
	return nil
}

func (e Extinction) scaleHeight() float64 {
	if e.ScaleHeightM == 0 {
		return DefaultScaleHeightM
	}
	return e.ScaleHeightM
}

// maxAirmass caps the secant airmass at the horizontal limit for a curved
// atmosphere, keeping grazing-elevation depths finite.
const maxAirmass = 38.0

// negligibleDepth is 2⁻⁵⁴: for every optical depth d with 0 ≤ d < 2⁻⁵⁴,
// math.Exp(−d) is exactly 1 (see ElevationFree).
const negligibleDepth = 0x1p-54

// ColumnAbove returns exp(−max(0, altM)/H), the fraction of the total
// vertical extinction column lying above altitude altM. A caller that
// evaluates many paths from the same endpoints computes it once per
// endpoint; ColumnFraction is the difference of two such terms.
func (e Extinction) ColumnAbove(altM float64) float64 {
	return math.Exp(-math.Max(0, altM) / e.scaleHeight())
}

// ColumnFraction returns the fraction of the total vertical extinction
// column lying between altitudes loM and hiM (loM <= hiM). A path entirely
// above the atmosphere (both endpoints high) traverses almost none of the
// column; a ground-to-space path traverses almost all of it.
func (e Extinction) ColumnFraction(loM, hiM float64) float64 {
	if hiM < loM {
		loM, hiM = hiM, loM
	}
	return e.ColumnAbove(loM) - e.ColumnAbove(hiM)
}

// SlantOpticalDepth returns the optical depth along a straight path between
// altitudes loM and hiM at the given elevation angle (measured at the lower
// endpoint). The flat-atmosphere secant approximation is used, capped at an
// airmass of 38 (the horizontal limit for a curved atmosphere) to stay
// finite at grazing elevations.
func (e Extinction) SlantOpticalDepth(loM, hiM, elevationRad float64) float64 {
	return e.slantDepth(e.ColumnFraction(loM, hiM), elevationRad)
}

// slantDepth is SlantOpticalDepth for a path crossing column fraction frac.
func (e Extinction) slantDepth(frac, elevationRad float64) float64 {
	if frac <= 0 {
		return 0
	}
	s := math.Sin(elevationRad)
	airmass := maxAirmass
	if s > 1.0/maxAirmass {
		airmass = 1 / s
	}
	return e.ZenithOpticalDepth * frac * airmass
}

// Transmission returns exp(-SlantOpticalDepth) for the given geometry — the
// η_atm factor of the FSO channel.
func (e Extinction) Transmission(loM, hiM, elevationRad float64) float64 {
	return e.TransmissionColumn(e.ColumnFraction(loM, hiM), elevationRad)
}

// TransmissionColumn is Transmission for a path crossing column fraction
// frac, i.e. frac = ColumnFraction(loM, hiM): the one η_atm formula behind
// both Transmission and the FSO channel. The elevation is not read when
// ElevationFree(frac) holds.
func (e Extinction) TransmissionColumn(frac, elevationRad float64) float64 {
	if e.ElevationFree(frac) {
		return 1
	}
	return math.Exp(-e.slantDepth(frac, elevationRad))
}

// ElevationFree reports whether a path crossing column fraction frac has a
// transmission of exactly 1 at every elevation, so that the elevation need
// not be computed at all. It holds when frac ≤ 0 (the depth is 0) and when
// the largest possible depth, τ·frac·38, is in [0, 2⁻⁵⁴).
//
// Exactness: the depth is computed as (τ·frac)·airmass with airmass ≤ 38
// (1/s ≤ 38 whenever s > 1/38), and rounding is monotone, so the depth is
// at most the computed bound and lies in [0, 2⁻⁵⁴). Then exp(−d) lies in
// (1 − 2⁻⁵⁴, 1], whose nearest double is 1, and math.Exp returns exactly
// 1: its portable code returns 1 + x for |x| < 2⁻²⁸, and the amd64 and
// arm64 assembly kernels reduce such an argument to the same single
// rounding of 1 + x. NaN and negative bounds fail the test and take the
// full formula.
func (e Extinction) ElevationFree(frac float64) bool {
	if frac <= 0 {
		return true
	}
	bound := e.ZenithOpticalDepth * frac * maxAirmass
	return bound >= 0 && bound < negligibleDepth
}

// HufnagelValley is the standard HV model of the refractive-index structure
// parameter Cn²(h).
type HufnagelValley struct {
	// WindSpeedMS is the pseudo-wind (rms high-altitude wind speed), m/s.
	// The classic HV5/7 model uses 21 m/s.
	WindSpeedMS float64
	// GroundCn2 is Cn² at ground level in m^(-2/3). HV5/7 uses 1.7e-14.
	GroundCn2 float64
	// Scale multiplies the whole profile; zero means 1. Values above 1
	// model stronger-than-nominal turbulence (the ablation knob for the
	// paper's weather-sensitivity discussion).
	Scale float64
}

// Scaled returns a copy of the profile with the overall Scale multiplied
// by f.
func (p HufnagelValley) Scaled(f float64) HufnagelValley {
	s := p.Scale
	if s == 0 {
		s = 1
	}
	p.Scale = s * f
	return p
}

// HV57 returns the canonical Hufnagel-Valley 5/7 profile.
func HV57() HufnagelValley {
	return HufnagelValley{WindSpeedMS: 21, GroundCn2: 1.7e-14}
}

// Cn2 evaluates the profile at altitude hM meters.
func (p HufnagelValley) Cn2(hM float64) float64 {
	if hM < 0 {
		hM = 0
	}
	w := p.WindSpeedMS
	term1 := 0.00594 * math.Pow(w/27, 2) * math.Pow(hM*1e-5, 10) * math.Exp(-hM/1000)
	term2 := 2.7e-16 * math.Exp(-hM/1500)
	term3 := p.GroundCn2 * math.Exp(-hM/100)
	s := p.Scale
	if s == 0 {
		s = 1
	}
	return s * (term1 + term2 + term3)
}

// IntegrateCn2 integrates Cn² along a slant path from altitude loM to hiM at
// the given elevation angle, using Simpson's rule over altitude with the
// secant path-length factor. Returns ∫ Cn²(h(s)) ds in m^(1/3).
//
// The altitude integral is separable from the elevation factor, so it is
// memoized per (profile, loM, hiM): the network simulator evaluates the
// same two or three altitude pairs millions of times per sweep.
func (p HufnagelValley) IntegrateCn2(loM, hiM, elevationRad float64) float64 {
	if hiM < loM {
		loM, hiM = hiM, loM
	}
	if hiM == loM {
		return 0
	}
	s := math.Sin(elevationRad)
	if s < 0.02 {
		s = 0.02
	}
	v, _ := p.verticalIntegrals(loM, hiM)
	return v / s
}

// RytovVariance returns the weak-turbulence Rytov variance for a plane wave
// over a slant path from loM to hiM at the given elevation, for wavelength
// lambdaM. Values below ~1 indicate weak turbulence; values above ~1
// moderate-to-strong.
//
// σ_R² = 2.25 k^(7/6) ∫ Cn²(h) (h - h0)^(5/6) dh / sin^(11/6)(ε)
// (downlink form; a standard approximation for slant paths).
func (p HufnagelValley) RytovVariance(loM, hiM, elevationRad, lambdaM float64) float64 {
	if hiM < loM {
		loM, hiM = hiM, loM
	}
	if hiM == loM || lambdaM <= 0 {
		return 0
	}
	k := 2 * math.Pi / lambdaM
	s := math.Sin(elevationRad)
	if s < 0.02 {
		s = 0.02
	}
	_, weighted := p.verticalIntegrals(loM, hiM)
	return 2.25 * math.Pow(k, 7.0/6.0) * weighted / math.Pow(s, 11.0/6.0)
}

// vertKey memoizes vertical integrals; altitudes are quantized to 10 m,
// far finer than any effect on the result.
type vertKey struct {
	profile HufnagelValley
	lo, hi  int32
}

// vertVal carries both cached integrals.
type vertVal struct {
	plain    float64 // ∫ Cn²(h) dh
	weighted float64 // ∫ Cn²(h) (h-lo)^(5/6) dh
}

var vertCache sync.Map // vertKey -> vertVal

// verticalIntegrals returns (∫Cn² dh, ∫Cn² (h-lo)^(5/6) dh) over [loM, hiM]
// by Simpson's rule, memoized.
func (p HufnagelValley) verticalIntegrals(loM, hiM float64) (plain, weighted float64) {
	key := vertKey{profile: p, lo: int32(math.Round(loM / 10)), hi: int32(math.Round(hiM / 10))}
	if v, ok := vertCache.Load(key); ok {
		val := v.(vertVal)
		return val.plain, val.weighted
	}
	const steps = 400 // even
	dh := (hiM - loM) / steps
	var sumPlain, sumWeighted float64
	for i := 0; i <= steps; i++ {
		w := 2.0
		switch {
		case i == 0 || i == steps:
			w = 1.0
		case i%2 == 1:
			w = 4.0
		}
		h := loM + float64(i)*dh
		c := p.Cn2(h)
		sumPlain += w * c
		sumWeighted += w * c * math.Pow(h-loM, 5.0/6.0)
	}
	val := vertVal{plain: sumPlain * dh / 3, weighted: sumWeighted * dh / 3}
	vertCache.Store(key, val)
	return val.plain, val.weighted
}
