// Package channel implements the two optical channel models of the paper's
// Section III-A — fiber (Eq. 1) and free-space optical (Eq. 2) — plus the
// coupling of their transmissivities to the amplitude-damping channel of
// Eq. 3-4 and the transmissivity/elevation gating that decides whether a
// link exists.
package channel

import (
	"fmt"
	"math"
)

// PaperFiberAttenuationDBPerKm is the fiber attenuation coefficient used in
// the paper's evaluation (0.15 dB/km).
const PaperFiberAttenuationDBPerKm = 0.15

// Fiber models an optical fiber with exponential (Beer-Lambert) loss,
// the paper's Eq. (1). The attenuation coefficient is specified in dB/km as
// is conventional (and as the paper's cited 0.15 dB/km value implies), so
// transmissivity over length l is 10^(-alpha*l/10).
type Fiber struct {
	AttenuationDBPerKm float64
}

// Validate reports whether the configuration is physical: a finite,
// non-negative attenuation (NaN fails the comparison).
func (f Fiber) Validate() error {
	if !(f.AttenuationDBPerKm >= 0) || math.IsInf(f.AttenuationDBPerKm, 1) {
		return fmt.Errorf("channel: fiber attenuation %g dB/km is not a finite non-negative number", f.AttenuationDBPerKm)
	}
	return nil
}

// Transmissivity returns the channel transmissivity over lengthM meters.
func (f Fiber) Transmissivity(lengthM float64) float64 {
	if lengthM <= 0 {
		return 1
	}
	lossDB := f.AttenuationDBPerKm * lengthM / 1000
	return math.Pow(10, -lossDB/10)
}

// LengthForTransmissivity returns the fiber length (meters) at which the
// transmissivity drops to eta — the inverse of Transmissivity, useful for
// sizing network layouts in tests and examples.
func (f Fiber) LengthForTransmissivity(eta float64) float64 {
	if math.IsNaN(eta) || eta <= 0 || eta > 1 || f.AttenuationDBPerKm == 0 {
		return math.Inf(1)
	}
	lossDB := -10 * math.Log10(eta)
	return lossDB / f.AttenuationDBPerKm * 1000
}
