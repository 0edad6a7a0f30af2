package atmosphere

import (
	"math"
	"testing"
	"testing/quick"
)

func TestColumnFraction(t *testing.T) {
	e := Extinction{ZenithOpticalDepth: 0.1}
	// Ground to space traverses essentially the whole column.
	if f := e.ColumnFraction(0, 500e3); f < 0.999 {
		t.Fatalf("ground-to-space fraction %g", f)
	}
	// A path entirely above 100 km sees essentially nothing.
	if f := e.ColumnFraction(100e3, 500e3); f > 1e-4 {
		t.Fatalf("exoatmospheric fraction %g", f)
	}
	// Ground to 30 km (HAP) still captures most of the column.
	if f := e.ColumnFraction(0, 30e3); f < 0.98 {
		t.Fatalf("ground-to-HAP fraction %g", f)
	}
	// Swapped arguments are handled.
	if e.ColumnFraction(30e3, 0) != e.ColumnFraction(0, 30e3) {
		t.Fatal("ColumnFraction not symmetric in argument order")
	}
}

func TestSlantOpticalDepthElevationScaling(t *testing.T) {
	e := Extinction{ZenithOpticalDepth: 0.1}
	zenith := e.SlantOpticalDepth(0, 500e3, math.Pi/2)
	if math.Abs(zenith-0.1) > 1e-3 {
		t.Fatalf("zenith depth %g, want ≈0.1", zenith)
	}
	at30 := e.SlantOpticalDepth(0, 500e3, math.Pi/6)
	if math.Abs(at30-2*zenith) > 1e-3 {
		t.Fatalf("30° depth %g, want ≈2x zenith", at30)
	}
	// Monotone decreasing with elevation.
	prev := math.Inf(1)
	for deg := 1.0; deg <= 90; deg++ {
		d := e.SlantOpticalDepth(0, 500e3, deg*math.Pi/180)
		if d > prev {
			t.Fatalf("optical depth not monotone at %g°", deg)
		}
		prev = d
	}
	// Grazing elevations stay finite (airmass cap).
	if d := e.SlantOpticalDepth(0, 500e3, 0); math.IsInf(d, 0) || d > 0.1*39 {
		t.Fatalf("horizontal depth %g", d)
	}
}

func TestTransmissionBounds(t *testing.T) {
	f := func(tau, lo, hi, elev float64) bool {
		e := Extinction{ZenithOpticalDepth: math.Abs(tau)}
		tr := e.Transmission(math.Abs(lo), math.Abs(hi), math.Mod(math.Abs(elev), math.Pi/2))
		return tr > 0 && tr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionNoAtmosphere(t *testing.T) {
	e := Extinction{ZenithOpticalDepth: 0}
	if tr := e.Transmission(0, 500e3, 0.1); tr != 1 {
		t.Fatalf("zero optical depth should give unit transmission, got %g", tr)
	}
}

func TestValidate(t *testing.T) {
	if err := (Extinction{ZenithOpticalDepth: -1}).Validate(); err == nil {
		t.Error("negative depth accepted")
	}
	if err := (Extinction{ScaleHeightM: -1}).Validate(); err == nil {
		t.Error("negative scale height accepted")
	}
	for _, e := range []Extinction{
		{ZenithOpticalDepth: math.NaN()},
		{ZenithOpticalDepth: math.Inf(1)},
		{ZenithOpticalDepth: 0.05, ScaleHeightM: math.NaN()},
		{ZenithOpticalDepth: 0.05, ScaleHeightM: math.Inf(1)},
	} {
		if err := e.Validate(); err == nil {
			t.Errorf("non-finite extinction %+v accepted", e)
		}
	}
	if err := (Extinction{ZenithOpticalDepth: 0.05}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHV57Profile(t *testing.T) {
	p := HV57()
	// Ground value dominated by the surface term.
	if c := p.Cn2(0); math.Abs(c-(1.7e-14+2.7e-16)) > 1e-16 {
		t.Fatalf("ground Cn² %g", c)
	}
	// Decreases from ground into the boundary layer.
	if p.Cn2(1000) >= p.Cn2(0) {
		t.Fatal("Cn² should fall with altitude near the ground")
	}
	// The tropopause bump from the wind term exists: Cn² at 10 km exceeds
	// Cn² at 30 km.
	if p.Cn2(10e3) <= p.Cn2(30e3) {
		t.Fatal("expected upper-atmosphere bump around 10 km")
	}
	// Negligible above 30 km.
	if p.Cn2(40e3) > 1e-19 {
		t.Fatalf("Cn² at 40 km %g should be negligible", p.Cn2(40e3))
	}
	// Negative altitude clamps.
	if p.Cn2(-10) != p.Cn2(0) {
		t.Fatal("negative altitude should clamp to ground")
	}
}

func TestIntegrateCn2(t *testing.T) {
	p := HV57()
	vertical := p.IntegrateCn2(0, 30e3, math.Pi/2)
	if vertical <= 0 {
		t.Fatal("vertical integral should be positive")
	}
	slant := p.IntegrateCn2(0, 30e3, math.Pi/6)
	if math.Abs(slant-2*vertical) > 1e-3*vertical {
		t.Fatalf("30° integral %g, want 2x vertical %g", slant, vertical)
	}
	if p.IntegrateCn2(10e3, 10e3, 1) != 0 {
		t.Fatal("degenerate path should integrate to zero")
	}
	if p.IntegrateCn2(30e3, 0, 1) != p.IntegrateCn2(0, 30e3, 1) {
		t.Fatal("integral should not depend on altitude order")
	}
}

func TestRytovVariance(t *testing.T) {
	p := HV57()
	lambda := 800e-9
	// Zenith downlink Rytov variance for HV5/7 at 800 nm is well under 1
	// (weak turbulence) — standard result.
	zenith := p.RytovVariance(0, 500e3, math.Pi/2, lambda)
	if zenith <= 0 || zenith > 1 {
		t.Fatalf("zenith Rytov variance %g, want weak (0,1]", zenith)
	}
	// Grows as elevation falls.
	low := p.RytovVariance(0, 500e3, math.Pi/9, lambda)
	if low <= zenith {
		t.Fatal("Rytov variance should grow at low elevation")
	}
	// Degenerate inputs.
	if p.RytovVariance(0, 0, 1, lambda) != 0 {
		t.Fatal("zero path should have zero variance")
	}
	if p.RytovVariance(0, 10e3, 1, 0) != 0 {
		t.Fatal("zero wavelength should return 0")
	}
}
