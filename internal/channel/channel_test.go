package channel

import (
	"math"
	"testing"
	"testing/quick"

	"qntn/internal/atmosphere"
)

func TestFiberTransmissivity(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: PaperFiberAttenuationDBPerKm}
	// 0.15 dB/km over 20 km = 3 dB, i.e. eta ≈ 0.501.
	got := f.Transmissivity(20e3)
	if math.Abs(got-0.5012) > 1e-3 {
		t.Fatalf("20 km transmissivity %g, want ≈0.501", got)
	}
	if f.Transmissivity(0) != 1 {
		t.Fatal("zero length should be lossless")
	}
	if f.Transmissivity(-5) != 1 {
		t.Fatal("negative length should clamp to lossless")
	}
}

func TestFiberMonotoneAndMultiplicative(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: 0.15}
	quickCfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(a, b float64) bool {
		la, lb := math.Abs(a)*1e4, math.Abs(b)*1e4
		// Transmissivities multiply over concatenated spans.
		lhs := f.Transmissivity(la + lb)
		rhs := f.Transmissivity(la) * f.Transmissivity(lb)
		return math.Abs(lhs-rhs) < 1e-12
	}, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFiberLengthForTransmissivity(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: 0.15}
	for _, eta := range []float64{0.9, 0.7, 0.5, 0.1} {
		l := f.LengthForTransmissivity(eta)
		if got := f.Transmissivity(l); math.Abs(got-eta) > 1e-9 {
			t.Errorf("inverse wrong at eta=%g: %g", eta, got)
		}
	}
	if !math.IsInf(f.LengthForTransmissivity(0), 1) {
		t.Error("eta=0 should need infinite fiber")
	}
	lossless := Fiber{AttenuationDBPerKm: 0}
	if !math.IsInf(lossless.LengthForTransmissivity(0.5), 1) {
		t.Error("lossless fiber never reaches eta<1")
	}
}

func TestFiberPaperThresholdDistance(t *testing.T) {
	// With 0.15 dB/km, the 0.7 transmissivity threshold corresponds to
	// about 10.3 km of fiber — comfortably longer than any intra-campus
	// link in Table I.
	f := Fiber{AttenuationDBPerKm: PaperFiberAttenuationDBPerKm}
	l := f.LengthForTransmissivity(0.7) / 1000
	if l < 9 || l < 0 || l > 12 {
		t.Fatalf("threshold distance %g km", l)
	}
}

func TestFiberValidate(t *testing.T) {
	if err := (Fiber{AttenuationDBPerKm: -1}).Validate(); err == nil {
		t.Error("negative attenuation accepted")
	}
	if err := (Fiber{AttenuationDBPerKm: math.NaN()}).Validate(); err == nil {
		t.Error("NaN attenuation accepted")
	}
	if err := (Fiber{AttenuationDBPerKm: math.Inf(1)}).Validate(); err == nil {
		t.Error("+Inf attenuation accepted")
	}
	if err := (Fiber{AttenuationDBPerKm: PaperFiberAttenuationDBPerKm}).Validate(); err != nil {
		t.Errorf("paper attenuation rejected: %v", err)
	}
}

func testFSO() FSOConfig {
	return FSOConfig{
		WavelengthM:        800e-9,
		TxApertureRadiusM:  0.6,
		RxApertureRadiusM:  0.6,
		ReceiverEfficiency: 0.995,
		Extinction:         atmosphere.Extinction{ZenithOpticalDepth: 0.015},
	}
}

func TestFSOValidate(t *testing.T) {
	good := testFSO()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []FSOConfig{
		{},
		{WavelengthM: 800e-9},
		{WavelengthM: 800e-9, TxApertureRadiusM: 0.6},
		{WavelengthM: 800e-9, TxApertureRadiusM: 0.6, RxApertureRadiusM: 0.6, ReceiverEfficiency: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	neg := good
	neg.PointingJitterRad = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*FSOConfig){
		"NaN wavelength":     func(c *FSOConfig) { c.WavelengthM = nan },
		"+Inf wavelength":    func(c *FSOConfig) { c.WavelengthM = inf },
		"NaN tx aperture":    func(c *FSOConfig) { c.TxApertureRadiusM = nan },
		"+Inf tx aperture":   func(c *FSOConfig) { c.TxApertureRadiusM = inf },
		"NaN rx aperture":    func(c *FSOConfig) { c.RxApertureRadiusM = nan },
		"+Inf rx aperture":   func(c *FSOConfig) { c.RxApertureRadiusM = inf },
		"NaN efficiency":     func(c *FSOConfig) { c.ReceiverEfficiency = nan },
		"NaN jitter":         func(c *FSOConfig) { c.PointingJitterRad = nan },
		"+Inf jitter":        func(c *FSOConfig) { c.PointingJitterRad = inf },
		"NaN waist":          func(c *FSOConfig) { c.TxWaistM = nan },
		"NaN optical depth":  func(c *FSOConfig) { c.Extinction.ZenithOpticalDepth = nan },
		"+Inf optical depth": func(c *FSOConfig) { c.Extinction.ZenithOpticalDepth = inf },
		"+Inf scale height":  func(c *FSOConfig) { c.Extinction.ScaleHeightM = inf },
	} {
		c := testFSO()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFSOBreakdownFactorsInRange(t *testing.T) {
	c := testFSO()
	err := quick.Check(func(rangeKM, elevDeg float64) bool {
		r := math.Mod(math.Abs(rangeKM), 2000)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return true
		}
		g := FSOGeometry{
			RangeM:       r*1e3 + 1,
			ElevationRad: math.Mod(math.Abs(elevDeg), 90) * math.Pi / 180,
			LoAltM:       0,
			HiAltM:       500e3,
		}
		if math.IsNaN(g.ElevationRad) {
			return true
		}
		b := c.Breakdown(g)
		in01 := func(x float64) bool { return x > 0 && x <= 1 }
		return in01(b.Diffraction) && in01(b.Atmospheric) && in01(b.Receiver) && in01(b.Total())
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFSOZeroRange(t *testing.T) {
	c := testFSO()
	b := c.Breakdown(FSOGeometry{})
	if b.Diffraction != 1 || b.Atmospheric != 1 {
		t.Fatalf("zero range should be lossless apart from η_eff, got %+v", b)
	}
	if math.Abs(b.Total()-c.ReceiverEfficiency) > 1e-12 {
		t.Fatalf("total %g, want η_eff", b.Total())
	}
}

func TestFSOMonotoneInRange(t *testing.T) {
	c := testFSO()
	prev := 2.0
	for _, rng := range []float64{100e3, 300e3, 500e3, 800e3, 1200e3, 2000e3} {
		eta := c.Transmissivity(FSOGeometry{RangeM: rng, ElevationRad: math.Pi / 2, LoAltM: 0, HiAltM: rng})
		if eta >= prev {
			t.Fatalf("transmissivity not decreasing at range %g", rng)
		}
		prev = eta
	}
}

func TestFSOMonotoneInElevation(t *testing.T) {
	// Fixed range, rising elevation → less atmosphere → higher eta.
	c := testFSO()
	prev := 0.0
	for deg := 5.0; deg <= 90; deg += 5 {
		eta := c.Transmissivity(FSOGeometry{RangeM: 600e3, ElevationRad: deg * math.Pi / 180, LoAltM: 0, HiAltM: 500e3})
		if eta <= prev {
			t.Fatalf("transmissivity not increasing at elevation %g°", deg)
		}
		prev = eta
	}
}

func TestFSOInterSatelliteLinkNoAtmosphere(t *testing.T) {
	c := testFSO()
	b := c.Breakdown(FSOGeometry{RangeM: 1000e3, ElevationRad: 0.05, LoAltM: 500e3, HiAltM: 500e3})
	if b.Atmospheric < 0.9999 {
		t.Fatalf("ISL should see no atmosphere, η_atm = %g", b.Atmospheric)
	}
}

func TestFSOTurbulenceDegrades(t *testing.T) {
	clear := testFSO()
	turb := testFSO()
	hv := atmosphere.HV57()
	turb.Turbulence = &hv
	g := FSOGeometry{RangeM: 700e3, ElevationRad: math.Pi / 6, LoAltM: 0, HiAltM: 500e3}
	etaClear := clear.Transmissivity(g)
	etaTurb := turb.Transmissivity(g)
	if etaTurb >= etaClear {
		t.Fatalf("turbulence should reduce transmissivity: %g vs %g", etaTurb, etaClear)
	}
	bt := turb.Breakdown(g)
	if bt.RytovVariance <= 0 || math.IsInf(bt.FriedParameterM, 1) {
		t.Fatalf("turbulence diagnostics missing: %+v", bt)
	}
}

func TestFSOPointingJitterDegrades(t *testing.T) {
	clear := testFSO()
	jitter := testFSO()
	jitter.PointingJitterRad = 2e-6
	g := FSOGeometry{RangeM: 700e3, ElevationRad: math.Pi / 4, LoAltM: 0, HiAltM: 500e3}
	if jitter.Transmissivity(g) >= clear.Transmissivity(g) {
		t.Fatal("pointing jitter should reduce transmissivity")
	}
}

func TestLinkPolicy(t *testing.T) {
	p := LinkPolicy{MinTransmissivity: 0.7, MinElevationRad: math.Pi / 9}
	if !p.Usable(0.8, math.Pi/4) {
		t.Error("good link rejected")
	}
	if p.Usable(0.69, math.Pi/4) {
		t.Error("low-eta link accepted")
	}
	if p.Usable(0.9, math.Pi/18) {
		t.Error("low-elevation link accepted")
	}
	if !p.Usable(0.7, math.Pi/9) {
		t.Error("boundary link should be accepted (inclusive)")
	}
}
