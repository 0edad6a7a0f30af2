package qntn

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/quantum/protocol"
)

func TestParamsJSONRoundTrip(t *testing.T) {
	orig := DefaultParams()
	orig.ProcessingDelayPerHop = 42 * time.Millisecond
	orig.RequireDarkness = true
	orig.TwilightRad = 0.2
	hv := atmosphere.HV57().Scaled(0.5)
	orig.Turbulence = &hv
	orig.FidelityModel = SourceAtEndpoint

	var buf bytes.Buffer
	if err := SaveParams(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.WavelengthM-orig.WavelengthM) > 1e-18 {
		t.Fatalf("wavelength %g vs %g", got.WavelengthM, orig.WavelengthM)
	}
	if got.SpaceBeamWaistM != orig.SpaceBeamWaistM ||
		got.TransmissivityThreshold != orig.TransmissivityThreshold {
		t.Fatal("optics fields drifted")
	}
	if math.Abs(got.MinElevationRad-orig.MinElevationRad) > 1e-12 {
		t.Fatalf("elevation %g vs %g", got.MinElevationRad, orig.MinElevationRad)
	}
	if got.StepInterval != orig.StepInterval || got.ProcessingDelayPerHop != orig.ProcessingDelayPerHop {
		t.Fatalf("durations drifted: %v/%v vs %v/%v", got.StepInterval, got.ProcessingDelayPerHop, orig.StepInterval, orig.ProcessingDelayPerHop)
	}
	if !got.RequireDarkness || math.Abs(got.TwilightRad-orig.TwilightRad) > 1e-12 {
		t.Fatal("darkness fields drifted")
	}
	if got.FidelityModel != SourceAtEndpoint {
		t.Fatal("fidelity model drifted")
	}
	if got.Turbulence == nil || got.Turbulence.Scale != 0.5 || got.Turbulence.GroundCn2 != hv.GroundCn2 {
		t.Fatalf("turbulence drifted: %+v", got.Turbulence)
	}
}

func TestParamsJSONNoTurbulence(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "turbulence") {
		t.Fatal("nil turbulence should be omitted")
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Turbulence != nil {
		t.Fatal("turbulence materialized from nothing")
	}
}

func TestLoadParamsRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"unknown field":  `{"wavelength_nm": 532, "bogus": 1}`,
		"unknown model":  `{"fidelity_model": "psychic"}`,
		"invalid params": `{"wavelength_nm": -5}`,
	}
	for name, in := range cases {
		if _, err := LoadParams(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadParamsDefaultsFidelityModel(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), `"fidelity_model": "source-at-best-split"`, `"fidelity_model": ""`, 1)
	got, err := LoadParams(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.FidelityModel != SourceAtBestSplit {
		t.Fatal("empty model should default to best-split")
	}
}

// TestParamsMemoryT2Retired pins the retired top-level memory_t2_s: memory
// noise lives only in the protocol block, so SaveParams no longer writes
// the field, LoadParams still accepts the 0 every earlier file carries,
// and a non-zero value is rejected with an error naming its replacement.
func TestParamsMemoryT2Retired(t *testing.T) {
	p := DefaultParams()
	p.Protocol = protocol.Config{MemoryT2: 20 * time.Millisecond, SwapSuccess: 0.9}
	var buf bytes.Buffer
	if err := SaveParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["memory_t2_s"]; ok {
		t.Fatalf("SaveParams wrote the top-level memory_t2_s:\n%s", buf.String())
	}
	if !strings.Contains(string(top["protocol"]), `"memory_t2_s"`) {
		t.Fatalf("protocol block lost its memory_t2_s:\n%s", buf.String())
	}

	buf.Reset()
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	withT2 := func(v string) string {
		return strings.Replace(buf.String(), `"step_interval_s"`, `"memory_t2_s": `+v+`, "step_interval_s"`, 1)
	}
	legacy, err := LoadParams(strings.NewReader(withT2("0")))
	if err != nil {
		t.Fatalf("file with the legacy zero memory_t2_s rejected: %v", err)
	}
	if ParamsHash(legacy) != ParamsHash(DefaultParams()) {
		t.Fatal("legacy zero memory_t2_s changed the loaded params")
	}
	_, err = LoadParams(strings.NewReader(withT2("0.01")))
	if err == nil || !strings.Contains(err.Error(), "protocol.memory_t2_s") {
		t.Fatalf("non-zero top-level memory_t2_s: got %v, want an error naming protocol.memory_t2_s", err)
	}
}
