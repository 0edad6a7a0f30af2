package qntn

import (
	"fmt"
	"time"
)

// SpeedOfLightMPerS is the vacuum speed of light used for heralding
// latency.
const SpeedOfLightMPerS = 299792458.0

// PathLengthM returns the summed straight-line hop length of a path at
// virtual time t.
func (sc *Scenario) PathLengthM(path []string, t time.Duration) (float64, error) {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		a := sc.Net.Node(path[i])
		b := sc.Net.Node(path[i+1])
		if a == nil || b == nil {
			return 0, fmt.Errorf("qntn: path references unknown node %q or %q", path[i], path[i+1])
		}
		total += a.PositionAt(t).Distance(b.PositionAt(t))
	}
	return total, nil
}

// HeraldingLatency models the time until both endpoints hold a confirmed
// pair: photons propagate outward over the path (L/c) and the classical
// heralding message travels back (another L/c), plus a fixed processing
// delay per hop.
func (sc *Scenario) HeraldingLatency(pathLengthM float64, hops int) time.Duration {
	prop := 2 * pathLengthM / SpeedOfLightMPerS
	latency := time.Duration(prop * float64(time.Second))
	latency += time.Duration(hops) * sc.Params.ProcessingDelayPerHop
	return latency
}
