package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host is the record printed ahead of every result, so a figure is never
// read without the machine and inputs that produced it.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    string `json:"seconds"`
	Traced     bool   `json:"traced"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostRecord(e *env) host {
	return host{
		Workload:   e.workload,
		Seed:       e.seed,
		Seconds:    e.seconds.String(),
		Traced:     e.traced,
		Nproc:      e.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commitOf(e.root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" off
// Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf resolves HEAD of the repository at root by reading .git
// directly; an exported tree without .git reports "unknown".
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak-resident-set tracking for this
// process, so the next peakRSSMB covers only what follows. Where the
// kernel refuses, peaks stay cumulative over the process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's peak resident set (VmHWM), falling back
// to the Go runtime's total mapped memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuSample reads the runtime's cumulative GC and total CPU seconds; the
// difference of two samples gives the GC share of an interval.
type cpuSample struct{ gc, total float64 }

func sampleCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func gcRatio(from, to cpuSample) float64 {
	if d := to.total - from.total; d > 0 {
		return (to.gc - from.gc) / d
	}
	return 0
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// repeatFor runs fn back to back until budget has elapsed, at least min
// times, and returns each run's wall time in seconds and the process's
// peak resident set during it, in MB. A run is not started once the budget
// is spent.
func repeatFor(budget time.Duration, min int, fn func() error) (secs, rssMB []float64, err error) {
	start := time.Now()
	for len(secs) < min || time.Since(start) < budget {
		resetPeakRSS()
		s, err := timed(fn)
		if err != nil {
			return secs, rssMB, err
		}
		secs = append(secs, s)
		rssMB = append(rssMB, peakRSSMB())
	}
	return secs, rssMB, nil
}

// printReps writes the spread of a run's repetitions ahead of the result.
func printReps(w io.Writer, name string, secs []float64) {
	fmt.Fprintf(w, "%s: %d timed repetitions, median %.4f s, min %.4f s, max %.4f s\n",
		name, len(secs), median(secs), quantile(secs, 0), quantile(secs, 1))
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
