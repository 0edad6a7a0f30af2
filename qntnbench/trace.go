package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into the simulator's
// public functions. Spans live in memory until the run ends; a span's
// parent is whichever span was open when it began, and id ties the spans
// of one request or query together (-1 when none applies).
type tracer struct {
	start time.Time
	names []string
	layer []string // layer of each name
	spans []span
	open  []int32
}

type span struct {
	name       int32
	parent     int32
	id         int64
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// name registers a span name belonging to layer and returns its handle.
func (t *tracer) name(name, layer string) int32 {
	for i, n := range t.names {
		if n == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	t.layer = append(t.layer, layer)
	return int32(len(t.names) - 1)
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name int32, id int64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: time.Since(t.start)})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].end = time.Since(t.start)
	t.open = t.open[:len(t.open)-1]
}

// do wraps fn in a span.
func (t *tracer) do(name int32, id int64, fn func() error) error {
	s := t.begin(name, id)
	err := fn()
	t.end(s)
	return err
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	calls int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus direct children
}

// byName returns per-name call counts, total and self times.
func (t *tracer) byName() map[string]*nameStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*nameStats)
	for i, s := range t.spans {
		n := t.names[s.name]
		st := out[n]
		if st == nil {
			st = &nameStats{}
			out[n] = st
		}
		d := s.end - s.start
		st.calls++
		st.total += d
		st.self += d - child[i]
	}
	return out
}

// attribution is the per-layer table of one traced run: each layer's self
// time, calls and share of the traced wall time, plus moves that carve an
// estimated sub-layer out of a span that contains it.
type attribution struct {
	wall  time.Duration
	rows  map[string]*layerRow
	order []string
}

type layerRow struct {
	self      time.Duration
	calls     int
	estimated bool
}

// attribute folds the spans into layers. The root layer's self time is
// time the replay spent between calls — the unattributed remainder.
func (t *tracer) attribute(root string) *attribution {
	a := &attribution{rows: make(map[string]*layerRow)}
	stats := t.byName()
	for i, n := range t.names {
		st, ok := stats[n]
		if !ok {
			continue
		}
		layer := t.layer[i]
		if layer == root {
			a.wall += st.total
		}
		a.row(layer).self += st.self
		if layer != root {
			a.row(layer).calls += st.calls
		}
	}
	return a
}

func (a *attribution) row(layer string) *layerRow {
	r, ok := a.rows[layer]
	if !ok {
		r = &layerRow{}
		a.rows[layer] = r
		a.order = append(a.order, layer)
	}
	return r
}

// move re-attributes d of from's self time to the estimated layer to,
// which performs calls operations inside from's spans.
func (a *attribution) move(from, to string, d time.Duration, calls int) {
	if d > a.row(from).self {
		d = a.row(from).self
	}
	a.row(from).self -= d
	r := a.row(to)
	r.self += d
	r.calls += calls
	r.estimated = true
}

// unattributedRatio is the root layer's self time over the traced wall
// time.
func (a *attribution) unattributedRatio(root string) float64 {
	return ratio(a.row(root).self.Seconds(), a.wall.Seconds())
}

// print writes the table, layers by descending self time, the
// unattributed remainder last, followed by the tracing overhead.
func (a *attribution) print(w io.Writer, root string, overhead float64) {
	layers := make([]string, 0, len(a.order))
	for _, l := range a.order {
		if l != root {
			layers = append(layers, l)
		}
	}
	sort.SliceStable(layers, func(i, j int) bool { return a.rows[layers[i]].self > a.rows[layers[j]].self })
	fmt.Fprintf(w, "attribution (traced wall %.3f s)\n", a.wall.Seconds())
	fmt.Fprintf(w, "  %-42s %12s %10s %14s %7s\n", "layer", "self_s", "calls", "ns/call", "share")
	line := func(name string, r *layerRow) {
		label := name
		if r.estimated {
			label += " (est.)"
		}
		fmt.Fprintf(w, "  %-42s %12.4f %10d %14.0f %6.1f%%\n", label, r.self.Seconds(), r.calls,
			ratio(float64(r.self.Nanoseconds()), float64(r.calls)), 100*ratio(r.self.Seconds(), a.wall.Seconds()))
	}
	for _, l := range layers {
		line(l, a.rows[l])
	}
	line("unattributed remainder", a.row(root))
	fmt.Fprintf(w, "  trace.overhead_ratio %.4f (traced wall over untraced wall)\n", overhead)
}

// dump writes every span as CSV (gzip) to path, creating its directory.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "span,name,layer,parent,id,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%d,%d\n", i, t.names[s.name], t.layer[s.name], s.parent, s.id,
			s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a workload's traced run leaves its spans.
func spanPath(e *env) string {
	return filepath.Join(e.root, ".bench_build", "spans", e.workload+".csv.gz")
}
