// Package metrics is the repo's unified metrics core: a dependency-free
// registry of counters, gauges and fixed-bucket histograms with Prometheus
// text exposition (text/plain; version=0.0.4). It replaces the ad-hoc
// counter structs that grew inside internal/serve and gives the runner,
// fleet and gate layers one place to publish operational counters.
//
// Design points, in the spirit of the trace and prof layers:
//
//   - zero dependencies: the exposition writer and the strict parser
//     (expfmt.go) are standard library only;
//   - hot-path updates are single atomics (Counter.Inc, Gauge.Add,
//     Histogram.Observe) — no locks after the series exists;
//   - label order is the declared order, and series export in sorted
//     label-value order, so consecutive scrapes differ only in values;
//   - Func variants (CounterFunc/GaugeFunc) sample external state at
//     scrape time, for values owned elsewhere (cache sizes, gate depth).
//
// A process-wide Default registry carries cross-cutting counters
// (runner_jobs_total, fleet_runs_total, ...); servers keep their own
// registry for per-instance families and write both on scrape.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the exposition format version this package writes,
// exactly as the scrape endpoint must serve it.
const ContentType = "text/plain; version=0.0.4"

// Kind is a family's metric type.
type Kind string

// The exposition types this registry produces.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Add shifts the value by d (atomic read-modify-write).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf bucket, a total count and a float64 sum.
type Histogram struct {
	bounds  []float64 // finite upper bounds, ascending
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the finite upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// family is one registered metric family.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string // declared label names; empty for scalar families

	fn func() float64 // Func families sample at scrape time

	bounds []float64 // histogram bucket bounds

	mu     sync.Mutex
	series map[string]*series
	// scalar families hold their single instrument directly:
	counter *Counter
	gauge   *Gauge
}

// series is one labelled child of a vector family.
type series struct {
	values  []string
	counter *Counter
	hist    *Histogram
}

// Registry holds metric families in registration order. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

// defaultRegistry carries process-wide counters (runner, fleet).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds a family, panicking on duplicate or invalid names —
// registration happens at construction time, so both are programmer
// errors the test suite catches immediately.
func (r *Registry) register(f *family) *family {
	if !nameOK(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !nameOK(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is sampled at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter, fn: fn})
}

// Gauge registers and returns a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn})
}

// CounterVec is a counter family with declared labels.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, kind: KindCounter,
		labels: labels, series: make(map[string]*series),
	})
	return &CounterVec{f: f}
}

// With returns the child counter for the label values (created on first
// use). The number of values must match the declared labels.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.f.child(values)
	return s.counter
}

// Each visits every child in sorted label-value order.
func (v *CounterVec) Each(fn func(values []string, count uint64)) {
	for _, s := range v.f.sorted() {
		fn(s.values, s.counter.Value())
	}
}

// HistogramVec is a histogram family with declared labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family with shared bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(&family{
		name: name, help: help, kind: KindHistogram, bounds: append([]float64(nil), bounds...),
		labels: labels, series: make(map[string]*series),
	})
	return &HistogramVec{f: f}
}

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.f.child(values)
	return s.hist
}

// Each visits every child in sorted label-value order.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	for _, s := range v.f.sorted() {
		fn(s.values, s.hist)
	}
}

// child returns (creating on first use) the series for the label values.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// sorted returns the children in sorted label-value order.
func (f *family) sorted() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// formatValue renders a sample value: integral floats in plain notation
// (counters read as integers), everything else in Go's shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// labelPairs renders {a="x",b="y"} in declared-label order; extra appends
// further pairs (the histogram le label goes last).
func labelPairs(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// writeHistogram emits one labelset's cumulative buckets, sum and count.
func writeHistogram(w io.Writer, name string, names, values []string, h *Histogram) {
	var cum uint64
	counts := h.BucketCounts()
	for i, ub := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			labelPairs(names, values, "le", strconv.FormatFloat(ub, 'g', -1, 64)), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelPairs(names, values, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(names, values), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(names, values), h.Count())
}

// WriteText emits every family in registration order with one HELP and
// one TYPE line each, series in sorted label order — the strict grammar
// ParseExposition validates.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind)
		switch {
		case f.fn != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		case f.counter != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.gauge.Value()))
		default: // vector family
			for _, s := range f.sorted() {
				switch f.kind {
				case KindCounter:
					fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labels, s.values), s.counter.Value())
				case KindHistogram:
					writeHistogram(w, f.name, f.labels, s.values, s.hist)
				}
			}
		}
	}
}
