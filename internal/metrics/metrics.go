// Package metrics is the instrumentation substrate of the serving layer:
// counters, gauges, and latency histograms collected into a registry with a
// Prometheus-style text exposition. Like internal/resilience it is a leaf
// package (stdlib only, imports nothing from the repo), so the server, the
// caches, and the admission path can all report into it without import cycles.
//
// All metric types are safe for concurrent use. Func variants
// (NewCounterFunc, NewGaugeFunc) sample a callback at exposition time, which
// lets components that keep their own atomic counters (LRU caches, worker
// pools) surface them without double bookkeeping.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

// funcMetric samples a callback at exposition time.
type funcMetric struct {
	name, help, typ string
	fn              func() int64
}

func (f *funcMetric) metricName() string { return f.name }

func (f *funcMetric) write(w io.Writer) {
	writeHeader(w, f.name, f.help, f.typ)
	fmt.Fprintf(w, "%s %d\n", f.name, f.fn())
}

// DefaultLatencyBuckets covers the serving path's range: sub-millisecond
// cache hits up to multi-second cold customizations.
var DefaultLatencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// Histogram is a cumulative-bucket latency histogram (seconds).
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	mu         sync.Mutex
	counts     []int64 // one per bound, plus the +Inf overflow at the end
	count      int64
	sum        float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	writeHeader(w, h.name, h.help, "histogram")
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count)
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

type metric interface {
	metricName() string
	write(w io.Writer)
}

// Registry holds a named set of metrics and renders the text exposition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.metricName()]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", m.metricName()))
	}
	r.metrics[m.metricName()] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewCounterFunc registers a counter whose value is sampled from fn at
// exposition time.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(&funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers a gauge whose value is sampled from fn at
// exposition time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(&funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// NewHistogram registers and returns a histogram with the given ascending
// bucket upper bounds (nil = DefaultLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// WriteText renders every metric in name order (deterministic output).
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}
