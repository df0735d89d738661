// Package obs is the unified observability layer: a zero-dependency
// metrics registry (counters, gauges, histogram families backed by
// internal/loadstats) with Prometheus text-format exposition, plus
// request tracing and an HTTP middleware that emits per-request
// structured log lines. Every serving tier (engine, WAL, replica,
// server, semproxy edge) records into it, and /metrics on both daemons
// renders from it — so /v1/stats, BENCH cross-checks, and an external
// Prometheus scrape all read the same source of truth.
//
// Layering: process-wide singletons (WAL, replica, engine hot paths)
// record into the Default registry; per-instance components that can
// coexist in one process (each server.Server, each proxy.Proxy) own
// their own Registry, and their /metrics handler renders the union of
// the instance registry and the default one. Gauges whose value belongs
// to one instance (current term, follower lag) register as GaugeFuncs
// with replace-on-register semantics, so the most recently constructed
// instance wins — exactly right for the daemons, and harmless for
// in-process test stacks.
//
// Histograms wrap loadstats.Hist (which is not safe for concurrent use)
// in a mutex; the log-linear layout bounds quantile error at ~1.6% and
// merging at exposition time stays exact. The registry hands back live
// handles — Inc/Add/Observe are lock-free (counters, gauges) or a
// single uncontended mutex (histograms), so hot paths never pay the
// name-lookup cost per operation.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadstats"
)

// Histogram sample units: samples are recorded as raw int64s and divided
// by the family's unit at exposition, so latency histograms record
// nanoseconds but expose seconds (the Prometheus convention) while count
// histograms (batch sizes) expose raw values.
const (
	Seconds = 1e9 // samples are nanoseconds; expose as seconds
	Units   = 1   // samples are dimensionless counts
)

// Label is one metric dimension. Keep label cardinality bounded: labels
// become map keys in the registry and time series in a scraper.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count — the accessor that lets api.ProxyStats
// render from the registry instead of a parallel set of atomics.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64. Safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a mutex-guarded loadstats.Hist: streaming log-linear
// buckets with exact min/max/sum. Exposed in Prometheus text as a
// summary (p50/p90/p99/p99.9 + _sum + _count) because the log-linear
// layout has far too many buckets for native histogram exposition.
type Histogram struct {
	mu   sync.Mutex
	h    *loadstats.Hist
	unit float64
}

// Observe records one raw sample (nanoseconds for latency families).
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Since records the time elapsed from start — the deferred one-liner for
// wrapping a hot path.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Summary snapshots the loadstats percentile slate (milliseconds for
// nanosecond samples) — the bridge the property tests use to compare
// registry histograms against direct loadstats math.
func (h *Histogram) Summary() loadstats.Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summarize()
}

// quantiles snapshots everything exposition needs in one critical section.
func (h *Histogram) quantiles() (count uint64, sum float64, qs [4]float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	count = h.h.Count()
	sum = float64(h.h.Sum()) / h.unit
	for i, q := range expQuantiles {
		qs[i] = float64(h.h.Quantile(q)) / h.unit
	}
	return count, sum, qs
}

var expQuantiles = [4]float64{0.5, 0.9, 0.99, 0.999}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is every child series sharing one metric name (one HELP/TYPE
// block in the exposition).
type family struct {
	name string
	help string
	kind kind
	unit float64 // histograms only

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry, or use Default for the process-wide registry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation (WAL, replica, engine) records into.
func Default() *Registry { return defaultRegistry }

// fam returns the family for name, creating it on first use and
// panicking on a kind or unit mismatch — re-registering the same name
// with a different shape is a programming error, not a runtime state.
func (r *Registry) fam(name, help string, k kind, unit float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: k, unit: unit,
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			gaugeFns: make(map[string]func() float64),
			hists:    make(map[string]*Histogram),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	if k == kindHistogram && f.unit != unit {
		panic(fmt.Sprintf("obs: histogram %q registered with unit %v, requested with %v", name, f.unit, unit))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
// Repeated calls with the same name and labels return the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.fam(name, help, kindCounter, 0)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// Gauge returns the settable gauge for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.fam(name, help, kindGauge, 0)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[key]
	if !ok {
		g = &Gauge{}
		f.gauges[key] = g
	}
	return g
}

// RegisterGaugeFunc registers a callback gauge evaluated at exposition
// time. Re-registering the same name+labels REPLACES the callback — the
// deliberate semantics for per-instance values (current term, follower
// lag): the most recently constructed instance owns the series.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.fam(name, help, kindGauge, 0)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.gauges, key)
	f.gaugeFns[key] = fn
}

// Histogram returns the histogram for name+labels, creating it on first
// use. unit is the divisor applied at exposition (Seconds for
// nanosecond samples, Units for counts).
func (r *Registry) Histogram(name, help string, unit float64, labels ...Label) *Histogram {
	f := r.fam(name, help, kindHistogram, unit)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[key]
	if !ok {
		h = &Histogram{h: loadstats.New(), unit: unit}
		f.hists[key] = h
	}
	return h
}

// labelKey renders labels in sorted-key order exactly as they appear
// inside the exposition braces — the canonical child identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := ""
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out
}
