// Package obs is the observability substrate shared by every layer of
// the engine: lock-cheap cumulative counters and gauges, fixed-bucket
// latency histograms with quantile readout, and a registry that renders
// everything as expvar-style "name value" text for SHOW STATS, the
// server's STATS verb, and the benchmark harness.
//
// The design rule is that the hot path pays one atomic add and nothing
// else: components obtain *Counter / *Gauge / *Histogram pointers once,
// at construction, and bump them directly. The registry's mutex guards
// only registration and readout, which are cold.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing cumulative count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up or down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets are the upper bounds (inclusive) of the histogram's fixed
// buckets, in nanoseconds: 1us, 2us, 4us, ... doubling up to ~8.6s,
// plus a final catch-all. Powers of two keep Observe branch-free (a
// bit-length computation) and give ~2x resolution at every scale, which
// is enough for p50/p95/p99 readout on query latencies.
const (
	histBase    = 1000 // 1us floor, in ns
	histNumBkts = 24   // 1us << 23 ≈ 8.39s, then +Inf
)

// Histogram accumulates latency observations into fixed power-of-two
// buckets. Observe is wait-free: one atomic add into a bucket plus two
// for the sum/count pair.
type Histogram struct {
	buckets [histNumBkts + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total ns
	// unit names and scales the readouts; the registry sets it when it
	// creates the histogram, and it never changes.
	unit histUnit
}

// histUnit is what a histogram's integer observations count.
type histUnit struct {
	each string  // suffix of Each's readouts: _sum_ns, _p50_ns, ...
	prom string  // suffix of the Prometheus family name
	per  float64 // observations per Prometheus unit
}

var (
	unitNs    = histUnit{each: "_ns", prom: "_seconds", per: 1e9}
	unitMilli = histUnit{each: "_milli", prom: "", per: histBase}
)

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	units := n / histBase // full microseconds
	idx := 0
	for units > 0 && idx < histNumBkts {
		units >>= 1
		idx++
	}
	return idx
}

// BucketUpper returns the inclusive upper bound of bucket i, or a
// negative duration for the final catch-all bucket.
func BucketUpper(i int) time.Duration {
	if i >= histNumBkts {
		return -1
	}
	return time.Duration(histBase << i)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveRatio records one dimensionless ratio in thousandths, for a
// histogram made by Registry.RatioHistogram. Unlike the latency buckets
// these include their upper bound — exactly 1× lands in le=1, exactly
// 2× in le=2 — so a perfect estimate reads differently from one that
// is 1.9× off.
func (h *Histogram) ObserveRatio(x float64) {
	milli := int64(math.Ceil(x * histBase))
	h.buckets[bucketIndex(time.Duration(milli-1))].Add(1)
	h.count.Add(1)
	h.sum.Add(milli)
}

// Reset zeroes the histogram (SHOW STATS RESET). Not atomic against
// concurrent Observe — a sample landing mid-reset may survive or vanish,
// which is fine for a monitoring reset.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <=
// 1): the upper edge of the bucket holding the q-th sample. With no
// samples it returns 0. The catch-all bucket reports its lower edge.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histNumBkts + 1]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i >= histNumBkts {
				return time.Duration(histBase << (histNumBkts - 1))
			}
			return BucketUpper(i)
		}
	}
	return BucketUpper(histNumBkts - 1)
}

// HistogramSnapshot is a point-in-time readout of a Histogram.
type HistogramSnapshot struct {
	Count         int64
	Sum           time.Duration
	Mean          time.Duration
	P50, P95, P99 time.Duration
}

// Snapshot reads the histogram once and derives the common quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry names metrics for readout. Components register once at
// construction and then bump the returned pointers directly; Render and
// Each take the registry mutex but never touch any hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// samplers are cold callbacks that export counters maintained
	// elsewhere (e.g. the buffer pool's own atomics) without adding a
	// second increment to their hot paths.
	samplers []func(emit func(name string, value int64))
	// resetHooks run on Reset so components behind samplers (the buffer
	// pool, the WAL writer, the wait set) zero their own counters too.
	resetHooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Safe for concurrent use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, unitNs)
}

// RatioHistogram is Histogram for dimensionless ratios fed through
// ObserveRatio: Each reports it in thousandths (_mean_milli,
// _p50_milli, ...) and WritePrometheus under its bare name with le
// bounds of 1, 2, 4, ....
func (r *Registry) RatioHistogram(name string) *Histogram {
	return r.histogram(name, unitMilli)
}

func (r *Registry) histogram(name string, unit histUnit) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{unit: unit}
		r.histograms[name] = h
	}
	return h
}

// Sample registers a cold readout callback that contributes additional
// name/value pairs to Each and Render — the bridge for components that
// already keep their own atomic counters.
func (r *Registry) Sample(fn func(emit func(name string, value int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, fn)
}

// OnReset registers a callback invoked by Reset, after the registry's
// own metrics are zeroed. Components whose counters reach the readout
// through a sampler register one to participate in SHOW STATS RESET.
func (r *Registry) OnReset(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetHooks = append(r.resetHooks, fn)
}

// Reset zeroes every cumulative metric — counters and histograms — and
// runs the registered reset hooks, so experiments can measure deltas
// against a running server without restarting it (SHOW STATS RESET, the
// STATS RESET server verb). Gauges are left alone: they are
// instantaneous values (active sessions, open files) whose truth does
// not reset. Hooks run outside the registry mutex; they may take
// component locks of their own (the storage hook takes the shared
// statement lock), so do not call Reset while holding ShareLock.
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.histograms {
		h.Reset()
	}
	hooks := r.resetHooks
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Each calls fn for every metric in sorted name order. Histograms
// expand into _count, _sum_ns, _mean_ns, _p50_ns, _p95_ns, _p99_ns
// (ratio histograms: the same in thousandths, suffixed _milli).
func (r *Registry) Each(fn func(name string, value int64)) {
	r.mu.Lock()
	type kv struct {
		k string
		v int64
	}
	var rows []kv
	for name, c := range r.counters {
		rows = append(rows, kv{name, c.Load()})
	}
	for name, g := range r.gauges {
		rows = append(rows, kv{name, g.Load()})
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		unit := h.unit.each
		rows = append(rows,
			kv{name + "_count", s.Count},
			kv{name + "_sum" + unit, int64(s.Sum)},
			kv{name + "_mean" + unit, int64(s.Mean)},
			kv{name + "_p50" + unit, int64(s.P50)},
			kv{name + "_p95" + unit, int64(s.P95)},
			kv{name + "_p99" + unit, int64(s.P99)},
		)
	}
	samplers := r.samplers
	r.mu.Unlock()
	for _, s := range samplers {
		s(func(name string, value int64) {
			rows = append(rows, kv{name, value})
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	for _, row := range rows {
		fn(row.k, row.v)
	}
}

// Render writes the registry as expvar-compatible text: one
// "name value" pair per line, sorted by name.
func (r *Registry) Render(w io.Writer) {
	r.Each(func(name string, value int64) {
		fmt.Fprintf(w, "%s %d\n", name, value)
	})
}
