// Package obs is the engine's one telemetry sink. The paper's Conquest
// engine chooses operator cloning and chunk sizes from runtime resource
// evidence (§4); the reproduction's re-optimizer, governor, and watchdog
// act on such evidence too. Every producer records into one
// concurrency-safe Registry: counters, gauges and fixed-bucket
// histograms labeled by stage (stream sources and stages, the engine,
// the distributed pool, the daemon), plus a bounded log of operator
// spans. One Registry renders one stable JSON run report, so a user can
// ask the system where time and memory went per stage, and the same
// spans draw the text timeline.
//
// Hot-path discipline: counters and gauges are single atomics, safe to
// bump from inside operators; histograms and spans take a mutex and
// must only be updated at chunk granularity (once per item a stage
// processes), never per point — the Lloyd loop itself stays
// allocation-free and instrumentation-free.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger — the high-water idiom
// used for queue depths and clone counts.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic instantaneous float64 (e.g. the last
// converged ΔMSE of a stage).
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (the busy-time idiom: per-item durations in seconds
// summed across clones).
func (g *FloatGauge) Add(delta float64) {
	for {
		cur := g.bits.Load()
		if g.bits.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 until first Set).
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observation v lands in the
// first bucket whose upper bound satisfies v <= bound, or in the
// overflow bucket. It is guarded by a mutex, which keeps every snapshot
// internally consistent (bucket counts always sum to Count); callers
// must therefore observe at chunk granularity, not per point.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64
	counts   []int64
	overflow int64
	count    int64
	sum      float64
	min, max float64
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. An empty bounds slice yields a histogram that only
// tracks count/sum/min/max.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot(name, stage string) HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Name:     name,
		Stage:    stage,
		Count:    h.count,
		Sum:      h.sum,
		Overflow: h.overflow,
		Buckets:  make([]BucketCount, len(h.bounds)),
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	for i, b := range h.bounds {
		s.Buckets[i] = BucketCount{LE: b, Count: h.counts[i]}
	}
	return s
}

// LatencyBuckets is the default per-chunk latency bucketing in seconds:
// log-spaced from 100µs to ~100s, wide enough for both toy cells and
// multi-minute partial steps.
func LatencyBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10, 25, 100}
}

// SizeBuckets is the default size bucketing (points per chunk):
// log-spaced powers of ten with a 2.5/5 split.
func SizeBuckets() []float64 {
	return []float64{10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000}
}

// metricKey identifies one metric instance: a family name plus the
// stage label ("" for run-global metrics).
type metricKey struct {
	name  string
	stage string
}

// Registry holds a run's metric families and its span log (span.go).
// Metric accessors get-or-create under a lock and return the live
// instrument; instruments themselves are lock-free (counters, gauges)
// or chunk-granular (histograms), so stages cache the instrument once
// and update it on the hot path. Get-or-create also makes a restarted
// pipeline's stages accumulate into the instruments of the attempt
// before.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	fgauges  map[metricKey]*FloatGauge
	hists    map[metricKey]*Histogram

	spans spanLog
}

// NewRegistry returns an empty registry; span offsets count from now.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		fgauges:  map[metricKey]*FloatGauge{},
		hists:    map[metricKey]*Histogram{},
		spans:    spanLog{epoch: time.Now(), cap: maxSpans},
	}
}

// Counter returns the counter for (name, stage), creating it on first
// use. Stage "" means a run-global metric.
func (r *Registry) Counter(name, stage string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, stage}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, stage), creating it on first use.
func (r *Registry) Gauge(name, stage string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, stage}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// FloatGauge returns the float gauge for (name, stage), creating it on
// first use.
func (r *Registry) FloatGauge(name, stage string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, stage}
	g, ok := r.fgauges[k]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, stage), creating it with
// the given bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name, stage string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, stage}
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// Snapshot captures every metric into a stable, JSON-ready document:
// entries are sorted by (name, stage), so two snapshots of identical
// state marshal to identical bytes. It is safe to call while stages are
// still writing; each instrument is read atomically (counters, gauges)
// or under its lock (histograms), so every individual metric is
// internally consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[metricKey]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[metricKey]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fgauges := make(map[metricKey]*FloatGauge, len(r.fgauges))
	for k, v := range r.fgauges {
		fgauges[k] = v
	}
	hists := make(map[metricKey]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var s Snapshot
	for k, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: k.name, Stage: k.stage, Value: c.Value()})
	}
	for k, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: k.name, Stage: k.stage, Value: float64(g.Value())})
	}
	for k, g := range fgauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: k.name, Stage: k.stage, Value: g.Value()})
	}
	for k, h := range hists {
		s.Histograms = append(s.Histograms, h.snapshot(k.name, k.stage))
	}
	s.Sort()
	return s
}
