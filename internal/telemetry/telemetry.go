// Package telemetry is the repo's dependency-free metrics layer: a registry
// of named counters, gauges, fixed-bucket histograms, and wall-clock timers
// that the serving, training, and substrate layers report into (§7's
// production story: watching the optimizer in flight).
//
// The package is built around one contract, machine-checked by the tests and
// compatible with the repo's determinism rules (see cmd/loam-vet):
//
//   - Every value in a Snapshot is an ORDER-INDEPENDENT aggregate — integer
//     increments, bucket counts, minima/maxima — so two identically-seeded
//     runs produce byte-identical snapshots even when observations arrive
//     from concurrently scheduled goroutines (several OptimizeCtx callers).
//     This is why histograms deliberately carry no floating-point sum: float
//     addition is not associative, and a sum's low bits would leak goroutine
//     scheduling into the snapshot.
//   - Wall-clock readings never enter a Snapshot. Timers route through
//     internal/walltime (the repo's only sanctioned clock boundary) and
//     split their state: the observation COUNT is deterministic and appears
//     in the snapshot, the elapsed SECONDS are reporting-only and are
//     exposed separately via WallTimings.
//   - Instruments and the registry are nil-safe: methods on a nil *Counter,
//     *Gauge, *Histogram, *Timer, or *Registry are no-ops, so un-instrumented
//     code paths need no branching.
//
// All instruments are safe for concurrent use.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"loam/internal/walltime"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. Set drops non-finite values: a NaN or ±Inf
// gauge would poison the snapshot's JSON exposition, and per the repo's NaN
// contract a non-finite reading is a bug to count, not a value to store.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v; non-finite values are ignored.
func (g *Gauge) Set(v float64) {
	if g == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: counts per upper bound plus an
// implicit +Inf overflow bucket, with running min/max. Non-finite
// observations are counted separately and touch neither buckets nor
// min/max — every retained aggregate stays order-independent and
// JSON-representable.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64 // sorted ascending upper bounds (v <= bound)
	counts    []int64   // len(bounds)+1; last is overflow
	count     int64     // finite observations
	nonFinite int64     // NaN / ±Inf observations rejected
	min, max  float64   // over finite observations; valid iff count > 0
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite++
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of finite observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Timer counts timed sections and accumulates their wall-clock duration via
// internal/walltime. The count is deterministic state (it appears in
// snapshots); the accumulated seconds are wall-clock, reporting-only, and
// surface exclusively through Registry.WallTimings.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Span is one in-flight timed section.
type Span struct {
	t  *Timer
	sw walltime.Stopwatch
}

// Start opens a timed section; Stop on the returned span closes it.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, sw: walltime.Start()}
}

// Stop records the span's elapsed wall time and increments the timer count.
func (s Span) Stop() {
	if s.t == nil {
		return
	}
	s.t.count.Add(1)
	s.t.nanos.Add(int64(s.sw.Elapsed()))
}

// Count returns the number of completed spans.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Seconds returns the accumulated wall-clock seconds. Reporting-only: this
// value must never feed simulated state or a snapshot (see package doc).
func (t *Timer) Seconds() float64 {
	if t == nil {
		return 0
	}
	return float64(t.nanos.Load()) / 1e9
}

// Registry holds named instruments. Lookup methods create on first use and
// return the existing instrument afterwards; a histogram's buckets are fixed
// by its first registration. Instruments of different kinds live in separate
// namespaces, but sharing one name across kinds is poor hygiene.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		timers:   map[string]*Timer{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. bounds are copied and sorted; non-finite bounds
// are dropped. Later registrations under the same name return the existing
// histogram and ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := make([]float64, 0, len(bounds))
		for _, b := range bounds {
			if !math.IsNaN(b) && !math.IsInf(b, 0) {
				bs = append(bs, b)
			}
		}
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
