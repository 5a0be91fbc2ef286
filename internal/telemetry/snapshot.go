package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// CounterSnap is one counter's snapshot value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's snapshot value.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram's snapshot: cumulative-free per-bucket
// counts aligned with Bounds, plus the implicit +Inf overflow bucket as the
// final Counts element.
type HistogramSnap struct {
	Name      string    `json:"name"`
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	NonFinite int64     `json:"nonFinite"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
}

// TimerSnap is a timer's deterministic part: only the observation count.
// Elapsed wall seconds are exposed via Registry.WallTimings, never here.
type TimerSnap struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// Snapshot is a stable-ordered, deterministic view of a registry: every
// section is sorted by instrument name, and every value is an
// order-independent aggregate (see the package doc), so identically-seeded
// runs render byte-identical snapshots regardless of goroutine scheduling.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	Timers     []TimerSnap     `json:"timers"`
}

// Snapshot captures the registry's deterministic state. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{
		Counters:   counterSnaps(r.counters),
		Gauges:     gaugeSnaps(r.gauges),
		Histograms: histSnaps(r.hists),
		Timers:     timerSnaps(r.timers),
	}
}

func sortedNames[T any](m map[string]T) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func counterSnaps(m map[string]*Counter) []CounterSnap {
	names := sortedNames(m)
	out := make([]CounterSnap, len(names))
	for i, n := range names {
		out[i] = CounterSnap{Name: n, Value: m[n].Value()}
	}
	return out
}

func gaugeSnaps(m map[string]*Gauge) []GaugeSnap {
	names := sortedNames(m)
	out := make([]GaugeSnap, len(names))
	for i, n := range names {
		out[i] = GaugeSnap{Name: n, Value: m[n].Value()}
	}
	return out
}

func histSnaps(m map[string]*Histogram) []HistogramSnap {
	names := sortedNames(m)
	out := make([]HistogramSnap, len(names))
	for i, n := range names {
		h := m[n]
		h.mu.Lock()
		snap := HistogramSnap{
			Name:      n,
			Bounds:    append([]float64(nil), h.bounds...),
			Counts:    append([]int64(nil), h.counts...),
			Count:     h.count,
			NonFinite: h.nonFinite,
		}
		if h.count > 0 {
			snap.Min, snap.Max = h.min, h.max
		}
		h.mu.Unlock()
		out[i] = snap
	}
	return out
}

func timerSnaps(m map[string]*Timer) []TimerSnap {
	names := sortedNames(m)
	out := make([]TimerSnap, len(names))
	for i, n := range names {
		out[i] = TimerSnap{Name: n, Count: m[n].Count()}
	}
	return out
}

// Empty reports whether the snapshot carries no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 &&
		len(s.Histograms) == 0 && len(s.Timers) == 0
}

// fmtFloat renders a float deterministically: shortest representation that
// round-trips, the same on every run for the same value.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the snapshot in the canonical line-oriented text
// exposition:
//
//	counter <name> <value>
//	gauge <name> <value>
//	histogram <name> count=<n> nonfinite=<n> min=<v> max=<v> le<b>:<n>,...,inf:<n>
//	timer <name> count=<n>
//
// Output is byte-stable for equal snapshots.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %s\n", g.Name, fmtFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		parts := make([]string, 0, len(h.Counts))
		for i, n := range h.Counts {
			label := "inf"
			if i < len(h.Bounds) {
				label = "le" + fmtFloat(h.Bounds[i])
			}
			parts = append(parts, fmt.Sprintf("%s:%d", label, n))
		}
		if _, err := fmt.Fprintf(w, "histogram %s count=%d nonfinite=%d min=%s max=%s %s\n",
			h.Name, h.Count, h.NonFinite, fmtFloat(h.Min), fmtFloat(h.Max),
			strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	for _, t := range s.Timers {
		if _, err := fmt.Fprintf(w, "timer %s count=%d\n", t.Name, t.Count); err != nil {
			return err
		}
	}
	return nil
}

// WallTiming is one timer's wall-clock reading: reporting-only, excluded
// from Snapshot by design (see package doc).
type WallTiming struct {
	Name    string
	Count   int64
	Seconds float64
}

// WallTimings returns every timer's accumulated wall-clock seconds, sorted
// by name. The values are nondeterministic across runs; render them for
// humans, never feed them back into simulated state or snapshots.
func (r *Registry) WallTimings() []WallTiming {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := sortedNames(r.timers)
	out := make([]WallTiming, len(names))
	for i, n := range names {
		t := r.timers[n]
		out[i] = WallTiming{Name: n, Count: t.Count(), Seconds: t.Seconds()}
	}
	return out
}

// WriteWallText renders wall timings as "walltimer <name> count=<n>
// seconds=<s>" lines.
func WriteWallText(w io.Writer, ts []WallTiming) error {
	for _, t := range ts {
		if _, err := fmt.Fprintf(w, "walltimer %s count=%d seconds=%.3f\n",
			t.Name, t.Count, t.Seconds); err != nil {
			return err
		}
	}
	return nil
}
