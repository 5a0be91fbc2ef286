package telemetry_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"loam/internal/telemetry"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("a.total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.total") != c {
		t.Fatal("counter not memoized by name")
	}
	g := r.Gauge("a.level")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", got)
	}
	g.Set(math.NaN())
	g.Set(math.Inf(1))
	if got := g.Value(); got != 0.75 {
		t.Fatalf("non-finite Set changed gauge to %g", got)
	}
}

func TestHistogramBucketsAndNonFinite(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN(), math.Inf(-1)} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("finite count = %d, want 5", got)
	}
	snap := r.Snapshot()
	hs := snap.Histograms[0]
	wantCounts := []int64{2, 1, 1, 1} // le1:{0.5,1} le2:{1.5} le4:{3} inf:{100}
	for i, want := range wantCounts {
		if hs.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], want, hs.Counts)
		}
	}
	if hs.NonFinite != 2 {
		t.Fatalf("nonFinite = %d, want 2", hs.NonFinite)
	}
	if hs.Min != 0.5 || hs.Max != 100 {
		t.Fatalf("min/max = %g/%g, want 0.5/100", hs.Min, hs.Max)
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *telemetry.Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	span := r.Timer("x").Start()
	span.Stop()
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
	if r.WallTimings() != nil {
		t.Fatal("nil registry wall timings not nil")
	}
}

func TestTimerCountsDeterministicSecondsSegregated(t *testing.T) {
	r := telemetry.NewRegistry()
	tm := r.Timer("t")
	for i := 0; i < 3; i++ {
		sp := tm.Start()
		sp.Stop()
	}
	snap := r.Snapshot()
	if len(snap.Timers) != 1 || snap.Timers[0].Count != 3 {
		t.Fatalf("timer snapshot %+v, want count 3", snap.Timers)
	}
	wt := r.WallTimings()
	if len(wt) != 1 || wt[0].Count != 3 || wt[0].Seconds < 0 {
		t.Fatalf("wall timings %+v", wt)
	}
}

// TestSnapshotOrderIndependent hammers one registry from many goroutines and
// requires the snapshot to equal a sequentially built one — the contract
// that makes serving-path metrics deterministic under concurrent OptimizeCtx
// callers.
func TestSnapshotOrderIndependent(t *testing.T) {
	build := func(parallel bool) telemetry.Snapshot {
		r := telemetry.NewRegistry()
		c := r.Counter("c")
		h := r.Histogram("h", telemetry.ExpBuckets(1, 2, 8))
		work := func(w int) {
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(float64((w*500 + i) % 97))
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) { defer wg.Done(); work(w) }(w)
			}
			wg.Wait()
		} else {
			for w := 0; w < 8; w++ {
				work(w)
			}
		}
		return r.Snapshot()
	}
	var seq, par bytes.Buffer
	if err := build(false).WriteText(&seq); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteText(&par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("parallel snapshot diverged from sequential:\n%s\nvs\n%s", par.String(), seq.String())
	}
}

func TestSnapshotStableText(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Inc()
	r.Gauge("mid").Set(1.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.Timer("t")
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("repeated WriteText differs")
	}
	want := "counter a.first 1\ncounter z.last 2\ngauge mid 1.5\n" +
		"histogram h count=1 nonfinite=0 min=0.5 max=0.5 le1:1,inf:0\n" +
		"timer t count=0\n"
	if b1.String() != want {
		t.Fatalf("text exposition:\n%q\nwant:\n%q", b1.String(), want)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := telemetry.LinearBuckets(0, 5, 3)
	if lin[0] != 0 || lin[1] != 5 || lin[2] != 10 {
		t.Fatalf("linear %v", lin)
	}
	exp := telemetry.ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exp %v", exp)
	}
}
