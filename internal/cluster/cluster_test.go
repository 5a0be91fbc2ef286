package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"loam/internal/simrand"
	"loam/internal/telemetry"
)

func newCluster(seed uint64) *Cluster {
	cfg := DefaultConfig()
	cfg.Machines = 32
	return New(simrand.New(seed), cfg)
}

func TestMetricsBounds(t *testing.T) {
	c := newCluster(1)
	for step := 0; step < 50; step++ {
		c.Advance(SampleInterval)
		for i := 0; i < c.Size(); i++ {
			m := c.MachineMetrics(i)
			if m.CPUIdle < 0 || m.CPUIdle > 1 {
				t.Fatalf("CPUIdle %g", m.CPUIdle)
			}
			if m.IOWait < 0 || m.IOWait > 1 {
				t.Fatalf("IOWait %g", m.IOWait)
			}
			if m.MemUsage < 0 || m.MemUsage > 1 {
				t.Fatalf("MemUsage %g", m.MemUsage)
			}
			if m.Load5 < 0 {
				t.Fatalf("Load5 %g", m.Load5)
			}
		}
	}
}

func TestNormalizedFeatures(t *testing.T) {
	m := Metrics{CPUIdle: 0.5, IOWait: 0.05, Load5: MaxLoad5 * 2, MemUsage: 0.7}
	f := m.Normalized()
	if f[0] != 0.5 || f[1] != 0.05 || f[3] != 0.7 {
		t.Fatalf("passthrough features wrong: %v", f)
	}
	if f[2] != 1 {
		t.Fatalf("LOAD5 should saturate at 1, got %g", f[2])
	}
	zero := Metrics{}.Normalized()
	if zero[2] != 0 {
		t.Fatalf("zero load should normalize to 0, got %g", zero[2])
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := newCluster(2)
	before := c.Now()
	c.Advance(100)
	if c.Now() <= before {
		t.Fatal("time did not advance")
	}
}

func TestAdvanceChangesLoads(t *testing.T) {
	c := newCluster(3)
	before := c.ClusterAverage()
	c.Advance(3600)
	after := c.ClusterAverage()
	if before == after {
		t.Fatal("loads frozen after an hour")
	}
}

func TestAllocatePrefersIdle(t *testing.T) {
	c := newCluster(4)
	c.Advance(1200)
	picked := c.Allocate(8)
	if len(picked) != 8 {
		t.Fatalf("allocated %d", len(picked))
	}
	// Mean idleness of picked machines should beat the cluster mean.
	var pickedIdle float64
	for _, id := range picked {
		pickedIdle += c.MachineMetrics(id).CPUIdle
	}
	pickedIdle /= float64(len(picked))
	avg := c.ClusterAverage().CPUIdle
	if pickedIdle < avg {
		t.Fatalf("allocation not load-aware: picked %g vs cluster %g", pickedIdle, avg)
	}
}

func TestAllocateBounds(t *testing.T) {
	c := newCluster(5)
	size := c.Size()
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {size / 2, size / 2}, {size, size}, {size + 1, size}, {10_000, size},
	} {
		picked := c.Allocate(tc.n)
		if len(picked) != tc.want {
			t.Fatalf("Allocate(%d) = %d machines, want %d", tc.n, len(picked), tc.want)
		}
		seen := map[int]bool{}
		for _, id := range picked {
			if id < 0 || id >= size || seen[id] {
				t.Fatalf("Allocate(%d): machine %d out of range or allocated twice", tc.n, id)
			}
			seen[id] = true
		}
	}
}

// allocateFullSort is Allocate as it was before the top-n selection, kept
// verbatim as the oracle: jitter every machine, sort the whole pool, take n.
func allocateFullSort(c *Cluster, n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		n = 1
	}
	if n > len(c.machines) {
		n = len(c.machines)
	}
	type cand struct {
		id   int
		idle float64
	}
	cands := make([]cand, len(c.machines))
	for i := range c.machines {
		m := c.machineMetricsLocked(i)
		// Jitter breaks ties and models imperfect scheduler information.
		cands[i] = cand{id: i, idle: m.CPUIdle + c.rng.Uniform(0, 0.15)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].idle > cands[j].idle })
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].id
	}
	return out
}

// TestAllocateMatchesFullSortReference: on two same-seed clusters driven
// through the same Advance / AddLoad steps, the top-n selection returns the
// full sort's machines in the full sort's order and leaves the scheduler
// stream where the full sort leaves it.
func TestAllocateMatchesFullSortReference(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		for _, n := range []int{1, 7, 64, 128, 256} {
			got, want := New(simrand.New(seed), DefaultConfig()), New(simrand.New(seed), DefaultConfig())
			for step := 0; step < 20; step++ {
				a, b := got.Allocate(n), allocateFullSort(want, n)
				if !slices.Equal(a, b) {
					t.Fatalf("seed %d n %d step %d: top-n picked %v, full sort %v", seed, n, step, a, b)
				}
				if x, y := got.rng.Uint64(), want.rng.Uint64(); x != y {
					t.Fatalf("seed %d n %d step %d: scheduler streams diverged after Allocate", seed, n, step)
				}
				for _, c := range []*Cluster{got, want} {
					c.AddLoad(a, 0.01*float64(step%5))
					if step%3 != 2 { // every third step: a second Allocate with no Advance between
						c.Advance(SampleInterval * float64(1+step%3))
					}
				}
			}
		}
	}
}

// TestAveragesMemoBitIdentical interleaves every mutation with reads: each
// ClusterAverage and HistoryAverage is bit-equal, field by field, to a scan the
// test does itself — the pool in machine order, the ring's filled slots in
// index order.
func TestAveragesMemoBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines, cfg.HistorySize = 48, 20 // the ring wraps within the run
	c := New(simrand.New(11), cfg)
	ops := simrand.New(12)
	check := func(step int, what string, got, want Metrics) {
		t.Helper()
		g := [4]float64{got.CPUIdle, got.IOWait, got.Load5, got.MemUsage}
		w := [4]float64{want.CPUIdle, want.IOWait, want.Load5, want.MemUsage}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("step %d: %s field %d = %v, fresh scan %v", step, what, i, g[i], w[i])
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch ops.Intn(6) {
		case 0:
			c.Advance(SampleInterval * float64(1+ops.Intn(3)))
		case 1:
			c.AddLoad([]int{ops.Intn(c.Size()), ops.Intn(c.Size())}, ops.Uniform(0, 0.4))
		case 2:
			c.Allocate(1 + ops.Intn(c.Size()))
		case 3:
			c.Instrument(telemetry.NewRegistry())
		case 4:
			var sum Metrics
			for i := range c.machines {
				sum = sum.Add(c.machineMetricsLocked(i))
			}
			check(step, "ClusterAverage", c.ClusterAverage(), sum.Scale(1/float64(len(c.machines))))
		case 5:
			var sum Metrics
			for i := 0; i < c.histLen; i++ {
				sum = sum.Add(c.history[i])
			}
			check(step, "HistoryAverage", c.HistoryAverage(), sum.Scale(1/float64(c.histLen)))
		}
	}
}

// BenchmarkClusterAllocate: one stage placement on the default 256-machine
// pool at the sizes Execute asks for (at most Size()/2).
func BenchmarkClusterAllocate(b *testing.B) {
	for _, n := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := New(simrand.New(1), DefaultConfig())
			c.Advance(1200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				picked = c.Allocate(n)
			}
		})
	}
}

var picked []int

func TestAddLoadRaisesUtilization(t *testing.T) {
	c := newCluster(6)
	ids := []int{0, 1, 2}
	before := c.Average(ids)
	c.AddLoad(ids, 0.3)
	after := c.Average(ids)
	if after.CPUIdle >= before.CPUIdle {
		t.Fatalf("AddLoad did not reduce idle: %g -> %g", before.CPUIdle, after.CPUIdle)
	}
}

func TestHistoryAverageTracksWindow(t *testing.T) {
	c := newCluster(7)
	for i := 0; i < 100; i++ {
		c.Advance(SampleInterval)
	}
	h := c.HistoryAverage()
	cur := c.ClusterAverage()
	// Both should be plausible utilization levels, not wildly apart.
	if math.Abs(h.CPUIdle-cur.CPUIdle) > 0.5 {
		t.Fatalf("history %g vs current %g", h.CPUIdle, cur.CPUIdle)
	}
	if h.IOWait <= 0 {
		t.Fatal("history IO wait should be positive")
	}
}

func TestAverageEmptyFallsBackToCluster(t *testing.T) {
	c := newCluster(8)
	if c.Average(nil) != c.ClusterAverage() {
		t.Fatal("empty Average should be cluster-wide")
	}
}

func TestDeterminism(t *testing.T) {
	c1, c2 := newCluster(9), newCluster(9)
	c1.Advance(600)
	c2.Advance(600)
	if c1.ClusterAverage() != c2.ClusterAverage() {
		t.Fatal("same-seed clusters diverged")
	}
}

func TestMetricsAddScale(t *testing.T) {
	a := Metrics{CPUIdle: 0.2, IOWait: 0.1, Load5: 4, MemUsage: 0.5}
	b := a.Add(a).Scale(0.5)
	if b != a {
		t.Fatalf("Add/Scale roundtrip: %v", b)
	}
}

func TestDiurnalCycleMovesLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 16
	cfg.DiurnalAmp = 0.3
	cfg.BurstProb = 0
	cfg.LoadNoise = 0.001
	c := New(simrand.New(10), cfg)
	var loads []float64
	for i := 0; i < 24; i++ {
		c.Advance(3600)
		loads = append(loads, 1-c.ClusterAverage().CPUIdle)
	}
	lo, hi := loads[0], loads[0]
	for _, v := range loads {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.15 {
		t.Fatalf("diurnal swing too small: %g", hi-lo)
	}
}
