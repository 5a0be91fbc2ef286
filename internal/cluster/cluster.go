// Package cluster simulates the shared, multi-tenant machine pool that
// MaxCompute's Fuxi resource manager allocates stages onto.
//
// Each machine carries the four load metrics the paper encodes (App. B.2):
// CPU_IDLE, IO_WAIT, LOAD5, and MEM_USAGE, sampled every 20 seconds. Loads
// follow mean-reverting dynamics around a cluster-wide level with a diurnal
// component and tenant-interference bursts, which produces the cost-variance
// phenomenology of Challenge C1 (Fig. 1) and the roughly linear load→cost
// response of Fig. 5.
package cluster

import (
	"math"
	"sync"

	"loam/internal/simrand"
	"loam/internal/telemetry"
)

// SampleInterval is how often machine metrics are sampled, in seconds,
// matching the paper's 20-second sampling.
const SampleInterval = 20.0

// MaxLoad5 is the saturation value used to log-normalize LOAD5 into [0,1].
const MaxLoad5 = 64.0

// Metrics is one machine-load observation.
type Metrics struct {
	CPUIdle  float64 // fraction of CPU idle, in [0,1]
	IOWait   float64 // fraction of CPU time waiting on I/O, in [0,1]
	Load5    float64 // 5-minute load average, >= 0 (raw, not normalized)
	MemUsage float64 // fraction of memory used, in [0,1]
}

// Normalized returns the 4-feature vector used by the plan encoder:
// CPU_IDLE, IO_WAIT and MEM_USAGE are already bounded and used directly;
// LOAD5 is log-min-max normalized (§4, Execution Environment).
func (m Metrics) Normalized() [4]float64 {
	l := math.Log1p(m.Load5) / math.Log1p(MaxLoad5)
	if l > 1 {
		l = 1
	}
	return [4]float64{m.CPUIdle, m.IOWait, l, m.MemUsage}
}

// Add accumulates another observation (for averaging).
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		CPUIdle:  m.CPUIdle + o.CPUIdle,
		IOWait:   m.IOWait + o.IOWait,
		Load5:    m.Load5 + o.Load5,
		MemUsage: m.MemUsage + o.MemUsage,
	}
}

// Scale multiplies all metrics by f.
func (m Metrics) Scale(f float64) Metrics {
	return Metrics{CPUIdle: m.CPUIdle * f, IOWait: m.IOWait * f, Load5: m.Load5 * f, MemUsage: m.MemUsage * f}
}

type machine struct {
	load      float64 // latent utilization in [0,1]
	phase     float64 // diurnal phase offset
	burst     float64 // residual tenant-interference load
	io        float64 // latent IO pressure
	memBase   float64
	metricRNG *simrand.RNG
}

// Config parameterizes the cluster simulator.
type Config struct {
	Machines    int     // pool size (paper: >5,000; default 256)
	BaseLoad    float64 // long-run mean utilization
	DiurnalAmp  float64 // amplitude of the daily cycle
	Reversion   float64 // mean-reversion strength per sample
	LoadNoise   float64 // per-sample load noise
	BurstProb   float64 // probability a machine catches an interference burst per sample
	BurstSize   float64 // mean burst magnitude
	HistorySize int     // ring buffer length of cluster-average samples (24h = 4320)
}

// DefaultConfig returns production-flavored defaults.
func DefaultConfig() Config {
	return Config{
		Machines:    256,
		BaseLoad:    0.55,
		DiurnalAmp:  0.18,
		Reversion:   0.08,
		LoadNoise:   0.04,
		BurstProb:   0.02,
		BurstSize:   0.35,
		HistorySize: 24 * 3600 / int(SampleInterval),
	}
}

// Cluster is the simulated machine pool. It is safe for concurrent use: an
// RWMutex lets any number of readers (MachineMetrics, Average,
// ClusterAverage, HistoryAverage — the serving path's environment
// observations) proceed in parallel, while writers (Advance, AddLoad,
// Allocate) serialize. Simulated time itself stays logically single-threaded:
// concurrent Advance calls are ordered by the lock, so a deterministic
// trajectory still requires a single driving goroutine.
type Cluster struct {
	mu       sync.RWMutex
	cfg      Config
	machines []machine
	now      float64 // simulated seconds since epoch
	rng      *simrand.RNG

	// history is a ring buffer of cluster-average metrics, one per sample
	// interval — the data source for the LOAM-CE inference variant.
	history []Metrics
	histPos int
	histLen int

	// poolAvg and histAvg memoize ClusterAverage and HistoryAverage between
	// mutations (the OK flags say which is fresh): stepLocked and AddLoad
	// stale poolAvg, recordHistoryLocked refills it and stales histAvg. All
	// four are written under the write lock only.
	poolAvg, histAvg Metrics
	poolOK, histOK   bool
	// top is Allocate's buffer, capacity Size(); the write lock owns it.
	top []slot

	tel clusterTelemetry
}

// slot is one machine in Allocate's top-n.
type slot struct {
	id   int
	idle float64 // CPUIdle plus the scheduler's jitter
}

// clusterTelemetry holds the cluster's resolved instruments. All fields are
// nil-safe no-ops until Instrument wires a registry, so the hot path never
// branches on "is telemetry enabled".
type clusterTelemetry struct {
	cpuIdle  *telemetry.Gauge
	ioWait   *telemetry.Gauge
	load5    *telemetry.Gauge
	memUsage *telemetry.Gauge
	now      *telemetry.Gauge
	machines *telemetry.Gauge
	steps    *telemetry.Counter
}

// Instrument wires the cluster's load/utilization gauges into reg: the
// cluster-average CPU_IDLE, IO_WAIT, normalized LOAD5 and MEM_USAGE are
// refreshed at every sample step (piggybacking on the history recording, so
// instrumentation adds no extra pool scan), along with the simulated clock
// and a step counter. Call before concurrent use.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = clusterTelemetry{
		cpuIdle:  reg.Gauge("cluster.cpu_idle"),
		ioWait:   reg.Gauge("cluster.io_wait"),
		load5:    reg.Gauge("cluster.load5_norm"),
		memUsage: reg.Gauge("cluster.mem_usage"),
		now:      reg.Gauge("cluster.now_seconds"),
		machines: reg.Gauge("cluster.machines"),
		steps:    reg.Counter("cluster.steps"),
	}
	c.tel.machines.Set(float64(len(c.machines)))
	c.refreshTelemetryLocked(c.poolAverageLocked())
}

// New builds a cluster with the given config, deterministic in rng.
func New(rng *simrand.RNG, cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 128
	}
	c := &Cluster{
		cfg:      cfg,
		machines: make([]machine, cfg.Machines),
		rng:      rng.Derive("cluster"),
		history:  make([]Metrics, cfg.HistorySize),
		top:      make([]slot, 0, cfg.Machines),
	}
	for i := range c.machines {
		mr := c.rng.DeriveN("machine", i)
		c.machines[i] = machine{
			load: clamp01(cfg.BaseLoad + mr.Normal(0, 0.1)),
			// The daily cycle is cluster-wide (traffic peaks are global);
			// machines only jitter around the shared phase.
			phase:     mr.Uniform(-0.6, 0.6),
			io:        clamp01(0.05 + mr.Normal(0, 0.01)),
			memBase:   mr.Uniform(0.25, 0.45),
			metricRNG: mr.Derive("metrics"),
		}
	}
	c.recordHistoryLocked()
	return c
}

// Now returns the simulated time in seconds.
func (c *Cluster) Now() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Size returns the number of machines. The pool never resizes after New, so
// no lock is needed.
func (c *Cluster) Size() int { return len(c.machines) }

// Advance moves simulated time forward, stepping machine dynamics at each
// sample interval.
func (c *Cluster) Advance(seconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	steps := int(seconds / SampleInterval)
	if steps < 1 {
		steps = 1
	}
	for s := 0; s < steps; s++ {
		c.now += SampleInterval
		c.stepLocked()
		c.recordHistoryLocked()
	}
}

func (c *Cluster) stepLocked() {
	c.poolOK = false
	dayFrac := c.now / 86400.0
	for i := range c.machines {
		m := &c.machines[i]
		target := c.cfg.BaseLoad + c.cfg.DiurnalAmp*math.Sin(2*math.Pi*dayFrac+m.phase)
		// Mean-reverting latent load with noise.
		m.load += c.cfg.Reversion*(target-m.load) + m.metricRNG.Normal(0, c.cfg.LoadNoise)
		// Tenant-interference bursts decay geometrically.
		m.burst *= 0.85
		if m.metricRNG.Bool(c.cfg.BurstProb) {
			m.burst += m.metricRNG.Uniform(0.3, 1.0) * c.cfg.BurstSize
		}
		m.load = clamp01(m.load)
		// IO pressure loosely tracks load with its own noise; expectation
		// near 0.05 per §5.
		m.io += 0.2*(0.03+0.06*m.load-m.io) + m.metricRNG.Normal(0, 0.005)
		m.io = clamp01(m.io)
	}
}

// MachineMetrics returns the current metrics of one machine.
func (c *Cluster) MachineMetrics(id int) Metrics {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.machineMetricsLocked(id)
}

// machineMetricsLocked reads one machine's metrics; callers hold the lock.
func (c *Cluster) machineMetricsLocked(id int) Metrics {
	m := &c.machines[id]
	eff := clamp01(m.load + m.burst)
	return Metrics{
		CPUIdle:  clamp01(1 - eff),
		IOWait:   m.io,
		Load5:    eff * 24, // ~24 runnable processes at full utilization
		MemUsage: clamp01(m.memBase + 0.5*eff),
	}
}

// Average returns the mean metrics over a set of machines.
func (c *Cluster) Average(ids []int) Metrics {
	if len(ids) == 0 {
		return c.ClusterAverage()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum Metrics
	for _, id := range ids {
		sum = sum.Add(c.machineMetricsLocked(id))
	}
	return sum.Scale(1 / float64(len(ids)))
}

// ClusterAverage returns the mean metrics over the whole pool — what the
// LOAM-CB inference variant observes at optimization time.
func (c *Cluster) ClusterAverage() Metrics {
	if v, ok := c.fresh(&c.poolAvg, &c.poolOK); ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poolAvg, c.poolOK = c.poolAverageLocked(), true
	return c.poolAvg
}

// fresh reads a memo under the read lock; its caller refills a stale one under
// the write lock — under RLock two readers would race on it.
func (c *Cluster) fresh(v *Metrics, ok *bool) (Metrics, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return *v, *ok
}

// poolAverageLocked scans the pool; callers hold either lock.
func (c *Cluster) poolAverageLocked() Metrics {
	var sum Metrics
	for i := range c.machines {
		sum = sum.Add(c.machineMetricsLocked(i))
	}
	return sum.Scale(1 / float64(len(c.machines)))
}

// recordHistoryLocked appends the current cluster average to the ring buffer
// and refreshes the utilization gauges and the ClusterAverage memo from the
// same scan; callers hold the write lock (or, in New, exclusive ownership).
func (c *Cluster) recordHistoryLocked() {
	avg := c.poolAverageLocked()
	c.poolAvg, c.poolOK, c.histOK = avg, true, false
	c.history[c.histPos] = avg
	c.histPos = (c.histPos + 1) % len(c.history)
	if c.histLen < len(c.history) {
		c.histLen++
	}
	c.refreshTelemetryLocked(avg)
}

// refreshTelemetryLocked publishes the cluster-average metrics to the wired
// gauges; callers hold the lock. Gauge values are functions of simulated
// state only, so snapshots stay seed-deterministic.
func (c *Cluster) refreshTelemetryLocked(avg Metrics) {
	norm := avg.Normalized()
	c.tel.cpuIdle.Set(norm[0])
	c.tel.ioWait.Set(norm[1])
	c.tel.load5.Set(norm[2])
	c.tel.memUsage.Set(norm[3])
	c.tel.now.Set(c.now)
	c.tel.steps.Inc()
}

// HistoryAverage returns the mean cluster-wide metrics over the recorded
// window (up to 24 h) — what the LOAM-CE inference variant fits its
// environment distribution from.
func (c *Cluster) HistoryAverage() Metrics {
	if v, ok := c.fresh(&c.histAvg, &c.histOK); ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The ring's filled slots in index order, not chronological order (the
	// bits depend on it); histLen >= 1 since New.
	var sum Metrics
	for i := 0; i < c.histLen; i++ {
		sum = sum.Add(c.history[i])
	}
	c.histAvg, c.histOK = sum.Scale(1/float64(c.histLen)), true
	return c.histAvg
}

// Allocate picks n machine IDs for a stage's instances, preferring idle
// machines — Fuxi schedules onto machines with more idle resources (§7.2.5).
// Allocation is randomized among the idlest half to model contention.
// Allocate takes the write lock: it draws from the scheduler's RNG stream.
// The result is idlest first (equal keys: lower id first), kept as a
// descending top-n during one scan of the pool.
func (c *Cluster) Allocate(n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n = min(max(n, 1), len(c.machines))
	top := c.top[:0]
	for i := range c.machines {
		// Jitter breaks ties and models imperfect scheduler information: one
		// draw per machine, whether or not it enters the top-n.
		idle := c.machineMetricsLocked(i).CPUIdle + c.rng.Uniform(0, 0.15)
		if len(top) < n {
			top = append(top, slot{})
		} else if !(idle > top[n-1].idle) {
			continue
		}
		j := len(top) - 1
		for ; j > 0 && idle > top[j-1].idle; j-- {
			top[j] = top[j-1]
		}
		top[j] = slot{id: i, idle: idle}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = top[i].id
	}
	return out
}

// AddLoad injects extra utilization onto the given machines, modeling the
// footprint of a running stage.
func (c *Cluster) AddLoad(ids []int, amount float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poolOK = false
	for _, id := range ids {
		c.machines[id].burst = clamp01(c.machines[id].burst + amount)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
