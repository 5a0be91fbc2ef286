package exec

import (
	"fmt"
	"math"
	"sync"

	"loam/internal/cardinality"
	"loam/internal/cluster"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
	"loam/internal/warehouse"
)

// Record is the execution log entry written to the historical query
// repository (§2.1, phase 4): the plan, per-stage execution environments,
// and the end-to-end CPU cost and latency.
type Record struct {
	QueryID    string
	TemplateID string
	Day        int
	Plan       *plan.Plan
	// StageEnvs[i] is the average load metrics of the machines stage i ran
	// on, averaged over the stage's execution window.
	StageEnvs []cluster.Metrics
	// StageCosts[i] is stage i's CPU cost.
	StageCosts []float64
	CPUCost    float64
	LatencySec float64

	stageOf map[*plan.Node]int
}

// NodeEnv returns the execution environment of the stage containing n. All
// nodes of a stage share one environment (§4). The boolean is false for
// nodes not in this record's plan.
func (r *Record) NodeEnv(n *plan.Node) (cluster.Metrics, bool) {
	idx, ok := r.stageOf[n]
	if !ok || idx >= len(r.StageEnvs) {
		return cluster.Metrics{}, false
	}
	return r.StageEnvs[idx], true
}

// Options tunes one execution.
type Options struct {
	// NoiseSigma is the per-stage log-normal noise parameter; recurring
	// templates carry their own sigma so the fleet reproduces Fig. 1's
	// spread of cost variability.
	NoiseSigma float64
}

// DefaultOptions returns moderate noise.
func DefaultOptions() Options {
	return Options{NoiseSigma: 0.10}
}

// Executor runs plans against a project's ground truth on a shared cluster.
// Execute is safe to call from multiple goroutines: executions serialize on
// an internal mutex, because each one advances simulated time and draws from
// the executor's noise stream. Work is read-only and runs without the lock.
// Under concurrent callers the interleaving of executions (and therefore
// costs) depends on goroutine scheduling; determinism requires a single
// driving goroutine, as before.
type Executor struct {
	Cluster *cluster.Cluster
	Project *warehouse.Project

	mu      sync.Mutex
	rng     *simrand.RNG
	counter int
	tel     execTelemetry
}

// execTelemetry holds the executor's resolved instruments; nil-safe no-ops
// until Instrument wires a registry.
type execTelemetry struct {
	executions *telemetry.Counter
	stages     *telemetry.Counter
	instances  *telemetry.Counter
	stageCost  *telemetry.Histogram
}

// Instrument wires substrate-level execution metrics into reg: executed
// plans, stage and instance counts, and a per-stage CPU-cost distribution.
// All of them are order-independent aggregates, so identically-seeded
// single-driver runs snapshot identically. Call before concurrent use.
func (ex *Executor) Instrument(reg *telemetry.Registry) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.tel = execTelemetry{
		executions: reg.Counter("exec.executions"),
		stages:     reg.Counter("exec.stages"),
		instances:  reg.Counter("exec.instances"),
		stageCost:  reg.Histogram("exec.stage.cost", telemetry.ExpBuckets(1e3, 10, 9)),
	}
}

// NewExecutor builds an executor. The RNG seeds execution noise only; the
// cluster carries its own streams.
func NewExecutor(rng *simrand.RNG, cl *cluster.Cluster, p *warehouse.Project) *Executor {
	return &Executor{
		Cluster: cl,
		Project: p,
		rng:     rng.Derive("executor"),
	}
}

// Fork returns an executor over a fork of the cluster (cluster.Fork), its
// noise stream derived from purpose: the flighting environment of §3, where
// out-of-band executions run. Nothing executed on the fork moves ex, its
// cluster or its telemetry; two forks of one purpose taken from one state
// execute identically.
func (ex *Executor) Fork(purpose string) *Executor {
	return &Executor{
		Cluster: ex.Cluster.Fork(purpose),
		Project: ex.Project,
		rng:     ex.rng.Derive(purpose),
	}
}

// Flight executes p reps times and returns each rep's CPU cost. Flights
// belong on a fork (Fork): on a project's own executor they would move the
// serving cluster and noise stream.
func (ex *Executor) Flight(p *plan.Plan, day, reps int, opt Options) []float64 {
	costs := make([]float64, reps)
	for r := range costs {
		costs[r] = ex.Execute(p, day, opt).CPUCost
	}
	return costs
}

// Work returns the environment-independent work of each stage of a plan,
// with the decomposition it was computed over.
func (ex *Executor) Work(p *plan.Plan, day int) (total float64, perStage []float64, d *Decomposition, cards *cardinality.Result) {
	est := &cardinality.Estimator{Src: cardinality.TruthSource(ex.Project, day)}
	cards = est.Estimate(p.Root)
	d = Decompose(p.Root)
	perStage = make([]float64, len(d.Stages))
	for i, s := range d.Stages {
		s.Instances = stageInstances(s, cards)
		w := 0.0
		for _, n := range s.Nodes {
			w += NodeWork(n, cards, s.Instances)
		}
		perStage[i] = w
		total += w
	}
	return total, perStage, d, cards
}

func stageInstances(s *Stage, cards *cardinality.Result) int {
	input := 0.0
	hint := 0
	for _, n := range s.Nodes {
		if n.Op == plan.OpTableScan {
			input += cards.Rows(n)
		}
		if n.Parallelism > hint {
			hint = n.Parallelism
		}
	}
	for _, c := range s.Children {
		input += cards.Rows(c.Root)
	}
	return sizeInstances(input, hint)
}

// Execute runs the plan on the shared cluster, advancing simulated time and
// returning the execution record. Day selects the catalog state (table sizes
// grow over days).
func (ex *Executor) Execute(p *plan.Plan, day int, opt Options) *Record {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if opt.NoiseSigma <= 0 {
		opt.NoiseSigma = 0.10
	}
	_, perStage, d, _ := ex.Work(p, day)

	ex.counter++
	ex.tel.executions.Inc()
	ex.tel.stages.Add(int64(len(d.Stages)))
	rec := &Record{
		QueryID:    fmt.Sprintf("q%08d", ex.counter),
		Day:        day,
		Plan:       p,
		StageEnvs:  make([]cluster.Metrics, len(d.Stages)),
		StageCosts: make([]float64, len(d.Stages)),
		stageOf:    make(map[*plan.Node]int, len(d.StageOf)),
	}
	for n, s := range d.StageOf {
		rec.stageOf[n] = s.ID
	}

	var latency float64
	for i, s := range d.Stages {
		work := perStage[i]
		machines := ex.Cluster.Allocate(min(s.Instances, ex.Cluster.Size()/2))
		// ~100 work units per instance-second; windows clipped for
		// simulation efficiency.
		duration := work / (float64(s.Instances) * 100)
		if duration < cluster.SampleInterval {
			duration = cluster.SampleInterval
		}
		if duration > 600 {
			duration = 600
		}

		// Average the machines' metrics across the execution window.
		env := ex.Cluster.Average(machines)
		ex.Cluster.AddLoad(machines, loadFootprint(work, s.Instances))
		ex.Cluster.Advance(math.Min(duration, 3*cluster.SampleInterval))
		env = env.Add(ex.Cluster.Average(machines)).Scale(0.5)

		// Mean-one log-normal noise.
		sigma := opt.NoiseSigma
		noise := ex.rng.LogNormal(-sigma*sigma/2, sigma)

		cost := work * stageFactor(s, env) * noise
		rec.StageEnvs[i] = env
		rec.StageCosts[i] = cost
		rec.CPUCost += cost
		ex.tel.stageCost.Observe(cost)
		ex.tel.instances.Add(int64(s.Instances))

		// End-to-end latency is far noisier than CPU cost (§3): stages queue
		// behind other tenants' work and suffer straggler instances, both
		// worse under load. This is why LOAM predicts CPU cost.
		queueWait := ex.rng.LogNormal(2.2, 0.9) * (1.2 - env.CPUIdle)
		straggler := ex.rng.LogNormal(0, 0.35)
		latency += queueWait + duration*straggler
	}
	rec.LatencySec = latency
	return rec
}

// stageFactor is the multiplicative effect of a stage's environment on its
// work: EnvFactor, times the spill penalty when memory pressure meets a
// hash-heavy stage.
func stageFactor(s *Stage, env cluster.Metrics) float64 {
	f := EnvFactor(env)
	if env.MemUsage > spillThreshold && stageHashHeavy(s) {
		f *= spillPenalty
	}
	return f
}

func stageHashHeavy(s *Stage) bool {
	for _, n := range s.Nodes {
		if hashHeavy(n.Op) {
			return true
		}
	}
	return false
}

func loadFootprint(work float64, instances int) float64 {
	v := work / (float64(instances) * 50_000)
	if v > 0.3 {
		v = 0.3
	}
	return v
}
