// Package loam is a self-contained reproduction of LOAM, the learned query
// optimizer deployed in Alibaba MaxCompute ("Learned Query Optimizer in
// Alibaba MaxCompute: Challenges, Analysis, and Solutions").
//
// The package simulates a MaxCompute-like distributed, multi-tenant data
// warehouse end to end — synthetic projects with hidden data distributions,
// a stale/missing statistics view, a native cost-based optimizer, a
// multi-tenant cluster with dynamic machine loads, and a stage-level
// execution simulator — and implements LOAM on top of it: a statistics-free,
// environment-aware adaptive cost predictor trained with domain adaptation
// (§4), average-case environment smoothing at inference (§5), and two-stage
// project selection (§6).
//
// Typical use:
//
//	sim := loam.NewSimulation(7, loam.DefaultSimulationConfig())
//	ps := sim.AddProject(loam.DefaultProjectConfig("p1"))
//	ps.RunDays(0, 30)                        // build query history
//	dep, err := ps.Deploy(loam.DefaultDeployConfig())
//	if err != nil { ... }
//	choice, err := dep.OptimizeCtx(ctx, q)   // steer one query
//	if err != nil { ... }
package loam

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"loam/internal/cluster"
	"loam/internal/encoding"
	"loam/internal/exec"
	"loam/internal/explorer"
	"loam/internal/faultinject"
	"loam/internal/guard"
	"loam/internal/history"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/telemetry"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// SimulationConfig configures the shared substrate.
type SimulationConfig struct {
	Cluster cluster.Config
}

// DefaultSimulationConfig returns the default cluster setup.
func DefaultSimulationConfig() SimulationConfig {
	return SimulationConfig{Cluster: cluster.DefaultConfig()}
}

// ProjectConfig configures one simulated project.
type ProjectConfig struct {
	Name string
	// Archetype shapes the catalog (table/column counts, sizes, churn).
	Archetype warehouse.Archetype
	// Workload shapes the query templates.
	Workload workload.Config
	// StatsPolicy degrades the optimizer-visible statistics (Challenge C2).
	StatsPolicy stats.Policy
}

// DefaultProjectConfig returns a mid-sized project named name.
func DefaultProjectConfig(name string) ProjectConfig {
	a := warehouse.DefaultArchetype()
	a.Name = name
	return ProjectConfig{
		Name:        name,
		Archetype:   a,
		Workload:    workload.DefaultConfig(),
		StatsPolicy: stats.DefaultPolicy(),
	}
}

// Simulation is the shared multi-tenant environment: one cluster, many
// projects.
type Simulation struct {
	Cluster  *cluster.Cluster
	Projects []*ProjectSim

	rng *simrand.RNG
	tel *telemetry.Registry
}

// NewSimulation builds a simulation, deterministic in seed. The simulation
// carries a telemetry registry instrumenting the substrate — cluster
// load/utilization gauges and per-execution stage counts — which Metrics
// snapshots and Telemetry exposes for sharing with deployments.
func NewSimulation(seed uint64, cfg SimulationConfig) *Simulation {
	rng := simrand.New(seed)
	tel := telemetry.NewRegistry()
	cl := cluster.New(rng.Derive("cluster"), cfg.Cluster)
	cl.Instrument(tel)
	return &Simulation{
		Cluster: cl,
		rng:     rng,
		tel:     tel,
	}
}

// Telemetry returns the simulation's metrics registry. Pass it to
// deployments via WithMetrics to aggregate substrate, training and serving
// metrics into one snapshot.
func (s *Simulation) Telemetry() *telemetry.Registry { return s.tel }

// Metrics returns a deterministic, stable-ordered snapshot of the
// simulation's registry: cluster gauges (refreshed at every simulated sample
// step), executor counters, and anything deployments sharing the registry
// have reported. Identically-seeded, single-driver runs snapshot
// byte-identically (see internal/telemetry).
func (s *Simulation) Metrics() telemetry.Snapshot { return s.tel.Snapshot() }

// AddProject generates a project from its config and attaches it to the
// simulation.
func (s *Simulation) AddProject(cfg ProjectConfig) *ProjectSim {
	if cfg.Archetype.Name == "" {
		cfg.Archetype.Name = cfg.Name
	}
	prng := s.rng.Derive("project:" + cfg.Name)
	proj := warehouse.Generate(prng.Derive("warehouse"), cfg.Archetype)
	ps := &ProjectSim{
		Config:    cfg,
		Project:   proj,
		Gen:       workload.NewGenerator(prng.Derive("workload"), proj, cfg.Workload),
		Executor:  exec.NewExecutor(prng.Derive("exec"), s.Cluster, proj),
		Repo:      &history.Repository{},
		rng:       prng,
		views:     map[int]*stats.View{},
		explorers: map[int]*explorer.Explorer{},
	}
	ps.Executor.Instrument(s.tel)
	s.Projects = append(s.Projects, ps)
	return ps
}

// Project returns the attached project simulation by name, or nil.
func (s *Simulation) Project(name string) *ProjectSim {
	for _, p := range s.Projects {
		if p.Config.Name == name {
			return p
		}
	}
	return nil
}

// ProjectSim is one project inside the simulation: its catalog, workload
// generator, executor, and query history. The serving path (View, Explorer,
// OptimizeCtx, ExecuteChoice) is safe for concurrent use; RunDays and the
// workload generator remain single-threaded.
type ProjectSim struct {
	Config   ProjectConfig
	Project  *warehouse.Project
	Gen      *workload.Generator
	Executor *exec.Executor
	Repo     *history.Repository

	rng       *simrand.RNG
	viewMu    sync.Mutex
	views     map[int]*stats.View
	explorers map[int]*explorer.Explorer // one per cached view, same lock
}

// View returns the (cached) optimizer statistics snapshot for a day. It is
// safe for concurrent use; the first request for a day builds the snapshot
// under the cache lock, so concurrent requests never duplicate the work.
func (ps *ProjectSim) View(day int) *stats.View {
	ps.viewMu.Lock()
	defer ps.viewMu.Unlock()
	return ps.viewLocked(day)
}

func (ps *ProjectSim) viewLocked(day int) *stats.View {
	if v, ok := ps.views[day]; ok {
		return v
	}
	v := stats.Snapshot(ps.rng.Derive("stats"), ps.Project, day, ps.Config.StatsPolicy)
	ps.views[day] = v
	return v
}

// Explorer returns the plan explorer bound to a day's statistics view. Like
// the view it is built once per day and shared by every caller, concurrent
// ones included: use it as is, and copy it (`e := *ps.Explorer(day)`) to
// change a setting.
func (ps *ProjectSim) Explorer(day int) *explorer.Explorer {
	ps.viewMu.Lock()
	defer ps.viewMu.Unlock()
	if e, ok := ps.explorers[day]; ok {
		return e
	}
	e := explorer.New(ps.viewLocked(day))
	ps.explorers[day] = e
	return e
}

// ExecOptions returns the executor options the project uses for a query:
// the executor defaults with the query's own noise level. It is the one rule;
// tools that execute plans out-of-band (flighting comparisons, experiments)
// call it too.
func (ps *ProjectSim) ExecOptions(q *query.Query) exec.Options {
	opt := exec.DefaultOptions()
	if q.NoiseSigma > 0 {
		opt.NoiseSigma = q.NoiseSigma
	}
	return opt
}

// RunDays simulates production days [from, to): each day's queries are
// planned by the native optimizer (no knobs), executed on the shared
// cluster, and logged to the repository — building the historical query
// repository LOAM trains from.
func (ps *ProjectSim) RunDays(from, to int) {
	for day := from; day < to; day++ {
		ex := ps.Explorer(day)
		for _, q := range ps.Gen.Day(day) {
			def := ex.DefaultPlan(q)
			rec := ps.Executor.Execute(def, day, ps.ExecOptions(q))
			rec.TemplateID = q.TemplateID
			ps.Repo.Append(history.Entry{Query: q, Record: rec})
		}
	}
}

// DeployConfig configures training a LOAM deployment for a project.
type DeployConfig struct {
	// Predictor holds the model hyperparameters.
	Predictor predictor.Config
	// Encoder sizes the plan vectorization.
	Encoder encoding.Config
	// TrainDays and TestDays split the history (paper: 25 / 5).
	TrainDays int
	TestDays  int
	// MaxTrain caps the training set (paper: 10,000).
	MaxTrain int
	// DomainPlans is how many unexecuted candidate plans are generated for
	// domain alignment.
	DomainPlans int
}

// DefaultDeployConfig returns the paper-shaped defaults at simulator scale.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		Predictor:   predictor.DefaultConfig(),
		Encoder:     encoding.DefaultConfig(),
		TrainDays:   25,
		TestDays:    5,
		MaxTrain:    10_000,
		DomainPlans: 128,
	}
}

// Deployment is a trained LOAM instance serving one project. Once trained it
// is safe for concurrent use: OptimizeCtx and ExecuteChoice may be called
// from multiple goroutines against the same deployment (changing the
// strategy concurrently with serving is not — call SetStrategy between
// serving phases). The serving model is held behind an atomic pointer so the
// lifecycle manager (WithLifecycle) can hot-swap a retrained predictor under
// live traffic; read it via Predictor().
type Deployment struct {
	ProjectSim *ProjectSim
	Encoder    *encoding.Encoder
	// Strategy is the live inference strategy. It stays exported for reading;
	// set it via WithStrategy at deploy time or SetStrategy afterwards.
	Strategy predictor.Strategy

	TrainSize int
	TestSet   []history.Entry

	// pred is the serving model. Swaps go through the lifecycle seam
	// (Lifecycle promote/rollback), which pairs the pointer store with a
	// guard scorer swap; each stored predictor carries its own fresh plan
	// cache, so embeddings can never outlive the weights that produced them.
	pred atomic.Pointer[predictor.Predictor]
	inj  *faultinject.Injector

	tel *telemetry.Registry
	obs servingTelemetry
	grd *guard.Guard
	lc  *Lifecycle
	// dur is the crash-safe persistence seam (WithDurableStore), or nil when
	// the deployment's continual-learning state is in-memory only.
	dur *durableState
}

// Predictor returns the deployment's current serving model. With a lifecycle
// attached the model can change across calls (promote or rollback); within
// one serve call the guard reads its scorer exactly once, so a single query
// is never scored by a mix of models.
func (d *Deployment) Predictor() *predictor.Predictor { return d.pred.Load() }

// Lifecycle returns the deployment's model lifecycle manager, or nil when
// the deployment was not deployed with WithLifecycle.
func (d *Deployment) Lifecycle() *Lifecycle { return d.lc }

// SetStrategy switches the deployment's inference strategy (§5). Like the
// old direct field write it replaces, it must not race with in-flight
// OptimizeCtx calls; switch between serving phases.
func (d *Deployment) SetStrategy(s predictor.Strategy) { d.Strategy = s }

// Telemetry returns the deployment's metrics registry — the private one
// created at deploy time, or whatever WithMetrics wired in. Use it for wall
// timings (Registry.WallTimings) or to share with other deployments.
func (d *Deployment) Telemetry() *telemetry.Registry { return d.tel }

// Guard returns the deployment's serving guard: inspect the breaker state
// (State), check or lift a regression-sentinel quarantine (Quarantined,
// Reset). Every OptimizeCtx call is routed through it; see DESIGN.md "Degraded-mode serving contract".
func (d *Deployment) Guard() *Guard { return d.grd }

// Metrics returns a deterministic, stable-ordered snapshot of the
// deployment's registry: serving counters and histograms, training losses,
// and plan-selection statistics. Wall-clock readings are deliberately
// excluded so identically-seeded runs snapshot byte-identically (see
// internal/telemetry).
func (d *Deployment) Metrics() telemetry.Snapshot { return d.tel.Snapshot() }

// Deploy trains an adaptive cost predictor from the project's history and
// returns a serving deployment. The training set is the deduplicated default
// plans of the first TrainDays; unexecuted candidate plans generated by the
// explorer align the domains (§4). Options shape the deployment: WithStrategy
// picks the inference strategy, WithMetrics routes telemetry into a shared
// registry (default: a fresh private one).
func (ps *ProjectSim) Deploy(cfg DeployConfig, opts ...DeployOption) (*Deployment, error) {
	train, test := ps.Repo.Split(cfg.TrainDays, cfg.TestDays, cfg.MaxTrain)
	if len(train) == 0 {
		return nil, fmt.Errorf("deploy %s: %w", ps.Config.Name, predictor.ErrNoTrainingData)
	}
	enc := encoding.NewEncoder(cfg.Encoder)
	samples, domain := ps.trainingSet(train, cfg.Predictor.Adapt, cfg.DomainPlans)
	o := resolveDeployOptions(opts)
	pred, err := predictor.TrainInstrumented(cfg.Predictor, enc, samples, domain, o.metrics)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", ps.Config.Name, err)
	}
	return ps.deployPredictor("deploy", pred, enc, len(train), test, o)
}

// TrainingSamples turns executed queries into predictor training samples:
// the executed plan, its logged per-stage environments and its CPU cost. The
// one constructor behind every training set (the ablations relabel its Cost).
func TrainingSamples(entries []history.Entry) []predictor.Sample {
	samples := make([]predictor.Sample, len(entries))
	for i, e := range entries {
		samples[i] = predictor.Sample{
			Plan: e.Record.Plan,
			Envs: encoding.RecordEnv(e.Record.NodeEnv),
			Cost: e.Record.CPUCost,
		}
	}
	return samples
}

// trainingSet is what a deploy and a lifecycle retrain alike feed
// predictor.Train, so the two cannot drift: the samples and, under adaptive
// training, about want unexecuted candidate plans explored from a
// stride-sampled spread of the entries — the unlabeled domain of §4, cheap to
// generate (§7.2.1) and never executed. An entry without a logical query (a
// hand-built Choice's feedback) has nothing to explore.
func (ps *ProjectSim) trainingSet(entries []history.Entry, adapt bool, want int) ([]predictor.Sample, []*plan.Plan) {
	if !adapt {
		want = 0
	}
	var domain []*plan.Plan
	stride := len(entries)/max(want, 1) + 1
	for i := 0; i < len(entries) && len(domain) < want; i += stride {
		e := entries[i]
		if e.Query == nil {
			continue
		}
		for _, c := range ps.Explorer(e.Record.Day).Candidates(e.Query) {
			if !c.IsDefault() {
				domain = append(domain, c)
			}
		}
	}
	return TrainingSamples(entries), domain
}

// deployPredictor binds a trained or restored predictor to the project as a
// serving deployment and, under WithDurableStore, commits its initial
// checkpoint. op prefixes a durable-store failure ("deploy" / "restore").
func (ps *ProjectSim) deployPredictor(op string, pred *predictor.Predictor, enc *encoding.Encoder, trainSize int, test []history.Entry, o deployOptions) (*Deployment, error) {
	// A fresh cache per deployment is the invalidation rule: embeddings can
	// never outlive the weights that produced them.
	pred.EnablePlanCache(o.planCache)
	d := ps.newDeployment(pred, enc, trainSize, test, o)
	if o.durableDir != "" {
		if err := d.initDurable(o); err != nil {
			return nil, fmt.Errorf("%s %s: %w", op, ps.Config.Name, err)
		}
	}
	return d, nil
}

// newDeployment wires pred into a deployment: serving telemetry, guard, and
// (WithLifecycle) the lifecycle manager. The plan cache and the durable state
// are the caller's — deployPredictor installs fresh ones, RestoreDeployment
// re-attaches what the store holds.
func (ps *ProjectSim) newDeployment(pred *predictor.Predictor, enc *encoding.Encoder, trainSize int, test []history.Entry, o deployOptions) *Deployment {
	d := &Deployment{
		ProjectSim: ps,
		Encoder:    enc,
		Strategy:   o.strategy,
		TrainSize:  trainSize,
		TestSet:    test,
		inj:        o.injector,
		tel:        o.metrics,
		obs:        newServingTelemetry(o.metrics),
	}
	d.pred.Store(pred)
	d.grd = ps.newGuard(pred, o)
	d.attachLifecycle(o)
	return d
}

// attachLifecycle wires the model lifecycle manager when WithLifecycle was
// given: the guard's regression sentinel reports quarantine trips to the
// lifecycle (outside the guard lock), and ExecuteChoice starts harvesting
// feedback.
func (d *Deployment) attachLifecycle(o deployOptions) {
	if o.lifecycle == nil {
		return
	}
	d.lc = newLifecycle(d, *o.lifecycle)
	d.grd.SetDriftHook(d.lc.noteSentinelTrip)
}

// newGuard wires a serving guard for a deployment: the trained predictor is
// the learned scorer, the native optimizer over the day's statistics view is
// both the fallback planner and the regression sentinel's rough-cost
// reference, and any armed fault injector is bound to the project's cluster
// so load-spike faults hit the live environment.
func (ps *ProjectSim) newGuard(pred *predictor.Predictor, o deployOptions) *guard.Guard {
	if o.injector != nil {
		o.injector.AttachCluster(ps.Executor.Cluster)
	}
	return guard.New(guard.Options{
		Config: o.guardCfg,
		Scorer: pred,
		Native: func(q *query.Query) *plan.Plan {
			return nativeopt.DefaultPlan(ps.View(q.Day), q)
		},
		Rough: func(day int, p *plan.Plan) float64 {
			return nativeopt.New(ps.View(day)).RoughCost(p)
		},
		Injector: o.injector,
		Metrics:  o.metrics,
	})
}

// Choice is the outcome of steering one query. Origin reports which rung of
// the guarded serving ladder produced it: OriginLearned choices carry the
// predictor's per-candidate Estimates and a ChosenIdx into Candidates;
// fallback choices (OriginNativeFallback, OriginDefaultFallback) carry nil
// Estimates, the failure that forced the fallback in FallbackCause, and — for
// a native re-plan that is not among the explorer's candidates — ChosenIdx
// -1.
type Choice struct {
	Query      *query.Query
	Candidates []*plan.Plan
	Estimates  []float64
	Chosen     *plan.Plan
	ChosenIdx  int
	// Origin is the serving rung that produced Chosen.
	Origin Origin
	// FallbackCause is the classified learned-path failure behind a
	// degraded choice (nil for OriginLearned); match it with errors.Is
	// against the root sentinels (ErrTransientFailure, ErrBreakerOpen,
	// ErrLearnedDeadline, ...).
	FallbackCause error
}

// OptimizeCtx steers one query: the plan explorer produces candidates, the
// predictor estimates their costs under the deployment's inference strategy,
// and the cheapest is chosen (§3). The call is routed through the serving
// guard: when the learned path fails — predictor error, deadline hit, open
// circuit breaker, quarantined model — the guard degrades to a native
// re-plan or the default candidate and the Choice reports the rung in Origin
// and the failure in FallbackCause. An error is returned only when every
// rung is exhausted (ErrNoServablePlan) or the query cannot be planned at all
// (ErrInvalidQuery: nil, or naming no table).
//
// OptimizeCtx is safe for concurrent use: candidate generation reads
// immutable statistics views, the environment source reads the cluster under
// a shared lock, plan scoring is read-only on the trained model, and the
// guard's breaker accounting takes a short private lock.
//
// A canceled or expired ctx makes it return ctx.Err() promptly, checked on
// entry and again between candidate generation and plan scoring — caller
// cancellation is never masked by a fallback plan. The call also feeds the
// serving telemetry — latency, candidate counts, estimate spread, NaN
// estimates, and error counters — into the deployment's registry, alongside
// the guard.* counters.
func (d *Deployment) OptimizeCtx(ctx context.Context, q *query.Query) (*Choice, error) {
	return d.serve(ctx, q, false, nil)
}

// serve is the one request → candidates → (env) → guard → Choice drive. An
// admitted request (shed false) resolves the environment and runs the guard's
// full ladder, learned path first. A shed request — one the fleet registry's
// admission gate declined — still generates candidates (the fallback ladder
// needs them) but goes straight to the guard's native-fallback rung: the
// learned path's cost (env lookup, scoring, cache traffic, breaker
// accounting) is withheld, and the Choice reports ErrLoadShed wrapping cause
// in FallbackCause. Both feed the same serving telemetry, so fleet-wide serve
// counters stay comparable.
func (d *Deployment) serve(ctx context.Context, q *query.Query, shed bool, cause error) (*Choice, error) {
	if err := ctx.Err(); err != nil {
		d.obs.optimizeCancels.Inc()
		return nil, err
	}
	d.obs.optimizeTotal.Inc()
	if err := q.Check(); err != nil {
		d.obs.optimizeErrors.Inc()
		return nil, fmt.Errorf("optimize %s: %w", d.ProjectSim.Config.Name, err)
	}
	span := d.obs.optimizeLatency.Start()
	defer span.Stop()

	cands := d.ProjectSim.Explorer(q.Day).Candidates(q)
	d.obs.candidates.Observe(float64(len(cands)))
	if err := ctx.Err(); err != nil {
		d.obs.optimizeCancels.Inc()
		return nil, err
	}
	req := guard.Request{ID: q.ID, Day: q.Day, Query: q, Cands: cands}
	var res guard.Result
	var err error
	if shed {
		res, err = d.grd.ServeShed(req, cause)
	} else {
		req.Envs, req.EnvKey = d.envSource()
		res, err = d.grd.Serve(ctx, req)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			d.obs.optimizeCancels.Inc()
			return nil, err
		}
		d.obs.optimizeErrors.Inc()
		return nil, fmt.Errorf("optimize %s: %w", d.ProjectSim.Config.Name, err)
	}
	if res.Origin == guard.OriginLearned {
		d.obs.observeEstimates(res.Estimates)
	}
	idx := -1
	for i := range cands {
		if cands[i] == res.Chosen {
			idx = i
			break
		}
	}
	return &Choice{
		Query:         q,
		Candidates:    cands,
		Estimates:     res.Estimates,
		Chosen:        res.Chosen,
		ChosenIdx:     idx,
		Origin:        res.Origin,
		FallbackCause: res.FallbackCause,
	}, nil
}

// envSource resolves the deployment's inference strategy against the live
// cluster (§5), returning both the environment source and its cache key so
// keyed scoring can reuse cached plan embeddings. The two are derived from
// the same cluster readings, keeping key and source in lockstep.
func (d *Deployment) envSource() (encoding.EnvSource, encoding.EnvKey) {
	cl := d.ProjectSim.Executor.Cluster
	ce := cl.HistoryAverage().Normalized()
	cb := cl.ClusterAverage().Normalized()
	// One predictor read serves both derivations: the env source and its
	// cache key always describe the same model's view of the environment,
	// even if a lifecycle swap lands between two serve calls.
	p := d.pred.Load()
	return p.EnvSourceFor(d.Strategy, ce, cb), p.EnvKeyFor(d.Strategy, ce, cb)
}

// ExecuteChoice runs the chosen plan, logs it, and returns the record. With
// a lifecycle attached (WithLifecycle) the execution also feeds the online
// feedback store — the (plan, environment, actual cost) observation plus the
// model's serving-time estimate — and gives the lifecycle its chance to
// react to drift: retrain, promote, or roll back (see Lifecycle).
func (d *Deployment) ExecuteChoice(c *Choice) *exec.Record {
	rec := d.ProjectSim.Executor.Execute(c.Chosen, c.Query.Day, d.ProjectSim.ExecOptions(c.Query))
	rec.TemplateID = c.Query.TemplateID
	d.ProjectSim.Repo.Append(history.Entry{Query: c.Query, Record: rec})
	if d.lc != nil {
		d.lc.observe(c, rec)
	}
	return rec
}

// Rng derives a named deterministic random stream from the project's root
// stream — used by experiments that need reproducible ad-hoc draws.
func (ps *ProjectSim) Rng(name string) *simrand.RNG { return ps.rng.Derive(name) }

// SaveModel serializes the deployment's current serving predictor — after a
// lifecycle promote, that is the promoted model.
func (d *Deployment) SaveModel(w io.Writer) error { return d.pred.Load().Save(w) }

// DeployFromModel restores a previously saved predictor and binds it to this
// project as a serving deployment. trainDays/testDays select which history
// window serves as the deployment's validation test set (as in Deploy). The
// deployment's encoder is rebuilt from the encoder configuration serialized
// with the model, not from the package default, so a model trained under a
// non-default encoding keeps its feature layout after restore. Options work
// as in Deploy; the restored predictor's plan-selection telemetry is wired
// into the resolved registry.
func (ps *ProjectSim) DeployFromModel(r io.Reader, trainDays, testDays int, opts ...DeployOption) (*Deployment, error) {
	pred, err := predictor.Load(r)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", ps.Config.Name, err)
	}
	o := resolveDeployOptions(opts)
	pred.Instrument(o.metrics)
	train, test := ps.Repo.Split(trainDays, testDays, 0)
	return ps.deployPredictor("restore", pred, encoding.NewEncoder(pred.EncoderConfig()), len(train), test, o)
}
