package experiments

import (
	"fmt"

	"loam"
	"loam/internal/history"
	"loam/internal/predictor"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// Env is the shared evaluation environment: one simulation hosting the five
// evaluation projects with 30 days of history, plus caches for trained
// deployments and ground-truth candidate measurements, so the experiments
// that share inputs (Figs. 6, 7, 9, 10, 11) do not recompute them.
type Env struct {
	Cfg Config
	Sim *loam.Simulation

	projects    []*loam.ProjectSim
	evals       map[string]*ProjectEval
	deployments map[string]*loam.Deployment
	fleet       []*FleetProject
}

// NewEnv builds the environment: projects generated, 30 days of production
// history executed and logged.
func NewEnv(cfg Config) *Env {
	e := &Env{
		Cfg:         cfg,
		Sim:         loam.NewSimulation(cfg.Seed, loam.DefaultSimulationConfig()),
		evals:       map[string]*ProjectEval{},
		deployments: map[string]*loam.Deployment{},
	}
	horizon := cfg.TrainDays + cfg.TestDays
	for _, spec := range cfg.EvalProjectSpecs() {
		sw := walltime.Start()
		ps := e.Sim.AddProject(loam.ProjectConfig{
			Name:        spec.Name,
			Archetype:   spec.Archetype,
			Workload:    spec.Workload,
			StatsPolicy: spec.Stats,
		})
		ps.RunDays(0, horizon)
		e.projects = append(e.projects, ps)
		cfg.logf("built %s: %d records, %d tables, %d columns (%.1fs)",
			spec.Name, ps.Repo.Len(), len(ps.Project.Tables), ps.Project.NumColumns(),
			sw.Seconds())
	}
	return e
}

// Metrics returns a deterministic snapshot of the environment's combined
// telemetry: cluster gauges, executor counters, and the training and serving
// metrics of every deployment trained through Env.Deployment (they all share
// the simulation's registry).
func (e *Env) Metrics() telemetry.Snapshot { return e.Sim.Metrics() }

// Telemetry returns the environment's shared registry, e.g. for wall-clock
// timings (Registry.WallTimings), which are reporting-only and never part of
// the deterministic snapshot.
func (e *Env) Telemetry() *telemetry.Registry { return e.Sim.Telemetry() }

// Projects returns the evaluation projects in Table-1 order.
func (e *Env) Projects() []*loam.ProjectSim { return e.projects }

// Project returns one project by name.
func (e *Env) Project(name string) *loam.ProjectSim { return e.Sim.Project(name) }

// EvalQuery is one test query measured by loam.ProjectSim.MeasureQuery, with
// the cluster-wide environment observations at its optimization moment,
// read from the flighting fork before its candidates run: the instantaneous
// average (what LOAM-CB would read) and the 24-h fitted expectation (what
// LOAM-CE would use).
type EvalQuery struct {
	loam.Measured
	ClusterCurrent  [4]float64
	ClusterExpected [4]float64
}

// ProjectEval is a project's measured test workload.
type ProjectEval struct {
	Name    string
	Queries []EvalQuery
	// TrainSize is the deduplicated training-set size.
	TrainSize int
	// TestSize is the deduplicated test-set size before the EvalQueries cap.
	TestSize int
	// AvgTrainCost is the mean CPU cost over the training window (Table 1).
	AvgTrainCost float64
}

// Native returns the native optimizer's average cost over the measured
// queries: the mean of the default plans' flighted means.
func (pe *ProjectEval) Native() float64 {
	sum := 0.0
	for i := range pe.Queries {
		sum += pe.Queries[i].Means[0]
	}
	if n := float64(len(pe.Queries)); n > 0 {
		sum /= n
	}
	return sum
}

// Eval measures a project's test queries: for every test query the explorer
// produces the top-5 candidates (default included), and every candidate is
// executed EvalReps times in the flighting environment, one fork of the
// project's executor (purpose "flight/eval") that all its queries share, so
// the cluster observations move from query to query. Results are cached.
func (e *Env) Eval(name string) *ProjectEval {
	if pe, ok := e.evals[name]; ok {
		return pe
	}
	ps := e.Project(name)
	if ps == nil {
		panic(fmt.Sprintf("experiments: unknown project %q", name))
	}
	train, test := ps.Repo.Split(e.Cfg.TrainDays, e.Cfg.TestDays, e.Cfg.MaxTrain)
	pe := &ProjectEval{
		Name:         name,
		TrainSize:    len(train),
		TestSize:     len(test),
		AvgTrainCost: history.AvgCost(train),
	}
	if e.Cfg.EvalQueries > 0 && len(test) > e.Cfg.EvalQueries {
		test = test[:e.Cfg.EvalQueries]
	}
	sw := walltime.Start()
	flight := ps.Executor.Fork("flight/eval")
	for _, entry := range test {
		pe.Queries = append(pe.Queries, EvalQuery{
			ClusterCurrent:  flight.Cluster.ClusterAverage().Normalized(),
			ClusterExpected: flight.Cluster.HistoryAverage().Normalized(),
			Measured:        ps.MeasureQuery(flight, entry, e.Cfg.EvalReps),
		})
	}
	e.Cfg.logf("evaluated %s: %d test queries × ≤5 candidates × %d reps (%.1fs)",
		name, len(pe.Queries), e.Cfg.EvalReps, sw.Seconds())
	e.evals[name] = pe
	return pe
}

// Variant identifies one trained model configuration.
type Variant struct {
	Kind     predictor.Kind
	Adapt    bool
	UseEnv   bool
	MaxTrain int // 0 = config default
}

// LOAMVariant is the default LOAM model.
func LOAMVariant() Variant { return Variant{Kind: predictor.KindTCN, Adapt: true, UseEnv: true} }

func (v Variant) key(project string) string {
	return fmt.Sprintf("%s/%v/adapt=%v/env=%v/max=%d", project, v.Kind, v.Adapt, v.UseEnv, v.MaxTrain)
}

// Label names the variant for result tables.
func (v Variant) Label() string {
	switch {
	case v.Kind != predictor.KindTCN:
		return v.Kind.String()
	case !v.Adapt:
		return "LOAM-NA"
	case !v.UseEnv:
		return "LOAM-NL"
	default:
		return "LOAM"
	}
}

// Deployment trains (or returns the cached) model for a project + variant.
func (e *Env) Deployment(project string, v Variant) (*loam.Deployment, error) {
	key := v.key(project)
	if d, ok := e.deployments[key]; ok {
		return d, nil
	}
	ps := e.Project(project)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = e.Cfg.TrainDays
	dcfg.TestDays = e.Cfg.TestDays
	dcfg.MaxTrain = e.Cfg.MaxTrain
	if v.MaxTrain > 0 {
		dcfg.MaxTrain = v.MaxTrain
	}
	dcfg.Predictor = e.Cfg.predictorConfig(v.Kind)
	dcfg.Predictor.Adapt = v.Adapt
	dcfg.Predictor.UseEnv = v.UseEnv
	sw := walltime.Start()
	// Route the deployment's telemetry into the simulation's registry so one
	// snapshot (Env.Metrics) covers substrate, training and serving.
	dep, err := ps.Deploy(dcfg, loam.WithMetrics(e.Sim.Telemetry()))
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", key, err)
	}
	e.Cfg.logf("trained %s: train=%d %.1fs %.1fMB", key, dep.TrainSize,
		sw.Seconds(), float64(dep.Predictor().Metrics().ModelBytes)/1e6)
	e.deployments[key] = dep
	return dep, nil
}
