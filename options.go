package loam

import (
	"loam/internal/atomicio"
	"loam/internal/faultinject"
	"loam/internal/guard"
	"loam/internal/predictor"
	"loam/internal/telemetry"
)

// DeployOption configures a deployment at Deploy / DeployFromModel /
// RestoreDeployment time. Options replace post-hoc field mutation as the way to
// shape a deployment: the Strategy field stays readable, but writes go
// through WithStrategy (at deploy time) or SetStrategy (afterwards).
type DeployOption func(*deployOptions)

// DefaultPlanCacheCapacity is the plan-embedding cache size deployments get
// unless WithPlanCache overrides it: comfortably larger than a day's distinct
// (plan, environment) pairs at simulator scale, small enough that even
// embedding-heavy models stay within a few MB.
const DefaultPlanCacheCapacity = 4096

// deployOptions is the resolved option set.
type deployOptions struct {
	strategy   predictor.Strategy
	metrics    *telemetry.Registry
	guardCfg   guard.Config
	injector   *faultinject.Injector
	planCache  int
	lifecycle  *LifecycleConfig
	durableDir string
	durableFS  *atomicio.FS
}

// resolveDeployOptions applies opts over the defaults: the paper's MeanEnv
// inference strategy (§5), a fresh private metrics registry, the default
// guard configuration, the default plan-embedding cache and no fault
// injector.
func resolveDeployOptions(opts []DeployOption) deployOptions {
	o := deployOptions{
		strategy:  predictor.StrategyMeanEnv,
		metrics:   telemetry.NewRegistry(),
		guardCfg:  guard.DefaultConfig(),
		planCache: DefaultPlanCacheCapacity,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithStrategy selects the deployment's inference strategy (§5, §7.2.5)
// instead of the default StrategyMeanEnv.
func WithStrategy(s predictor.Strategy) DeployOption {
	return func(o *deployOptions) { o.strategy = s }
}

// WithMetrics routes the deployment's telemetry — serving counters and
// latency timers, training losses, plan-selection statistics — into reg
// instead of a fresh private registry. Pass one registry to several
// deployments (or a Simulation's registry, see Simulation.Telemetry) to
// aggregate a fleet into one snapshot; instruments are concurrency-safe, and
// every snapshot value stays order-independent, but sharing one registry
// across concurrently TRAINING deployments makes last-write-wins gauges
// (train.final_cost_loss) depend on completion order.
func WithMetrics(reg *telemetry.Registry) DeployOption {
	return func(o *deployOptions) { o.metrics = reg }
}

// WithGuardConfig tunes the deployment's serving guard — the learned-path
// deadline, the circuit breaker's window/threshold/cooldown, and the
// regression sentinel's divergence band (see GuardConfig). Zero fields keep
// their defaults, except Deadline, where an explicit zero disables the
// learned-path deadline.
func WithGuardConfig(cfg GuardConfig) DeployOption {
	return func(o *deployOptions) { o.guardCfg = cfg }
}

// WithPlanCache sizes the deployment's plan-embedding cache (default
// DefaultPlanCacheCapacity). The cache memoizes backbone embeddings keyed by
// the plan's structural fingerprint and the inference environment's identity;
// recurring queries then skip the encoder and backbone forward entirely, and
// only re-score the cached embedding through the cost head. Cached scoring is
// bit-identical to uncached scoring. capacity <= 0 disables caching. Each
// Deploy/DeployFromModel installs a fresh cache, so a retrained or reloaded
// model never sees embeddings from older weights.
func WithPlanCache(capacity int) DeployOption {
	return func(o *deployOptions) { o.planCache = capacity }
}

// WithLifecycle attaches a model lifecycle manager to the deployment: every
// ExecuteChoice feeds a bounded feedback store, drift (prediction-vs-actual
// divergence, or the guard sentinel's quarantine trips) triggers a
// deterministic retrain, the retrained model is shadow-scored against the
// incumbent on the recent feedback window, and an accepted model is
// hot-swapped in atomically — with automatic rollback if the sentinel trips
// on the promoted model while its predecessor is still on file. Zero config
// fields take defaults (see LifecycleConfig); pass DefaultLifecycleConfig()
// for the standard loop.
func WithLifecycle(cfg LifecycleConfig) DeployOption {
	return func(o *deployOptions) { o.lifecycle = &cfg }
}

// WithDurableStore roots the deployment's crash-safe persistence at dir (see
// DESIGN.md "Durability & recovery contract"). Deploy and DeployFromModel
// commit an initial checkpoint there; with a lifecycle attached, every
// promote, rollback and probation clearance commits another, and every
// harvested feedback observation is journaled so the drift detector resumes
// its real window after a restart. Restore the state with
// ProjectSim.RestoreDeployment(dir, ...). An empty dir (or no option) keeps
// the deployment's continual-learning state in memory only.
func WithDurableStore(dir string) DeployOption {
	return func(o *deployOptions) { o.durableDir = dir }
}

// WithDurableFS routes the deployment's durable writes through fs instead of
// atomicio.Default — the seam chaos tests and the kill-point recovery harness
// use to inject torn writes, partial renames and crashes at exact write
// points. Serving code never needs it.
func WithDurableFS(fs *atomicio.FS) DeployOption {
	return func(o *deployOptions) { o.durableFS = fs }
}

// WithFaultInjector arms the deployment with a deterministic fault injector
// (see NewFaultInjector): injected predictor errors, NaN estimates, deadline
// stalls, native-planner failures and cluster load spikes exercise the
// guard's fallback ladder without touching the model. The injector is bound
// to the project's cluster at deploy time so load-spike faults perturb the
// live environment the way a real noisy neighbor would. Pass nil (or no
// option) to serve without injection; injection decisions are pure functions
// of (injector seed, fault kind, query ID), so same-seed runs inject
// identically regardless of serving order or parallelism.
func WithFaultInjector(inj *FaultInjector) DeployOption {
	return func(o *deployOptions) { o.injector = inj }
}
