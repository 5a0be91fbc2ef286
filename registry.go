package loam

import (
	"context"
	"fmt"

	"loam/internal/fleet"
	"loam/internal/guard"
	"loam/internal/query"
)

// This file is the root package's fleet-serving surface: the registry veneer
// that makes fleet.Registry the single serving entry point for many
// deployments at once, the adapter that plugs a *Deployment in as a fleet
// backend, and the deployment-side seam the registry governs (the budgeted
// plan-cache capacity; the shed path is Deployment.serve in loam.go). The
// mechanics — the tenant table, admission token buckets, global cache
// budget — live in internal/fleet.

// Fleet configuration and reporting types, re-exported so application code
// never imports internal packages.
type (
	// FleetConfig tunes a fleet registry: global plan-cache budget,
	// admission token buckets. The zero value takes defaults.
	FleetConfig = fleet.Config
	// FleetAdmissionConfig tunes the per-tenant admission token buckets.
	FleetAdmissionConfig = fleet.AdmissionConfig
	// FleetBackend is the serving engine interface a registry routes to.
	// Deployments adapt to it via FleetRegistry.Register; synthetic tenants
	// (fleet-scale experiments) implement it directly.
	FleetBackend = fleet.Backend
	// FleetTenantStats is a point-in-time view of one tenant's admission and
	// cache state.
	FleetTenantStats = fleet.TenantStats
	// FleetBudgetStatus is a point-in-time view of the global cache budget.
	FleetBudgetStatus = fleet.BudgetStatus
)

// DefaultFleetConfig returns serving-scale registry settings.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// Fleet registry sentinels, re-exported for errors.Is.
var (
	// ErrUnknownTenant reports routing to a project with no registered
	// backend.
	ErrUnknownTenant = fleet.ErrUnknownTenant
	// ErrDuplicateTenant reports registering a project twice.
	ErrDuplicateTenant = fleet.ErrDuplicateTenant
	// ErrTenantThrottled is the admission gate's shed cause. It appears —
	// wrapped under ErrLoadShed — in a shed Choice's FallbackCause, never as
	// a Route error: shedding is degradation, not failure.
	ErrTenantThrottled = fleet.ErrTenantThrottled
	// ErrLoadShed classifies a Choice served degraded because admission
	// control declined the learned path (the guard's load-shed rung).
	ErrLoadShed = guard.ErrLoadShed
)

// FleetRegistry is the multi-tenant serving layer over a set of deployments:
// per-project backends in one table for lock-free routing, per-tenant
// admission control clocked on serve calls, and a global plan-cache budget
// divided across tenants by observed traffic. Route is the single public
// serving entry point for a fleet — it runs the admission gate and then the
// deployment's full guarded ladder, or the native-fallback shed path for an
// over-budget tenant. See DESIGN.md "Fleet serving contract".
type FleetRegistry struct {
	reg *fleet.Registry
}

// NewFleetRegistry builds a standalone fleet registry. Wire cfg.Metrics to
// aggregate fleet.* telemetry with other components; prefer
// Simulation.NewFleet inside a simulation, which does that for you.
func NewFleetRegistry(cfg FleetConfig) *FleetRegistry {
	return &FleetRegistry{reg: fleet.New(cfg)}
}

// NewFleet builds a fleet registry wired to the simulation's telemetry
// registry (unless cfg.Metrics overrides it), so fleet.* counters land in the
// same snapshot as cluster and serving metrics.
func (s *Simulation) NewFleet(cfg FleetConfig) *FleetRegistry {
	if cfg.Metrics == nil {
		cfg.Metrics = s.tel
	}
	return NewFleetRegistry(cfg)
}

// Register adds a deployment as project's serving backend. The registry takes
// over the deployment's plan-cache capacity: the initial grant (and every
// later Rebalance) resizes the cache in place, and lifecycle promotes size
// their fresh caches from the live grant.
func (f *FleetRegistry) Register(project string, d *Deployment) error {
	if d == nil {
		return fmt.Errorf("register %q: %w", project, fleet.ErrNilBackend)
	}
	return f.reg.Register(project, &fleetBackend{d: d})
}

// RegisterBackend adds a custom FleetBackend (e.g. a fleet.SyntheticTenant)
// as project's serving engine. Route on such a tenant returns a nil *Choice —
// read its native value via Registry().Route instead.
func (f *FleetRegistry) RegisterBackend(project string, b FleetBackend) error {
	return f.reg.Register(project, b)
}

// Deregister removes project's backend, returning its cache grant to the
// pool. Reports whether the project was registered.
func (f *FleetRegistry) Deregister(project string) bool { return f.reg.Deregister(project) }

// Route serves one query for project through the admission gate: an admitted
// query runs the deployment's full guarded ladder (learned path first), an
// over-budget one is degraded to the guard's native-fallback rung with
// ErrLoadShed/ErrTenantThrottled in the Choice's FallbackCause. The error is
// non-nil only for unknown tenants, caller cancellation, or total ladder
// exhaustion — a shed still serves.
func (f *FleetRegistry) Route(ctx context.Context, project string, q *query.Query) (*Choice, error) {
	out, err := f.reg.Route(ctx, project, q)
	c, _ := out.(*Choice)
	return c, err
}

// Tick advances the fleet's logical admission clock: every tenant's bucket
// refills by RefillPerTick. Call it between traffic waves.
func (f *FleetRegistry) Tick() { f.reg.Tick() }

// Rebalance re-divides the global plan-cache budget across tenants in
// proportion to traffic since the last call — hot projects earn cache, cold
// ones shrink (deterministically; see internal/fleet).
func (f *FleetRegistry) Rebalance() { f.reg.Rebalance() }

// Budget reports the current global cache budget status.
func (f *FleetRegistry) Budget() FleetBudgetStatus { return f.reg.Budget() }

// Stats returns project's admission and cache stats; ok is false for unknown
// tenants.
func (f *FleetRegistry) Stats(project string) (FleetTenantStats, bool) { return f.reg.Stats(project) }

// Tenants returns the registered project names, sorted.
func (f *FleetRegistry) Tenants() []string { return f.reg.Tenants() }

// Registry exposes the underlying fleet.Registry for callers that mix
// deployments with custom backends (fleet-scale experiments).
func (f *FleetRegistry) Registry() *fleet.Registry { return f.reg }

// fleetBackend adapts a *Deployment to the fleet.Backend interface.
type fleetBackend struct {
	d *Deployment
}

// OptimizeCtx serves one admitted query on the deployment's full ladder.
func (b *fleetBackend) OptimizeCtx(ctx context.Context, q *query.Query) (any, error) {
	c, err := b.d.OptimizeCtx(ctx, q)
	if c == nil {
		// Return a true nil interface, not a typed-nil *Choice.
		return nil, err
	}
	return c, err
}

// ShedCtx serves one load-shed query from the fallback ladder.
func (b *fleetBackend) ShedCtx(ctx context.Context, q *query.Query, cause error) (any, error) {
	c, err := b.d.serve(ctx, q, true, cause)
	if c == nil {
		return nil, err
	}
	return c, err
}

// CacheLen reports the deployment's current plan-cache entry count.
func (b *fleetBackend) CacheLen() int { return b.d.pred.Load().PlanCacheLen() }

// SetCacheCapacity applies a fleet budget grant: the live predictor's cache
// is resized in place (shrinks evict the LRU tail, survivors keep their
// embeddings). Its capacity is the only record of the grant — promoteLocked
// sizes the next model's cache from it. The predictor read is atomic, so a
// concurrent promote either copies the granted capacity or gets resized here.
func (b *fleetBackend) SetCacheCapacity(n int) { b.d.pred.Load().SetPlanCacheCapacity(n) }
