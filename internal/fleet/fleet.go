// Package fleet is the multi-tenant serving layer: a deployment registry
// that routes per-project traffic to its backend behind one public entry
// point (Route), governs a global plan-cache memory budget across all
// tenants, and applies per-tenant admission control so one hot project
// degrades itself — never its neighbors — under load.
//
// The paper's deployment serves >100k projects across >5k machines; the
// registry is that warehouse-scale shape in miniature. Three disciplines
// carry over from the rest of the repo:
//
//   - Lock-free request-path reads. The registry publishes its tenant table
//     as one immutable atomic snapshot (the same atomic.Pointer discipline
//     lifecycle.go uses for predictor hot-swap); Route loads the snapshot
//     and never takes a control-plane lock. Register/Deregister build the
//     next table and swap it in under the registry lock.
//   - Deterministic admission. Token buckets are clocked on serve calls,
//     never wall time (the circuit breaker's convention): each serve refills
//     a fixed fraction and charges a per-lane price, and Tick — a
//     control-plane call between traffic waves — restores burst headroom.
//     Per-tenant outcomes are a pure function of that tenant's own request
//     sequence, so fleet.* counters are scheduling-independent when traffic
//     is parallel across tenants and ordered within one.
//   - Deterministic budget governance. The global cache budget is divided by
//     Rebalance in sorted tenant order using integer arithmetic — hot
//     projects (by serve count since the last rebalance) earn cache, cold
//     ones shrink — and grants are applied under the registry lock, so
//     eviction sequences and fleet.cache.* gauges are reproducible.
//
// An over-budget tenant is never queued: Route degrades it to the backend's
// shed path (the guard's native-fallback rung), keeping availability at 100%
// while the learned path's cost is withheld. Recurring (cache-keyed) queries
// ride a cheaper priority lane, so the traffic that amortizes best through
// the plan cache is the last to shed.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"loam/internal/query"
	"loam/internal/telemetry"
)

// Sentinel errors for registry operations and admission decisions.
var (
	// ErrUnknownTenant reports routing to a project with no registered
	// backend.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrDuplicateTenant reports registering a project twice.
	ErrDuplicateTenant = errors.New("fleet: tenant already registered")
	// ErrNilBackend reports registering a nil backend.
	ErrNilBackend = errors.New("fleet: nil backend")
	// ErrTenantThrottled is the admission gate's shed cause: the tenant's
	// token bucket is exhausted, so this query serves from the fallback
	// ladder instead of the learned path. It appears (wrapped under the
	// guard's ErrLoadShed) in the served Choice's FallbackCause — never as a
	// Route error, because shedding is degradation, not failure.
	ErrTenantThrottled = errors.New("fleet: tenant over admission budget")
)

// Backend is one tenant's serving engine. The root package adapts
// *loam.Deployment to it; synthetic tenants implement it directly for
// fleet-scale experiments. OptimizeCtx is the admitted path and ShedCtx the
// degraded one; both return the backend's native choice type as `any` (the
// root veneer restores the concrete type).
type Backend interface {
	// OptimizeCtx serves one admitted query on the full ladder (learned path
	// first). Reached only through the registry's admission gate —
	// loam-vet's guarddiscipline enforces that inside this package.
	OptimizeCtx(ctx context.Context, q *query.Query) (any, error)
	// ShedCtx serves one load-shed query from the fallback ladder only,
	// with cause recording why admission declined it.
	ShedCtx(ctx context.Context, q *query.Query, cause error) (any, error)
	// CacheLen reports the backend's current plan-cache entry count.
	CacheLen() int
	// SetCacheCapacity applies a budget grant to the backend's plan cache,
	// evicting down to n entries when shrinking.
	SetCacheCapacity(n int)
}

// Config tunes the registry. The zero value is normalized to DefaultConfig
// field-by-field.
type Config struct {
	// Shards has no effect: the registry keeps one tenant table, not hash
	// shards. The field stays only because bench/scenario.go still sets it.
	Shards int
	// CacheBudget is the global plan-cache budget: the sum of all tenants'
	// cache grants never exceeds it.
	CacheBudget int
	// InitialGrant caps the cache grant a tenant receives at Register time,
	// drawn from the unallocated pool; Rebalance later re-divides the whole
	// budget by observed traffic.
	InitialGrant int
	// Admission tunes the per-tenant token buckets.
	Admission AdmissionConfig
	// Metrics receives the fleet.* instruments; nil disables telemetry.
	Metrics *telemetry.Registry
}

// AdmissionConfig tunes the serve-call-clocked token buckets. All prices and
// refills are in tokens; a bucket starts full at Burst.
type AdmissionConfig struct {
	// Burst is the bucket capacity.
	Burst float64
	// RefillPerServe is added to the bucket at each of the tenant's own
	// serve calls (before charging), capped at Burst. Keeping it below
	// StandardCost makes sustained over-rate traffic drain the bucket.
	RefillPerServe float64
	// RefillPerTick is added per control-plane Tick (between traffic waves),
	// capped at Burst.
	RefillPerTick float64
	// StandardCost is the admission price of a standard-lane query.
	StandardCost float64
	// RecurringCost is the admission price of a recurring-lane query — a
	// query whose template the tenant has seen recently, i.e. the
	// cache-keyed traffic that amortizes through the plan cache. Priced
	// below StandardCost it forms the priority lane.
	RecurringCost float64
	// RecurringTemplates bounds the per-tenant set of templates considered
	// recurring (FIFO over first-seen order).
	RecurringTemplates int
}

// DefaultConfig returns serving-scale registry settings.
func DefaultConfig() Config {
	return Config{
		CacheBudget:  4096,
		InitialGrant: 64,
		Admission: AdmissionConfig{
			Burst:              32,
			RefillPerServe:     0.75,
			RefillPerTick:      8,
			StandardCost:       1,
			RecurringCost:      0.25,
			RecurringTemplates: 32,
		},
	}
}

// normalize fills non-positive or non-finite fields from the defaults.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.CacheBudget <= 0 {
		c.CacheBudget = d.CacheBudget
	}
	if c.InitialGrant <= 0 {
		c.InitialGrant = d.InitialGrant
	}
	c.Admission = c.Admission.normalize(d.Admission)
	return c
}

func (a AdmissionConfig) normalize(d AdmissionConfig) AdmissionConfig {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 }
	if bad(a.Burst) {
		a.Burst = d.Burst
	}
	if bad(a.RefillPerServe) {
		a.RefillPerServe = d.RefillPerServe
	}
	if bad(a.RefillPerTick) {
		a.RefillPerTick = d.RefillPerTick
	}
	if bad(a.StandardCost) {
		a.StandardCost = d.StandardCost
	}
	if bad(a.RecurringCost) {
		a.RecurringCost = d.RecurringCost
	}
	if a.RecurringTemplates <= 0 {
		a.RecurringTemplates = d.RecurringTemplates
	}
	return a
}

// Registry is the deployment registry — the single public serving entry
// point for a fleet. Route is safe for unbounded concurrency; the
// control-plane methods (Register, Deregister, Tick, Rebalance) serialize on
// the registry lock and may run concurrently with serving.
type Registry struct {
	cfg   Config
	table atomic.Pointer[tenantTable]
	tel   fleetTelemetry

	// mu serializes the control plane: registration, deregistration and
	// budget accounting. Lock order: mu -> tenant.mu.
	mu      sync.Mutex
	granted int // Σ live cache grants; invariant: granted <= cfg.CacheBudget
}

// tenantTable is one immutable snapshot of the registered tenants: the
// request path's lookup map and the control plane's walk order. Register and
// Deregister build the next table under Registry.mu and swap the pointer;
// nothing writes to a published table.
type tenantTable struct {
	byName map[string]*tenant
	sorted []*tenant // by name
}

// find returns the index of name in sorted, or where it would be inserted.
func (tab *tenantTable) find(name string) int {
	i, _ := slices.BinarySearchFunc(tab.sorted, name, func(t *tenant, name string) int {
		return strings.Compare(t.name, name)
	})
	return i
}

// New builds an empty registry (Config normalized via DefaultConfig).
func New(cfg Config) *Registry {
	cfg = cfg.normalize()
	r := &Registry{cfg: cfg, tel: newFleetTelemetry(cfg.Metrics)}
	r.table.Store(&tenantTable{byName: map[string]*tenant{}})
	r.tel.budget.Set(float64(cfg.CacheBudget))
	return r
}

// Config returns the registry's normalized configuration.
func (r *Registry) Config() Config { return r.cfg }

// Register adds a backend for project and grants it cache capacity from the
// unallocated pool (up to InitialGrant). The new tenant becomes routable the
// moment the table swaps.
func (r *Registry) Register(project string, b Backend) error {
	if b == nil {
		return fmt.Errorf("register %q: %w", project, ErrNilBackend)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.table.Load()
	if _, ok := old.byName[project]; ok {
		return fmt.Errorf("register %q: %w", project, ErrDuplicateTenant)
	}
	grant := r.cfg.InitialGrant
	if free := r.cfg.CacheBudget - r.granted; grant > free {
		grant = free
	}
	if grant < 0 {
		grant = 0
	}
	t := newTenant(project, b, r.cfg.Admission)
	t.grant = grant
	b.SetCacheCapacity(grant)
	next := &tenantTable{
		byName: maps.Clone(old.byName),
		sorted: slices.Insert(slices.Clone(old.sorted), old.find(project), t),
	}
	next.byName[project] = t
	r.table.Store(next)
	r.granted += grant
	r.tel.registered.Inc()
	r.tel.tenants.Set(float64(len(next.sorted)))
	r.tel.grantedGauge.Set(float64(r.granted))
	return nil
}

// Deregister removes project's backend, returning its cache grant to the
// pool (the backend's cache capacity is set to 0 — it leaves governed and
// empty). Reports whether the project was registered.
func (r *Registry) Deregister(project string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.table.Load()
	t, ok := old.byName[project]
	if !ok {
		return false
	}
	i := old.find(project)
	next := &tenantTable{
		byName: maps.Clone(old.byName),
		sorted: slices.Delete(slices.Clone(old.sorted), i, i+1),
	}
	delete(next.byName, project)
	r.table.Store(next)
	r.granted -= t.grant
	t.backend.SetCacheCapacity(0)
	r.tel.deregistered.Inc()
	r.tel.tenants.Set(float64(len(next.sorted)))
	r.tel.grantedGauge.Set(float64(r.granted))
	return true
}

// Route serves one query for project: resolve the tenant on the lock-free
// snapshot, run the admission gate, then either the full ladder (admitted)
// or the backend's shed path (over budget). It returns the backend's choice
// value; the error is non-nil only for unknown tenants, a nil query
// (query.ErrInvalid, refused before the gate), caller cancellation, or a
// backend that could not serve — every rung failed, or the query is one it
// cannot plan; a shed, by design, still succeeds.
func (r *Registry) Route(ctx context.Context, project string, q *query.Query) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.tel.routeTotal.Inc()
	span := r.tel.routeLatency.Start()
	defer span.Stop()
	t := r.table.Load().byName[project]
	if t == nil {
		r.tel.routeUnknown.Inc()
		return nil, fmt.Errorf("route %q: %w", project, ErrUnknownTenant)
	}
	// Before the gate, which reads the query: a request no backend can serve
	// must not cost the tenant a token. What else makes a query unservable is
	// the backend's to say (a synthetic tenant serves one that names no table).
	if q == nil {
		r.tel.routeErrors.Inc()
		return nil, fmt.Errorf("route %q: %w", project, query.ErrInvalid)
	}
	admitted, recurring := t.admit(q)
	if recurring {
		r.tel.laneRecurring.Inc()
	} else {
		r.tel.laneStandard.Inc()
	}
	if !admitted {
		r.tel.shed.Inc()
		out, err := t.backend.ShedCtx(ctx, q, ErrTenantThrottled)
		if err != nil {
			r.tel.routeErrors.Inc()
		}
		return out, err
	}
	r.tel.admitted.Inc()
	out, err := r.serveAdmitted(ctx, t, q)
	if err != nil {
		r.tel.routeErrors.Inc()
	}
	return out, err
}

// serveAdmitted is the one sanctioned exit from the admission gate to a
// backend's full serving ladder. Keep every Backend.OptimizeCtx call in this
// package inside this function: loam-vet's guarddiscipline analyzer flags
// any other call site, because a stray OptimizeCtx would bypass the token
// buckets entirely.
func (r *Registry) serveAdmitted(ctx context.Context, t *tenant, q *query.Query) (any, error) {
	return t.backend.OptimizeCtx(ctx, q)
}

// Tenants returns the registered project names, sorted.
func (r *Registry) Tenants() []string {
	sorted := r.table.Load().sorted
	names := make([]string, len(sorted))
	for i, t := range sorted {
		names[i] = t.name
	}
	return names
}

// TenantStats is a point-in-time view of one tenant's admission and cache
// state, for tests and experiment reporting.
type TenantStats struct {
	Tokens    float64
	Served    int64
	Grant     int
	CacheLen  int
	Recurring int
}

// Stats returns project's current stats; ok is false for unknown tenants.
func (r *Registry) Stats(project string) (TenantStats, bool) {
	t := r.table.Load().byName[project]
	if t == nil {
		return TenantStats{}, false
	}
	return t.stats(), true
}
