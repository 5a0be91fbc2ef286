package loam

import (
	"context"
	"errors"
	"testing"

	"loam/internal/fleet"
	"loam/internal/query"
)

// fleetSim builds three small projects with five days of history each, plus
// one project ("empty") with none.
func fleetSim(t *testing.T) *Simulation {
	t.Helper()
	sim := NewSimulation(51, DefaultSimulationConfig())
	for i, name := range []string{"fa", "fb", "fc"} {
		cfg := DefaultProjectConfig(name)
		cfg.Archetype.NumTables = 8 + i
		cfg.Workload.NumTemplates = 4
		cfg.Workload.QueriesPerDayMean = 4
		ps := sim.AddProject(cfg)
		ps.RunDays(0, 5)
	}
	// One project with no history at all.
	cfg := DefaultProjectConfig("empty")
	sim.AddProject(cfg)
	return sim
}

func fleetDeployConfig() DeployConfig {
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 4
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	return dcfg
}

// registryFixture deploys two small projects and registers them on a fleet
// with a tight admission budget, returning fresh serving-day queries per
// project.
func registryFixture(t *testing.T, adm FleetAdmissionConfig) (*FleetRegistry, map[string]*Deployment, map[string][]*query.Query) {
	t.Helper()
	sim := fleetSim(t)
	cfg := DefaultFleetConfig()
	cfg.Shards = 2
	cfg.CacheBudget = 32
	cfg.InitialGrant = 8
	cfg.Admission = adm
	reg := sim.NewFleet(cfg)
	deps := map[string]*Deployment{}
	qs := map[string][]*query.Query{}
	for _, name := range []string{"fa", "fb"} {
		ps := sim.Project(name)
		dep, err := ps.Deploy(fleetDeployConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(name, dep); err != nil {
			t.Fatal(err)
		}
		deps[name] = dep
		for day := 6; len(qs[name]) < 16; day++ {
			qs[name] = append(qs[name], ps.Gen.Day(day)...)
		}
	}
	return reg, deps, qs
}

// TestFleetRouteAdmitsAndGoverns: an admitted Route serves through the full
// ladder and the registry owns the deployment's plan-cache capacity from
// Register on.
func TestFleetRouteAdmitsAndGoverns(t *testing.T) {
	reg, deps, qs := registryFixture(t, FleetAdmissionConfig{
		Burst: 64, RefillPerServe: 1, RefillPerTick: 1,
		StandardCost: 1, RecurringCost: 0.25, RecurringTemplates: 8,
	})
	for name, d := range deps {
		if got := d.Predictor().PlanCacheCap(); got != 8 {
			t.Fatalf("%s: cache not governed at Register, cap %d", name, got)
		}
		c, err := reg.Route(context.Background(), name, qs[name][0])
		if err != nil {
			t.Fatal(err)
		}
		if c == nil || c.FallbackCause != nil && errors.Is(c.FallbackCause, ErrLoadShed) {
			t.Fatalf("%s: admitted query was shed: %+v", name, c)
		}
	}
	if _, err := reg.Route(context.Background(), "nobody", qs["fa"][0]); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
	st := reg.Budget()
	if st.Budget != 32 || st.Tenants != 2 || st.Granted != 16 {
		t.Fatalf("budget status %+v", st)
	}
	// Deregister returns the grant and leaves the tenant's cache empty.
	name := reg.Tenants()[0]
	if !reg.Deregister(name) {
		t.Fatal("deregister failed")
	}
	if got := deps[name].Predictor().PlanCacheCap(); got != 0 {
		t.Fatalf("deregistered tenant keeps cache cap %d", got)
	}
}

// TestFleetRouteShedTrajectory pins the admission trajectory for a drained
// bucket and the shed Choice's shape: native-fallback origin, ErrLoadShed
// wrapping ErrTenantThrottled, no estimates — and sheds never charge the
// guard's breaker, so a throttled tenant recovers instantly after a Tick.
func TestFleetRouteShedTrajectory(t *testing.T) {
	reg, deps, qs := registryFixture(t, FleetAdmissionConfig{
		// Refill 0.5/serve against price 1: 4 burst admits stretch to 7, then
		// the bucket oscillates at the refill rate (admit every other call).
		Burst: 4, RefillPerServe: 0.5, RefillPerTick: 4,
		StandardCost: 1, RecurringCost: 1, RecurringTemplates: 0,
	})
	name := "fa"
	if deps[name] == nil {
		t.Fatalf("fixture lost %s", name)
	}
	want := []bool{true, true, true, true, true, true, true, false, true, false, true, false}
	for i, admit := range want {
		q := qs[name][i%len(qs[name])]
		c, err := reg.Route(context.Background(), name, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if c == nil {
			t.Fatalf("query %d: availability broken, no choice served", i)
		}
		shed := errors.Is(c.FallbackCause, ErrLoadShed)
		if shed == admit {
			t.Fatalf("query %d: admit=%v but shed=%v", i, admit, shed)
		}
		if shed {
			if c.Origin != OriginNativeFallback {
				t.Fatalf("query %d: shed origin %v", i, c.Origin)
			}
			if !errors.Is(c.FallbackCause, ErrTenantThrottled) {
				t.Fatalf("query %d: cause chain lost: %v", i, c.FallbackCause)
			}
			if c.Estimates != nil {
				t.Fatalf("query %d: shed carried estimates", i)
			}
			if c.Chosen == nil {
				t.Fatalf("query %d: shed served no plan", i)
			}
		}
	}
	if got := deps[name].Guard().State(); got != BreakerClosed {
		t.Fatalf("sheds charged the breaker: %v", got)
	}
	// A control-plane Tick restores headroom: the next 4 standard queries
	// admit straight through.
	reg.Tick()
	for i := 0; i < 4; i++ {
		c, err := reg.Route(context.Background(), name, qs[name][i])
		if err != nil || errors.Is(c.FallbackCause, ErrLoadShed) {
			t.Fatalf("post-tick query %d: err=%v cause=%v", i, err, c.FallbackCause)
		}
	}
}

// TestFleetRouteHonoursContext: Route passes the caller's context all the way
// down. An already-cancelled context is refused before the admission gate —
// no route counted, no token charged — and a cancellation that lands while
// the backend is exploring surfaces through Route as ctx.Err() with no
// Choice, before the guard is ever reached.
func TestFleetRouteHonoursContext(t *testing.T) {
	reg, deps, qs := registryFixture(t, FleetAdmissionConfig{
		Burst: 8, RefillPerServe: 0, RefillPerTick: 1,
		StandardCost: 1, RecurringCost: 1, RecurringTemplates: 0,
	})
	name, q := "fa", qs["fa"][0]
	fleetMetrics := reg.Registry().Config().Metrics
	before, _ := reg.Stats(name)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := reg.Route(ctx, name, q)
	if err != context.Canceled || c != nil {
		t.Fatalf("pre-cancelled Route: served=%v err=%v, want no choice and context.Canceled", c != nil, err)
	}
	if got := counterValue(t, fleetMetrics.Snapshot(), "fleet.route.total"); got != 0 {
		t.Fatalf("refused request counted as a route: fleet.route.total = %d", got)
	}
	if after, _ := reg.Stats(name); after.Tokens != before.Tokens || after.Served != before.Served {
		t.Fatalf("refused request touched the admission bucket: %+v -> %+v", before, after)
	}

	// Err checks on the way down: Route's entry, serve's entry, then serve's
	// post-exploration check — the third one trips.
	mid := &countdownCtx{Context: context.Background(), after: 2}
	c, err = reg.Route(mid, name, q)
	if err != context.Canceled || c != nil {
		t.Fatalf("Route cancelled during exploration: served=%v err=%v, want no choice and context.Canceled", c != nil, err)
	}
	snap := deps[name].Metrics()
	for metric, want := range map[string]int64{
		"serve.optimize.total":    1,
		"serve.optimize.canceled": 1,
		"guard.serve.total":       0,
	} {
		if got := counterValue(t, snap, metric); got != want {
			t.Fatalf("%s = %d, want %d", metric, got, want)
		}
	}
}

// TestGovernedPromoteCapacity: a lifecycle promote sizes the fresh cache from
// the incumbent cache's current capacity — the deploy-time WithPlanCache value
// until a registry grant resizes it, the live grant afterwards, zero included.
func TestGovernedPromoteCapacity(t *testing.T) {
	sim := fleetSim(t)
	dep, err := sim.Project("fa").Deploy(fleetDeployConfig(), WithPlanCache(100), WithLifecycle(DefaultLifecycleConfig()))
	if err != nil {
		t.Fatal(err)
	}
	other, err := sim.Project("fa").Deploy(fleetDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	lc, grant, first := dep.Lifecycle(), fleetBackend{d: dep}, dep.Predictor()
	if got := first.PlanCacheCap(); got != 100 {
		t.Fatalf("ungoverned capacity %d, want the WithPlanCache 100", got)
	}
	grant.SetCacheCapacity(5)
	if got := first.PlanCacheCap(); got != 5 {
		t.Fatalf("grant not applied to the live cache: cap %d", got)
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.promoteLocked(other.Predictor(), 2)
	if got := dep.Predictor().PlanCacheCap(); dep.Predictor() == first || got != 5 {
		t.Fatalf("promoted model's capacity %d (swapped: %v), want the grant 5", got, dep.Predictor() != first)
	}
	// A zero grant still governs: the next promoted model starts uncached
	// until the tenant earns budget back.
	grant.SetCacheCapacity(0)
	lc.promoteLocked(first, 3)
	if got := dep.Predictor().PlanCacheCap(); got != 0 {
		t.Fatalf("zero grant ignored: promoted model's capacity %d", got)
	}
}

// TestFleetRegistryMixedBackends: deployments and synthetic tenants share one
// registry; Route's typed veneer returns nil for non-Choice backends while
// Registry().Route exposes the native value.
func TestFleetRegistryMixedBackends(t *testing.T) {
	reg, _, qs := registryFixture(t, FleetAdmissionConfig{
		Burst: 8, RefillPerServe: 1, RefillPerTick: 1,
		StandardCost: 1, RecurringCost: 0.5, RecurringTemplates: 4,
	})
	syn := fleet.NewSyntheticTenant("synth", nil)
	if err := reg.RegisterBackend("synth", syn); err != nil {
		t.Fatal(err)
	}
	q := qs["fa"][0]
	c, err := reg.Route(context.Background(), "synth", q)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatalf("synthetic backend produced a *Choice: %+v", c)
	}
	out, err := reg.Registry().Route(context.Background(), "synth", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(*fleet.SyntheticChoice); !ok {
		t.Fatalf("native value lost: %T", out)
	}
}

// TestInvalidQueryRefusedAtEveryEntryPoint: a nil query and one that names no
// table get ErrInvalidQuery — not a panic on the serving goroutine — from
// OptimizeCtx, from a shed serve and from Route, admitted or shed; the
// deployment counts an optimize error each time and plans nothing. A nil
// query never reaches the admission gate, so it costs the tenant no token.
func TestInvalidQueryRefusedAtEveryEntryPoint(t *testing.T) {
	reg, deps, _ := registryFixture(t, FleetAdmissionConfig{
		Burst: 1, RefillPerServe: 0, RefillPerTick: 1,
		StandardCost: 1, RecurringCost: 1, RecurringTemplates: 4,
	})
	ctx := context.Background()
	d := deps["fa"]
	for name, q := range map[string]*query.Query{"nil": nil, "no tables": {ID: "q", TemplateID: "tpl"}} {
		errs0 := d.obs.optimizeErrors.Value()
		if c, err := d.OptimizeCtx(ctx, q); c != nil || !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("%s: OptimizeCtx = %v, %v; want ErrInvalidQuery", name, c, err)
		}
		if out, err := (&fleetBackend{d}).ShedCtx(ctx, q, ErrTenantThrottled); out != nil || !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("%s: shed serve = %v, %v; want ErrInvalidQuery", name, out, err)
		}
		if got := d.obs.optimizeErrors.Value() - errs0; got != 2 {
			t.Fatalf("%s: %d optimize errors counted, want 2", name, got)
		}
		// The first Route finds a token in the bucket, the second is shed.
		for _, lane := range []string{"admitted", "shed"} {
			before, _ := reg.Stats("fa")
			if c, err := reg.Route(ctx, "fa", q); c != nil || !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("%s %s: Route = %v, %v; want ErrInvalidQuery", name, lane, c, err)
			}
			if after, _ := reg.Stats("fa"); q == nil && after != before {
				t.Fatalf("nil %s: Route charged the tenant: %+v -> %+v", lane, before, after)
			}
		}
		reg.Tick()
	}
}
