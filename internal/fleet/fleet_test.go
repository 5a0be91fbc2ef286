package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/telemetry"
)

func testConfig(reg *telemetry.Registry) Config {
	cfg := DefaultConfig()
	cfg.CacheBudget = 64
	cfg.InitialGrant = 8
	cfg.Admission = AdmissionConfig{
		Burst:              4,
		RefillPerServe:     0.5,
		RefillPerTick:      2,
		StandardCost:       1,
		RecurringCost:      0.25,
		RecurringTemplates: 8,
	}
	cfg.Metrics = reg
	return cfg
}

func q(tenant string, i int, tpl string) *query.Query {
	return &query.Query{ID: fmt.Sprintf("%s-q%d", tenant, i), TemplateID: tpl, Project: tenant}
}

// register n synthetic tenants named t000..; returns their names.
func registerN(t *testing.T, r *Registry, reg *telemetry.Registry, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
		if err := r.Register(names[i], NewSyntheticTenant(names[i], reg)); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func TestRegisterRouteDeregister(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(testConfig(reg))
	names := registerN(t, r, reg, 10)

	if err := r.Register("t003", NewSyntheticTenant("x", reg)); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := r.Register("nil", nil); !errors.Is(err, ErrNilBackend) {
		t.Fatalf("nil register: %v", err)
	}
	if got := r.Tenants(); len(got) != 10 || got[0] != "t000" || got[9] != "t009" {
		t.Fatalf("Tenants() = %v", got)
	}

	out, err := r.Route(context.Background(), "t005", q("t005", 0, "tpl1"))
	if err != nil {
		t.Fatal(err)
	}
	c := out.(*SyntheticChoice)
	if c.Tenant != "t005" || c.Origin != "learned" || c.Shed {
		t.Fatalf("routed choice %+v", c)
	}

	if _, err := r.Route(context.Background(), "ghost", q("ghost", 0, "")); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if got := reg.Counter("fleet.route.unknown_tenant").Value(); got != 1 {
		t.Fatalf("unknown counter = %d", got)
	}

	if !r.Deregister("t005") {
		t.Fatal("deregister failed")
	}
	if r.Deregister("t005") {
		t.Fatal("double deregister succeeded")
	}
	if _, err := r.Route(context.Background(), "t005", q("t005", 1, "")); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("deregistered tenant still routable: %v", err)
	}
	// Its grant returned to the pool.
	st := r.Budget()
	if st.Tenants != 9 {
		t.Fatalf("tenants = %d, want 9", st.Tenants)
	}
	if st.Granted > st.Budget {
		t.Fatalf("granted %d exceeds budget %d", st.Granted, st.Budget)
	}
	_ = names

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Route(ctx, "t001", q("t001", 9, "")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled route: %v", err)
	}
}

// TestAdmissionTrajectory pins the token-bucket math for one tenant:
// burst 4, +0.5/serve, standard price 1 → exactly 8 standard queries admit
// before the bucket pins to shedding; recurring-lane queries stay admitted
// (price 0.25 < refill 0.5); Tick restores headroom for 4 more.
func TestAdmissionTrajectory(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(testConfig(reg))
	registerN(t, r, reg, 1)
	ctx := context.Background()

	var outcomes []bool
	for i := 0; i < 12; i++ {
		out, err := r.Route(ctx, "t000", q("t000", i, "")) // no template: standard lane
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, !out.(*SyntheticChoice).Shed)
	}
	// tokens: start 4, +0.5/serve capped at 4, price 1 ⇒ net −0.5/serve
	// while admitting: 7 straight admits drain to 0, then the bucket
	// oscillates (shed at 0.5, admit at 1.0) — over-rate traffic degrades
	// to roughly the sustainable rate instead of stopping.
	want := []bool{true, true, true, true, true, true, true, false, true, false, true, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("serve %d admitted=%v, want %v (trajectory %v)", i, outcomes[i], want[i], outcomes)
		}
	}
	if got := reg.Counter("fleet.admission.shed").Value(); got != 3 {
		t.Fatalf("shed = %d, want 3", got)
	}

	// A shed outcome still serves — native-fallback origin, cause chain
	// intact. Availability is the registry's whole point. (Query 99 lands
	// on the oscillation's admit beat, 100 on the shed beat.)
	if _, err := r.Route(ctx, "t000", q("t000", 99, "")); err != nil {
		t.Fatal(err)
	}
	out, err := r.Route(ctx, "t000", q("t000", 100, ""))
	if err != nil {
		t.Fatal(err)
	}
	c := out.(*SyntheticChoice)
	if !c.Shed || c.Origin != "native-fallback" || !errors.Is(c.Cause, ErrTenantThrottled) {
		t.Fatalf("shed choice %+v", c)
	}

	// Tick restores 2 tokens (0.5 + 2 = 2.5) → 4 more standard admits
	// before the bucket drains back to the oscillation point.
	r.Tick()
	admits := 0
	for i := 0; i < 4; i++ {
		out, err := r.Route(ctx, "t000", q("t000", 200+i, ""))
		if err != nil {
			t.Fatal(err)
		}
		if !out.(*SyntheticChoice).Shed {
			admits++
		}
	}
	if admits != 4 {
		t.Fatalf("post-tick admits = %d, want 4", admits)
	}
}

// TestRecurringLanePriority: once a template is in the recurring set, its
// queries price at RecurringCost < RefillPerServe, so recurring traffic
// sustains indefinitely while standard traffic sheds.
func TestRecurringLanePriority(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(testConfig(reg))
	registerN(t, r, reg, 1)
	ctx := context.Background()

	// First sight of the template is standard-lane (not yet recurring).
	out, _ := r.Route(ctx, "t000", q("t000", 0, "tpl"))
	if out.(*SyntheticChoice).Shed {
		t.Fatal("first query shed")
	}
	if got := reg.Counter("fleet.admission.lane.recurring").Value(); got != 0 {
		t.Fatalf("first sight counted recurring: %d", got)
	}
	// From the second on, the same template rides the recurring lane and
	// never sheds, even far past the standard-lane budget.
	for i := 1; i < 100; i++ {
		out, err := r.Route(ctx, "t000", q("t000", i, "tpl"))
		if err != nil {
			t.Fatal(err)
		}
		if out.(*SyntheticChoice).Shed {
			t.Fatalf("recurring query %d shed", i)
		}
	}
	if got := reg.Counter("fleet.admission.lane.recurring").Value(); got != 99 {
		t.Fatalf("recurring lane = %d, want 99", got)
	}

	// The recurring set is bounded FIFO: flooding RecurringTemplates new
	// templates evicts "tpl", so it re-enters as standard.
	for i := 0; i < 8; i++ {
		r.Route(ctx, "t000", q("t000", 300+i, fmt.Sprintf("flood%d", i)))
	}
	before := reg.Counter("fleet.admission.lane.standard").Value()
	r.Route(ctx, "t000", q("t000", 400, "tpl"))
	if got := reg.Counter("fleet.admission.lane.standard").Value(); got != before+1 {
		t.Fatal("evicted template still rode the recurring lane")
	}
}

// TestBudgetRebalance: grants track serve-count weights deterministically,
// sum exactly to the budget, and shrink a cold tenant's resident cache.
func TestBudgetRebalance(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(reg)
	cfg.CacheBudget = 30
	cfg.InitialGrant = 10
	r := New(cfg)
	names := registerN(t, r, reg, 3)
	ctx := context.Background()

	// Registration grants: 10 each, 30 total = budget.
	st := r.Budget()
	if st.Granted != 30 {
		t.Fatalf("initial granted = %d", st.Granted)
	}

	// t000 hot (recurring lane keeps it admitted), t001 mild, t002 cold.
	for i := 0; i < 30; i++ {
		r.Route(ctx, "t000", q("t000", i, fmt.Sprintf("tpl%d", i%6)))
	}
	for i := 0; i < 6; i++ {
		r.Route(ctx, "t001", q("t001", i, fmt.Sprintf("tpl%d", i)))
	}
	// Fill t002's cache before it goes cold.
	for i := 0; i < 6; i++ {
		r.Route(ctx, "t002", q("t002", i, fmt.Sprintf("tpl%d", i)))
	}

	r.Rebalance()
	// Weights 30/6/6: grants floor(30·30/42)=21, floor(30·6/42)=4, 4 → rem 1
	// to the heaviest (t000) = 22, 4, 4.
	wantGrants := []int{22, 4, 4}
	for i, name := range names {
		s, ok := r.Stats(name)
		if !ok {
			t.Fatalf("stats %s missing", name)
		}
		if s.Grant != wantGrants[i] {
			t.Fatalf("%s grant = %d, want %d", name, s.Grant, wantGrants[i])
		}
		if s.CacheLen > s.Grant {
			t.Fatalf("%s cache %d exceeds grant %d", name, s.CacheLen, s.Grant)
		}
		if s.Served != 0 {
			t.Fatalf("%s weight not reset: %d", name, s.Served)
		}
	}
	st = r.Budget()
	if st.Granted != 30 || st.Entries > st.Budget {
		t.Fatalf("post-rebalance budget %+v", st)
	}
	// t002 had 6 resident entries, now capped at 4 — the shrink evicted.
	s, _ := r.Stats("t002")
	if s.CacheLen != 4 {
		t.Fatalf("cold tenant cache = %d, want 4", s.CacheLen)
	}
	if ev := reg.Counter("fleet.synthetic.cache.evictions").Value(); ev < 2 {
		t.Fatalf("shrink evictions = %d, want >= 2", ev)
	}

	// Quiescent rebalance: equal weights, deterministic equal split.
	r.Rebalance()
	for _, name := range names {
		s, _ := r.Stats(name)
		if s.Grant != 10 {
			t.Fatalf("quiescent grant %s = %d, want 10", name, s.Grant)
		}
	}
}

// TestRegisterBeyondBudget: once the pool is exhausted, later registrants
// get zero grant until a rebalance re-divides, and granted never exceeds
// the budget.
func TestRegisterBeyondBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(reg)
	cfg.CacheBudget = 20
	cfg.InitialGrant = 8
	r := New(cfg)
	registerN(t, r, reg, 5) // 8+8+4+0+0
	wants := []int{8, 8, 4, 0, 0}
	for i, want := range wants {
		s, _ := r.Stats(fmt.Sprintf("t%03d", i))
		if s.Grant != want {
			t.Fatalf("t%03d grant = %d, want %d", i, s.Grant, want)
		}
	}
	if st := r.Budget(); st.Granted != 20 {
		t.Fatalf("granted = %d", st.Granted)
	}
	r.Rebalance() // equal weights: 4 each
	for i := 0; i < 5; i++ {
		s, _ := r.Stats(fmt.Sprintf("t%03d", i))
		if s.Grant != 4 {
			t.Fatalf("post-rebalance t%03d grant = %d, want 4", i, s.Grant)
		}
	}
}

// routeAll drives per-tenant query sequences through the registry with the
// given worker parallelism: parallel across tenants, ordered within one —
// the registry's determinism precondition.
func routeAll(t *testing.T, r *Registry, names []string, perTenant [][]*query.Query, workers int) {
	t.Helper()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for _, qq := range perTenant[i] {
					if _, err := r.Route(context.Background(), names[i], qq); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// TestTelemetryParallelByteIdentical is the satellite contract: the same
// per-tenant traffic, served sequentially vs with 8 workers, snapshots the
// fleet.* (and synthetic cache) telemetry byte-identically, and after every
// wave's Tick + Rebalance the cache budget holds: entries <= granted <=
// budget.
func TestTelemetryParallelByteIdentical(t *testing.T) {
	build := func(workers int) string {
		reg := telemetry.NewRegistry()
		r := New(testConfig(reg))
		names := registerN(t, r, reg, 40)
		perTenant := make([][]*query.Query, len(names))
		var perWave int64
		for i, name := range names {
			n := 4 + i%7
			for j := 0; j < n; j++ {
				perTenant[i] = append(perTenant[i], q(name, j, fmt.Sprintf("tpl%d", j%3)))
			}
			perWave += int64(n)
		}
		const waves = 3
		for wave := 0; wave < waves; wave++ {
			routeAll(t, r, names, perTenant, workers)
			r.Tick()
			r.Rebalance()
			if st := r.Budget(); st.Entries > st.Granted || st.Granted > st.Budget {
				t.Fatalf("workers=%d wave %d: budget invariant broken: entries %d, granted %d, budget %d",
					workers, wave, st.Entries, st.Granted, st.Budget)
			}
		}
		// Every route was admitted or shed and none failed: shedding serves.
		c := func(name string) int64 { return reg.Counter(name).Value() }
		if total := c("fleet.route.total"); total != waves*perWave ||
			c("fleet.admission.admitted")+c("fleet.admission.shed") != total ||
			c("fleet.route.errors") != 0 || c("fleet.route.unknown_tenant") != 0 ||
			c("fleet.budget.rebalances") != waves {
			t.Fatalf("workers=%d: route counters do not add up:\n%v", workers, reg.Snapshot().Counters)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := build(1)
	par := build(8)
	if seq != par {
		t.Fatalf("parallel snapshot differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	for _, want := range []string{
		"counter fleet.admission.lane.recurring", "gauge fleet.cache.budget",
		"gauge fleet.tenants.active", "timer fleet.route.latency",
	} {
		if !strings.Contains(seq, want) {
			t.Fatalf("snapshot lacks %q:\n%s", want, seq)
		}
	}
}

// TestConcurrentControlPlane races Register/Deregister/Rebalance/Tick/Budget
// against full-speed routing — the -race exercise for the snapshot-swap
// request path against the locked control plane.
func TestConcurrentControlPlane(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(testConfig(reg))
	names := registerN(t, r, reg, 16)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(g*5+i)%len(names)]
				_, err := r.Route(context.Background(), name, q(name, i, "tpl"))
				if err != nil && !errors.Is(err, ErrUnknownTenant) {
					t.Error(err)
					return
				}
				i++
			}
		}(g)
	}
	for k := 0; k < 50; k++ {
		extra := fmt.Sprintf("x%03d", k)
		if err := r.Register(extra, NewSyntheticTenant(extra, reg)); err != nil {
			t.Error(err)
		}
		r.Tick()
		r.Rebalance()
		st := r.Budget()
		if st.Granted > st.Budget {
			t.Errorf("granted %d > budget %d", st.Granted, st.Budget)
		}
		if !r.Deregister(extra) {
			t.Error("deregister failed")
		}
	}
	close(stop)
	wg.Wait()
}

// TestTenantTableMatchesReference drives a seeded mix of control-plane
// steps — Register, duplicate Register, Deregister, unknown Deregister,
// Rebalance — and checks the registry against a plain reference set after
// every one: Tenants() is the set's names in order, every live name routes
// and every dead one is ErrUnknownTenant, Budget().Tenants is the set's
// size, and Budget().Granted is the sum of the live grants, within budget.
// It also checks that a step never writes to the table published before it:
// readers on the request path may still hold that one.
func TestTenantTableMatchesReference(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(testConfig(reg))
	rng := simrand.New(25)
	pool := make([]string, 24)
	for i := range pool {
		pool[i] = fmt.Sprintf("p%02d", rng.Intn(100)) // repeats are fine: more duplicates
	}
	order := func(tab *tenantTable) []string {
		names := make([]string, len(tab.sorted))
		for i, tn := range tab.sorted {
			names[i] = "<nil>"
			if tn != nil {
				names[i] = tn.name
			}
		}
		return names
	}
	live := map[string]bool{}
	const steps = 2000
	for step := 0; step < steps; step++ {
		prev := r.table.Load()
		prevOrder := order(prev)
		name := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(10); {
		case op < 4:
			err := r.Register(name, NewSyntheticTenant(name, reg))
			if live[name] && !errors.Is(err, ErrDuplicateTenant) || !live[name] && err != nil {
				t.Fatalf("step %d: Register(%s) live=%v: %v", step, name, live[name], err)
			}
			live[name] = true
		case op < 7:
			if got := r.Deregister(name); got != live[name] {
				t.Fatalf("step %d: Deregister(%s) = %v, live=%v", step, name, got, live[name])
			}
			delete(live, name)
		case op < 8:
			if r.Deregister(fmt.Sprintf("ghost%d", step)) {
				t.Fatalf("step %d: unknown tenant deregistered", step)
			}
		default:
			r.Rebalance()
		}

		if got := order(prev); !slices.Equal(got, prevOrder) || len(prev.byName) != len(prevOrder) {
			t.Fatalf("step %d wrote to the table published before it: %v (%d map entries), was %v",
				step, got, len(prev.byName), prevOrder)
		}
		want := make([]string, 0, len(live))
		for n := range live {
			want = append(want, n)
		}
		sort.Strings(want)
		if got := r.Tenants(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Tenants() = %v, want %v", step, got, want)
		}
		for i, n := range pool {
			_, err := r.Route(context.Background(), n, q(n, step*len(pool)+i, "tpl"))
			if live[n] && err != nil || !live[n] && !errors.Is(err, ErrUnknownTenant) {
				t.Fatalf("step %d: Route(%s) live=%v: %v", step, n, live[n], err)
			}
		}
		granted := 0
		for _, n := range want {
			s, _ := r.Stats(n)
			granted += s.Grant
		}
		st := r.Budget()
		if st.Tenants != len(want) || st.Granted != granted || st.Granted > st.Budget {
			t.Fatalf("step %d: Budget() = %+v, want %d tenants and Σ grants %d <= budget", step, st, len(want), granted)
		}
	}
}

// TestConfigNormalizeReplacesBadFields: every field that is not positive and
// finite takes its default, field by field, and a good value is kept. A +Inf
// StandardCost would drive a bucket to -Inf and throttle the tenant for good;
// a +Inf Burst would turn admission off.
func TestConfigNormalizeReplacesBadFields(t *testing.T) {
	def := DefaultConfig()
	floats := []struct {
		name string
		get  func(*AdmissionConfig) *float64
	}{
		{"Burst", func(a *AdmissionConfig) *float64 { return &a.Burst }},
		{"RefillPerServe", func(a *AdmissionConfig) *float64 { return &a.RefillPerServe }},
		{"RefillPerTick", func(a *AdmissionConfig) *float64 { return &a.RefillPerTick }},
		{"StandardCost", func(a *AdmissionConfig) *float64 { return &a.StandardCost }},
		{"RecurringCost", func(a *AdmissionConfig) *float64 { return &a.RecurringCost }},
	}
	for _, f := range floats {
		for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := def
			*f.get(&cfg.Admission) = v
			n := New(cfg).Config()
			if got, want := *f.get(&n.Admission), *f.get(&def.Admission); got != want {
				t.Errorf("%s = %v normalized to %v, want the default %v", f.name, v, got, want)
			}
		}
		cfg := def
		*f.get(&cfg.Admission) = 2.5
		n := New(cfg).Config()
		if got := *f.get(&n.Admission); got != 2.5 {
			t.Errorf("%s = 2.5 normalized to %v, want it kept", f.name, got)
		}
	}
	ints := []struct {
		name string
		get  func(*Config) *int
	}{
		{"CacheBudget", func(c *Config) *int { return &c.CacheBudget }},
		{"InitialGrant", func(c *Config) *int { return &c.InitialGrant }},
		{"Admission.RecurringTemplates", func(c *Config) *int { return &c.Admission.RecurringTemplates }},
	}
	for _, f := range ints {
		for _, v := range []int{0, -1} {
			cfg := def
			*f.get(&cfg) = v
			n := New(cfg).Config()
			if got, want := *f.get(&n), *f.get(&def); got != want {
				t.Errorf("%s = %d normalized to %d, want the default %d", f.name, v, got, want)
			}
		}
		cfg := def
		*f.get(&cfg) = 7
		n := New(cfg).Config()
		if got := *f.get(&n); got != 7 {
			t.Errorf("%s = 7 normalized to %d, want it kept", f.name, got)
		}
	}
}
