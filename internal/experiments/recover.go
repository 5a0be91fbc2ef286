package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"loam"
	"loam/internal/atomicio"
	"loam/internal/durable"
	"loam/internal/faultinject"
	"loam/internal/fleet"
	"loam/internal/query"
	"loam/internal/walltime"
)

// RecoverResult is the kill-point chaos proof for the durability layer: a
// forced-drift lifecycle run (deploy → promote → probation rollback) is first
// executed cleanly to count its durable write schedule, then re-executed once
// per write point with an injected crash at exactly that operation — cycling
// the crash flavors (before any byte lands, mid-write torn, rename pending) —
// and after every crash the store must fsck clean and RestoreDeployment (or,
// when the crash predates the first committed checkpoint, a redeploy into the
// same directory) must produce a deployment that serves with 100%
// availability. A fleet-grants restart leg rides along: the grant table a
// rebalanced registry persisted must survive a registry restart with the
// budget invariant intact. Same-seed runs print byte-identical reports.
type RecoverResult struct {
	Project string
	// WriteOps is the baseline run's durable write schedule length — and
	// therefore the number of kill points swept.
	WriteOps int
	// BaselineServes / BaselineEvents / FinalVersion describe the clean run.
	BaselineServes int
	BaselineEvents []LifecycleEvent
	FinalVersion   int
	// Points holds one recovery outcome per kill point, in schedule order.
	Points []RecoverPoint
	// Restores and Redeploys partition the sweep: a restore resumes from a
	// committed checkpoint, a redeploy handles a crash that predates one.
	Restores  int
	Redeploys int
	// Availability is served / attempted over every post-recovery probe; the
	// durability layer must never cost a query.
	Availability float64
	// GrantTenants counts the fleet tenants whose grants survived the
	// registry restart leg.
	GrantTenants int
}

// RecoverPoint is one kill point's recovery outcome.
type RecoverPoint struct {
	// Point is the 1-based index of the durable write that crashed.
	Point int
	// Flavor is the injected crash flavor (before / torn / after-temp).
	Flavor string
	// Op is the durable operation that was killed (write / append / remove).
	Op string
	// Mode is "restore" or "redeploy".
	Mode string
	// Version is the serving model's lineage version after recovery.
	Version int
	// TornTail reports that fsck saw a repairable torn journal tail.
	TornTail bool
}

// The chaos workload is deliberately small and private to the experiment: a
// fresh identically-seeded simulation per kill run replays the exact same
// serve stream (and therefore the exact same write schedule) every time.
const (
	recoverProjectName = "chaos"
	recoverTrainDays   = 6
	recoverTestDays    = 2
	// recoverQueries bounds each run's serve stream: enough for the
	// hair-trigger sentinel to force retrain → promote → probation rollback,
	// short enough that sweeping every write point stays cheap.
	recoverQueries = 22
	// recoverProbeQueries is the post-recovery serve probe per kill point.
	recoverProbeQueries = 6
	// recoverMaxDay bounds day generation against empty workload days.
	recoverMaxDay = 48
)

// recoverRunState is one chaos run's residue: the simulation it ran in, the
// store directory it wrote, and what happened before the kill point fired.
type recoverRunState struct {
	ps      *loam.ProjectSim
	dir     string
	crash   *atomicio.Crash
	ops     int
	served  int
	events  []LifecycleEvent
	version int
}

// Recover runs the kill-point chaos experiment. The caller's context bounds
// the sweep: cancellation is checked before each kill point and flows into
// the fleet-grant leg's routing.
func (e *Env) Recover(ctx context.Context) (*RecoverResult, error) {
	sw := walltime.Start()
	model, err := e.recoverModel()
	if err != nil {
		return nil, err
	}
	e.Cfg.logf("recover: trained chaos model (%.1fs)", sw.Seconds())

	base, err := e.recoverRun(ctx, 0, faultinject.FlavorBefore, model)
	if base != nil {
		defer os.RemoveAll(base.dir)
	}
	if err != nil {
		return nil, err
	}
	if base.crash != nil {
		return nil, fmt.Errorf("recover: baseline crashed: %v", base.crash)
	}
	res := &RecoverResult{
		Project:        recoverProjectName,
		WriteOps:       base.ops,
		BaselineServes: base.served,
		BaselineEvents: base.events,
		FinalVersion:   base.version,
	}
	var promotes, rollbacks int
	for _, ev := range base.events {
		switch ev.Kind {
		case "promote":
			promotes++
		case "rollback":
			rollbacks++
		}
	}
	if promotes == 0 || rollbacks == 0 {
		return nil, fmt.Errorf("recover: baseline trajectory incomplete (%d promotes, %d rollbacks in %d serves): the sweep would not cover every checkpoint kind",
			promotes, rollbacks, base.served)
	}
	e.Cfg.logf("recover: baseline %d serves, %d write points (%.1fs)",
		base.served, base.ops, sw.Seconds())

	probes, served := 0, 0
	for n := 1; n <= res.WriteOps; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		flavor := faultinject.FlavorFor(n)
		st, err := e.recoverRun(ctx, n, flavor, model)
		if st == nil {
			return nil, err
		}
		if err == nil && st.crash == nil {
			err = fmt.Errorf("recover: kill point %d/%d never fired", n, res.WriteOps)
		}
		var pt RecoverPoint
		var p, ok int
		if err == nil {
			pt, p, ok, err = e.recoverPoint(ctx, st, n, flavor, model)
		}
		os.RemoveAll(st.dir)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		if pt.Mode == "restore" {
			res.Restores++
		} else {
			res.Redeploys++
		}
		probes += p
		served += ok
		if n%10 == 0 {
			e.Cfg.logf("recover: %d/%d kill points recovered (%.1fs)", n, res.WriteOps, sw.Seconds())
		}
	}
	if probes > 0 {
		res.Availability = float64(served) / float64(probes)
	}

	res.GrantTenants, err = e.recoverGrants(ctx)
	if err != nil {
		return nil, err
	}
	e.Cfg.logf("recover: swept %d kill points in %.1fs", res.WriteOps, sw.Seconds())
	return res, nil
}

// recoverProject builds the chaos project in a fresh simulation seeded only
// by the experiment seed, so every call replays an identical workload — the
// property that makes "crash at the Nth write" meaningful across runs.
func (e *Env) recoverProject() *loam.ProjectSim {
	sim := loam.NewSimulation(e.Cfg.Seed, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig(recoverProjectName)
	cfg.Archetype.NumTables = 10
	cfg.Workload.NumTemplates = 6
	cfg.Workload.QueriesPerDayMean = 6
	ps := sim.AddProject(cfg)
	ps.RunDays(0, recoverTrainDays+recoverTestDays)
	return ps
}

// recoverConfigs returns the hair-trigger guard and quick lifecycle tuning
// the chaos runs share — the same forced-drift recipe as the lifecycle
// experiment, so promote and rollback land deterministically inside the
// serve budget.
func recoverConfigs() (loam.GuardConfig, loam.LifecycleConfig) {
	gcfg := loam.DefaultGuardConfig()
	gcfg.DivergenceBand = 0.01
	gcfg.DivergenceWindow = 4
	gcfg.QuarantineWindows = 1

	lcfg := loam.DefaultLifecycleConfig()
	lcfg.MinFeedback = 8
	lcfg.RetrainWindow = 64
	lcfg.ShadowWindow = 32
	lcfg.AcceptTolerance = 10
	lcfg.Probation = 16
	lcfg.DomainPlans = 8
	lcfg.Drift = loam.DriftConfig{Window: 1 << 20, Threshold: 1e9, Windows: 1 << 20}
	return gcfg, lcfg
}

// recoverModel trains the chaos model once; every run then deploys the same
// bytes via DeployFromModel, keeping the sweep's cost in serving, not
// training.
func (e *Env) recoverModel() ([]byte, error) {
	ps := e.recoverProject()
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = recoverTrainDays
	dcfg.TestDays = recoverTestDays
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg, loam.WithMetrics(e.Sim.Telemetry()))
	if err != nil {
		return nil, fmt.Errorf("recover: train: %w", err)
	}
	var buf bytes.Buffer
	if err := dep.SaveModel(&buf); err != nil {
		return nil, fmt.Errorf("recover: save model: %w", err)
	}
	return buf.Bytes(), nil
}

// recoverRun executes one chaos run: deploy the saved model with a durable
// store behind a kill-point FS, then serve the forced-drift stream. at == 0
// never crashes (the baseline that counts the write schedule); otherwise the
// injected *atomicio.Crash panic is recovered here and returned in the state.
func (e *Env) recoverRun(ctx context.Context, at int, flavor faultinject.CrashFlavor, model []byte) (st *recoverRunState, err error) {
	ps := e.recoverProject()
	dir, err := os.MkdirTemp("", "loam-recover-")
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	st = &recoverRunState{ps: ps, dir: dir, version: 1}
	kp := faultinject.NewKillPoint(e.Cfg.Seed, at, flavor)
	defer func() {
		st.ops = kp.Ops()
		if r := recover(); r != nil {
			c, ok := r.(*atomicio.Crash)
			if !ok {
				panic(r)
			}
			st.crash = c
		}
	}()
	gcfg, lcfg := recoverConfigs()
	dep, err := ps.DeployFromModel(bytes.NewReader(model), recoverTrainDays, recoverTestDays,
		loam.WithMetrics(e.Sim.Telemetry()),
		loam.WithGuardConfig(gcfg),
		loam.WithLifecycle(lcfg),
		loam.WithDurableStore(dir),
		loam.WithDurableFS(atomicio.NewFS(kp)),
	)
	if err != nil {
		return st, fmt.Errorf("recover: deploy: %w", err)
	}
	lc := dep.Lifecycle()
	for day := recoverTrainDays + recoverTestDays; st.served < recoverQueries && day < recoverMaxDay; day++ {
		for _, q := range ps.Gen.Day(day) {
			if st.served >= recoverQueries {
				break
			}
			st.served++
			c, err := dep.OptimizeCtx(ctx, q)
			if err != nil {
				continue
			}
			dep.ExecuteChoice(c)
			if v := lc.Version(); v != st.version {
				kind := "promote"
				if v < st.version {
					kind = "rollback"
				}
				st.events = append(st.events, LifecycleEvent{Query: st.served, Kind: kind, Version: v})
				st.version = v
			}
		}
	}
	return st, nil
}

// recoverPoint recovers one crashed run: fsck the store the dead process left
// behind, rebuild a deployment from it (RestoreDeployment when a checkpoint
// committed, redeploy into the same directory when the crash predates one),
// probe-serve the recovered deployment, and fsck again. Every deviation from
// a clean recovery is an error — the experiment is the proof.
func (e *Env) recoverPoint(ctx context.Context, st *recoverRunState, n int, flavor faultinject.CrashFlavor, model []byte) (RecoverPoint, int, int, error) {
	out := RecoverPoint{Point: n, Flavor: flavor.String(), Op: st.crash.Op.String()}
	rep := durable.Fsck(st.dir)
	out.TornTail = rep.TornTail

	gcfg, lcfg := recoverConfigs()
	opts := []loam.DeployOption{
		loam.WithMetrics(e.Sim.Telemetry()),
		loam.WithGuardConfig(gcfg),
		loam.WithLifecycle(lcfg),
	}
	var dep *loam.Deployment
	var err error
	if rep.Manifest == nil {
		// The process died before its first checkpoint committed: nothing is
		// durable yet, so the consistent recovery is a redeploy into the same
		// directory. The only tolerable fsck problem is the missing recovery
		// point itself.
		for _, p := range rep.Problems {
			if !strings.Contains(p.Detail, "no recovery point") {
				return out, 0, 0, fmt.Errorf("recover: kill %d fsck %s: %s", n, p.Path, p.Detail)
			}
		}
		out.Mode = "redeploy"
		dep, err = st.ps.DeployFromModel(bytes.NewReader(model), recoverTrainDays, recoverTestDays,
			append(opts, loam.WithDurableStore(st.dir))...)
		if err != nil {
			return out, 0, 0, fmt.Errorf("recover: kill %d redeploy: %w", n, err)
		}
	} else {
		if !rep.OK() {
			p := rep.Problems[0]
			return out, 0, 0, fmt.Errorf("recover: kill %d fsck %s: %s", n, p.Path, p.Detail)
		}
		out.Mode = "restore"
		dep, err = st.ps.RestoreDeployment(st.dir, recoverTrainDays, recoverTestDays, opts...)
		if err != nil {
			return out, 0, 0, fmt.Errorf("recover: kill %d: %w", n, err)
		}
	}
	out.Version = dep.Lifecycle().Version()

	// The recovered deployment must serve; probe days sit past the chaos
	// stream so the generator hands out fresh queries.
	probes, served := 0, 0
	for day := recoverMaxDay; probes < recoverProbeQueries && day < recoverMaxDay+16; day++ {
		for _, q := range st.ps.Gen.Day(day) {
			if probes >= recoverProbeQueries {
				break
			}
			probes++
			c, err := dep.OptimizeCtx(ctx, q)
			if err != nil {
				continue
			}
			served++
			dep.ExecuteChoice(c)
		}
	}
	// The probes journaled (and may have checkpointed a probe-time rollback);
	// the store must still be consistent.
	if rep := durable.Fsck(st.dir); !rep.OK() {
		p := rep.Problems[0]
		return out, probes, served, fmt.Errorf("recover: kill %d post-probe fsck %s: %s", n, p.Path, p.Detail)
	}
	return out, probes, served, nil
}

// recoverGrants is the fleet-restart leg: a registry with durable grants
// rebalances under skewed traffic, a second registry restarts from the same
// directory, and the restored grants must match with the budget invariant
// (entries <= granted <= budget) intact.
func (e *Env) recoverGrants(ctx context.Context) (int, error) {
	dir, err := os.MkdirTemp("", "loam-recover-grants-")
	if err != nil {
		return 0, fmt.Errorf("recover: grants: %w", err)
	}
	defer os.RemoveAll(dir)

	fcfg := loam.DefaultFleetConfig()
	fcfg.CacheBudget = 96
	fcfg.InitialGrant = 16
	names := []string{"grant-a", "grant-b", "grant-c"}
	build := func() (*loam.FleetRegistry, error) {
		f := e.Sim.NewFleet(fcfg)
		if err := f.EnableDurableGrants(dir, nil); err != nil {
			return nil, err
		}
		for _, name := range names {
			if err := f.RegisterBackend(name, fleet.NewSyntheticTenant(name, e.Sim.Telemetry())); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	f, err := build()
	if err != nil {
		return 0, fmt.Errorf("recover: grants: %w", err)
	}
	// Skewed traffic earns grant-a the lion's share of the rebalanced budget.
	volume := map[string]int{"grant-a": 24, "grant-b": 6, "grant-c": 2}
	for _, name := range names {
		for i := 0; i < volume[name]; i++ {
			q := &query.Query{
				ID:         fmt.Sprintf("%s-%d", name, i),
				TemplateID: fmt.Sprintf("t%02d", i%4),
			}
			if _, err := f.Registry().Route(ctx, name, q); err != nil {
				return 0, fmt.Errorf("recover: grants route %s: %w", name, err)
			}
		}
	}
	f.Rebalance()
	want := map[string]int{}
	for _, name := range f.Tenants() {
		tst, _ := f.Stats(name)
		want[name] = tst.Grant
	}

	// "Restart" the registry: a fresh one re-registers the tenants and
	// restores the persisted table.
	f2, err := build()
	if err != nil {
		return 0, fmt.Errorf("recover: grants restart: %w", err)
	}
	restored, err := f2.RestoreGrants()
	if err != nil {
		return 0, fmt.Errorf("recover: grants restore: %w", err)
	}
	if !restored {
		return 0, fmt.Errorf("recover: grants restore: no saved table found")
	}
	for _, name := range names {
		tst, ok := f2.Stats(name)
		if !ok || tst.Grant != want[name] {
			return 0, fmt.Errorf("recover: grants restore: %s grant %d, want %d", name, tst.Grant, want[name])
		}
	}
	b := f2.Budget()
	if b.Granted > b.Budget || b.Entries > b.Granted {
		return 0, fmt.Errorf("recover: grants restore: budget invariant broken: entries %d, granted %d, budget %d",
			b.Entries, b.Granted, b.Budget)
	}
	return len(names), nil
}

// Render prints the deterministic chaos report: the baseline trajectory, one
// line per kill point, and the sweep summary.
func (r *RecoverResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Crash recovery under kill-point chaos — project %q, post-recovery availability %.0f%%\n",
		r.Project, r.Availability*100)
	fmt.Fprintf(w, "baseline: %d serves over %d durable writes, final model v%d\n",
		r.BaselineServes, r.WriteOps, r.FinalVersion)
	for _, ev := range r.BaselineEvents {
		fmt.Fprintf(w, "  serve %3d  %-8s -> v%d\n", ev.Query, ev.Kind, ev.Version)
	}
	for _, p := range r.Points {
		tail := ""
		if p.TornTail {
			tail = "  torn-tail"
		}
		fmt.Fprintf(w, "  kill %3d  %-10s %-8s %-8s -> v%d%s\n",
			p.Point, p.Flavor, p.Op, p.Mode, p.Version, tail)
	}
	fmt.Fprintf(w, "recovered %d/%d kill points (%d restores, %d redeploys), fsck clean at every point\n",
		len(r.Points), r.WriteOps, r.Restores, r.Redeploys)
	fmt.Fprintf(w, "fleet grants: %d tenants survive a registry restart, entries <= granted <= budget\n",
		r.GrantTenants)
}
