package loam

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/durable"
	"loam/internal/faultinject"
)

// durableHarness is lifecycleHarness with a durable store rooted in a test
// dir, returning the option set restore calls must repeat.
func durableHarness(t *testing.T, seed uint64, lcfg LifecycleConfig) (*ProjectSim, *Deployment, string, []DeployOption) {
	t.Helper()
	dir := t.TempDir()
	opts := []DeployOption{
		WithGuardConfig(hairTriggerGuardConfig()),
		WithLifecycle(lcfg),
		WithDurableStore(dir),
	}
	ps := lifecycleProject(seed, "dur")
	dep, err := ps.Deploy(lifecycleDeployConfig(), opts...)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return ps, dep, dir, opts
}

// serveUntilPromoted serves query-by-query until the lifecycle reaches
// version 2, failing if the serve budget runs out.
func serveUntilPromoted(t *testing.T, ps *ProjectSim, dep *Deployment) {
	t.Helper()
	for day := 8; day < 16; day++ {
		for _, q := range ps.Gen.Day(day) {
			c, err := dep.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("optimize day %d: %v", day, err)
			}
			dep.ExecuteChoice(c)
			if dep.Lifecycle().Version() != 1 {
				return
			}
		}
	}
	t.Fatal("no promotion within the serve budget")
}

func TestDeployCommitsInitialCheckpoint(t *testing.T) {
	_, dep, dir, _ := durableHarness(t, 31, quickLifecycleConfig())
	man := dep.dur.store.Manifest()
	if man == nil || man.Version != 1 || man.Event != durable.EventDeploy || man.Next != 2 {
		t.Fatalf("initial manifest: %+v", man)
	}
	if rep := durable.Fsck(dir); !rep.OK() {
		t.Fatalf("fsck after deploy: %+v", rep.Problems)
	}
	if n := dep.Telemetry().Counter("durable.checkpoints").Value(); n != 1 {
		t.Fatalf("durable.checkpoints = %d", n)
	}
}

func TestRestoreServesLastDurableVersion(t *testing.T) {
	ps, dep, dir, opts := durableHarness(t, 31, quickLifecycleConfig())
	serveUntilPromoted(t, ps, dep)
	man := dep.dur.store.Manifest()
	if man.Version != 2 || man.Event != durable.EventPromote {
		t.Fatalf("manifest after promote: %+v", man)
	}
	var before bytes.Buffer
	if err := dep.SaveModel(&before); err != nil {
		t.Fatalf("save: %v", err)
	}

	// "Restart": rebuild the deployment from disk alone.
	dep2, err := ps.RestoreDeployment(dir, 6, 2, opts...)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	lc := dep2.Lifecycle()
	if v := lc.Version(); v != 2 {
		t.Fatalf("restored version = %d, want 2", v)
	}
	if lc.next != man.Next {
		t.Fatalf("next counter = %d, want %d", lc.next, man.Next)
	}
	if !lc.InProbation() {
		t.Fatal("restore inside probation must re-arm rollback insurance")
	}
	if lc.probationLeft != man.Probation {
		t.Fatalf("probation budget = %d, want %d", lc.probationLeft, man.Probation)
	}
	// The restored serving model is byte-identical to the one that crashed.
	var after bytes.Buffer
	if err := dep2.SaveModel(&after); err != nil {
		t.Fatalf("save restored: %v", err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("restored model differs from the serving model at checkpoint")
	}
	// And it serves.
	for day := 20; ; day++ {
		qs := ps.Gen.Day(day)
		if len(qs) == 0 {
			continue
		}
		if _, err := dep2.OptimizeCtx(context.Background(), qs[0]); err != nil {
			t.Fatalf("restored deployment cannot serve: %v", err)
		}
		break
	}
	if n := dep2.Telemetry().Counter("durable.restores").Value(); n != 1 {
		t.Fatalf("durable.restores = %d", n)
	}
}

// TestRestoreMidProbationRollsBack is the restart-safety contract: a restart
// between a promotion and its indictment must not launder the probation away
// — the restored deployment still rolls back to the pre-promote model when
// the sentinel trips.
func TestRestoreMidProbationRollsBack(t *testing.T) {
	ps, dep, dir, opts := durableHarness(t, 31, quickLifecycleConfig())
	serveUntilPromoted(t, ps, dep)

	dep2, err := ps.RestoreDeployment(dir, 6, 2, opts...)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	lc := dep2.Lifecycle()
	if !lc.InProbation() {
		t.Fatal("not in probation after restore")
	}
	promoted := dep2.Predictor()
	for day := 16; day < 28; day++ {
		for _, q := range ps.Gen.Day(day) {
			c, err := dep2.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			dep2.ExecuteChoice(c)
		}
		if dep2.Telemetry().Counter("lifecycle.rollback").Value() > 0 {
			break
		}
	}
	if n := dep2.Telemetry().Counter("lifecycle.rollback").Value(); n == 0 {
		t.Fatal("no rollback after mid-probation restore")
	}
	if v := lc.Version(); v != 1 {
		t.Fatalf("rollback restored version %d, want 1", v)
	}
	if dep2.Predictor() == promoted {
		t.Fatal("rollback did not swap the promoted model out")
	}
	// The rollback itself checkpointed: a second restart lands on version 1.
	man := dep2.dur.store.Manifest()
	if man.Version != 1 || man.Event != durable.EventRollback {
		t.Fatalf("manifest after rollback: %+v", man)
	}
}

// TestProbationClearDropsRollbackSnapshot drives a promotion through a quiet
// probation (sentinel band widened after the promote) and verifies the
// clearance checkpoint drops the predecessor snapshot from disk.
func TestProbationClearDropsRollbackSnapshot(t *testing.T) {
	lcfg := quickLifecycleConfig()
	lcfg.Probation = 3
	ps, dep, dir, _ := durableHarness(t, 31, lcfg)
	serveUntilPromoted(t, ps, dep)
	if !dep.Lifecycle().InProbation() {
		t.Fatal("not in probation after promote")
	}
	// Run the probation clock down with quiet reaction points, draining any
	// pending sentinel trip first so the clearance path (not rollback) runs.
	for i := 0; i < lcfg.Probation+1 && dep.Lifecycle().InProbation(); i++ {
		dep.lc.sentinel.Store(false)
		dep.lc.mu.Lock()
		dep.lc.reactLocked(false)
		dep.lc.mu.Unlock()
	}
	if dep.Lifecycle().InProbation() {
		t.Fatal("probation never cleared")
	}
	man := dep.dur.store.Manifest()
	if man.Event != durable.EventProbationClear || man.PrevSnapshot != "" {
		t.Fatalf("manifest after clearance: %+v", man)
	}
	// The predecessor snapshot is gone from models/.
	ents, err := os.ReadDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("models dir after clearance: %v", names)
	}
}

func TestRestoreReplaysJournalIntoDetector(t *testing.T) {
	// Park the sentinel AND keep drift unreachable: no checkpoint events, so
	// the journal accumulates across the whole serve stream.
	lcfg := quickLifecycleConfig()
	sim := NewSimulation(33, DefaultSimulationConfig())
	cfg := DefaultProjectConfig("jr")
	cfg.Archetype.NumTables = 10
	cfg.Workload.NumTemplates = 6
	cfg.Workload.QueriesPerDayMean = 6
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 8)
	dir := t.TempDir()
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	opts := []DeployOption{WithLifecycle(lcfg), WithDurableStore(dir)}
	dep, err := ps.Deploy(dcfg, opts...)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	served := 0
	for _, q := range ps.Gen.Day(8) {
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		dep.ExecuteChoice(c)
		served++
	}
	appended := dep.Telemetry().Counter("durable.journal.appends").Value()
	if appended != int64(served) {
		t.Fatalf("journal appends = %d, served %d", appended, served)
	}

	dep2, err := ps.RestoreDeployment(dir, 6, 2, opts...)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	replayed := dep2.Telemetry().Counter("durable.journal.replayed").Value()
	if replayed != int64(served) {
		t.Fatalf("journal replayed = %d, want %d", replayed, served)
	}
}

func TestRestoreWithoutCheckpointFails(t *testing.T) {
	sim := NewSimulation(31, DefaultSimulationConfig())
	ps := sim.AddProject(DefaultProjectConfig("none"))
	if _, err := ps.RestoreDeployment(t.TempDir(), 6, 2); err == nil {
		t.Fatal("restore from an empty dir must fail")
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	ps, dep, dir, opts := durableHarness(t, 31, quickLifecycleConfig())
	man := dep.dur.store.Manifest()
	path := filepath.Join(dir, "models", man.Snapshot)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.RestoreDeployment(dir, 6, 2, opts...); !errors.Is(err, durable.ErrCorruptStore) {
		t.Fatalf("want ErrCorruptStore, got %v", err)
	}
}

// scheduleHook is a kill point that also records the kind of every durable
// write it is asked about: the baseline run's record is the write schedule
// the sweep crashes its way through.
type scheduleHook struct {
	*faultinject.KillPoint
	ops   []atomicio.Op
	paths []string
}

func (h *scheduleHook) Decide(op atomicio.Op, path string) atomicio.Decision {
	h.ops = append(h.ops, op)
	h.paths = append(h.paths, path)
	return h.KillPoint.Decide(op, path)
}

// windowAt is the journal a recovery from a crash at write n (1-based, not a
// journal append) must replay when the manifest it restores is a promote or
// rollback. Those checkpoints reset the journal before committing, so the
// journal holds exactly the appends since the later of that commit and the
// next checkpoint's reset, if the crash fell between that reset and its
// commit (the run's journal never rotates, so a segment removal is a reset).
// ok is false when write n is an append, whose record may or may not have
// landed, or when the manifest is another event, whose window is not the
// schedule's to say.
func (h *scheduleHook) windowAt(n int, man *durable.Manifest) (records int, ok bool) {
	if h.ops[n-1] == atomicio.OpAppend || man == nil || man.Event != durable.EventPromote && man.Event != durable.EventRollback {
		return 0, false
	}
	for i := n - 2; i >= 0; i-- {
		switch {
		case h.ops[i] == atomicio.OpWriteFile && filepath.Base(h.paths[i]) == "MANIFEST",
			h.ops[i] == atomicio.OpRemove && filepath.Base(filepath.Dir(h.paths[i])) == "journal":
			return records, true
		case h.ops[i] == atomicio.OpAppend:
			records++
		}
	}
	return 0, false
}

// TestKillPointSweepRecoversEveryWrite is the durability contract's proof. A
// forced-drift run (deploy → promote → probation rollback) executes once
// cleanly to record its durable write schedule, then once per write with the
// process killed at exactly that operation, the crash flavors cycling (before
// any byte lands, torn mid-write, temp complete but rename pending). After
// every crash the store must fsck clean, RestoreDeployment — or, when the
// crash predates the first committed checkpoint, a redeploy into the same
// directory — must come back on exactly what the manifest records, the
// recovered deployment must serve every probe, and the store must fsck clean
// again with any torn journal tail repaired.
func TestKillPointSweepRecoversEveryWrite(t *testing.T) {
	const seed, probes = 31, 6
	ctx := context.Background()

	// Train once; every run deploys the same bytes, so the sweep's cost is in
	// serving, not training.
	var model bytes.Buffer
	trained, err := lifecycleProject(seed, "dur").Deploy(lifecycleDeployConfig())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := trained.SaveModel(&model); err != nil {
		t.Fatalf("save model: %v", err)
	}
	opts := []DeployOption{WithGuardConfig(hairTriggerGuardConfig()), WithLifecycle(quickLifecycleConfig())}
	deploy := func(ps *ProjectSim, extra ...DeployOption) (*Deployment, error) {
		return ps.DeployFromModel(bytes.NewReader(model.Bytes()), 6, 2, append(extra, opts...)...)
	}

	// run replays the serve stream in a fresh, identically seeded simulation
	// behind a kill point at write `at` (0: never). It serves `limit` queries,
	// or with limit 0 until the first rollback, and returns how many it served
	// and the crash that ended it, if one did.
	type runState struct {
		ps     *ProjectSim
		dir    string
		hook   *scheduleHook
		dep    *Deployment
		served int
		crash  *atomicio.Crash
	}
	run := func(at, limit int) (st *runState) {
		st = &runState{
			ps:   lifecycleProject(seed, "dur"),
			dir:  t.TempDir(),
			hook: &scheduleHook{KillPoint: faultinject.NewKillPoint(seed, at, faultinject.FlavorFor(at))},
		}
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(*atomicio.Crash)
				if !ok {
					panic(r)
				}
				st.crash = c
			}
		}()
		dep, err := deploy(st.ps, WithDurableStore(st.dir), WithDurableFS(atomicio.NewFS(st.hook)))
		if err != nil {
			t.Fatalf("kill %d: deploy: %v", at, err)
		}
		st.dep = dep
		rollbacks := dep.Telemetry().Counter("lifecycle.rollback")
		for day := 8; day < 28; day++ {
			for _, q := range st.ps.Gen.Day(day) {
				if limit == 0 && rollbacks.Value() > 0 || limit > 0 && st.served == limit {
					return st
				}
				c, err := dep.OptimizeCtx(ctx, q)
				if err != nil {
					t.Fatalf("kill %d: optimize: %v", at, err)
				}
				dep.ExecuteChoice(c)
				st.served++
			}
		}
		return st
	}

	base := run(0, 0)
	if base.crash != nil {
		t.Fatalf("baseline crashed: %v", base.crash)
	}
	reg := base.dep.Telemetry()
	if reg.Counter("lifecycle.promote").Value() == 0 || reg.Counter("lifecycle.rollback").Value() == 0 {
		t.Fatalf("baseline trajectory has no promote and rollback in %d serves: the sweep would not cover every checkpoint kind", base.served)
	}
	if n := reg.Counter("durable.errors").Value(); n != 0 {
		t.Fatalf("baseline counted %d durable errors", n)
	}
	schedule := base.hook.ops
	if len(schedule) != base.hook.Ops() || len(schedule) == 0 {
		t.Fatalf("recorded %d durable writes, kill point counted %d", len(schedule), base.hook.Ops())
	}

	flavors := map[faultinject.CrashFlavor]bool{}
	var restores, redeploys, tornTails, windows int
	for n := 1; n <= len(schedule); n++ {
		st := run(n, base.served)
		if st.crash == nil {
			t.Fatalf("kill point %d/%d never fired", n, len(schedule))
		}
		// Same seed, same schedule: write n is the op the baseline recorded, so
		// the sweep crashes every op kind the schedule holds.
		if st.crash.Op != schedule[n-1] {
			t.Fatalf("kill %d crashed a %v, the baseline's write %d is a %v", n, st.crash.Op, n, schedule[n-1])
		}
		flavors[faultinject.FlavorFor(n)] = true

		// Fsck the store the dead process left behind, then recover from it.
		rep := durable.Fsck(st.dir)
		var dep *Deployment
		var err error
		if rep.Manifest == nil {
			// Died before the first checkpoint committed: nothing is durable,
			// so the only tolerable problem is the missing recovery point and
			// the consistent recovery is a redeploy into the same directory.
			for _, p := range rep.Problems {
				if !strings.Contains(p.Detail, "no recovery point") {
					t.Fatalf("kill %d: fsck %s: %s", n, p.Path, p.Detail)
				}
			}
			redeploys++
			if dep, err = deploy(st.ps, WithDurableStore(st.dir)); err != nil {
				t.Fatalf("kill %d: redeploy: %v", n, err)
			}
		} else {
			if !rep.OK() {
				t.Fatalf("kill %d: fsck: %+v", n, rep.Problems)
			}
			restores++
			if dep, err = st.ps.RestoreDeployment(st.dir, 6, 2, opts...); err != nil {
				t.Fatalf("kill %d: restore: %v", n, err)
			}
			lc, man := dep.Lifecycle(), rep.Manifest
			if lc.Version() != man.Version || lc.InProbation() != (man.Probation > 0) {
				t.Fatalf("kill %d: restored v%d probation=%v, manifest %+v", n, lc.Version(), lc.InProbation(), man)
			}
			// A promote or rollback discards the journal with its commit: the
			// restore replays what was appended since, not the window before.
			if want, ok := base.hook.windowAt(n, man); ok {
				if got := dep.Telemetry().Counter("durable.journal.replayed").Value(); got != int64(want) {
					t.Fatalf("kill %d: restored a %s checkpoint replaying %d journal records, its window holds %d", n, man.Event, got, want)
				}
				windows++
			}
		}
		if rep.TornTail {
			tornTails++
			if got := dep.Telemetry().Counter("durable.journal.truncated").Value(); got != 1 {
				t.Fatalf("kill %d: fsck saw a torn journal tail, recovery truncated %d", n, got)
			}
		}

		// The recovered deployment serves; probe days sit past the stream so
		// the generator hands out fresh queries. The probes journal (and may
		// checkpoint a probe-time rollback): the store must stay consistent.
		for day, served := 28, 0; served < probes; day++ {
			for _, q := range st.ps.Gen.Day(day) {
				c, err := dep.OptimizeCtx(ctx, q)
				if err != nil {
					t.Fatalf("kill %d: recovered deployment cannot serve: %v", n, err)
				}
				dep.ExecuteChoice(c)
				if served++; served == probes {
					break
				}
			}
		}
		if rep := durable.Fsck(st.dir); !rep.OK() || rep.TornTail {
			t.Fatalf("kill %d: post-probe fsck: tornTail=%v problems=%+v", n, rep.TornTail, rep.Problems)
		}
	}

	if !flavors[faultinject.FlavorBefore] || !flavors[faultinject.FlavorTorn] || !flavors[faultinject.FlavorAfterTemp] {
		t.Fatalf("sweep hit crash flavors %v, want all three", flavors)
	}
	if restores == 0 || redeploys == 0 || tornTails == 0 || windows == 0 {
		t.Fatalf("sweep of %d kill points: %d restores, %d redeploys, %d repaired torn tails, %d promote or rollback windows checked — each must occur",
			len(schedule), restores, redeploys, tornTails, windows)
	}
}
