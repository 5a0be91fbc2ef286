package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"loam"
	"loam/internal/atomicio"
	"loam/internal/durable"
	"loam/internal/fleet"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// instance is one built workload: a freshly generated world, its trained
// deployment(s), and the pre-generated request stream, cut into units. A unit
// is the smallest piece a run may stop after (a pass, a day, a wave, a chunk
// of loop iterations); everything a unit needs — queries, statistics views —
// exists before the first timed request.
type instance struct {
	name string
	// units is the fixed request stream's length. replay marks streams that
	// wrap around (recurring passes, fleet waves): under -seconds they keep
	// going until the time is up, while a stream that consumes its input
	// (dayroll, loop) ends with it.
	units  int
	replay bool
	// expect sizes the latency buffer so it never grows inside a timed unit.
	expect int

	reg    *telemetry.Registry
	phases *setupPhases
	// dep is the deployment the leaf probes sample plans and the model from.
	dep *loam.Deployment
	// probeQueries feed the leaf probes of a traced run.
	probeQueries []*query.Query

	warm   func(ctx context.Context)
	unit   func(ctx context.Context, u int, m *meter)
	after  func(u int, m *meter)
	finish func(ctx context.Context, m *meter)
	close  func()

	// stagedCounts reads the staged servers' counters: candidates the
	// explorer returned and candidates handed to the scorer (nil untraced).
	stagedCounts func() (cands, scored int64)
	// ioOps reads the durable write count (loop only).
	ioOps func() int64
}

// setupPhases splits set-up time by layer.
type setupPhases struct {
	history, views, train float64
}

// world is the simulation a workload is built in.
type world struct {
	sz  sizes
	sim *loam.Simulation
	ph  setupPhases
}

func newWorld(sz sizes) *world {
	return &world{sz: sz, sim: loam.NewSimulation(worldSeed, loam.SimulationConfig{Cluster: clusterConfig})}
}

// project generates one project and runs its native history.
func (w *world) project(spec projectSpec) *loam.ProjectSim {
	sw := walltime.Start()
	ps := w.sim.AddProject(loam.ProjectConfig{
		Name: spec.name, Archetype: spec.archetype, Workload: spec.workload, StatsPolicy: spec.stats,
	})
	ps.RunDays(0, w.sz.trainDays+w.sz.testDays)
	w.ph.history += sw.Seconds()
	return ps
}

// deployOptions are the options every deployment of the scenario shares.
func (w *world) deployOptions(extra ...loam.DeployOption) []loam.DeployOption {
	return append([]loam.DeployOption{
		loam.WithMetrics(w.sim.Telemetry()),
		loam.WithGuardConfig(guardConfig),
		loam.WithPlanCache(planCacheCapacity),
	}, extra...)
}

func (w *world) deploy(ps *loam.ProjectSim, extra ...loam.DeployOption) (*loam.Deployment, error) {
	sw := walltime.Start()
	dep, err := ps.Deploy(w.sz.deployConfig(), w.deployOptions(extra...)...)
	w.ph.train += sw.Seconds()
	return dep, err
}

// futureDays pre-builds the n consecutive days after the history: the
// statistics view (cached inside ProjectSim, so serving only looks it up) and
// the day's query batch, in a -seed order. Neither stats.Snapshot nor Gen.Day
// ever runs inside a timed region. The days are the same for every seed —
// shifting the window with the seed moved dayroll's throughput by 20%, the
// catalog's short-lived tables being alive on some days and not others — so
// -seed draws the order the day's queries arrive in.
func (w *world) futureDays(ps *loam.ProjectSim, n int, rng *simrand.RNG) [][]*query.Query {
	sw := walltime.Start()
	from := w.sz.trainDays + w.sz.testDays
	days := make([][]*query.Query, n)
	for i := range days {
		ps.View(from + i)
		qs := ps.Gen.Day(from + i)
		rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
		days[i] = qs
	}
	w.ph.views += sw.Seconds()
	return days
}

// recurringSet is a deployment's test-window queries in a -seed order: the
// paper's recurring traffic, re-submitted against unchanged statistics.
func recurringSet(dep *loam.Deployment, rng *simrand.RNG) []*query.Query {
	qs := make([]*query.Query, len(dep.TestSet))
	for i, e := range dep.TestSet {
		qs[i] = e.Query
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// serverFor returns the deployment itself, or its staged replay when traced.
func (w *world) serverFor(dep *loam.Deployment, tr *tracer, l *lane) (server, []*staged) {
	if tr == nil {
		return depServer{dep}, nil
	}
	s := newStaged(dep, w.sim.Telemetry(), tr, l)
	return s, []*staged{s}
}

// serveAll is one untimed pass of qs — the warm-up every workload starts
// with, so scratch pools, the heap and (where it fits) the plan cache are in
// steady state before the first timed request.
func serveAll(ctx context.Context, srv server, qs []*query.Query) {
	for _, q := range qs {
		_, _ = srv.optimize(ctx, q) // warm-up outcome is not measured; the timed passes check every request
	}
}

// build constructs the named workload from seed. tr nil builds the untraced
// instance that serves through the program's own entry points; a tracer
// builds the staged replay of the same request stream. outDir is where loop
// roots its durable store.
func build(name string, sz sizes, seed uint64, tr *tracer, outDir string) (*instance, error) {
	rng := simrand.New(seed).Derive("bench:" + name)
	var (
		in  *instance
		err error
	)
	switch name {
	case "recurring":
		in, err = buildRecurring(sz, rng, tr)
	case "dayroll":
		in, err = buildDayroll(sz, rng, tr)
	case "fleet":
		in, err = buildFleet(sz, rng, tr)
	case "loop":
		in, err = buildLoop(sz, rng, tr, outDir)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	in.name = name
	return in, nil
}

func buildRecurring(sz sizes, rng *simrand.RNG, tr *tracer) (*instance, error) {
	w := newWorld(sz)
	dep, err := w.deploy(w.project(project1))
	if err != nil {
		return nil, err
	}
	qs := recurringSet(dep, rng)
	srv, st := w.serverFor(dep, tr, &lane{})
	in := w.instance(dep, qs, st...)
	in.units, in.replay, in.expect = sz.recurringPasses, true, sz.recurringPasses*len(qs)
	in.warm = func(ctx context.Context) { serveAll(ctx, srv, qs) }
	in.unit = func(ctx context.Context, _ int, m *meter) {
		t := &m.tallies[0]
		for _, q := range qs {
			t.serve(ctx, srv, q)
		}
	}
	in.finish = func(_ context.Context, m *meter) {
		// The same queries against the same view and model must choose the
		// same plans on every pass.
		if n := len(m.units); n > 1 && m.units[0].digest != m.units[n-1].digest {
			m.problemf("choices digest of pass 1 (%016x) differs from pass %d (%016x)", m.units[0].digest, n, m.units[n-1].digest)
		}
	}
	return in, nil
}

func buildDayroll(sz sizes, rng *simrand.RNG, tr *tracer) (*instance, error) {
	w := newWorld(sz)
	ps := w.project(project1)
	dep, err := w.deploy(ps)
	if err != nil {
		return nil, err
	}
	days := w.futureDays(ps, sz.dayrollDays, rng)
	srv, st := w.serverFor(dep, tr, &lane{})
	in := w.instance(dep, days[0], st...)
	in.units = len(days)
	for _, d := range days {
		in.expect += len(d)
	}
	// The warm-up serves the test window, never a future day: a timed request
	// must stay the first sight of its (query, view).
	warm := recurringSet(dep, rng)
	in.warm = func(ctx context.Context) { serveAll(ctx, srv, warm) }
	in.unit = func(ctx context.Context, u int, m *meter) {
		t := &m.tallies[0]
		for _, q := range days[u] {
			t.serve(ctx, srv, q)
		}
	}
	return in, nil
}

// route is one pre-generated fleet request.
type route struct {
	tenant string
	q      *query.Query
	real   bool
}

func buildFleet(sz sizes, rng *simrand.RNG, tr *tracer) (*instance, error) {
	w := newWorld(sz)
	reg := w.sim.NewFleet(fleetConfig)
	specs := [2]projectSpec{project1, project2}
	var (
		deps    [2]*loam.Deployment
		lanes   [2]*lane
		recur   [2][]*query.Query
		halves  [2][]string
		stageds []*staged
	)
	// Real tenants register first, so they draw their initial grants before
	// the synthetic tenants drain the pool.
	for c, spec := range specs {
		dep, err := w.deploy(w.project(spec))
		if err != nil {
			return nil, err
		}
		deps[c], lanes[c] = dep, &lane{}
		recur[c] = recurringSet(dep, rng.DeriveN("recurring", c))
		if tr == nil {
			err = reg.Register(spec.name, dep)
		} else {
			st := newStaged(dep, w.sim.Telemetry(), tr, lanes[c])
			stageds = append(stageds, st)
			err = reg.RegisterBackend(spec.name, stagedBackend{st})
		}
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < sz.fleetSynthetic; i++ {
		name := fmt.Sprintf("synth%03d", i)
		c := i * 2 / sz.fleetSynthetic // first half belongs to client A
		var b fleet.Backend = fleet.NewSyntheticTenant(name, w.sim.Telemetry())
		if tr != nil {
			b = timedBackend{Backend: b, tr: tr, lane: lanes[c]}
		}
		if err := reg.RegisterBackend(name, b); err != nil {
			return nil, err
		}
		halves[c] = append(halves[c], name)
	}

	// Traffic: wave 0 is the untimed warm-up, waves 1..fleetWaves are timed.
	// Which slots of a wave are synthetic, which tenant each of those hits,
	// and which recurring query each real slot re-submits is drawn per (wave,
	// client). Real queries are drawn with replacement: under a cyclic replay
	// an LRU cache smaller than the set would never hit, which no recurring
	// production stream looks like.
	nReal := int(float64(sz.fleetWaveRoutes) * fleetRealShare)
	waves := make([][2][]route, sz.fleetWaves+1)
	for wv := range waves {
		for c := range specs {
			wrng := rng.DeriveN(fmt.Sprintf("wave:%d", c), wv)
			zipf := simrand.NewZipf(wrng.Derive("zipf"), 1.1, len(halves[c]))
			mask := make([]bool, sz.fleetWaveRoutes)
			for i := 0; i < nReal; i++ {
				mask[i] = true
			}
			wrng.Shuffle(len(mask), func(i, j int) { mask[i], mask[j] = mask[j], mask[i] })
			rs := make([]route, len(mask))
			for i, real := range mask {
				if real {
					rs[i] = route{tenant: specs[c].name, q: recur[c][wrng.Intn(len(recur[c]))], real: true}
					continue
				}
				tenant := halves[c][zipf.Draw()]
				rs[i] = route{tenant: tenant, q: &query.Query{
					ID:         fmt.Sprintf("%s-w%d-%d", tenant, wv, i),
					TemplateID: fmt.Sprintf("t%02d", wrng.Intn(16)),
				}}
			}
			waves[wv][c] = rs
		}
	}

	runWave := func(ctx context.Context, wave [2][]route, m *meter) {
		var wg sync.WaitGroup
		for c := range wave {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t, l := &m.tallies[c], lanes[c]
				busy := walltime.Start()
				defer func() { t.busy = busy.Elapsed() }()
				for _, r := range wave[c] {
					var root int32
					if tr != nil {
						name := spanRouteSynthetic
						if r.real {
							name = spanRoute
						}
						l.req = tr.nextReq()
						root = tr.begin(l.req, 0, name)
						l.parent = root
					}
					sw := walltime.Start()
					choice, err := reg.Route(ctx, r.tenant, r.q)
					d := sw.Elapsed()
					if tr != nil {
						tr.end(root)
					}
					switch {
					case r.real:
						t.record(choice, err, d)
					case err != nil:
						t.synFailed++
					}
					t.think()
				}
			}(c)
		}
		wg.Wait() // the barrier: a wave ends when both clients have
	}

	in := w.instance(deps[0], recur[0], stageds...)
	in.units, in.replay, in.expect = sz.fleetWaves, true, sz.fleetWaves*2*nReal
	control := func(m *meter) {
		sw := walltime.Start()
		reg.Tick()
		reg.Rebalance()
		d := sw.Elapsed()
		if m == nil {
			return
		}
		m.rebalances = append(m.rebalances, d)
		if st := reg.Budget(); st.Entries > st.Granted || st.Granted > st.Budget {
			m.problemf("fleet budget invariant broken: entries %d, granted %d, budget %d", st.Entries, st.Granted, st.Budget)
		}
	}
	in.warm = func(ctx context.Context) {
		runWave(ctx, waves[0], newMeter(2*sz.fleetWaveRoutes))
		control(nil)
	}
	in.unit = func(ctx context.Context, u int, m *meter) { runWave(ctx, waves[1+u%sz.fleetWaves], m) }
	in.after = func(_ int, m *meter) { control(m) }
	return in, nil
}

// opCounter is an atomicio.Hook that lets every write proceed and counts it.
type opCounter struct {
	mu  sync.Mutex
	ops int64
}

func (c *opCounter) Decide(atomicio.Op, string) atomicio.Decision {
	c.mu.Lock()
	c.ops++
	c.mu.Unlock()
	return atomicio.Decision{}
}

func (c *opCounter) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

func buildLoop(sz sizes, rng *simrand.RNG, tr *tracer, outDir string) (*instance, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "loop-store-")
	if err != nil {
		return nil, err
	}
	in, err := buildLoopIn(sz, rng, tr, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.close = func() { os.RemoveAll(dir) }
	return in, nil
}

func buildLoopIn(sz sizes, rng *simrand.RNG, tr *tracer, dir string) (*instance, error) {
	w := newWorld(sz)
	ps := w.project(project1)
	ops := &opCounter{}
	dep, err := w.deploy(ps,
		loam.WithLifecycle(lifecycleConfig),
		loam.WithDurableStore(dir),
		loam.WithDurableFS(atomicio.NewFS(ops)),
	)
	if err != nil {
		return nil, err
	}
	// The stream is the consecutive future days, flattened and cut to
	// loopRequests; a day is at least ~75 queries.
	var stream []*query.Query
	for _, day := range w.futureDays(ps, sz.loopRequests/75+1, rng) {
		stream = append(stream, day...)
	}
	stream = stream[:min(len(stream), sz.loopRequests)]

	l := &lane{}
	srv, st := w.serverFor(dep, tr, l)
	in := w.instance(dep, stream[:min(len(stream), 4*sz.probeSamples)], st...)
	in.ioOps = ops.count
	in.units, in.expect = (len(stream)+sz.loopChunk-1)/sz.loopChunk, len(stream)
	warm := recurringSet(dep, rng)
	in.warm = func(ctx context.Context) { serveAll(ctx, srv, warm) }
	retrains := w.sim.Telemetry().Counter("lifecycle.retrain.runs")
	in.unit = func(ctx context.Context, u int, m *meter) {
		t := &m.tallies[0]
		for _, q := range stream[u*sz.loopChunk : min(len(stream), (u+1)*sz.loopChunk)] {
			var root int32
			if tr != nil {
				l.req = tr.nextReq()
				root = tr.begin(l.req, 0, spanLoop)
				l.parent = root
			}
			sw := walltime.Start()
			choice, err := srv.optimize(ctx, q)
			if err == nil && choice != nil && choice.Chosen != nil {
				before := retrains.Value()
				var sp int32
				if tr != nil {
					sp = tr.begin(l.req, root, spanExecute)
				}
				esw := walltime.Start()
				rec := dep.ExecuteChoice(choice)
				ed := esw.Elapsed()
				if tr != nil {
					tr.end(sp)
				}
				m.execs = append(m.execs, ed)
				m.execCost += rec.CPUCost
				if retrains.Value() != before {
					m.stalls = append(m.stalls, ed)
				}
			}
			d := sw.Elapsed()
			if tr != nil {
				tr.end(root)
				l.parent = 0
			}
			t.record(choice, err, d)
			t.think()
		}
	}
	in.finish = func(ctx context.Context, m *meter) {
		m.storeBytes = dirBytes(dir)
		if rep := durable.Fsck(dir); !rep.OK() {
			m.problemf("durable store not fsck-clean: %d problems, first %s: %s", len(rep.Problems), rep.Problems[0].Path, rep.Problems[0].Detail)
		}
		sw := walltime.Start()
		restored, err := ps.RestoreDeployment(dir, sz.trainDays, sz.testDays, w.deployOptions(loam.WithLifecycle(lifecycleConfig))...)
		m.restore = sw.Elapsed()
		if err != nil {
			m.problemf("restore: %v", err)
			return
		}
		for i, q := range warm[:min(len(warm), sz.loopProbes)] {
			if c, err := restored.OptimizeCtx(ctx, q); err != nil || c == nil || c.Chosen == nil {
				m.problemf("probe serve %d after restore failed: %v", i, err)
			}
		}
	}
	return in, nil
}

// instance starts an instance from the world's shared parts.
func (w *world) instance(dep *loam.Deployment, probes []*query.Query, sts ...*staged) *instance {
	in := &instance{
		reg: w.sim.Telemetry(), phases: &w.ph, dep: dep, probeQueries: probes,
		after:  func(int, *meter) {},
		finish: func(context.Context, *meter) {},
		close:  func() {},
	}
	if len(sts) > 0 {
		in.stagedCounts = func() (cands, scored int64) {
			for _, st := range sts {
				cands, scored = cands+st.cands, scored+st.scored
			}
			return cands, scored
		}
	}
	return in
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a file vanishing mid-walk (journal rotation) only lowers the sum
	})
	return n
}
