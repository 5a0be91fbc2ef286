package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"loam"
	"loam/internal/encoding"
	"loam/internal/fleet"
	"loam/internal/guard"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// A traced run replays a workload stage by stage from outside the program:
// the harness calls each layer's public function in the order OptimizeCtx
// does and records one span around every call. No program file carries a
// span; spans inside the program are a later change (ROADMAP item 4).

// spanName is a span's stage. The string table below is what the span file
// and README.md call them.
type spanName uint8

const (
	// spanRequest is one staged OptimizeCtx equivalent; its self time is the
	// choice-assembly residual.
	spanRequest spanName = iota
	spanExplorer
	spanClusterEnv
	spanEnvSource
	spanGuardServe
	spanSelect
	spanRough
	spanNative
	// spanRoute is one FleetRegistry.Route to a real tenant;
	// spanRouteSynthetic one to a synthetic tenant, whose only child is the
	// timing-wrapped backend, so its self time is the registry's own cost.
	spanRoute
	spanRouteSynthetic
	spanBackend
	// spanLoop is one loop iteration: a staged optimize plus ExecuteChoice.
	spanLoop
	spanExecute
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "explorer.candidates", "cluster.env", "predictor.envsource",
	"guard.serve", "predictor.select", "guard.rough", "guard.native",
	"fleet.route", "fleet.route.synthetic", "fleet.backend",
	"loop.request", "loam.execute_choice",
}

// residualSpan marks the spans that only frame other stages: their self time
// is glue and tracing cost, reported as loam.assemble_us, and is left out of
// loam.trace_coverage. Synthetic routes are not end-to-end requests.
var residualSpan = [numSpanNames]bool{
	spanRequest: true, spanLoop: true, spanRouteSynthetic: true, spanBackend: true,
}

// span is one timed call. IDs are 1-based positions in the tracer's slice;
// parent 0 marks a root. Times are nanoseconds since the tracer's epoch.
type span struct {
	req, parent int32
	name        spanName
	start, end  int64
}

// tracer keeps every span in memory until the run ends. The mutex is for the
// fleet workload's two clients; everywhere else it is uncontended.
type tracer struct {
	epoch walltime.Stopwatch
	mu    sync.Mutex
	spans []span
	reqs  int32
}

func newTracer() *tracer {
	return &tracer{epoch: walltime.Start(), spans: make([]span, 0, 1<<16)}
}

// nextReq hands out the identifier the spans of one request share.
func (t *tracer) nextReq() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) begin(req, parent int32, name spanName) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{req: req, parent: parent, name: name, start: t.epoch.Elapsed().Nanoseconds()})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = t.epoch.Elapsed().Nanoseconds()
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Children of one parent never overlap here: each stage runs
// to completion before the next starts, and the scorer's helper goroutine is
// awaited by guard.Serve.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		p := spans[s.parent-1]
		if lo, hi := max(s.start, p.start), min(s.end, p.end); hi > lo {
			self[s.parent-1] -= hi - lo
		}
	}
	return self
}

// stageStat sums one stage's spans.
type stageStat struct {
	count     int
	dur, self int64 // nanoseconds
}

func stageStats(spans []span) [numSpanNames]stageStat {
	var st [numSpanNames]stageStat
	self := selfTimes(spans)
	for i, s := range spans {
		st[s.name].count++
		st[s.name].dur += s.end - s.start
		st[s.name].self += self[i]
	}
	return st
}

// spanFile renders the spans as JSONL, one object per span; see README.md
// "Span file".
func spanFile(spans []span) []byte {
	var b bytes.Buffer
	for i, s := range spans {
		fmt.Fprintf(&b, `{"req":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.req, i+1, s.parent, spanNames[s.name], s.start, s.end)
	}
	return b.Bytes()
}

// lane is one client's tracing context: the request in flight and the span
// its next stage hangs under. Every tenant's stream is owned by one client,
// so a lane is only ever touched by one goroutine at a time (the guard's
// scoring goroutine is started and awaited inside guard.Serve).
type lane struct {
	req, parent int32
}

// server is the entry point a workload serves through: a deployment
// (untraced) or the staged replay of one (traced).
type server interface {
	optimize(ctx context.Context, q *query.Query) (*loam.Choice, error)
}

type depServer struct{ dep *loam.Deployment }

func (s depServer) optimize(ctx context.Context, q *query.Query) (*loam.Choice, error) {
	return s.dep.OptimizeCtx(ctx, q)
}

// staged re-implements Deployment.OptimizeCtx and optimizeShed from the
// layers' public functions, one span per call. Its guard mirrors
// ProjectSim.newGuard — same config, same native and rough-cost closures —
// with the scorer, native planner and rough-cost reference wrapped in timing
// shims. It scores with the deployment's own predictor, so the plan cache,
// its counters and (on loop) lifecycle hot-swaps are the real ones.
type staged struct {
	dep  *loam.Deployment
	tr   *tracer
	lane *lane
	grd  *guard.Guard

	// raw is a bare guard around the live predictor: ScoreLearned is the
	// sanctioned way to score outside a serving guard, and the timing shim
	// must not bypass guarddiscipline. optimize rebuilds it when a lifecycle
	// promote has swapped the predictor — there, not in the scorer shim,
	// which as a guard.BatchScorer sits on the path allocdiscipline keeps
	// allocation-free.
	raw    *guard.Guard
	rawFor *predictor.Predictor

	// cands counts the candidate plans the explorer returned, scored those
	// handed to the scorer.
	cands, scored int64
}

func newStaged(dep *loam.Deployment, reg *telemetry.Registry, tr *tracer, l *lane) *staged {
	s := &staged{dep: dep, tr: tr, lane: l}
	ps := dep.ProjectSim
	s.grd = guard.New(guard.Options{
		Config: guardConfig,
		Scorer: &timedScorer{s},
		Native: func(q *query.Query) *plan.Plan {
			defer s.tr.end(s.tr.begin(s.lane.req, s.lane.parent, spanNative))
			return nativeopt.DefaultPlan(ps.View(q.Day), q)
		},
		Rough: func(day int, p *plan.Plan) float64 {
			defer s.tr.end(s.tr.begin(s.lane.req, s.lane.parent, spanRough))
			return nativeopt.New(ps.View(day)).RoughCost(p)
		},
		Metrics: reg,
	})
	return s
}

func (s *staged) optimize(ctx context.Context, q *query.Query) (*loam.Choice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, l := s.tr, s.lane
	outer := l.parent
	if outer == 0 {
		l.req = tr.nextReq()
	}
	root := tr.begin(l.req, outer, spanRequest)
	defer func() { tr.end(root); l.parent = outer }()

	cands := s.explore(root, q)

	sp := tr.begin(l.req, root, spanClusterEnv)
	cl := s.dep.ProjectSim.Executor.Cluster
	ce := cl.HistoryAverage().Normalized()
	cb := cl.ClusterAverage().Normalized()
	tr.end(sp)

	sp = tr.begin(l.req, root, spanEnvSource)
	p := s.dep.Predictor()
	envs, key := p.EnvSourceFor(s.dep.Strategy, ce, cb), p.EnvKeyFor(s.dep.Strategy, ce, cb)
	tr.end(sp)
	if p != s.rawFor {
		s.raw, s.rawFor = guard.New(guard.Options{Config: guardConfig, Scorer: p}), p
	}

	l.parent = tr.begin(l.req, root, spanGuardServe)
	res, err := s.grd.Serve(ctx, guard.Request{ID: q.ID, Day: q.Day, Query: q, Cands: cands, Envs: envs, EnvKey: key})
	tr.end(l.parent)
	if err != nil {
		return nil, fmt.Errorf("staged optimize %s: %w", q.ID, err)
	}
	return assemble(q, cands, res), nil
}

// shed mirrors Deployment.optimizeShed: candidates, then the guard's
// fallback ladder only.
func (s *staged) shed(ctx context.Context, q *query.Query, cause error) (*loam.Choice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, l := s.tr, s.lane
	outer := l.parent
	root := tr.begin(l.req, outer, spanRequest)
	defer func() { tr.end(root); l.parent = outer }()

	cands := s.explore(root, q)
	l.parent = tr.begin(l.req, root, spanGuardServe)
	res, err := s.grd.ServeShed(guard.Request{ID: q.ID, Day: q.Day, Query: q, Cands: cands}, cause)
	tr.end(l.parent)
	if err != nil {
		return nil, fmt.Errorf("staged shed %s: %w", q.ID, err)
	}
	return assemble(q, cands, res), nil
}

func (s *staged) explore(root int32, q *query.Query) []*plan.Plan {
	defer s.tr.end(s.tr.begin(s.lane.req, root, spanExplorer))
	cands := s.dep.ProjectSim.Explorer(q.Day).Candidates(q)
	s.cands += int64(len(cands))
	return cands
}

// assemble builds the Choice exactly as OptimizeCtx does.
func assemble(q *query.Query, cands []*plan.Plan, res guard.Result) *loam.Choice {
	idx := -1
	for i := range cands {
		if cands[i] == res.Chosen {
			idx = i
			break
		}
	}
	return &loam.Choice{
		Query: q, Candidates: cands, Estimates: res.Estimates, Chosen: res.Chosen,
		ChosenIdx: idx, Origin: res.Origin, FallbackCause: res.FallbackCause,
	}
}

// timedScorer is the scorer shim: every entry point the guard may take is
// one predictor.select span around the same call on the live predictor.
type timedScorer struct{ s *staged }

var (
	_ guard.Scorer      = (*timedScorer)(nil)
	_ guard.KeyedScorer = (*timedScorer)(nil)
	_ guard.BatchScorer = (*timedScorer)(nil)
)

func (t *timedScorer) score(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (*plan.Plan, []float64, error) {
	s := t.s
	defer s.tr.end(s.tr.begin(s.lane.req, s.lane.parent, spanSelect))
	s.scored += int64(len(cands))
	return s.raw.ScoreLearnedKeyed(cands, envs, key)
}

func (t *timedScorer) SelectPlan(cands []*plan.Plan, envs encoding.EnvSource) (*plan.Plan, []float64, error) {
	return t.score(cands, envs, encoding.EnvKey{})
}

func (t *timedScorer) SelectPlanKeyed(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (*plan.Plan, []float64, error) {
	return t.score(cands, envs, key)
}

// SelectPlanGroups scores group by group. The harness never enables
// micro-batching, so this is reached only if a later scenario does; it keeps
// the shim a full BatchScorer so wrapping never silently disables coalescing.
func (t *timedScorer) SelectPlanGroups(groups []predictor.Group) {
	for i := range groups {
		g := &groups[i]
		var costs []float64
		g.Best, costs, g.Err = t.score(g.Cands, g.Envs, g.Key)
		copy(g.Costs, costs)
	}
}

// stagedBackend plugs a staged server into the fleet registry in place of
// the deployment, forwarding cache governance to the real predictor.
type stagedBackend struct{ s *staged }

var _ fleet.Backend = stagedBackend{}

func (b stagedBackend) OptimizeCtx(ctx context.Context, q *query.Query) (any, error) {
	c, err := b.s.optimize(ctx, q)
	if c == nil {
		return nil, err
	}
	return c, err
}

func (b stagedBackend) ShedCtx(ctx context.Context, q *query.Query, cause error) (any, error) {
	c, err := b.s.shed(ctx, q, cause)
	if c == nil {
		return nil, err
	}
	return c, err
}

func (b stagedBackend) CacheLen() int { return b.s.dep.Predictor().PlanCacheLen() }

func (b stagedBackend) SetCacheCapacity(n int) { b.s.dep.Predictor().SetPlanCacheCapacity(n) }

// timedBackend wraps a synthetic tenant so a synthetic route's span has the
// backend as its child and the registry's own cost as its self time.
type timedBackend struct {
	fleet.Backend
	tr   *tracer
	lane *lane
}

func (b timedBackend) OptimizeCtx(ctx context.Context, q *query.Query) (any, error) {
	defer b.tr.end(b.tr.begin(b.lane.req, b.lane.parent, spanBackend))
	return b.Backend.OptimizeCtx(ctx, q)
}

func (b timedBackend) ShedCtx(ctx context.Context, q *query.Query, cause error) (any, error) {
	defer b.tr.end(b.tr.begin(b.lane.req, b.lane.parent, spanBackend))
	return b.Backend.ShedCtx(ctx, q, cause)
}
