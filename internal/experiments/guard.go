package experiments

import (
	"context"
	"fmt"
	"io"

	"loam"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// GuardResult measures the guarded serving layer riding out a forced
// learned-path outage: a healthy phase, an injected 100%-failure outage
// phase, and a recovery phase after the fault clears. Because the fault
// injector is seeded and the circuit breaker is clocked by serve calls (not
// wall time), the trip → cooldown → half-open probe → recovery trajectory
// lands on exactly the same queries every run.
type GuardResult struct {
	Project string
	Phases  []GuardPhase
	// Breaker lifecycle counts over the whole run (from guard.* telemetry).
	Trips     int64
	HalfOpens int64
	Closes    int64
	// Availability is served choices / optimize calls. The guard's whole
	// point: 1.0 even while the learned path is down.
	Availability float64
}

// GuardPhase tallies one phase's choices by serving origin.
type GuardPhase struct {
	Name    string
	Queries int
	Learned int
	Native  int
	Default int
	Errors  int
}

// guardPhaseQueries is the per-phase query count; sized so one outage phase
// walks the breaker through trip, full cooldown and a failed probe, and the
// recovery phase through the remaining cooldown, successful probes and
// close.
const guardPhaseQueries = 10

// Guard runs the guarded-serving outage experiment on the first evaluation
// project: train a LOAM deployment armed with a deterministic fault injector
// (off at first), then serve three phases — healthy, total learned-path
// outage, recovery — and report per-phase serving origins plus the breaker's
// lifecycle from the guard.* counters. A canceled ctx is returned as the
// error, not reported as an outage.
func (e *Env) Guard(ctx context.Context) (*GuardResult, error) {
	project := e.projects[0].Config.Name
	ps := e.Project(project)

	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = e.Cfg.TrainDays
	dcfg.TestDays = e.Cfg.TestDays
	dcfg.MaxTrain = e.Cfg.MaxTrain
	dcfg.Predictor = e.Cfg.predictorConfig(predictor.KindTCN)

	// The shared registry, so `loam-bench -metrics` renders the guard.*
	// counters alongside everything else; breaker lifecycle counts below are
	// deltas, so other deployments' guards don't leak in. The breaker is
	// sized so the outage and recovery dynamics fit in guardPhaseQueries
	// calls per phase.
	reg := e.Sim.Telemetry()
	before := breakerCounts(reg)
	inj := loam.NewFaultInjector(e.Cfg.Seed, loam.FaultInjectorConfig{PredictorErrorRate: 1})
	inj.SetEnabled(false)
	gcfg := loam.DefaultGuardConfig()
	gcfg.WindowSize = 8
	gcfg.TripThreshold = 4
	gcfg.CooldownSteps = 6
	gcfg.HalfOpenProbes = 2

	sw := walltime.Start()
	dep, err := ps.Deploy(dcfg,
		loam.WithMetrics(reg),
		loam.WithFaultInjector(inj),
		loam.WithGuardConfig(gcfg),
	)
	if err != nil {
		return nil, fmt.Errorf("guard %s: %w", project, err)
	}
	e.Cfg.logf("guard %s: trained in %.1fs", project, sw.Seconds())

	var qs []*query.Query
	for day := e.Cfg.TrainDays; len(qs) < 3*guardPhaseQueries; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}

	res := &GuardResult{Project: project}
	served := 0
	phases := []struct {
		name   string
		inject bool
	}{
		{"healthy", false},
		{"outage", true},
		{"recovery", false},
	}
	for i, p := range phases {
		inj.SetEnabled(p.inject)
		phase := GuardPhase{Name: p.name}
		for _, q := range qs[i*guardPhaseQueries : (i+1)*guardPhaseQueries] {
			phase.Queries++
			choice, err := dep.OptimizeCtx(ctx, q)
			if err != nil {
				phase.Errors++
				continue
			}
			served++
			switch choice.Origin {
			case loam.OriginNativeFallback:
				phase.Native++
			case loam.OriginDefaultFallback:
				phase.Default++
			default:
				phase.Learned++
			}
		}
		e.Cfg.logf("guard %s: phase %s learned=%d native=%d default=%d errors=%d breaker=%s",
			project, phase.Name, phase.Learned, phase.Native, phase.Default,
			phase.Errors, dep.Guard().State())
		res.Phases = append(res.Phases, phase)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	after := breakerCounts(reg)
	res.Trips = after[0] - before[0]
	res.HalfOpens = after[1] - before[1]
	res.Closes = after[2] - before[2]
	res.Availability = float64(served) / float64(3*guardPhaseQueries)
	return res, nil
}

// breakerCounts reads the breaker lifecycle counters (opened, half-opened,
// closed) from a registry.
func breakerCounts(reg *telemetry.Registry) [3]int64 {
	return [3]int64{
		reg.Counter("guard.breaker.opened").Value(),
		reg.Counter("guard.breaker.half_opened").Value(),
		reg.Counter("guard.breaker.closed").Value(),
	}
}

// Render prints the per-phase origin tallies and the breaker lifecycle.
func (r *GuardResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Guarded serving under forced outage — project %q, availability %.0f%%\n",
		r.Project, r.Availability*100)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %7s\n",
		"phase", "queries", "learned", "native", "default", "errors")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %8d %8d %8d %8d %7d\n",
			p.Name, p.Queries, p.Learned, p.Native, p.Default, p.Errors)
	}
	fmt.Fprintf(w, "breaker: %d trip(s), %d half-open probe window(s), %d close(s)\n",
		r.Trips, r.HalfOpens, r.Closes)
}
