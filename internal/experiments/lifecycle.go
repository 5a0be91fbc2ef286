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

// LifecycleResult measures the model lifecycle loop end to end on live
// serving traffic: the guard's regression sentinel detects drift, the
// lifecycle retrains from harvested feedback, shadow-scores the candidate,
// hot-swaps it in, and rolls it back when the sentinel trips again during
// probation. The sentinel's divergence band is set near zero, so every
// serving model is deterministically indicted after one sentinel window —
// a forced-drift harness in the same spirit as the guard experiment's
// forced outage. Same-seed runs produce identical event trajectories.
type LifecycleResult struct {
	Project string
	Queries int
	// Events is the promote/rollback trajectory in serve order.
	Events []LifecycleEvent
	// FinalVersion is the serving model's lineage version after the run.
	FinalVersion int
	// Counter deltas over the run (lifecycle.* and guard.quarantine.*).
	DriftSignals int64
	Retrains     int64
	Rejected     int64
	Promotes     int64
	Rollbacks    int64
	Trips        int64
	Released     int64
	// Availability is served choices / optimize calls; the lifecycle must
	// never cost a query (quarantined stretches serve the native fallback).
	Availability float64
}

// LifecycleEvent is one model transition observed during serving.
type LifecycleEvent struct {
	// Query is the 1-based serve index whose execution triggered the
	// transition.
	Query int
	// Kind is "promote" or "rollback".
	Kind string
	// Version is the serving model's version after the transition.
	Version int
}

// lifecycleQueries is the serve budget: enough for the feedback store to
// fill past the retrain floor, the first quarantine-triggered promote, the
// probation rollback, and a second promote cycle.
const lifecycleQueries = 60

// Lifecycle runs the continual-learning experiment on the first evaluation
// project: deploy with a lifecycle manager and a hair-trigger regression
// sentinel, serve a fixed query stream executing every choice, and record
// the drift → retrain → shadow-score → promote → rollback trajectory. A
// canceled ctx is returned as the error, not reported as lost availability.
func (e *Env) Lifecycle(ctx context.Context) (*LifecycleResult, error) {
	project := e.projects[0].Config.Name
	ps := e.Project(project)

	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = e.Cfg.TrainDays
	dcfg.TestDays = e.Cfg.TestDays
	dcfg.MaxTrain = e.Cfg.MaxTrain
	dcfg.Predictor = e.Cfg.predictorConfig(predictor.KindTCN)

	// A near-zero divergence band makes every learned choice adverse to the
	// sentinel: one 4-sample window quarantines the serving model, so drift
	// arrives on a fixed cadence. The lifecycle is tuned to retrain as soon
	// as 8 observations are harvested and to accept generously — shadow
	// scores on a tiny window separate real models only weakly, and the
	// experiment pins the loop's mechanics, not model quality.
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
	// Park the prediction-vs-actual detector out of reach: the sentinel is
	// the sole drift trigger, keeping the trajectory easy to read.
	lcfg.Drift = loam.DriftConfig{Window: 1 << 20, Threshold: 1e9, Windows: 1 << 20}

	reg := e.Sim.Telemetry()
	before := lifecycleCounts(reg)

	sw := walltime.Start()
	dep, err := ps.Deploy(dcfg,
		loam.WithMetrics(reg),
		loam.WithGuardConfig(gcfg),
		loam.WithLifecycle(lcfg),
	)
	if err != nil {
		return nil, fmt.Errorf("lifecycle %s: %w", project, err)
	}
	e.Cfg.logf("lifecycle %s: trained in %.1fs", project, sw.Seconds())

	var qs []*query.Query
	for day := e.Cfg.TrainDays; len(qs) < lifecycleQueries; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}
	qs = qs[:lifecycleQueries]

	lc := dep.Lifecycle()
	res := &LifecycleResult{Project: project, Queries: len(qs)}
	served := 0
	version := lc.Version()
	for i, q := range qs {
		choice, err := dep.OptimizeCtx(ctx, q)
		if err != nil {
			continue
		}
		served++
		dep.ExecuteChoice(choice)
		if v := lc.Version(); v != version {
			kind := "promote"
			if v < version {
				kind = "rollback"
			}
			res.Events = append(res.Events, LifecycleEvent{Query: i + 1, Kind: kind, Version: v})
			e.Cfg.logf("lifecycle %s: serve %d %s -> v%d", project, i+1, kind, v)
			version = v
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	after := lifecycleCounts(reg)
	res.FinalVersion = version
	res.DriftSignals = after[0] - before[0]
	res.Retrains = after[1] - before[1]
	res.Rejected = after[2] - before[2]
	res.Promotes = after[3] - before[3]
	res.Rollbacks = after[4] - before[4]
	res.Trips = after[5] - before[5]
	res.Released = after[6] - before[6]
	res.Availability = float64(served) / float64(len(qs))
	return res, nil
}

// lifecycleCounts reads the lifecycle trajectory counters from a registry:
// drift signals, retrain runs, rejections, promotes, rollbacks, quarantine
// trips and releases.
func lifecycleCounts(reg *telemetry.Registry) [7]int64 {
	return [7]int64{
		reg.Counter("lifecycle.drift.signals").Value(),
		reg.Counter("lifecycle.retrain.runs").Value(),
		reg.Counter("lifecycle.retrain.rejected").Value(),
		reg.Counter("lifecycle.promote").Value(),
		reg.Counter("lifecycle.rollback").Value(),
		reg.Counter("guard.quarantine.trips").Value(),
		reg.Counter("guard.quarantine.released").Value(),
	}
}

// Render prints the serve-order event trajectory and the loop counters.
func (r *LifecycleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Model lifecycle under forced drift — project %q, availability %.0f%%\n",
		r.Project, r.Availability*100)
	fmt.Fprintf(w, "%d queries served; drift signals %d, retrains %d (%d rejected), promotes %d, rollbacks %d\n",
		r.Queries, r.DriftSignals, r.Retrains, r.Rejected, r.Promotes, r.Rollbacks)
	fmt.Fprintf(w, "quarantines: %d tripped, %d released by swap/rollback\n", r.Trips, r.Released)
	for _, ev := range r.Events {
		fmt.Fprintf(w, "  serve %3d  %-8s -> v%d\n", ev.Query, ev.Kind, ev.Version)
	}
	fmt.Fprintf(w, "final model version: v%d\n", r.FinalVersion)
}
