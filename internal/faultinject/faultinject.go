// Package faultinject is a deterministic, seeded fault-injection harness for
// the guarded serving path (internal/guard).
//
// Production learned optimizers earn their availability story by surviving
// the failure modes nobody schedules: a predictor that starts erroring, a
// model that emits NaN estimates, a scorer that stalls past its deadline, a
// cluster that load-spikes under a noisy neighbor. The injector forces each
// of those on demand so tests (`make chaos`) can prove the fallback ladder and
// circuit breaker keep serving.
//
// Determinism contract: every injection decision is a pure function of
// (injector seed, fault kind, query ID), computed through a simrand-derived
// stream. Decisions are therefore independent of call order, parallelism and
// wall time — two same-seed runs inject exactly the same faults into exactly
// the same queries, which is what lets same-seed telemetry snapshots stay
// byte-identical under injection. The only stateful toggle is SetEnabled,
// which a caller flips between serving phases (never mid-batch when
// byte-identical snapshots are asserted).
package faultinject

import (
	"errors"
	"sync/atomic"

	"loam/internal/cluster"
	"loam/internal/simrand"
)

// ErrInjected marks an error as synthetic: guard-path failures caused by the
// injector wrap it, so tests can tell forced faults from organic ones with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets per-fault injection rates. Rates are probabilities in [0, 1];
// 0 disables a fault kind, 1 forces it for every query.
type Config struct {
	// PredictorErrorRate forces the learned scorer to fail with an opaque
	// error before scoring starts.
	PredictorErrorRate float64
	// NaNRate corrupts a successful scoring pass into all-NaN estimates —
	// the predictor's ErrNoFiniteEstimate failure mode.
	NaNRate float64
	// DelayRate simulates the scorer stalling past the serving deadline.
	// The stall is logical (the guard treats it as a deadline hit
	// immediately); no real sleeping, so tests stay fast and deterministic.
	DelayRate float64
	// NativeFailRate makes the native re-planning fallback rung fail,
	// pushing the guard down to the default-plan rung.
	NativeFailRate float64
	// LoadSpikeRate adds LoadSpikeAmount of load to every cluster machine
	// before a query is served — the multi-tenant noisy-neighbor scenario.
	LoadSpikeRate   float64
	LoadSpikeAmount float64
	// RetrainFailRate makes a lifecycle retrain attempt fail before training
	// starts — the mid-promote crash scenario. The incumbent model must keep
	// serving (or keep its quarantine fallback) when this fires.
	RetrainFailRate float64
}

// Injector decides, per query, which faults to force. The zero of *Injector
// (nil) is a valid no-op injector: every decision method returns false, so
// the guard can hold one unconditionally.
type Injector struct {
	root    *simrand.RNG
	cfg     Config
	enabled atomic.Bool
	cl      atomic.Pointer[cluster.Cluster]
}

// New returns an enabled injector whose decisions derive from seed.
func New(seed uint64, cfg Config) *Injector {
	inj := &Injector{root: simrand.New(seed), cfg: cfg}
	inj.enabled.Store(true)
	return inj
}

// Config returns the injector's rate configuration.
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// SetEnabled toggles the whole injector, to phase an outage: healthy
// traffic, then a 100%-failure burst, then recovery.
func (i *Injector) SetEnabled(on bool) {
	if i != nil {
		i.enabled.Store(on)
	}
}

// Enabled reports whether the injector is currently active.
func (i *Injector) Enabled() bool { return i != nil && i.enabled.Load() }

// AttachCluster points load-spike injection at a live cluster; without one,
// LoadSpike still reports its decision but has no substrate to push on.
func (i *Injector) AttachCluster(cl *cluster.Cluster) {
	if i != nil {
		i.cl.Store(cl)
	}
}

// roll is the single decision primitive: a pure function of (seed, kind, id)
// via a derived stream, so outcomes do not depend on how many or in what
// order other decisions were made.
func (i *Injector) roll(kind, id string, rate float64) bool {
	if !i.Enabled() || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return i.root.Derive(kind+":"+id).Float64() < rate
}

// PredictorError reports whether to force a scorer error for this query.
func (i *Injector) PredictorError(id string) bool {
	return i.roll("predictor", id, i.Config().PredictorErrorRate)
}

// CorruptNaN reports whether to corrupt this query's estimates to NaN.
func (i *Injector) CorruptNaN(id string) bool {
	return i.roll("nan", id, i.Config().NaNRate)
}

// Delay reports whether to stall this query's scoring past the deadline.
func (i *Injector) Delay(id string) bool {
	return i.roll("delay", id, i.Config().DelayRate)
}

// NativeFail reports whether the native fallback rung fails for this query.
func (i *Injector) NativeFail(id string) bool {
	return i.roll("native", id, i.Config().NativeFailRate)
}

// RetrainFail reports whether to abort a lifecycle retrain attempt. The id
// is the candidate model's version label, so the decision is a pure function
// of (seed, attempt) — independent of when during serving the retrain fires.
func (i *Injector) RetrainFail(id string) bool {
	return i.roll("retrain", id, i.Config().RetrainFailRate)
}

// LoadSpike decides a load spike for this query and, when a cluster is
// attached, applies it to every machine. Note that under parallel serving
// the spike's interleaving with other queries' environment reads is
// scheduler-dependent (the decision itself is not); experiments asserting
// byte-identical estimates serve sequentially or keep the rate at zero.
func (i *Injector) LoadSpike(id string) bool {
	if !i.roll("loadspike", id, i.Config().LoadSpikeRate) {
		return false
	}
	if cl := i.cl.Load(); cl != nil {
		ids := make([]int, cl.Size())
		for j := range ids {
			ids[j] = j
		}
		cl.AddLoad(ids, i.cfg.LoadSpikeAmount)
	}
	return true
}
