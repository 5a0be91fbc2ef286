package faultinject

// Disk fault injection for the durability layer (internal/durable via
// internal/atomicio): KillPoint, a countdown hook that crashes the process
// (atomicio's *Crash panic) at exactly the Nth durable write operation, with
// a chosen crash flavor. TestKillPointSweepRecoversEveryWrite (`make
// chaos-recover`) enumerates N over a run's full write schedule to prove
// recovery from every write point.
//
// Operations are counted in the order the FS issues them; since the durable
// layer serializes its writes under the lifecycle lock, the count is
// deterministic for a deterministic workload.

import (
	"sync/atomic"

	"loam/internal/atomicio"
	"loam/internal/simrand"
)

// CrashFlavor selects how a kill point lands.
type CrashFlavor int

const (
	// FlavorBefore crashes before any byte of the op reaches disk.
	FlavorBefore CrashFlavor = iota
	// FlavorTorn crashes mid-write, landing a torn prefix.
	FlavorTorn
	// FlavorAfterTemp crashes with the temp file complete but the rename
	// pending (for appends: after a complete, synced append).
	FlavorAfterTemp
	numFlavors
)

// String renders the flavor's stable label.
func (f CrashFlavor) String() string {
	switch f {
	case FlavorTorn:
		return "torn"
	case FlavorAfterTemp:
		return "after-temp"
	default:
		return "before"
	}
}

// FlavorFor deterministically assigns a crash flavor to kill point n,
// cycling through all flavors so a kill-point sweep exercises each.
func FlavorFor(n int) CrashFlavor { return CrashFlavor(n % int(numFlavors)) }

// decisionFor translates a flavor into the atomicio decision. Torn writes
// keep a pseudo-random prefix derived from (seed, n) so sweeps tear at
// varied offsets, deterministically.
func decisionFor(f CrashFlavor, seed uint64, n int) atomicio.Decision {
	switch f {
	case FlavorTorn:
		keep := simrand.New(seed).DeriveN("tornkeep", n).Intn(61)
		return atomicio.Decision{Outcome: atomicio.CrashTorn, KeepBytes: keep}
	case FlavorAfterTemp:
		return atomicio.Decision{Outcome: atomicio.CrashAfterTemp}
	default:
		return atomicio.Decision{Outcome: atomicio.CrashBefore}
	}
}

// KillPoint is an atomicio.Hook that lets writes 1..N-1 proceed and crashes
// write N with the configured flavor. Ops is the number of write operations
// observed so far (readable after the crash to size a sweep).
type KillPoint struct {
	seed   uint64
	at     int
	flavor CrashFlavor
	ops    atomic.Int64
}

// NewKillPoint returns a hook that crashes the at-th write op (1-based);
// at <= 0 never crashes, which is how a baseline run counts its write
// schedule.
func NewKillPoint(seed uint64, at int, flavor CrashFlavor) *KillPoint {
	return &KillPoint{seed: seed, at: at, flavor: flavor}
}

// Ops returns how many write operations the hook has observed.
func (k *KillPoint) Ops() int { return int(k.ops.Load()) }

// Decide implements atomicio.Hook.
func (k *KillPoint) Decide(op atomicio.Op, path string) atomicio.Decision {
	n := int(k.ops.Add(1))
	if k.at > 0 && n == k.at {
		return decisionFor(k.flavor, k.seed, n)
	}
	return atomicio.Decision{}
}
