package exec

import (
	"math"

	"loam/internal/cardinality"
	"loam/internal/cluster"
	"loam/internal/plan"
)

// The per-operator work coefficients of the cost model, in abstract CPU cost
// per row; with the synthetic catalogs the experiments use they place
// per-query costs in the paper's 10^3–10^7 range. The executor prices the
// true rows with them and the native optimizer its estimated rows (NodeWork).
const (
	scanRow      = 0.005   // per row × column factor
	filterRow    = 0.002   // per input row × predicate-size factor
	hashBuild    = 0.012   // per build-side row
	hashProbe    = 0.005   // per probe-side row
	mergeJoinRow = 0.006   // per row of either input (plus sort terms)
	nljPair      = 0.00008 // per row-pair
	broadcastRow = 0.004   // per replicated row per instance
	aggRow       = 0.006   // per input row
	aggGroup     = 0.004   // per output group
	sortRowLog   = 0.0012  // per row × log2(rows)
	exchangeRow  = 0.008   // per shuffled row
	spoolRow     = 0.004   // per materialized row
	outputRow    = 0.001   // per emitted row (joins, select)
	windowRowLog = 0.0015
	// spillThreshold is the MEM_USAGE level above which hash operators pay
	// spillPenalty (memory pressure forces spilling).
	spillThreshold = 0.85
	spillPenalty   = 1.35
)

// NodeWork returns the environment-independent work of one operator given
// the cardinalities of its plan and the instances its stage runs with. This
// is the quantity the environment factor and noise multiply. It is the one
// work formula: the executor feeds it the true rows, the native optimizer's
// rough cost the rows it estimates from its statistics view.
func NodeWork(n *plan.Node, cards *cardinality.Result, instances int) float64 {
	out := cards.Rows(n)
	in := func(i int) float64 {
		if i < len(n.Children) {
			return cards.Rows(n.Children[i])
		}
		return 1
	}
	switch n.Op {
	case plan.OpTableScan:
		colFactor := 0.4 + 0.08*float64(n.ColumnsAccessed)
		return scanRow * out * colFactor
	case plan.OpFilter, plan.OpCalc:
		predFactor := 1 + 0.15*float64(n.Pred.Size())
		return filterRow*in(0)*predFactor + outputRow*out
	case plan.OpProject, plan.OpSelect, plan.OpSink, plan.OpValues:
		return outputRow * out
	case plan.OpHashJoin, plan.OpSemiJoin, plan.OpAntiJoin:
		// Right child is the build side by convention.
		return hashBuild*in(1) + hashProbe*in(0) + outputRow*out
	case plan.OpMergeJoin:
		l, r := in(0), in(1)
		return mergeJoinRow*(l+r) + sortRowLog*(l*log2(l)+r*log2(r))*0.25 + outputRow*out
	case plan.OpNestedLoopJoin:
		return nljPair*in(0)*in(1) + outputRow*out
	case plan.OpBroadcastJoin:
		// Right side replicated to every instance, then local probe.
		return broadcastRow*in(1)*float64(instances) + hashProbe*in(0) + outputRow*out
	case plan.OpHashAggregate, plan.OpPartialAggregate, plan.OpFinalAggregate, plan.OpDistinct:
		f := 1 + 0.1*float64(len(n.AggFuncs))
		return aggRow*in(0)*f + aggGroup*out
	case plan.OpSortAggregate:
		f := 1 + 0.1*float64(len(n.AggFuncs))
		return sortRowLog*in(0)*log2(in(0)) + aggRow*in(0)*f*0.5 + aggGroup*out
	case plan.OpSort, plan.OpLocalSort, plan.OpTopN:
		return sortRowLog * in(0) * log2(in(0))
	case plan.OpWindow:
		return windowRowLog * in(0) * log2(in(0))
	case plan.OpExchange:
		return exchangeRow * in(0)
	case plan.OpBroadcastExchange:
		return broadcastRow * in(0) * float64(instances)
	case plan.OpSpool:
		return spoolRow * in(0)
	case plan.OpLazySpool:
		return spoolRow * in(0) * 0.4
	case plan.OpUnion, plan.OpExpand, plan.OpSample, plan.OpLimit:
		return outputRow * (in(0) + out)
	default:
		return outputRow * out
	}
}

// hashHeavy reports whether the operator is memory-pressure sensitive.
func hashHeavy(op plan.OpType) bool {
	switch op {
	case plan.OpHashJoin, plan.OpBroadcastJoin, plan.OpSemiJoin, plan.OpAntiJoin,
		plan.OpHashAggregate, plan.OpPartialAggregate, plan.OpFinalAggregate, plan.OpDistinct:
		return true
	default:
		return false
	}
}

// EnvFactor returns the multiplicative cost effect of a stage's execution
// environment. It is affine in (1−CPU_IDLE), IO_WAIT, normalized LOAD5 and
// MEM_USAGE — the "discernible, roughly monotonic, coarsely linear"
// influence of §5 / Fig. 5 — normalized to ≈1 at typical average conditions.
func EnvFactor(m cluster.Metrics) float64 {
	f := m.Normalized()
	idle, io, load5, mem := f[0], f[1], f[2], f[3]
	v := 0.40 + 1.30*(1-idle) + 1.20*io + 0.38*load5 + 0.15*mem
	if v < 0.3 {
		v = 0.3
	}
	return v
}

func log2(v float64) float64 {
	if v < 2 {
		return 1
	}
	return math.Log2(v)
}
