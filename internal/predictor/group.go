package predictor

import (
	"loam/internal/encoding"
	"loam/internal/plan"
)

// Group is a bare declaration: bench/trace.go is its only reference (through
// guard.BatchScorer), and a later benchmark PR drops both.
type Group struct {
	Cands []*plan.Plan
	Envs  encoding.EnvSource
	Key   encoding.EnvKey

	Best  *plan.Plan
	Costs []float64
	Err   error
}
