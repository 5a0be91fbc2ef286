// Package stats models the optimizer-visible statistics of a project —
// deliberately decoupled from the warehouse's hidden ground truth.
//
// Per the paper (§2.1), MaxCompute does not automatically maintain attribute
// statistics: histograms and NDVs are often stale or missing, and cost
// estimation falls back to coarse, metadata-driven approximations such as
// historical table row counts. This package reproduces exactly that failure
// mode (Challenge C2): a View is a snapshot whose per-table row counts may
// lag the truth and whose per-column statistics may be absent or noisy.
package stats

import (
	"loam/internal/expr"
	"loam/internal/simrand"
	"loam/internal/warehouse"
)

// Policy controls how degraded a project's statistics are. The experiments
// tune these knobs per project archetype: high-headroom projects in the paper
// are precisely those whose native optimizer works from bad statistics.
type Policy struct {
	// ColumnStatsProb is the probability that a table has any column-level
	// statistics (NDV, skew estimate) at all.
	ColumnStatsProb float64
	// FreshProb is the probability that an existing snapshot is current; a
	// stale snapshot lags by up to MaxStalenessDays.
	FreshProb float64
	// MaxStalenessDays bounds how old a stale snapshot can be.
	MaxStalenessDays int
	// NDVNoise is the multiplicative log-normal sigma applied to NDV
	// estimates even when statistics exist (sampling error).
	NDVNoise float64
}

// DefaultPolicy returns a moderately degraded statistics policy.
func DefaultPolicy() Policy {
	return Policy{ColumnStatsProb: 0.6, FreshProb: 0.5, MaxStalenessDays: 25, NDVNoise: 0.3}
}

// ColumnStats is the optimizer's (possibly wrong) belief about one column.
type ColumnStats struct {
	NDV      int64
	Skew     float64
	NullFrac float64
}

// TableStats is the optimizer's belief about one table.
type TableStats struct {
	// SnapshotDay is when the snapshot was taken; row counts reflect that
	// day, not the present.
	SnapshotDay int
	Rows        int64
	Partitions  int
	// Columns is nil when column statistics are missing entirely, in which
	// case selectivity estimation falls back to magic constants and the
	// optimizer disables statistics-dependent transformations (join
	// reordering) for queries touching this table.
	Columns map[string]ColumnStats
}

// View is a statistics snapshot of a project as seen by the native optimizer
// on a given day. It implements expr.DistProvider with *estimated*
// selectivities.
type View struct {
	AsOfDay int
	Tables  map[string]*TableStats

	// zipf memoizes the harmonic head of each estimated skew a selectivity
	// was asked under, so the requests served from this view compute it once
	// between them. Column statistics do not change once a view is read.
	zipf warehouse.ZipfHeads
}

var _ expr.DistProvider = (*View)(nil)

// Snapshot builds the optimizer-visible view of a project on the given day,
// degrading the truth according to the policy. The derivation is
// deterministic in rng.
func Snapshot(rng *simrand.RNG, p *warehouse.Project, day int, pol Policy) *View {
	v := &View{AsOfDay: day, Tables: make(map[string]*TableStats, len(p.Tables))}
	for i, t := range p.Tables {
		if !t.AliveOn(day) {
			continue
		}
		tRNG := rng.DeriveN("stats:"+t.ID, i)
		snapDay := day
		if !tRNG.Bool(pol.FreshProb) {
			lag := 1 + tRNG.Intn(max(1, pol.MaxStalenessDays))
			snapDay = day - lag
			if snapDay < t.CreatedDay {
				snapDay = t.CreatedDay
			}
		}
		ts := &TableStats{
			SnapshotDay: snapDay,
			Rows:        t.RowsAt(snapDay),
			Partitions:  t.Partitions,
		}
		if tRNG.Bool(pol.ColumnStatsProb) {
			ts.Columns = make(map[string]ColumnStats, len(t.Columns))
			for _, c := range t.Columns {
				ndv := float64(c.NDV) * tRNG.LogNormal(0, pol.NDVNoise)
				if ndv < 1 {
					ndv = 1
				}
				ts.Columns[c.ID] = ColumnStats{
					NDV:      int64(ndv),
					Skew:     c.Skew * tRNG.Uniform(0.6, 1.4),
					NullFrac: c.NullFrac,
				}
			}
		}
		v.Tables[t.ID] = ts
	}
	return v
}

// RowEstimate returns the optimizer's row-count belief for a table. Missing
// tables get a default guess — metadata-driven approximation per §2.1.
func (v *View) RowEstimate(tableID string) int64 {
	if ts, ok := v.Tables[tableID]; ok {
		return ts.Rows
	}
	return 10_000
}

// PartitionEstimate returns the believed partition count.
func (v *View) PartitionEstimate(tableID string) int {
	if ts, ok := v.Tables[tableID]; ok && ts.Partitions > 0 {
		return ts.Partitions
	}
	return 1
}

// HasColumnStats reports whether column-level statistics exist for a table.
// Join reordering is disabled by the native optimizer for queries touching
// tables without column statistics (§2.1).
func (v *View) HasColumnStats(tableID string) bool {
	ts, ok := v.Tables[tableID]
	return ok && ts.Columns != nil
}

// NDVEstimate returns the believed NDV of a column, or a magic default when
// statistics are missing.
func (v *View) NDVEstimate(col expr.ColumnRef) int64 {
	if ts, ok := v.Tables[col.Table]; ok && ts.Columns != nil {
		if cs, ok := ts.Columns[col.Column]; ok {
			return cs.NDV
		}
	}
	// Missing: assume a tenth of believed rows are distinct, floor 10.
	guess := v.RowEstimate(col.Table) / 10
	if guess < 10 {
		guess = 10
	}
	return guess
}

// Magic selectivity constants used when column statistics are missing —
// the classic System-R style fallbacks.
const (
	magicEQ      = 0.01
	magicRange   = 1.0 / 3.0
	magicLike    = 0.05
	magicIn      = 0.04
	magicIsNull  = 0.01
	magicBetween = 0.25
)

// CompareSelectivity returns the optimizer's selectivity estimate. With
// column statistics present it reuses the warehouse's Zipf arithmetic on the
// *estimated* parameters; otherwise it returns magic constants.
func (v *View) CompareSelectivity(col expr.ColumnRef, fn expr.Func, args []float64) float64 {
	ts, ok := v.Tables[col.Table]
	if ok && ts.Columns != nil {
		if cs, ok := ts.Columns[col.Column]; ok {
			est := &warehouse.Column{ID: col.Column, NDV: cs.NDV, Skew: cs.Skew, NullFrac: cs.NullFrac}
			return warehouse.ColumnSelectivity(est, &v.zipf, fn, args)
		}
	}
	switch fn {
	case expr.FuncEQ:
		return magicEQ
	case expr.FuncNE:
		return 1 - magicEQ
	case expr.FuncLT, expr.FuncLE, expr.FuncGT, expr.FuncGE:
		return magicRange
	case expr.FuncIn:
		s := magicIn * float64(len(args))
		if s > 1 {
			s = 1
		}
		return s
	case expr.FuncLike:
		return magicLike
	case expr.FuncBetween:
		return magicBetween
	case expr.FuncIsNull:
		return magicIsNull
	default:
		return 1
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
