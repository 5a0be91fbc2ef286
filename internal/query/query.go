// Package query defines the logical query specification handed to the native
// optimizer: the tables involved, the equi-join graph, per-table predicates,
// and grouping/aggregation — the information a parsed-and-analyzed SQL
// statement would carry into plan optimization.
package query

import (
	"errors"

	"loam/internal/expr"
	"loam/internal/plan"
)

// ErrInvalid reports a query no plan can be built for: a nil query, or one
// that names no table. Serving entry points return it before anything reads
// the query.
var ErrInvalid = errors.New("query: no tables")

// JoinEdge is one equi-join between two tables.
type JoinEdge struct {
	LeftTable  string
	RightTable string
	LeftCol    expr.ColumnRef
	RightCol   expr.ColumnRef
	Form       plan.JoinForm
}

// AggSpec is one aggregation output.
type AggSpec struct {
	Fn  plan.AggFunc
	Col expr.ColumnRef
}

// TableInput describes one table's scan-time inputs.
type TableInput struct {
	// PartitionFrac is the fraction of partitions the query actually needs
	// (partition pruning opportunity); 1 means full scan.
	PartitionFrac float64
	// ColumnsAccessed is how many columns the query reads from the table.
	ColumnsAccessed int
	// Pred is the sargable table-local predicate, always applied at the scan
	// (nil = none).
	Pred *expr.Node
	// HardPred is the non-sargable part of the predicate (LIKE/IN trees)
	// that MaxCompute's default rules decline to push below joins without
	// statistics to justify the rewrite; the aggressive filter-pushdown flag
	// forces it to the scan (nil = none).
	HardPred *expr.Node
}

// FullPred returns the conjunction of the sargable and non-sargable parts.
func (in *TableInput) FullPred() *expr.Node {
	return expr.And(in.Pred.Clone(), in.HardPred.Clone())
}

// Query is one logical query instance.
type Query struct {
	ID         string
	TemplateID string
	Project    string
	Day        int
	// Tables in syntactic (FROM-clause) order; the optimizer falls back to
	// this order when statistics are missing.
	Tables []string
	Inputs map[string]*TableInput
	Joins  []JoinEdge
	// GroupBy and Aggs describe the final aggregation; both empty means a
	// plain select.
	GroupBy []expr.ColumnRef
	Aggs    []AggSpec
	// NoiseSigma is the template's intrinsic execution-cost variability,
	// passed through to the execution simulator.
	NoiseSigma float64
}

// defaultInput is what Input returns for a table the query says nothing
// about: a full scan of one column, no predicate.
var defaultInput = TableInput{PartitionFrac: 1, ColumnsAccessed: 1}

// Input returns the table input spec, or a shared empty default — callers
// read the result, they do not modify it.
func (q *Query) Input(table string) *TableInput {
	if in, ok := q.Inputs[table]; ok {
		return in
	}
	return &defaultInput
}

// Check returns ErrInvalid for a query that cannot be planned (nil included).
func (q *Query) Check() error {
	if q == nil || len(q.Tables) == 0 {
		return ErrInvalid
	}
	return nil
}

// NumTables returns the number of base tables.
func (q *Query) NumTables() int { return len(q.Tables) }

// JoinsOf returns the join edges touching a table.
func (q *Query) JoinsOf(table string) []JoinEdge {
	var out []JoinEdge
	for _, j := range q.Joins {
		if j.LeftTable == table || j.RightTable == table {
			out = append(out, j)
		}
	}
	return out
}
