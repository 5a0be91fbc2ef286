// Package warehouse models the data-at-rest side of a MaxCompute-like
// multi-tenant warehouse: projects (user-created database instances), their
// partitioned tables, and per-column value distributions.
//
// The column distributions defined here are the simulator's hidden ground
// truth: the execution simulator computes true cardinalities (and therefore
// true CPU costs) from them, while the optimizer only ever sees the possibly
// stale or missing statistics exposed by the stats package. The gap between
// the two is Challenge C2 of the paper.
package warehouse

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"loam/internal/expr"
	"loam/internal/simrand"
)

// Column is one column of a table, with its hidden true value distribution.
// Values are identified by frequency rank in [0, NDV): rank 0 is the most
// frequent value under a Zipf(skew) law (skew 0 means uniform). Value order
// coincides with rank order, which is all range-predicate arithmetic needs.
type Column struct {
	ID       string  `json:"id"`   // globally unique, e.g. "p1.t003.c05"
	Name     string  `json:"name"` // short name within the table
	NDV      int64   `json:"ndv"`  // number of distinct values
	Skew     float64 `json:"skew"` // Zipf exponent; 0 = uniform
	NullFrac float64 `json:"nullFrac"`
}

// Ref returns the column's reference for use in predicates, given its table.
func (c *Column) Ref(t *Table) expr.ColumnRef {
	return expr.ColumnRef{Table: t.ID, Column: c.ID}
}

// Table is a logically partitioned table.
type Table struct {
	ID           string    `json:"id"`
	Name         string    `json:"name"`
	Rows         int64     `json:"rows"` // row count at creation day
	Partitions   int       `json:"partitions"`
	Columns      []*Column `json:"columns"`
	CreatedDay   int       `json:"createdDay"`
	LifespanDays int       `json:"lifespanDays"` // days the table exists after creation
	DailyGrowth  float64   `json:"dailyGrowth"`  // multiplicative row growth per day
	Temp         bool      `json:"temp"`         // short-lived analysis table
}

// AliveOn reports whether the table exists on the given simulated day.
func (t *Table) AliveOn(day int) bool {
	return day >= t.CreatedDay && day < t.CreatedDay+t.LifespanDays
}

// RowsAt returns the true row count on the given day. Growth compounds from
// the creation day; before creation the count is 0.
func (t *Table) RowsAt(day int) int64 {
	if day < t.CreatedDay {
		return 0
	}
	age := float64(day - t.CreatedDay)
	rows := float64(t.Rows) * math.Pow(t.DailyGrowth, age)
	if rows < 1 {
		rows = 1
	}
	return int64(rows)
}

// Column returns the column with the given ID, or nil.
func (t *Table) Column(id string) *Column {
	for _, c := range t.Columns {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Project is a user-created database instance: the unit of isolation,
// workload characterization, and learned-optimizer deployment.
type Project struct {
	Name   string   `json:"name"`
	Tables []*Table `json:"tables"`

	byID map[string]*Table
	zipf ZipfHeads // of the true column skews
}

// Table returns the table with the given ID, or nil.
func (p *Project) Table(id string) *Table {
	if p.byID == nil {
		p.index()
	}
	return p.byID[id]
}

func (p *Project) index() {
	p.byID = make(map[string]*Table, len(p.Tables))
	for _, t := range p.Tables {
		p.byID[t.ID] = t
	}
}

// AliveTables returns the tables that exist on the given day.
func (p *Project) AliveTables(day int) []*Table {
	out := make([]*Table, 0, len(p.Tables))
	for _, t := range p.Tables {
		if t.AliveOn(day) {
			out = append(out, t)
		}
	}
	return out
}

// NumColumns returns the total number of columns across all tables.
func (p *Project) NumColumns() int {
	total := 0
	for _, t := range p.Tables {
		total += len(t.Columns)
	}
	return total
}

// StableTableRatio returns the fraction of tables with lifespan exceeding n
// days — the raw material of selector rule R3.
func (p *Project) StableTableRatio(n int) float64 {
	if len(p.Tables) == 0 {
		return 0
	}
	count := 0
	for _, t := range p.Tables {
		if t.LifespanDays > n {
			count++
		}
	}
	return float64(count) / float64(len(p.Tables))
}

// Truth is the ground-truth distribution view of a project. It implements
// expr.DistProvider exactly (no staleness, no missing data) and is consumed
// only by the execution simulator — never by the optimizer.
type Truth struct {
	Project *Project
}

var _ expr.DistProvider = (*Truth)(nil)

// CompareSelectivity returns the true fraction of rows satisfying
// fn(col, args...).
func (tr *Truth) CompareSelectivity(col expr.ColumnRef, fn expr.Func, args []float64) float64 {
	t := tr.Project.Table(col.Table)
	if t == nil {
		return 1
	}
	c := t.Column(col.Column)
	if c == nil {
		return 1
	}
	return ColumnSelectivity(c, &tr.Project.zipf, fn, args)
}

// ColumnSelectivity evaluates an atomic comparison against a column's
// Zipf(skew) distribution over NDV ranks. heads memoizes the head of the
// distribution's harmonic sums for whoever owns the column's statistics — a
// catalog for the truth, a statistics view for an estimate; nil computes it
// per call, to the same bits.
func ColumnSelectivity(c *Column, heads *ZipfHeads, fn expr.Func, args []float64) float64 {
	n := c.NDV
	if n <= 0 {
		n = 1
	}
	nonNull := 1 - c.NullFrac
	switch fn {
	case expr.FuncEQ:
		return nonNull * zipfPMF(rank(args, 0, n), n, c.Skew, heads)
	case expr.FuncNE:
		return nonNull * (1 - zipfPMF(rank(args, 0, n), n, c.Skew, heads))
	case expr.FuncLT:
		return nonNull * zipfCDF(rank(args, 0, n), n, c.Skew, heads) // ranks strictly below r
	case expr.FuncLE:
		return nonNull * zipfCDF(rank(args, 0, n)+1, n, c.Skew, heads)
	case expr.FuncGT:
		return nonNull * (1 - zipfCDF(rank(args, 0, n)+1, n, c.Skew, heads))
	case expr.FuncGE:
		return nonNull * (1 - zipfCDF(rank(args, 0, n), n, c.Skew, heads))
	case expr.FuncIn:
		s := 0.0
		for i := range args {
			s += zipfPMF(rank(args, i, n), n, c.Skew, heads)
		}
		return clamp01(nonNull * s)
	case expr.FuncBetween:
		lo, hi := rank(args, 0, n), rank(args, 1, n)
		if hi < lo {
			lo, hi = hi, lo
		}
		return nonNull * (zipfCDF(hi+1, n, c.Skew, heads) - zipfCDF(lo, n, c.Skew, heads))
	case expr.FuncLike:
		// Pattern selectivity is not derivable from rank statistics; model it
		// as a deterministic function of the pattern argument so recurring
		// templates see stable truth.
		v := arg(args, 0)
		return 0.08 + 0.30*frac(v*0.6180339887498949)
	case expr.FuncIsNull:
		return c.NullFrac
	default:
		return 1
	}
}

func rank(args []float64, i int, n int64) int64 {
	v := int64(arg(args, i))
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func arg(args []float64, i int) float64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

func frac(v float64) float64 {
	_, f := math.Modf(math.Abs(v))
	return f
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// zipfHeadLen is how many leading terms of a harmonic sum are added up
// exactly before the integral takes over.
const zipfHeadLen = 64

// ZipfHeads memoizes H(zipfHeadLen, s), the exact head of genHarmonic, by
// skew: the head is 64 math.Pow calls that depend on nothing else, and every
// PMF or CDF over more than 64 ranks needs it — twice per range predicate,
// for every request that evaluates the predicate. It lives with the column
// statistics the skews come from (a Project's truth, a stats.View's
// estimates), holds one float per skew a selectivity was asked under, fills on
// first use and is safe for concurrent use. The zero value is ready; a nil
// *ZipfHeads memoizes nothing.
type ZipfHeads struct {
	mu    sync.Mutex
	heads map[uint64]float64 // by math.Float64bits(s)
}

// head returns H(zipfHeadLen, s) — the float64 genHarmonic's loop computes,
// whether it comes from the memo or not.
func (z *ZipfHeads) head(s float64) float64 {
	if z == nil {
		return genHarmonic(zipfHeadLen, s, nil)
	}
	key := math.Float64bits(s)
	z.mu.Lock()
	defer z.mu.Unlock()
	h, ok := z.heads[key]
	if !ok {
		h = genHarmonic(zipfHeadLen, s, nil)
		if z.heads == nil {
			z.heads = make(map[uint64]float64)
		}
		z.heads[key] = h
	}
	return h
}

// genHarmonic approximates the generalized harmonic number H(k, s) =
// sum_{i=1..k} i^-s using an Euler–Maclaurin integral correction. The
// approximation is monotone in k, which is the property selectivity
// arithmetic depends on. Past zipfHeadLen terms the exact head comes from
// heads.
func genHarmonic(k int64, s float64, heads *ZipfHeads) float64 {
	if k <= 0 {
		return 0
	}
	kf := float64(k)
	if s == 0 {
		return kf
	}
	if k <= zipfHeadLen {
		total := 0.0
		for i := int64(1); i <= k; i++ {
			total += math.Pow(float64(i), -s)
		}
		return total
	}
	// Exact head + integral tail with midpoint correction.
	total := heads.head(s)
	a, b := float64(zipfHeadLen), kf
	if s == 1 {
		total += math.Log(b) - math.Log(a)
	} else {
		total += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	total += 0.5 * (math.Pow(b, -s) - math.Pow(a, -s))
	return total
}

// zipfPMF returns P(rank = r) for ranks 0-based over n values.
func zipfPMF(r, n int64, s float64, heads *ZipfHeads) float64 {
	if n <= 0 {
		return 0
	}
	if s == 0 {
		return 1 / float64(n)
	}
	return math.Pow(float64(r+1), -s) / genHarmonic(n, s, heads)
}

// zipfCDF returns P(rank < r) = H(r,s)/H(n,s) for 0-based ranks.
func zipfCDF(r, n int64, s float64, heads *ZipfHeads) float64 {
	if r <= 0 {
		return 0
	}
	if r >= n {
		return 1
	}
	if s == 0 {
		return float64(r) / float64(n)
	}
	return genHarmonic(r, s, heads) / genHarmonic(n, s, heads)
}

// Archetype parameterizes project generation. The experiments package holds
// archetypes tuned to reproduce the paper's five evaluation projects
// (Table 1); arbitrary archetypes generate fleet projects for the selector
// experiments.
type Archetype struct {
	Name            string
	NumTables       int
	ColumnsPerTable int     // mean columns per table (geometric-ish spread)
	RowsLog10Mean   float64 // mean of log10 row count
	RowsLog10Std    float64
	MaxPartitions   int
	TempTableFrac   float64 // fraction of short-lived tables
	GrowthMean      float64 // mean daily multiplicative growth (e.g. 1.01)
	SkewMax         float64 // max Zipf exponent for columns
	HorizonDays     int     // days of simulated catalog history
}

// DefaultArchetype returns a mid-sized analytical project.
func DefaultArchetype() Archetype {
	return Archetype{
		Name:            "default",
		NumTables:       40,
		ColumnsPerTable: 12,
		RowsLog10Mean:   5.0,
		RowsLog10Std:    1.0,
		MaxPartitions:   256,
		TempTableFrac:   0.2,
		GrowthMean:      1.01,
		SkewMax:         1.2,
		HorizonDays:     40,
	}
}

// Generate builds a project from an archetype, deterministically from rng.
func Generate(rng *simrand.RNG, a Archetype) *Project {
	if a.NumTables <= 0 {
		a.NumTables = 1
	}
	if a.ColumnsPerTable <= 0 {
		a.ColumnsPerTable = 4
	}
	if a.HorizonDays <= 0 {
		a.HorizonDays = 40
	}
	p := &Project{Name: a.Name, Tables: make([]*Table, 0, a.NumTables)}
	for ti := 0; ti < a.NumTables; ti++ {
		tRNG := rng.DeriveN("table", ti)
		t := generateTable(tRNG, a, ti)
		p.Tables = append(p.Tables, t)
	}
	sort.Slice(p.Tables, func(i, j int) bool { return p.Tables[i].ID < p.Tables[j].ID })
	p.index()
	return p
}

func generateTable(rng *simrand.RNG, a Archetype, ti int) *Table {
	id := fmt.Sprintf("%s.t%03d", a.Name, ti)
	rows := math.Pow(10, rng.Normal(a.RowsLog10Mean, a.RowsLog10Std))
	if rows < 10 {
		rows = 10
	}
	parts := 1
	if a.MaxPartitions > 1 {
		// Bigger tables get more partitions; at least 1.
		parts = int(math.Max(1, math.Min(float64(a.MaxPartitions), rows/50_000)))
		if parts > 1 {
			parts += rng.Intn(parts) // jitter
			if parts > a.MaxPartitions {
				parts = a.MaxPartitions
			}
		}
	}
	nCols := 2 + rng.Intn(2*a.ColumnsPerTable-2) // mean ≈ ColumnsPerTable, min 2
	cols := make([]*Column, nCols)
	for ci := 0; ci < nCols; ci++ {
		ndv := int64(math.Pow(10, rng.Uniform(0.5, math.Log10(rows)+0.1)))
		if ndv < 2 {
			ndv = 2
		}
		if ndv > int64(rows) {
			ndv = int64(rows)
		}
		cols[ci] = &Column{
			ID:       fmt.Sprintf("%s.c%02d", id, ci),
			Name:     fmt.Sprintf("c%02d", ci),
			NDV:      ndv,
			Skew:     rng.Uniform(0, a.SkewMax),
			NullFrac: rng.Uniform(0, 0.05),
		}
	}
	t := &Table{
		ID:          id,
		Name:        fmt.Sprintf("t%03d", ti),
		Rows:        int64(rows),
		Partitions:  parts,
		Columns:     cols,
		DailyGrowth: math.Max(1.0, rng.Normal(a.GrowthMean, 0.01)),
	}
	if rng.Bool(a.TempTableFrac) {
		t.Temp = true
		t.CreatedDay = rng.Intn(a.HorizonDays)
		t.LifespanDays = 1 + rng.Intn(7)
	} else {
		t.CreatedDay = 0
		t.LifespanDays = 10 * a.HorizonDays // effectively permanent
	}
	return t
}
