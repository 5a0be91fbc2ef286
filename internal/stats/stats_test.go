package stats

import (
	"math"
	"sync"
	"testing"

	"loam/internal/expr"
	"loam/internal/simrand"
	"loam/internal/warehouse"
)

func project() *warehouse.Project {
	a := warehouse.DefaultArchetype()
	a.Name = "s"
	a.TempTableFrac = 0
	return warehouse.Generate(simrand.New(11), a)
}

func TestSnapshotDeterminism(t *testing.T) {
	p := project()
	v1 := Snapshot(simrand.New(3), p, 10, DefaultPolicy())
	v2 := Snapshot(simrand.New(3), p, 10, DefaultPolicy())
	if len(v1.Tables) != len(v2.Tables) {
		t.Fatal("table counts differ")
	}
	for id, ts1 := range v1.Tables {
		ts2 := v2.Tables[id]
		if ts2 == nil || ts1.Rows != ts2.Rows || ts1.SnapshotDay != ts2.SnapshotDay {
			t.Fatalf("snapshot for %s differs", id)
		}
	}
}

func TestSnapshotStalenessBounds(t *testing.T) {
	p := project()
	pol := Policy{ColumnStatsProb: 1, FreshProb: 0, MaxStalenessDays: 10, NDVNoise: 0.1}
	v := Snapshot(simrand.New(4), p, 20, pol)
	for id, ts := range v.Tables {
		if ts.SnapshotDay > 20 || ts.SnapshotDay < 20-10 {
			t.Fatalf("%s snapshot day %d out of [10,20]", id, ts.SnapshotDay)
		}
	}
}

func TestSnapshotFreshPolicy(t *testing.T) {
	p := project()
	pol := Policy{ColumnStatsProb: 1, FreshProb: 1, MaxStalenessDays: 10}
	v := Snapshot(simrand.New(5), p, 7, pol)
	for id, ts := range v.Tables {
		if ts.SnapshotDay != 7 {
			t.Fatalf("%s not fresh: day %d", id, ts.SnapshotDay)
		}
		if ts.Columns == nil {
			t.Fatalf("%s missing column stats despite prob 1", id)
		}
	}
}

func TestSnapshotMissingColumnStats(t *testing.T) {
	p := project()
	pol := Policy{ColumnStatsProb: 0, FreshProb: 1}
	v := Snapshot(simrand.New(6), p, 3, pol)
	for id, ts := range v.Tables {
		if ts.Columns != nil {
			t.Fatalf("%s has column stats despite prob 0", id)
		}
		if v.HasColumnStats(id) {
			t.Fatalf("HasColumnStats(%s) true", id)
		}
	}
}

func TestSnapshotSkipsDeadTables(t *testing.T) {
	p := &warehouse.Project{Tables: []*warehouse.Table{
		{ID: "alive", Rows: 100, LifespanDays: 100, Columns: []*warehouse.Column{{ID: "c", NDV: 10}}},
		{ID: "dead", Rows: 100, CreatedDay: 50, LifespanDays: 10, Columns: []*warehouse.Column{{ID: "c", NDV: 10}}},
	}}
	v := Snapshot(simrand.New(7), p, 5, DefaultPolicy())
	if _, ok := v.Tables["dead"]; ok {
		t.Fatal("dead table in snapshot")
	}
	if _, ok := v.Tables["alive"]; !ok {
		t.Fatal("alive table missing")
	}
}

func TestRowEstimateFallback(t *testing.T) {
	v := &View{Tables: map[string]*TableStats{"t": {Rows: 123}}}
	if v.RowEstimate("t") != 123 {
		t.Fatal("known table estimate wrong")
	}
	if v.RowEstimate("unknown") != 10_000 {
		t.Fatal("fallback estimate wrong")
	}
}

func TestNDVEstimateFallback(t *testing.T) {
	v := &View{Tables: map[string]*TableStats{
		"t":  {Rows: 5000, Columns: map[string]ColumnStats{"c": {NDV: 77}}},
		"t2": {Rows: 5000},
	}}
	if got := v.NDVEstimate(expr.ColumnRef{Table: "t", Column: "c"}); got != 77 {
		t.Fatalf("NDV %d", got)
	}
	// Missing column stats: rows/10.
	if got := v.NDVEstimate(expr.ColumnRef{Table: "t2", Column: "c"}); got != 500 {
		t.Fatalf("fallback NDV %d", got)
	}
	// Floor at 10.
	v.Tables["t3"] = &TableStats{Rows: 10}
	if got := v.NDVEstimate(expr.ColumnRef{Table: "t3", Column: "c"}); got != 10 {
		t.Fatalf("floored NDV %d", got)
	}
}

func TestMagicConstants(t *testing.T) {
	v := &View{Tables: map[string]*TableStats{"t": {Rows: 100}}}
	col := expr.ColumnRef{Table: "t", Column: "c"}
	cases := []struct {
		fn   expr.Func
		args []float64
		want float64
	}{
		{expr.FuncEQ, []float64{1}, magicEQ},
		{expr.FuncNE, []float64{1}, 1 - magicEQ},
		{expr.FuncLT, []float64{1}, magicRange},
		{expr.FuncLike, []float64{1}, magicLike},
		{expr.FuncBetween, []float64{1, 2}, magicBetween},
		{expr.FuncIsNull, nil, magicIsNull},
		{expr.FuncIn, []float64{1, 2, 3}, 3 * magicIn},
	}
	for _, c := range cases {
		if got := v.CompareSelectivity(col, c.fn, c.args); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%v magic = %g, want %g", c.fn, got, c.want)
		}
	}
}

func TestEstimatedSelectivityUsesStats(t *testing.T) {
	v := &View{Tables: map[string]*TableStats{
		"t": {Rows: 1000, Columns: map[string]ColumnStats{"c": {NDV: 100}}},
	}}
	col := expr.ColumnRef{Table: "t", Column: "c"}
	got := v.CompareSelectivity(col, expr.FuncEQ, []float64{5})
	if math.Abs(got-0.01) > 1e-9 { // uniform over 100 values
		t.Fatalf("EQ with stats = %g, want 0.01", got)
	}
}

// TestFirstSelectivityConcurrentOnFreshView: goroutines taking the first
// selectivities of two fresh views of one project at once — the views fill
// their project's Zipf memo on first use — all read what the memo-less
// arithmetic computes (run under -race).
func TestFirstSelectivityConcurrentOnFreshView(t *testing.T) {
	p := project()
	pol := Policy{ColumnStatsProb: 1, FreshProb: 1, NDVNoise: 0.3}
	views := []*View{Snapshot(simrand.New(12), p, 3, pol), Snapshot(simrand.New(12), p, 4, pol)}
	type ask struct {
		col  expr.ColumnRef
		want float64
	}
	args := []float64{80, 900}
	asks := make([][]ask, len(views))
	for i, v := range views {
		for _, tb := range p.Tables[:8] {
			for _, c := range tb.Columns {
				cs := v.Tables[tb.ID].Columns[c.ID]
				est := &warehouse.Column{NDV: cs.NDV, Skew: cs.Skew, NullFrac: cs.NullFrac}
				asks[i] = append(asks[i], ask{c.Ref(tb), warehouse.ColumnSelectivity(est, nil, expr.FuncBetween, args)})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := views[g%2]
			for _, a := range asks[g%2] {
				if got := v.CompareSelectivity(a.col, expr.FuncBetween, args); math.Float64bits(got) != math.Float64bits(a.want) {
					t.Errorf("%v: %v from the view, %v without the memo", a.col, got, a.want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestViewsShareProjectZipfMemo: every view of a project reads its project's
// Zipf memo, another project's views another one, and a View literal, which
// has none, answers every selectivity to the same bits as a snapshot that
// has one.
func TestViewsShareProjectZipfMemo(t *testing.T) {
	p, q := project(), project()
	pol := Policy{ColumnStatsProb: 1, FreshProb: 1, NDVNoise: 0.3}
	a, b := Snapshot(simrand.New(5), p, 2, pol), Snapshot(simrand.New(6), p, 9, pol)
	if a.zipf != p.ZipfHeads() || b.zipf != a.zipf {
		t.Fatal("two views of one project do not share its memo")
	}
	if c := Snapshot(simrand.New(5), q, 2, pol); c.zipf == a.zipf {
		t.Fatal("two projects share a memo")
	}
	lit := &View{AsOfDay: a.AsOfDay, Tables: a.Tables}
	fns := []expr.Func{expr.FuncEQ, expr.FuncNE, expr.FuncLT, expr.FuncLE, expr.FuncGT, expr.FuncGE,
		expr.FuncIn, expr.FuncBetween, expr.FuncLike, expr.FuncIsNull}
	for _, tb := range p.Tables[:8] {
		for _, c := range tb.Columns {
			for _, fn := range fns {
				for _, args := range [][]float64{{3, 40}, {80, 9000}} {
					got, want := lit.CompareSelectivity(c.Ref(tb), fn, args), a.CompareSelectivity(c.Ref(tb), fn, args)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v %v: %v from a View literal, %v from the snapshot", c.Ref(tb), fn, got, want)
					}
				}
			}
		}
	}
}

func TestNDVNoisePerturbsEstimates(t *testing.T) {
	p := project()
	noisy := Policy{ColumnStatsProb: 1, FreshProb: 1, NDVNoise: 0.8}
	v := Snapshot(simrand.New(8), p, 1, noisy)
	diffs := 0
	for _, tb := range p.Tables {
		for _, c := range tb.Columns {
			est := v.Tables[tb.ID].Columns[c.ID].NDV
			if est != c.NDV {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Fatal("NDV noise had no effect")
	}
}

func TestPartitionEstimate(t *testing.T) {
	v := &View{Tables: map[string]*TableStats{"t": {Partitions: 9}}}
	if v.PartitionEstimate("t") != 9 {
		t.Fatal("partitions wrong")
	}
	if v.PartitionEstimate("missing") != 1 {
		t.Fatal("fallback partitions wrong")
	}
}
