package warehouse

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"loam/internal/expr"
	"loam/internal/simrand"
)

func testProject(t *testing.T) *Project {
	t.Helper()
	a := DefaultArchetype()
	a.Name = "test"
	return Generate(simrand.New(42), a)
}

func TestGenerateDeterminism(t *testing.T) {
	a := DefaultArchetype()
	a.Name = "d"
	p1 := Generate(simrand.New(5), a)
	p2 := Generate(simrand.New(5), a)
	if len(p1.Tables) != len(p2.Tables) {
		t.Fatal("table counts differ")
	}
	for i := range p1.Tables {
		if p1.Tables[i].ID != p2.Tables[i].ID || p1.Tables[i].Rows != p2.Tables[i].Rows {
			t.Fatalf("table %d differs", i)
		}
	}
}

func TestGenerateRespectsArchetype(t *testing.T) {
	a := DefaultArchetype()
	a.Name = "sz"
	a.NumTables = 17
	p := Generate(simrand.New(1), a)
	if len(p.Tables) != 17 {
		t.Fatalf("tables %d", len(p.Tables))
	}
	for _, tb := range p.Tables {
		if len(tb.Columns) < 2 {
			t.Fatalf("table %s has %d columns", tb.ID, len(tb.Columns))
		}
		if tb.Rows < 10 {
			t.Fatalf("table %s rows %d", tb.ID, tb.Rows)
		}
		for _, c := range tb.Columns {
			if c.NDV < 2 || c.NDV > tb.Rows {
				t.Fatalf("column %s NDV %d vs rows %d", c.ID, c.NDV, tb.Rows)
			}
		}
	}
}

func TestTableLookup(t *testing.T) {
	p := testProject(t)
	first := p.Tables[0]
	if p.Table(first.ID) != first {
		t.Fatal("lookup failed")
	}
	if p.Table("missing") != nil {
		t.Fatal("missing table should be nil")
	}
}

func TestRowsAtGrowth(t *testing.T) {
	tb := &Table{Rows: 1000, DailyGrowth: 1.1, LifespanDays: 100}
	if tb.RowsAt(-1) != 0 {
		t.Fatal("pre-creation rows should be 0")
	}
	if tb.RowsAt(0) != 1000 {
		t.Fatalf("day0 rows %d", tb.RowsAt(0))
	}
	if tb.RowsAt(10) <= tb.RowsAt(5) {
		t.Fatal("growth not monotone")
	}
}

func TestAliveOn(t *testing.T) {
	tb := &Table{CreatedDay: 3, LifespanDays: 4}
	cases := []struct {
		day  int
		want bool
	}{{2, false}, {3, true}, {6, true}, {7, false}}
	for _, c := range cases {
		if got := tb.AliveOn(c.day); got != c.want {
			t.Fatalf("AliveOn(%d) = %v", c.day, got)
		}
	}
}

func TestStableTableRatio(t *testing.T) {
	p := &Project{Tables: []*Table{
		{LifespanDays: 400},
		{LifespanDays: 5},
		{LifespanDays: 31},
		{LifespanDays: 30},
	}}
	if got := p.StableTableRatio(30); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("stable ratio %g", got)
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	for _, s := range []float64{0, 0.7, 1, 1.5} {
		prev := -1.0
		for r := int64(0); r <= 1000; r += 37 {
			v := zipfCDF(r, 1000, s, nil)
			if v < prev-1e-12 {
				t.Fatalf("CDF decreasing at r=%d s=%g", r, s)
			}
			prev = v
		}
		if math.Abs(zipfCDF(1000, 1000, s, nil)-1) > 1e-9 {
			t.Fatalf("CDF(n) != 1 for s=%g", s)
		}
	}
}

func TestColumnSelectivityComplements(t *testing.T) {
	c := &Column{NDV: 500, Skew: 0.8}
	for _, r := range []float64{0, 10, 250, 499} {
		lt := ColumnSelectivity(c, nil, expr.FuncLT, []float64{r})
		ge := ColumnSelectivity(c, nil, expr.FuncGE, []float64{r})
		if math.Abs(lt+ge-1) > 1e-9 {
			t.Fatalf("LT+GE = %g at rank %g", lt+ge, r)
		}
		eq := ColumnSelectivity(c, nil, expr.FuncEQ, []float64{r})
		ne := ColumnSelectivity(c, nil, expr.FuncNE, []float64{r})
		if math.Abs(eq+ne-1) > 1e-9 {
			t.Fatalf("EQ+NE = %g at rank %g", eq+ne, r)
		}
	}
}

func TestColumnSelectivityNullFraction(t *testing.T) {
	c := &Column{NDV: 100, NullFrac: 0.1}
	if got := ColumnSelectivity(c, nil, expr.FuncIsNull, nil); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("IS NULL %g", got)
	}
	le := ColumnSelectivity(c, nil, expr.FuncLE, []float64{99})
	if math.Abs(le-0.9) > 1e-9 {
		t.Fatalf("full-range LE should be 1-null = %g", le)
	}
}

func TestColumnSelectivityBetween(t *testing.T) {
	c := &Column{NDV: 100}
	full := ColumnSelectivity(c, nil, expr.FuncBetween, []float64{0, 99})
	if math.Abs(full-1) > 1e-9 {
		t.Fatalf("full BETWEEN %g", full)
	}
	// Swapped bounds normalize.
	a := ColumnSelectivity(c, nil, expr.FuncBetween, []float64{10, 20})
	b := ColumnSelectivity(c, nil, expr.FuncBetween, []float64{20, 10})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("BETWEEN not symmetric: %g vs %g", a, b)
	}
}

func TestColumnSelectivityBounds(t *testing.T) {
	if err := quick.Check(func(ndvRaw uint16, skewRaw uint8, rankRaw uint16, fnIdx uint8) bool {
		c := &Column{NDV: int64(ndvRaw%5000) + 2, Skew: float64(skewRaw%20) / 10}
		fns := []expr.Func{expr.FuncEQ, expr.FuncNE, expr.FuncLT, expr.FuncLE, expr.FuncGT, expr.FuncGE, expr.FuncLike, expr.FuncBetween, expr.FuncIn}
		fn := fns[int(fnIdx)%len(fns)]
		s := ColumnSelectivity(c, nil, fn, []float64{float64(rankRaw), float64(rankRaw) + 5})
		return s >= 0 && s <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPMFSkewConcentrates(t *testing.T) {
	flat := zipfPMF(0, 1000, 0, nil)
	skewed := zipfPMF(0, 1000, 1.2, nil)
	if skewed <= flat {
		t.Fatalf("skew should concentrate mass on rank 0: %g vs %g", skewed, flat)
	}
}

func TestGenHarmonicMonotone(t *testing.T) {
	for _, s := range []float64{0.3, 1, 1.7} {
		prev := 0.0
		for _, k := range []int64{1, 10, 63, 64, 65, 100, 10000, 1000000} {
			v := genHarmonic(k, s, nil)
			if v <= prev {
				t.Fatalf("H(%d, %g) = %g not increasing (prev %g)", k, s, v, prev)
			}
			prev = v
		}
	}
}

// loopHead is H(k, s) added up term by term, as genHarmonic's head is.
func loopHead(k int64, s float64) float64 {
	total := 0.0
	for i := int64(1); i <= k; i++ {
		total += math.Pow(float64(i), -s)
	}
	return total
}

// directHarmonic is genHarmonic written out: the head's loop, then the
// integral tail with midpoint correction, every term computed.
func directHarmonic(k int64, s float64) float64 {
	total := loopHead(min(k, zipfHeadLen), s)
	if k <= zipfHeadLen {
		return total
	}
	a, b := float64(zipfHeadLen), float64(k)
	if s == 1 {
		total += math.Log(b) - math.Log(a)
	} else {
		total += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	total += 0.5 * (math.Pow(b, -s) - math.Pow(a, -s))
	return total
}

// TestZipfHeadMemoBitIdentical: a harmonic sum that takes its head and its
// tail's terms at zipfHeadLen from the memo is, bit for bit, the sum that
// computes them — every k the prefix table answers (1..64) and sums past it
// (65 to 2^40, where the tail's terms and the s = 1 logarithm are read), on
// the first ask, which fills the memo, and on the second, which reads it — so
// every selectivity, and every cardinality and rough cost downstream, keeps
// its bits; a full memo answers the same without storing; and goroutines
// racing for a fresh memo's first entry all read that value (run under
// -race).
func TestZipfHeadMemoBitIdentical(t *testing.T) {
	bits := math.Float64bits
	skews := []float64{0, 0.3, 1, 1.37, 2.9}
	ks := []int64{65, 100, 1e3, 1e6, 1 << 40}
	for k := int64(1); k <= zipfHeadLen; k++ {
		ks = append(ks, k)
	}
	var heads, full ZipfHeads
	for i := 0; i < maxZipfHeads; i++ {
		full.head(float64(10 + i))
	}
	for _, s := range skews {
		for _, k := range ks {
			want := genHarmonic(k, s, nil)
			if s != 0 && bits(want) != bits(directHarmonic(k, s)) {
				t.Fatalf("H(%d, %g) = %v, the direct formula %v", k, s, want, directHarmonic(k, s))
			}
			for ask := 0; ask < 2; ask++ {
				for _, memo := range []*ZipfHeads{&heads, &full} {
					if got := genHarmonic(k, s, memo); bits(got) != bits(want) {
						t.Fatalf("H(%d, %g) ask %d: %v with the memo, %v without", k, s, ask, got, want)
					}
				}
			}
		}
	}
	if len(heads.heads) != len(skews)-1 || len(full.heads) != maxZipfHeads {
		t.Fatalf("memos hold %d and %d heads, want one per non-zero skew asked and %d", len(heads.heads), len(full.heads), maxZipfHeads)
	}

	fns := []expr.Func{expr.FuncEQ, expr.FuncNE, expr.FuncLT, expr.FuncLE, expr.FuncGT, expr.FuncGE,
		expr.FuncIn, expr.FuncBetween, expr.FuncLike, expr.FuncIsNull}
	args := []float64{70, 4000}
	for _, s := range skews {
		c := &Column{NDV: 5000, Skew: s, NullFrac: 0.02}
		var fresh ZipfHeads
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, fn := range fns {
					got, want := ColumnSelectivity(c, &fresh, fn, args), ColumnSelectivity(c, nil, fn, args)
					if bits(got) != bits(want) {
						t.Errorf("skew %g %v: %v with the memo, %v without", s, fn, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestTruthDistProvider(t *testing.T) {
	p := testProject(t)
	tr := &Truth{Project: p}
	tb := p.Tables[0]
	col := tb.Columns[0].Ref(tb)
	s := tr.CompareSelectivity(col, expr.FuncEQ, []float64{0})
	if s <= 0 || s > 1 {
		t.Fatalf("selectivity %g", s)
	}
	// Unknown columns are permissive.
	if tr.CompareSelectivity(expr.ColumnRef{Table: "nope", Column: "x"}, expr.FuncEQ, nil) != 1 {
		t.Fatal("unknown table should return 1")
	}
}

func TestTempTablesHaveBoundedLifespans(t *testing.T) {
	a := DefaultArchetype()
	a.Name = "temp"
	a.TempTableFrac = 1
	p := Generate(simrand.New(3), a)
	for _, tb := range p.Tables {
		if !tb.Temp {
			t.Fatalf("table %s not temp", tb.ID)
		}
		if tb.LifespanDays < 1 || tb.LifespanDays > 7 {
			t.Fatalf("temp lifespan %d", tb.LifespanDays)
		}
	}
}

func TestAliveTables(t *testing.T) {
	p := &Project{Tables: []*Table{
		{ID: "a", CreatedDay: 0, LifespanDays: 100},
		{ID: "b", CreatedDay: 5, LifespanDays: 2},
	}}
	if got := len(p.AliveTables(0)); got != 1 {
		t.Fatalf("day0 alive %d", got)
	}
	if got := len(p.AliveTables(6)); got != 2 {
		t.Fatalf("day6 alive %d", got)
	}
	if got := len(p.AliveTables(8)); got != 1 {
		t.Fatalf("day8 alive %d", got)
	}
}
