package analysis

import (
	"strings"
	"testing"
)

// TestAllocDiscipline seeds one of each allocating construct in a helper
// reachable from the PredictCost serving root and checks each fires exactly
// once, in source order, tagged with the root that makes it serving-path.
func TestAllocDiscipline(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/predictor/p.go": `package predictor

func PredictCost(xs []float64) float64 { return helper(xs) }

func sink(v any) {}

func helper(xs []float64) float64 {
	buf := make([]float64, len(xs))
	p := new(float64)
	s := []int{1, 2}
	m := map[string][]int{"a": {1}}
	var other []float64
	other = append(buf, 1)
	name := "plan"
	name = name + "!"
	sink(xs[0])
	f := func() float64 { return buf[0] }
	_, _, _, _, _ = p, s, m, other, name
	return f()
}

func cold() []float64 { return make([]float64, 8) }
`})
	got := runOne(prog, AllocDiscipline())
	wantFindings(t, got, [][2]string{
		{"allocdiscipline", "make allocates"},
		{"allocdiscipline", "new allocates"},
		{"allocdiscipline", "slice literal allocates"},
		{"allocdiscipline", "map literal allocates"},
		{"allocdiscipline", `append to "buf" may grow beyond scratch`},
		{"allocdiscipline", "string concatenation allocates"},
		{"allocdiscipline", `interface conversion boxes "xs[0]"`},
		{"allocdiscipline", "function literal captures enclosing variables"},
	})
	for _, f := range got {
		if !strings.Contains(f.Message, "in helper (serving fast path via fixture/internal/predictor.PredictCost)") {
			t.Errorf("finding lacks function/root attribution: %s", f)
		}
	}
}

// TestAllocDisciplineSanctionedIdioms: the scratch idioms and stack-only
// constructs the contract explicitly permits must stay silent, as must code
// the serving roots never reach.
func TestAllocDisciplineSanctionedIdioms(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/predictor/p.go": `package predictor

type point struct{ x, y float64 }

var scale = map[string]float64{"a": 1}

func init() {
	scale["b"] = 2
}

func PredictCost(xs []float64) float64 {
	xs = append(xs, 1)
	xs = append(xs[:0], 2)
	v := point{1, 2}
	var arr [4]float64
	f := func() float64 { return 1 }
	const tag = "a" + "b"
	_ = tag
	return v.x + arr[0] + f()
}

func unreachable() []float64 { return make([]float64, 8) }
`})
	got := runOne(prog, AllocDiscipline())
	if len(got) != 0 {
		t.Fatalf("sanctioned idioms fired %d finding(s):\n%s", len(got), renderFindings(got))
	}
}

// TestAllocDisciplineScoringCore: the candidate-scoring core has no root of
// its own — the SelectPlanKeyed root is what keeps it inside the zero-alloc
// contract, and the finding is attributed to that root.
func TestAllocDisciplineScoringCore(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/predictor/predictor.go": `package predictor

type Predictor struct{ stage []float64 }

func (p *Predictor) SelectPlan(n int) { p.SelectPlanKeyed(n) }

func (p *Predictor) SelectPlanKeyed(n int) { p.scoreCandidates(n) }

func (p *Predictor) scoreCandidates(n int) { p.stage = make([]float64, n) }
`})
	wantFindings(t, runOne(prog, AllocDiscipline()), [][2]string{
		{"allocdiscipline", "make allocates in scoreCandidates (serving fast path via fixture/internal/predictor.(Predictor).SelectPlanKeyed)"},
	})
}

// TestAllocDisciplineCustomRoots: -roots replaces the serving-root set, so a
// fixture entry point outside the default list can opt in.
func TestAllocDisciplineCustomRoots(t *testing.T) {
	files := map[string]string{"internal/x/x.go": `package x

func Serve() []float64 { return grow() }

func grow() []float64 { return make([]float64, 8) }
`}
	prog := fixture(t, files)
	if got := runOne(prog, AllocDiscipline()); len(got) != 0 {
		t.Fatalf("default roots should not reach internal/x:\n%s", renderFindings(got))
	}
	got := runOne(prog, AllocDisciplineWithRoots([]string{"internal/x.Serve"}))
	wantFindings(t, got, [][2]string{
		{"allocdiscipline", "make allocates"},
	})
	if !strings.Contains(got[0].Message, "via fixture/internal/x.Serve") {
		t.Errorf("custom root not attributed: %s", got[0])
	}
}
