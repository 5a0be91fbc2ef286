package analysis

import (
	"strings"
	"testing"
)

// fixture assembles an in-memory program under module path "fixture".
func fixture(t *testing.T, files map[string]string) *Program {
	t.Helper()
	prog, err := NewProgram("fixture", files)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	return prog
}

// runOne runs a single analyzer with no allowlist.
func runOne(prog *Program, a *Analyzer) []Finding {
	return RunAll(prog, []*Analyzer{a}, nil)
}

// wantFindings asserts each expected (rule, message-substring) pair appears
// exactly once and nothing else fires.
func wantFindings(t *testing.T, got []Finding, want [][2]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), renderFindings(got))
	}
	for i, w := range want {
		if got[i].Rule != w[0] || !strings.Contains(got[i].Message, w[1]) {
			t.Errorf("finding %d = %s, want rule %q message containing %q", i, got[i], w[0], w[1])
		}
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

func TestDeterminism(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want [][2]string
	}{
		{
			name: "math/rand import is flagged",
			src: `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`,
			want: [][2]string{{"determinism", "math/rand"}},
		},
		{
			name: "math/rand/v2 import is flagged",
			src: `package p
import "math/rand/v2"
func Roll() int { return rand.IntN(6) }
`,
			want: [][2]string{{"determinism", "math/rand/v2"}},
		},
		{
			name: "time.Now and time.Since are flagged",
			src: `package p
import "time"
func Elapsed() float64 {
	start := time.Now()
	return time.Since(start).Seconds()
}
`,
			want: [][2]string{
				{"determinism", "time.Now"},
				{"determinism", "time.Since"},
			},
		},
		{
			name: "map range appending to outer slice without sort is flagged",
			src: `package p
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: [][2]string{{"determinism", `range over map "m"`}},
		},
		{
			name: "map range append rescued by a later sort is clean",
			src: `package p
import "sort"
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
		},
		{
			name: "map range float accumulation is flagged, x++ counting is not",
			src: `package p
func Sum(m map[string]float64) (float64, int) {
	total, n := 0.0, 0
	for _, v := range m {
		total += v
		n++
	}
	return total, n
}
`,
			want: [][2]string{{"determinism", `accumulation into outer "total"`}},
		},
		{
			name: "map range printing is flagged",
			src: `package p
import "fmt"
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: [][2]string{{"determinism", "fmt.Println"}},
		},
		{
			name: "map range calling a method on shared state is flagged",
			src: `package p
type Sink struct{ xs []string }
func (s *Sink) Add(x string) { s.xs = append(s.xs, x) }
func Drain(m map[string]int, s *Sink) {
	for k := range m {
		s.Add(k)
	}
}
`,
			want: [][2]string{{"determinism", "call s.Add on shared state"}},
		},
		{
			// A map published through an atomic.Pointer, ranged with no sort
			// after: the ranged operand is a local whose map type only the
			// checker knows.
			name: "map loaded through a pointer is still a map",
			src: `package p
import "sync/atomic"
type shard struct{ view atomic.Pointer[map[string]int] }
func Names(shards []*shard) []string {
	var names []string
	for _, sh := range shards {
		m := *sh.view.Load()
		for name := range m {
			names = append(names, name)
		}
	}
	return names
}
`,
			want: [][2]string{{"determinism", `range over map "m"`}},
		},
		{
			name: "order-insensitive map range is clean",
			src: `package p
func Has(m map[string]int, want string) bool {
	found := false
	for k := range m {
		if k == want {
			found = true
		}
	}
	return found
}
`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			prog := fixture(t, map[string]string{"internal/p/p.go": tc.src})
			wantFindings(t, runOne(prog, Determinism()), tc.want)
		})
	}
}

// TestLoadRejectsTypeErrors: a program that does not type-check is a load
// error, never a silently weaker analysis.
func TestLoadRejectsTypeErrors(t *testing.T) {
	_, err := NewProgram("fixture", map[string]string{"internal/p/p.go": `package p
func Keys(m map[string]int) []string { return undefinedHelper(m) }
`})
	if err == nil || !strings.Contains(err.Error(), "type-check fixture/internal/p") ||
		!strings.Contains(err.Error(), "undefinedHelper") {
		t.Fatalf("NewProgram = %v, want a type-check error naming the package and the identifier", err)
	}
}

func TestDeterminismSkipsTestFiles(t *testing.T) {
	prog := fixture(t, map[string]string{
		"internal/p/p_test.go": `package p
import "time"
func now() float64 { return float64(time.Now().Unix()) }
`,
	})
	wantFindings(t, runOne(prog, Determinism()), nil)
}

func TestNaNSafety(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want [][2]string
	}{
		{
			name: "raw cost comparison is flagged",
			src: `package p
func Best(costs []float64) int {
	bestIdx, bestCost := 0, costs[0]
	for i, cost := range costs {
		if cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return bestIdx
}
`,
			want: [][2]string{{"nansafety", `raw < comparison on cost/estimate value "cost"`}},
		},
		{
			name: "IsNaN-guarded argmin is vetted",
			src: `package p
import "math"
func Best(costs []float64) int {
	bestIdx, bestCost := -1, 0.0
	for i, cost := range costs {
		if math.IsNaN(cost) {
			continue
		}
		if bestIdx < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return bestIdx
}
`,
		},
		{
			name: "comparison against a literal threshold is exempt",
			src: `package p
func Expensive(cost float64) bool { return cost > 1e9 }
`,
		},
		{
			name: "math.Min on a cost value is flagged",
			src: `package p
import "math"
func Cap(cost, limit float64) float64 { return math.Min(cost, limit) }
`,
			want: [][2]string{{"nansafety", `math.Min on cost/estimate value "cost"`}},
		},
		{
			name: "estRows-style names count as cost-like",
			src: `package p
func Smaller(estRows map[string]float64, a, b string) bool {
	return estRows[a] < estRows[b]
}
`,
			want: [][2]string{{"nansafety", "raw < comparison"}},
		},
		{
			name: "non-cost comparisons are ignored",
			src: `package p
func Longer(a, b string) bool { return len(a) > len(b) }
`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			prog := fixture(t, map[string]string{"internal/p/p.go": tc.src})
			wantFindings(t, runOne(prog, NaNSafety()), tc.want)
		})
	}
}

func TestErrWrap(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want [][2]string
	}{
		{
			name: "Errorf embedding an error without %w is flagged",
			src: `package p
import "fmt"
func Open(path string) error {
	err := load(path)
	if err != nil {
		return fmt.Errorf("open %s: %v", path, err)
	}
	return nil
}
func load(string) error { return nil }
`,
			want: [][2]string{{"errwrap", "without %w"}},
		},
		{
			name: "Errorf with %w is clean",
			src: `package p
import "fmt"
func Open(path string) error {
	err := load(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	return nil
}
func load(string) error { return nil }
`,
		},
		{
			name: "re-applying the callee's prefix is flagged",
			src: `package p
import (
	"errors"
	"fmt"
)
var errBoom = errors.New("boom")
func deployOne(name string) error {
	return fmt.Errorf("deploy %s: %w", name, errBoom)
}
func deployAll(name string) error {
	err := deployOne(name)
	return fmt.Errorf("deploy %s: %w", name, err)
}
`,
			want: [][2]string{{"errwrap", `re-prefixes "deploy"`}},
		},
		{
			name: "wrapping with a fresh prefix is clean",
			src: `package p
import (
	"errors"
	"fmt"
)
var errBoom = errors.New("boom")
func deployOne(name string) error {
	return fmt.Errorf("deploy %s: %w", name, errBoom)
}
func rollout(name string) error {
	err := deployOne(name)
	return fmt.Errorf("rollout %s: %w", name, err)
}
`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			prog := fixture(t, map[string]string{"internal/p/p.go": tc.src})
			wantFindings(t, runOne(prog, ErrWrap()), tc.want)
		})
	}
}

func TestGuardDiscipline(t *testing.T) {
	predictorSrc := `package predictor
type Predictor struct{}
func (p *Predictor) SelectPlan(cands []int, envs int) (int, []float64, error) { return 0, nil, nil }
`
	t.Run("raw SelectPlan outside the guard is flagged", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/predictor/predictor.go": predictorSrc,
			"serve.go": `package root
import "fixture/internal/predictor"
func Serve(p *predictor.Predictor) { p.SelectPlan(nil, 0) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), [][2]string{
			{"guarddiscipline", "p.SelectPlan bypasses the serving guard"},
		})
	})
	t.Run("the guard and predictor packages are exempt", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/predictor/predictor.go": predictorSrc,
			"internal/predictor/inner.go": `package predictor
func (p *Predictor) score() { p.SelectPlan(nil, 0) }
`,
			"internal/guard/guard.go": `package guard
import "fixture/internal/predictor"
func Serve(p *predictor.Predictor) { p.SelectPlan(nil, 0) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
	t.Run("test files are exempt", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/predictor/predictor.go": predictorSrc,
			"bench_test.go": `package root
import "fixture/internal/predictor"
func probe(p *predictor.Predictor) { p.SelectPlan(nil, 0) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
	t.Run("unrelated selectors do not fire", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"serve.go": `package root
type planner struct{}
func (planner) SelectPlans() {}
func use(p planner) { p.SelectPlans() }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
}

func TestGuardDisciplineKeyed(t *testing.T) {
	// SelectPlanKeyed is the cache-aware scoring entry point added with the
	// inference fast path; bypassing the guard with it is just as banned, and
	// a method value smuggles it the same way.
	prog := fixture(t, map[string]string{
		"internal/predictor/predictor.go": `package predictor
type Predictor struct{}
func (p *Predictor) SelectPlanKeyed(cands []int, envs, key int) (int, []float64, error) { return 0, nil, nil }
`,
		"serve.go": `package root
import "fixture/internal/predictor"
func Serve(p *predictor.Predictor) { p.SelectPlanKeyed(nil, 0, 0) }
func Smuggle(p *predictor.Predictor) func([]int, int, int) (int, []float64, error) { return p.SelectPlanKeyed }
`,
	})
	wantFindings(t, runOne(prog, GuardDiscipline()), [][2]string{
		{"guarddiscipline", "p.SelectPlanKeyed bypasses the serving guard"},
		{"guarddiscipline", "method value p.SelectPlanKeyed smuggles the raw scoring entry point"},
	})
}

func TestGuardDisciplineFleetAdmission(t *testing.T) {
	// Inside internal/fleet, a backend's serving ladder (OptimizeCtx) is
	// reachable only from serveAdmitted — anything else bypasses the
	// admission gate's token buckets.
	t.Run("raw OptimizeCtx outside serveAdmitted is flagged", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/fleet/fleet.go": `package fleet
import "context"
type Backend interface {
	OptimizeCtx(ctx context.Context, q int) (any, error)
}
type tenant struct{ backend Backend }
type Registry struct{}
func (r *Registry) Route(ctx context.Context, t *tenant, q int) (any, error) {
	return t.backend.OptimizeCtx(ctx, q)
}
func (r *Registry) serveAdmitted(ctx context.Context, t *tenant, q int) (any, error) {
	return t.backend.OptimizeCtx(ctx, q)
}
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), [][2]string{
			{"guarddiscipline", "t.backend.OptimizeCtx inside internal/fleet bypasses the admission gate"},
		})
	})
	t.Run("method values cannot smuggle the ladder out", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/fleet/fleet.go": `package fleet
import "context"
type Backend interface {
	OptimizeCtx(ctx context.Context, q int) (any, error)
}
func grab(b Backend) func(context.Context, int) (any, error) {
	return b.OptimizeCtx
}
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), [][2]string{
			{"guarddiscipline", "b.OptimizeCtx inside internal/fleet bypasses the admission gate"},
		})
	})
	t.Run("other packages may call OptimizeCtx freely", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"serve.go": `package root
import "context"
type dep struct{}
func (d *dep) OptimizeCtx(ctx context.Context, q int) (any, error) { return nil, nil }
func use(ctx context.Context, d *dep) { d.OptimizeCtx(ctx, 1) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
}

func TestAllowlistSuppressesFixtureFinding(t *testing.T) {
	// The simrand entry is path-scoped: the same violation fires outside the
	// sanctioned package and is suppressed inside it.
	files := map[string]string{
		"internal/simrand/r.go": `package simrand
import "math/rand"
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`,
		"internal/p/p.go": `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`,
	}
	prog := fixture(t, files)
	raw := runOne(prog, Determinism())
	if len(raw) != 2 {
		t.Fatalf("raw findings = %d, want 2:\n%s", len(raw), renderFindings(raw))
	}
	filtered := RunAll(prog, []*Analyzer{Determinism()}, DefaultAllowlist())
	if len(filtered) != 1 || !strings.HasPrefix(filtered[0].Pos.Filename, "internal/p/") {
		t.Fatalf("filtered = %v, want only the internal/p finding:\n%s", len(filtered), renderFindings(filtered))
	}
}

func TestAllowlistRequiresReason(t *testing.T) {
	f := Finding{Rule: "determinism", Message: "import of math/rand"}
	f.Pos.Filename = "internal/simrand/r.go"
	noReason := []AllowEntry{{Rule: "determinism", PathPrefix: "internal/simrand/"}}
	if Allowed(noReason, f) {
		t.Fatal("entry without Reason must not suppress findings")
	}
	withReason := []AllowEntry{{Rule: "determinism", PathPrefix: "internal/simrand/", Reason: "sanctioned boundary"}}
	if !Allowed(withReason, f) {
		t.Fatal("entry with Reason should suppress the matching finding")
	}
}

// loadRepo loads the real repository the tests run inside.
func loadRepo(t *testing.T) *Program {
	t.Helper()
	prog, err := LoadProgram("../..")
	if err != nil {
		t.Fatalf("LoadProgram(repo): %v", err)
	}
	return prog
}

// TestRepoIsClean is the meta-check ISSUE.md asks for: the full suite with
// the default allowlist reports nothing on the repository itself.
func TestRepoIsClean(t *testing.T) {
	prog := loadRepo(t)
	findings := RunAll(prog, Analyzers(), DefaultAllowlist())
	if len(findings) != 0 {
		t.Fatalf("repo has %d finding(s):\n%s", len(findings), renderFindings(findings))
	}
}

// TestAllowlistEntriesAllFire keeps the allowlist honest: every entry must
// still suppress at least one raw finding, so stale exceptions get deleted
// instead of accumulating.
func TestAllowlistEntriesAllFire(t *testing.T) {
	prog := loadRepo(t)
	var raw []Finding
	for _, a := range Analyzers() {
		raw = append(raw, a.Run(prog)...)
	}
	for _, e := range DefaultAllowlist() {
		matched := false
		for _, f := range raw {
			if Allowed([]AllowEntry{e}, f) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("allowlist entry {rule=%s path=%s contains=%q} matches no raw finding — delete it", e.Rule, e.PathPrefix, e.Contains)
		}
	}
}

func TestFindingStringAndSort(t *testing.T) {
	a := Finding{Rule: "nansafety", Message: "m"}
	a.Pos.Filename, a.Pos.Line = "b.go", 3
	b := Finding{Rule: "determinism", Message: "m"}
	b.Pos.Filename, b.Pos.Line = "a.go", 9
	c := Finding{Rule: "errwrap", Message: "m"}
	c.Pos.Filename, c.Pos.Line = "b.go", 3

	if got, want := a.String(), "b.go:3: [nansafety] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	fs := []Finding{a, b, c}
	SortFindings(fs)
	if fs[0].Pos.Filename != "a.go" || fs[1].Rule != "errwrap" || fs[2].Rule != "nansafety" {
		t.Errorf("SortFindings order wrong: %v", fs)
	}
}

func TestGuardDisciplineSwapScorerSeam(t *testing.T) {
	guardSrc := `package guard
type Guard struct{}
type Scorer interface{}
func (g *Guard) SwapScorer(s Scorer) {}
`
	t.Run("SwapScorer outside lifecycle.go is flagged", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/guard/guard.go": guardSrc,
			"serve.go": `package root
import "fixture/internal/guard"
func hotfix(g *guard.Guard) { g.SwapScorer(nil) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), [][2]string{
			{"guarddiscipline", "g.SwapScorer outside the lifecycle seam"},
		})
	})
	t.Run("the lifecycle seam may swap", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/guard/guard.go": guardSrc,
			"lifecycle.go": `package root
import "fixture/internal/guard"
func promote(g *guard.Guard) { g.SwapScorer(nil) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
	t.Run("the guard package and test files are exempt", func(t *testing.T) {
		prog := fixture(t, map[string]string{
			"internal/guard/guard.go": guardSrc,
			"internal/guard/inner.go": `package guard
func (g *Guard) reset() { g.SwapScorer(nil) }
`,
			"swap_test.go": `package root
import "fixture/internal/guard"
func probe(g *guard.Guard) { g.SwapScorer(nil) }
`,
		})
		wantFindings(t, runOne(prog, GuardDiscipline()), nil)
	})
}
