package explorer

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"loam/internal/floatsafe"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

func fixture(seed uint64, pol stats.Policy) (*Explorer, *workload.Generator) {
	a := warehouse.DefaultArchetype()
	a.Name = "e"
	a.TempTableFrac = 0
	a.RowsLog10Mean = 5.8
	p := warehouse.Generate(simrand.New(seed), a)
	v := stats.Snapshot(simrand.New(seed+1), p, 3, pol)
	g := workload.NewGenerator(simrand.New(seed+2), p, workload.DefaultConfig())
	return New(v), g
}

func TestCandidatesIncludeDefaultFirst(t *testing.T) {
	e, g := fixture(1, stats.DefaultPolicy())
	q := g.Templates[0].Instantiate(simrand.New(3), 3)
	cands := e.Candidates(q)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if !cands[0].IsDefault() {
		t.Fatal("first candidate must be the default plan")
	}
	def := e.DefaultPlan(q)
	if cands[0].Root.Fingerprint() != def.Root.Fingerprint() {
		t.Fatal("candidate[0] differs from DefaultPlan")
	}
}

func TestCandidatesAreDistinct(t *testing.T) {
	e, g := fixture(2, stats.DefaultPolicy())
	for i, tpl := range g.Templates {
		if i >= 5 {
			break
		}
		q := tpl.Instantiate(simrand.New(4), 3)
		seen := map[uint64]bool{}
		for _, c := range e.Candidates(q) {
			fp := c.Root.Fingerprint()
			if seen[fp] {
				t.Fatalf("duplicate candidate for %s", q.ID)
			}
			seen[fp] = true
		}
	}
}

func TestTopKBound(t *testing.T) {
	e, g := fixture(3, stats.DefaultPolicy())
	e.TopK = 3
	q := g.Templates[0].Instantiate(simrand.New(5), 3)
	if got := len(e.Candidates(q)); got > 3 {
		t.Fatalf("TopK violated: %d candidates", got)
	}
	e.TopK = 0
	all := e.Candidates(q)
	e.TopK = 5
	top5 := e.Candidates(q)
	if len(top5) > 5 {
		t.Fatalf("top5 has %d", len(top5))
	}
	if len(all) < len(top5) {
		t.Fatal("uncut set smaller than cut set")
	}
}

func TestSafetyCutDropsDrasticPlans(t *testing.T) {
	e, g := fixture(4, stats.DefaultPolicy())
	q := g.Templates[0].Instantiate(simrand.New(6), 3)
	e.TopK = 0
	e.SafetyFactor = 0 // no cut
	all := e.Candidates(q)
	e.SafetyFactor = 1.0000001 // only near-default plans survive
	tight := e.Candidates(q)
	if len(tight) > len(all) {
		t.Fatal("tighter safety produced more candidates")
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	e, g := fixture(5, stats.DefaultPolicy())
	q := g.Templates[1].Instantiate(simrand.New(7), 3)
	c1 := e.Candidates(q)
	c2 := e.Candidates(q)
	if len(c1) != len(c2) {
		t.Fatal("candidate counts differ")
	}
	for i := range c1 {
		if c1[i].Root.Fingerprint() != c2[i].Root.Fingerprint() {
			t.Fatalf("candidate %d differs across calls", i)
		}
	}
}

func TestCandidateKnobsRecorded(t *testing.T) {
	e, g := fixture(6, stats.DefaultPolicy())
	q := g.Templates[0].Instantiate(simrand.New(8), 3)
	for i, c := range e.Candidates(q) {
		if i == 0 {
			if len(c.Knobs) != 0 {
				t.Fatalf("default plan has knobs %v", c.Knobs)
			}
			continue
		}
		if len(c.Knobs) == 0 {
			t.Fatalf("candidate %d has no knob label", i)
		}
	}
}

func TestWideExplorerSupersetsCandidates(t *testing.T) {
	e, g := fixture(7, stats.DefaultPolicy())
	q := g.Templates[0].Instantiate(simrand.New(9), 3)
	e.TopK = 0
	e.SafetyFactor = 0
	narrow := len(e.Candidates(q))

	w := NewWide(e.View)
	w.TopK = 0
	w.SafetyFactor = 0
	wide := len(w.Candidates(q))
	if wide <= narrow {
		t.Fatalf("wide exploration produced %d candidates vs narrow %d", wide, narrow)
	}
}

func TestPairFlagSetsCount(t *testing.T) {
	if got := len(pairFlagSets()); got != 15 {
		t.Fatalf("pairs %d, want C(6,2)=15", got)
	}
	for _, f := range pairFlagSets() {
		if len(f.Knobs()) != 2 {
			t.Fatalf("pair with %d knobs", len(f.Knobs()))
		}
	}
}

// referenceCandidates is Candidates as it was before one session served all
// settings: an independent Optimize per setting (so nothing is shared between
// plannings) and a RoughCost per distinct plan that estimates the finished
// tree from scratch (the plans are never rough-sealed). It returns the kept
// plans with the rough costs it ranked them by.
func referenceCandidates(e *Explorer, q *query.Query) ([]*plan.Plan, []float64) {
	base := nativeopt.New(e.View)
	def := base.Optimize(q, nativeopt.Flags{})
	seen := map[uint64]bool{def.Root.Fingerprint(): true}
	defCost := base.RoughCost(def)

	type scored struct {
		p    *plan.Plan
		cost float64
	}
	var alts []scored
	add := func(p *plan.Plan) {
		fp := p.Root.Fingerprint()
		if seen[fp] {
			return
		}
		seen[fp] = true
		cost := base.RoughCost(p)
		if e.SafetyFactor > 0 && !floatsafe.LessEq(cost, e.SafetyFactor*defCost) {
			return
		}
		alts = append(alts, scored{p: p, cost: cost})
	}
	flags := []nativeopt.Flags{
		{MergeJoin: true}, {BroadcastJoin: true}, {ShuffleCombine: true},
		{SpoolEager: true}, {FilterPushdown: true}, {DopHigh: true},
	}
	for _, f := range flags {
		add(base.Optimize(q, f))
	}
	if e.Wide {
		for i := range flags {
			for j := i + 1; j < len(flags); j++ {
				add(base.Optimize(q, flags[i].Union(flags[j])))
			}
		}
	}
	for _, scale := range e.CardScales {
		add((&nativeopt.Optimizer{View: e.View, CardScale: scale}).Optimize(q, nativeopt.Flags{}))
	}
	sort.Slice(alts, func(i, j int) bool { return floatsafe.SortLess(alts[i].cost, alts[j].cost) })
	plans, costs := []*plan.Plan{def}, []float64{defCost}
	limit := len(alts)
	if e.TopK > 0 && e.TopK-1 < limit {
		limit = e.TopK - 1
	}
	for _, s := range alts[:limit] {
		plans, costs = append(plans, s.p), append(costs, s.cost)
	}
	return plans, costs
}

// oracleWorld is one project shape of the reference test and the benchmark:
// a statistics view and one query per template.
type oracleWorld struct {
	name    string
	view    *stats.View
	queries []*query.Query
}

// oracleWorlds builds a project1-shaped world (mostly fresh column statistics,
// 2–5 tables), a project2-shaped one (mostly missing, 3–6 tables) and one of
// small queries (1–2 tables, where no card scale can change the plan).
func oracleWorlds() []oracleWorld {
	shapes := []struct {
		name          string
		seed          uint64
		tables, cols  int
		rowsMean      float64
		pol           stats.Policy
		minT, maxT    int
		pushDifficult float64
	}{
		{"project1", 101, 60, 14, 4.7,
			stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2}, 2, 5, 0.25},
		{"project2", 202, 30, 6, 6.2,
			stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8}, 3, 6, 0.55},
		{"small", 303, 20, 12, 5.0,
			stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8}, 1, 2, 0.7},
	}
	var out []oracleWorld
	for _, w := range shapes {
		a := warehouse.DefaultArchetype()
		a.Name = w.name
		a.NumTables = w.tables
		a.ColumnsPerTable = w.cols
		a.RowsLog10Mean = w.rowsMean
		p := warehouse.Generate(simrand.New(w.seed), a)
		const day = 4
		cfg := workload.DefaultConfig()
		cfg.NumTemplates = 40
		cfg.MinTables, cfg.MaxTables = w.minT, w.maxT
		cfg.PushDifficultProb = w.pushDifficult
		g := workload.NewGenerator(simrand.New(w.seed+1), p, cfg)
		world := oracleWorld{name: w.name, view: stats.Snapshot(simrand.New(w.seed+2), p, day, w.pol)}
		for _, tpl := range g.Templates {
			world.queries = append(world.queries, tpl.Instantiate(simrand.New(w.seed+3), day))
		}
		out = append(out, world)
	}
	return out
}

// planned counts the plannings Candidates makes for q.
func (e *Explorer) planned(q *query.Query) int {
	n := 0
	e.plannings(nativeopt.NewSession(e.View, q), func(*plan.Plan, float64) { n++ })
	return n
}

// TestCandidatesMatchPerSettingReference: for every template of every world,
// the default and the wide explorer — cut and uncut — return the
// fingerprints, knobs and order of the reference, which plans every setting,
// and seal exactly the rough costs the reference ranked by. The comparison
// must not be idle: every explorer has to skip plannings (a pruning that
// never fires would pass), and alternatives have to tie on cost, since what
// the unstable sort does with a tie depends on the order they are handed over
// in.
func TestCandidatesMatchPerSettingReference(t *testing.T) {
	for _, w := range oracleWorlds() {
		view := w.view
		uncut := func(e *Explorer) *Explorer { e.TopK, e.SafetyFactor = 0, 0; return e }
		explorers := map[string]*Explorer{
			"default": New(view), "wide": NewWide(view),
			"default uncut": uncut(New(view)), "wide uncut": uncut(NewWide(view)),
		}
		kept, ties := 0, 0
		skipped := map[string]int{}
		for _, q := range w.queries {
			for name, e := range explorers {
				got := e.Candidates(q)
				want, costs := referenceCandidates(e, q)
				if len(got) != len(want) {
					t.Fatalf("%s %s %s: %d candidates, reference %d", w.name, name, q.ID, len(got), len(want))
				}
				kept += len(got)
				skipped[name] += e.settings() - e.planned(q)
				for i := range got {
					if got[i].Root.Fingerprint() != want[i].Root.Fingerprint() {
						t.Fatalf("%s %s %s: candidate %d differs from the reference:\n%s\nvs\n%s",
							w.name, name, q.ID, i, got[i], want[i])
					}
					if fp, ok := got[i].SealedFingerprint(); !ok || fp != got[i].Root.Fingerprint() {
						t.Fatalf("%s %s %s: candidate %d fingerprint seal %x/%v", w.name, name, q.ID, i, fp, ok)
					}
					if strings.Join(got[i].Knobs, ",") != strings.Join(want[i].Knobs, ",") {
						t.Fatalf("%s %s %s: candidate %d knobs %v, reference %v", w.name, name, q.ID, i, got[i].Knobs, want[i].Knobs)
					}
					sealed, ok := got[i].SealedRough(view)
					if !ok || math.Float64bits(sealed) != math.Float64bits(costs[i]) {
						t.Fatalf("%s %s %s: candidate %d sealed rough cost %v (%v), reference %v",
							w.name, name, q.ID, i, sealed, ok, costs[i])
					}
					if i > 1 && math.Float64bits(costs[i]) == math.Float64bits(costs[i-1]) {
						ties++
					}
				}
			}
		}
		if kept == 0 || ties == 0 {
			t.Fatalf("%s: %d candidates compared, %d cost ties between alternatives", w.name, kept, ties)
		}
		for name, e := range explorers {
			t.Logf("%s %s: %d of %d plannings skipped", w.name, name, skipped[name], len(w.queries)*e.settings())
			if skipped[name] == 0 {
				t.Fatalf("%s %s: no planning was ever skipped", w.name, name)
			}
		}
	}
}

// BenchmarkExplorerCandidates is the warm path in seconds: one op is one
// Explorer.Candidates call, cycling through the templates of a project1-shaped
// and a project2-shaped world. planned/op is the plannings a request makes of
// the explorer's ten settings, counted from the decisive sets the plannings
// return; kept/op the candidates it returns.
func BenchmarkExplorerCandidates(b *testing.B) {
	for _, w := range oracleWorlds()[:2] {
		b.Run(w.name, func(b *testing.B) {
			e := New(w.view)
			planned, kept := 0, 0
			for _, q := range w.queries {
				planned += e.planned(q)
				kept += len(e.Candidates(q))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.Candidates(w.queries[i%len(w.queries)])
			}
			b.ReportMetric(float64(planned)/float64(len(w.queries)), "planned/op")
			b.ReportMetric(float64(kept)/float64(len(w.queries)), "kept/op")
		})
	}
}

// TestRoughSealValidity: every candidate carries the rough cost a fresh
// estimate-and-walk computes, RoughCost answers from it only under the view
// it was computed under with scaling off, and copies never inherit it.
func TestRoughSealValidity(t *testing.T) {
	e, g := fixture(11, stats.DefaultPolicy())
	other := stats.Snapshot(simrand.New(99), g.Project, 3, stats.Policy{ColumnStatsProb: 0.2, FreshProb: 0.1, MaxStalenessDays: 25, NDVNoise: 0.9})
	bits := math.Float64bits
	differs := 0
	for _, tpl := range g.Templates {
		q := tpl.Instantiate(simrand.New(5), 3)
		for i, c := range e.Candidates(q) {
			sealed, ok := c.SealedRough(e.View)
			if !ok {
				t.Fatalf("%s candidate %d carries no rough seal", q.ID, i)
			}
			clone := c.Clone()
			if _, ok := clone.SealedRough(e.View); ok {
				t.Fatal("Clone kept the rough seal")
			}
			fresh := nativeopt.New(e.View).RoughCost(clone)
			if bits(sealed) != bits(fresh) || bits(nativeopt.New(e.View).RoughCost(c)) != bits(fresh) {
				t.Fatalf("%s candidate %d: sealed %v, fresh %v", q.ID, i, sealed, fresh)
			}

			// A different view, or a scaling optimizer, estimates afresh.
			for name, o := range map[string]*nativeopt.Optimizer{
				"other view": nativeopt.New(other),
				"scale 5":    {View: e.View, CardScale: 5},
				"scale 0.2":  {View: e.View, CardScale: 0.2},
			} {
				got, want := o.RoughCost(c), o.RoughCost(clone)
				if bits(got) != bits(want) {
					t.Fatalf("%s candidate %d under %s: %v from the sealed plan, %v from its unsealed clone", q.ID, i, name, got, want)
				}
				if bits(got) != bits(sealed) {
					differs++
				}
			}
			// Scale 1 is scaling off: the seal answers.
			if got := (&nativeopt.Optimizer{View: e.View, CardScale: 1}).RoughCost(c); bits(got) != bits(sealed) {
				t.Fatalf("scale 1: %v, sealed %v", got, sealed)
			}

			data, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			var back plan.Plan
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if _, ok := back.SealedRough(e.View); ok {
				t.Fatal("JSON round trip kept the rough seal")
			}
			if got := nativeopt.New(e.View).RoughCost(&back); bits(got) != bits(fresh) {
				t.Fatalf("round-tripped plan costs %v, want %v", got, fresh)
			}
		}

		// The guard's native-fallback re-plan never passes through the
		// explorer: unsealed, and costed by estimating it.
		native := nativeopt.DefaultPlan(e.View, q)
		if _, ok := native.SealedRough(e.View); ok {
			t.Fatal("native re-plan is sealed")
		}
		if got, want := nativeopt.New(e.View).RoughCost(native), nativeopt.New(e.View).RoughCost(e.Candidates(q)[0]); bits(got) != bits(want) {
			t.Fatalf("native re-plan costs %v, the default candidate %v", got, want)
		}
	}
	if differs == 0 {
		t.Fatal("no other view or scale ever produced a different cost: the validity checks compared nothing")
	}
}

// TestCandidatesConcurrentOnOneView: planning sessions are goroutine-local
// and the view is only read, so goroutines sharing one explorer get what a
// lone caller gets (run under -race).
func TestCandidatesConcurrentOnOneView(t *testing.T) {
	e, g := fixture(13, stats.DefaultPolicy())
	var queries []*query.Query
	var want [][]uint64
	fingerprints := func(q *query.Query) []uint64 {
		var fps []uint64
		for _, c := range e.Candidates(q) {
			fps = append(fps, c.CacheFingerprint())
		}
		return fps
	}
	for _, tpl := range g.Templates {
		q := tpl.Instantiate(simrand.New(6), 3)
		queries = append(queries, q)
		want = append(want, fingerprints(q))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, q := range queries {
					got := fingerprints(q)
					if len(got) != len(want[i]) {
						t.Errorf("%s: %d candidates, alone %d", q.ID, len(got), len(want[i]))
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("%s: candidate %d differs from the lone run", q.ID, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
