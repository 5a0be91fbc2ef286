package predictor

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"loam/internal/encoding"
	"loam/internal/plan"
)

// memoSets is a sequence of candidate sets over explorerStyleCands that
// overlap, so later sets find some or all of their plans in the memo earlier
// ones filled.
func memoSets(cands []*plan.Plan) [][]*plan.Plan {
	return [][]*plan.Plan{
		cands[:3], cands[2:7], cands[6:], cands,
		{cands[8], cands[0]}, cands[4:9], {cands[11], cands[10], cands[1]},
	}
}

// scoreSets scores every set unkeyed, so each pass goes through the plan
// memo and none through the plan cache, and reports whether every estimate
// is Float64bits-equal to want's for its plan. It reports with Errorf, so a
// goroutine other than the test's may call it.
func scoreSets(t testing.TB, p *Predictor, sets [][]*plan.Plan, envs encoding.EnvSource, want map[*plan.Plan]float64) bool {
	t.Helper()
	for k, set := range sets {
		_, costs, err := p.SelectPlanKeyed(set, envs, encoding.EnvKey{})
		if err != nil {
			t.Error(err)
			return false
		}
		for i, c := range set {
			if math.Float64bits(costs[i]) != math.Float64bits(want[c]) {
				t.Errorf("set %d, candidate %d: %v (%#x), training forward %v (%#x)",
					k, i, costs[i], math.Float64bits(costs[i]), want[c], math.Float64bits(want[c]))
				return false
			}
		}
	}
	return true
}

// mustScoreSets is scoreSets on the test's goroutine, stopping at a miss.
func mustScoreSets(t *testing.T, p *Predictor, sets [][]*plan.Plan, envs encoding.EnvSource, want map[*plan.Plan]float64) {
	t.Helper()
	if !scoreSets(t, p, sets, envs, want) {
		t.FailNow()
	}
}

func wantCosts(p *Predictor, cands []*plan.Plan, envs encoding.EnvSource) map[*plan.Plan]float64 {
	want := map[*plan.Plan]float64{}
	for i, c := range referenceCosts(p, cands, envs) {
		want[cands[i]] = c
	}
	return want
}

// TestScoringPathsBitIdenticalClassMemo (named for the layer-class memo the
// plan memo replaced) holds the plan memo to the training forward bit for
// bit wherever it could go wrong: a memo warmed by earlier sets that overlap
// later ones, then answering every plan; a memo whose limit drops it whole
// mid-sequence; two goroutines scoring crossing set orders on one predictor,
// with and without those drops; every key hashed to one bucket, where only
// the key compare tells rows and plans apart; two trees whose preorder rows
// are equal and whose shapes are not; and weights and label normalization
// written into a predictor whose memo is warm, as Load writes them.
func TestScoringPathsBitIdenticalClassMemo(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 21)
	cands := explorerStyleCands()
	sets := memoSets(cands)
	train := func(seed uint64) *Predictor {
		cfg := tinyConfig(KindTCN)
		cfg.Seed = seed
		p, err := Train(cfg, enc, samples, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := train(7)
	sources := []struct {
		name string
		envs encoding.EnvSource
	}{
		{"FixedEnv", encoding.FixedEnv(p.TrainMeanEnv())},
		{"NoEnv", encoding.NoEnv()},
	}

	t.Run("warm", func(t *testing.T) {
		p.ResetPlanMemo()
		for _, src := range sources {
			want := wantCosts(p, cands, src.envs)
			scored0, answered0 := p.PlanMemoStats()
			mustScoreSets(t, p, sets, src.envs, want)
			scored1, answered1 := p.PlanMemoStats()
			if answered1 == answered0 {
				t.Fatalf("%s: no plan of a later set was answered by the memo", src.name)
			}
			mustScoreSets(t, p, sets, src.envs, want)
			for _, c := range cands {
				if got := p.PredictCost(c, src.envs); math.Float64bits(got) != math.Float64bits(want[c]) {
					t.Fatalf("%s: PredictCost = %v, training forward %v", src.name, got, want[c])
				}
			}
			if scored, answered := p.PlanMemoStats(); scored-scored1 != answered-answered1 {
				t.Fatalf("%s: a warm memo answered %d of %d plans", src.name, answered-answered1, scored-scored1)
			}
			t.Logf("%s: first round %d of %d plans from the memo", src.name, answered1-answered0, scored1-scored0)
		}
	})

	// The limit that holds half of what every set of both sources needs.
	m := p.memo
	p.ResetPlanMemo()
	for _, src := range sources {
		mustScoreSets(t, p, sets, src.envs, wantCosts(p, cands, src.envs))
	}
	small := m.bytes() / 2

	t.Run("reset", func(t *testing.T) {
		m.limit = small
		defer func() { m.limit = memoBytes }()
		p.ResetPlanMemo()
		drops := 0
		for range 2 {
			for _, src := range sources {
				want := wantCosts(p, cands, src.envs)
				for _, set := range sets {
					before := len(m.plans.ends)
					mustScoreSets(t, p, [][]*plan.Plan{set}, src.envs, want)
					if len(m.plans.ends) < before {
						drops++
					}
					if b := m.bytes(); b > m.limit {
						t.Fatalf("memo holds %d bytes, limit %d", b, m.limit)
					}
				}
			}
		}
		if drops == 0 {
			t.Fatalf("a limit of %d bytes never dropped the memo", small)
		}
		t.Logf("limit %d bytes: the memo was dropped %d times", small, drops)
	})

	t.Run("crossing", func(t *testing.T) {
		want := wantCosts(p, cands, sources[0].envs)
		reversed := make([][]*plan.Plan, len(sets))
		for i, set := range sets {
			reversed[len(sets)-1-i] = set
		}
		for _, limit := range []int{memoBytes, small} {
			m.limit = limit
			for range 20 {
				p.ResetPlanMemo()
				var wg sync.WaitGroup
				for _, order := range [][][]*plan.Plan{sets, reversed} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						scoreSets(t, p, order, sources[0].envs, want)
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
			}
		}
		m.limit = memoBytes
	})

	t.Run("collisions", func(t *testing.T) {
		m.oneBucket = true
		defer func() { m.oneBucket = false }()
		p.ResetPlanMemo()
		// Plans that differ only in a column count, on top of the shared set.
		all := append([]*plan.Plan(nil), cands...)
		for cols := 1; cols <= 4; cols++ {
			all = append(all, &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{
				{Op: plan.OpTableScan, Table: "big", PartitionsRead: 4, ColumnsAccessed: cols},
			}}})
		}
		for _, src := range sources {
			want := wantCosts(p, all, src.envs)
			for range 2 {
				mustScoreSets(t, p, append(sets, all[len(cands):]), src.envs, want)
			}
		}
	})

	t.Run("shapes", func(t *testing.T) {
		// Exchange(Exchange(scan)) and Exchange(Exchange, scan): the same
		// rows in preorder, told apart by the child flags alone.
		node := func(children ...*plan.Node) *plan.Node {
			return &plan.Node{Op: plan.OpExchange, Parallelism: 8, Children: children}
		}
		scan := func() *plan.Node {
			return &plan.Node{Op: plan.OpTableScan, Table: "big", PartitionsRead: 4, ColumnsAccessed: 2}
		}
		chain := &plan.Plan{Root: node(node(scan()))}
		fork := &plan.Plan{Root: node(node(), scan())}
		pair := []*plan.Plan{chain, fork}
		for _, src := range sources {
			want := wantCosts(p, pair, src.envs)
			if math.Float64bits(want[chain]) == math.Float64bits(want[fork]) {
				t.Fatalf("%s: the two shapes estimate alike; the case tells nothing", src.name)
			}
			p.ResetPlanMemo()
			mustScoreSets(t, p, [][]*plan.Plan{{chain}, {fork}, pair, {fork, chain}}, src.envs, want)
		}
	})

	t.Run("load", func(t *testing.T) {
		warm, other := train(7), train(8)
		other.muY, other.sigmaY = warm.muY+0.5, warm.sigmaY*1.5
		envs := sources[0].envs
		old := wantCosts(warm, cands, envs)
		mustScoreSets(t, warm, sets, envs, old)
		var params [][]float64
		for _, tn := range other.allParams() {
			params = append(params, tn.Data)
		}
		warm.muY, warm.sigmaY = other.muY, other.sigmaY
		if err := warm.setParams(params); err != nil {
			t.Fatal(err)
		}
		want := wantCosts(other, cands, envs)
		if math.Float64bits(want[cands[0]]) == math.Float64bits(old[cands[0]]) {
			t.Fatal("the loaded model estimates as the old one does; the case tells nothing")
		}
		mustScoreSets(t, warm, sets, envs, want)
	})
}

// TestActivationMemoBytesBounded feeds one predictor more distinct candidate
// sets than its plan memo holds and bounds the heap the memo retains, after
// two collections, by memoBytes, as TestRetainedPlanBytes bounds a held
// plan's: the memo counts its arrays by capacity and drops itself whole before
// it would pass the limit.
func TestActivationMemoBytesBounded(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 33)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, envs := p.memo, encoding.FixedEnv(p.TrainMeanEnv())
	set := func(i int) []*plan.Plan {
		out := make([]*plan.Plan, 8)
		for k := range out {
			n := i*len(out) + k
			out[k] = &plan.Plan{Root: &plan.Node{Op: plan.OpHashJoin, Children: []*plan.Node{
				{Op: plan.OpTableScan, Table: "big", PartitionsRead: 1 + n, ColumnsAccessed: 2},
				{Op: plan.OpExchange, Parallelism: 1 + n%64, Children: []*plan.Node{
					{Op: plan.OpTableScan, Table: "mid", PartitionsRead: 1 + n/3, ColumnsAccessed: 1 + n%5},
				}},
			}}}
		}
		return out
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	drops, peak := 0, 0
	for i := range 1500 {
		n := len(m.plans.ends)
		if _, _, err := p.SelectPlanKeyed(set(i), envs, encoding.EnvKey{}); err != nil {
			t.Fatal(err)
		}
		if len(m.plans.ends) < n {
			drops++
		}
		peak = max(peak, m.bytes())
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained %d bytes (memo counts %d, peak %d, dropped %d times), limit %d", retained, m.bytes(), peak, drops, memoBytes)
	if drops == 0 {
		t.Fatalf("1,500 distinct sets never filled a %d-byte memo", memoBytes)
	}
	if peak > memoBytes || retained > memoBytes {
		t.Fatalf("the memo retains %d bytes (counts %d at its peak), limit %d", retained, peak, memoBytes)
	}
	runtime.KeepAlive(p)
}
