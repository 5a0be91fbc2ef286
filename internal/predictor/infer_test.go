package predictor

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"loam/internal/cluster"
	"loam/internal/encoding"
	"loam/internal/expr"
	"loam/internal/floatsafe"
	"loam/internal/plan"
	"loam/internal/telemetry"
)

// referenceCosts scores candidates one at a time through the *training-path*
// forward (autograd graph, no batching, no cache) — the ground truth every
// serving path must reproduce bit for bit. The XGBoost backbone has no
// autograd forward; its reference is the booster on the flat encoding.
func referenceCosts(p *Predictor, cands []*plan.Plan, envs encoding.EnvSource) []float64 {
	out := make([]float64, len(cands))
	for i, c := range cands {
		if p.cfg.Kind == KindXGBoost {
			out[i] = p.denormalize(p.xgbModel.Predict(p.enc.EncodeFlat(c, envs)))
			continue
		}
		emb := p.bb.embed(c, envs)
		out[i] = p.denormalize(p.costHead.Forward(emb).Data[0])
	}
	return out
}

func costsSameBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d costs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: cost %d differs: %v (%#x) vs %v (%#x)",
				name, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// selectTelemetry is the per-call plan-selection telemetry of one registry:
// the predictor.selectplan.* counters, candidates histogram and timer count.
// Cache counters are left out — hits and misses are what cold and warm differ
// in by design.
func selectTelemetry(reg *telemetry.Registry) telemetry.Snapshot {
	const prefix = "predictor.selectplan."
	all := reg.Snapshot()
	var out telemetry.Snapshot
	for _, c := range all.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, h := range all.Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	for _, tm := range all.Timers {
		if strings.HasPrefix(tm.Name, prefix) {
			out.Timers = append(out.Timers, tm)
		}
	}
	return out
}

// TestScoringPathsBitIdentical verifies that the scoring paths —
// SelectPlanKeyed unkeyed, and keyed on a cache cold and warm — are one
// core: each produces bit-identical costs and the same chosen plan as
// per-candidate training-path forwards, and leaves identical per-call
// telemetry (select calls, candidates histogram, NaN / no-finite counters),
// for every backbone kind.
func TestScoringPathsBitIdentical(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 21)
	cands := make([]*plan.Plan, 0, 8)
	for i := 0; i < 8; i++ {
		cands = append(cands, samples[i*3].Plan)
	}
	for _, kind := range []Kind{KindTCN, KindTransformer, KindGCN, KindXGBoost} {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := Train(tinyConfig(kind), enc, samples, nil)
			if err != nil {
				t.Fatal(err)
			}
			p.EnablePlanCache(64)
			envs := encoding.FixedEnv(p.TrainMeanEnv())
			key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})
			want := referenceCosts(p, cands, envs)
			wantBest := cands[floatsafe.ArgMin(want)]

			keyed := func() (*plan.Plan, []float64, error) { return p.SelectPlanKeyed(cands, envs, key) }
			paths := []struct {
				name string
				call func() (*plan.Plan, []float64, error)
			}{
				{"SelectPlanKeyed unkeyed", func() (*plan.Plan, []float64, error) { return p.SelectPlanKeyed(cands, envs, encoding.EnvKey{}) }},
				{"SelectPlanKeyed cold", keyed},
				{"SelectPlanKeyed warm", keyed},
			}
			var wantTel telemetry.Snapshot
			for i, path := range paths {
				reg := telemetry.NewRegistry()
				p.Instrument(reg)
				best, costs, err := path.call()
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				costsSameBits(t, path.name, want, costs)
				if best != wantBest {
					t.Fatalf("%s chose a different plan", path.name)
				}
				tel := selectTelemetry(reg)
				if i == 0 {
					wantTel = tel
					if len(tel.Counters) != 4 || tel.Counters[0].Value != 1 || len(tel.Histograms) != 1 || tel.Histograms[0].Count != 1 {
						t.Fatalf("%s: unexpected per-call telemetry %+v", path.name, tel)
					}
				} else if !reflect.DeepEqual(tel, wantTel) {
					t.Fatalf("%s telemetry %+v, want %+v (as %s)", path.name, tel, wantTel, paths[0].name)
				}
			}

			for i, c := range cands {
				got := p.PredictCost(c, envs)
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("PredictCost(%d) = %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

// explorerStyleCands is a candidate set shaped like the explorer's — the
// unrelated plans above cannot see a sharing bug: a base plan and clones that
// each differ from it in one place (a join operator, a join order rotation, a
// pushed predicate, a PartitionsRead, a ColumnsAccessed), a plan holding the
// same scan subtree twice as two pointers
// (index 6), a 3-way Union, which folds, and four more. deep (index 8)
// changes the root and a scan four levels below it, so its join shares the
// base join's layer-1 and layer-2 classes below a differing root; bare gives
// both exchanges one feature row over different children; then the base's
// join re-planned over the base's own exchange subtrees, by pointer as the
// explorer shares scan subplans; and a plan holding the base's right
// exchange both outside a folded Union and under it.
func explorerStyleCands() []*plan.Plan {
	scan := func(t string, parts int) *plan.Node {
		return &plan.Node{Op: plan.OpTableScan, Table: t, PartitionsRead: parts, ColumnsAccessed: 2}
	}
	c1, c2 := expr.ColumnRef{Table: "big", Column: "c1"}, expr.ColumnRef{Table: "mid", Column: "c2"}
	base := &plan.Plan{Root: &plan.Node{
		Op: plan.OpHashAggregate, AggFuncs: []plan.AggFunc{plan.AggSum}, AggCols: []expr.ColumnRef{c1}, GroupCols: []expr.ColumnRef{c2},
		Children: []*plan.Node{{
			Op: plan.OpHashJoin, JoinForm: plan.JoinInner, LeftCols: []expr.ColumnRef{c1}, RightCols: []expr.ColumnRef{c2},
			Children: []*plan.Node{
				{Op: plan.OpExchange, Parallelism: 64, Children: []*plan.Node{{
					Op: plan.OpFilter, Pred: expr.Compare(expr.FuncGT, c1, 3), Children: []*plan.Node{scan("big", 8)},
				}}},
				{Op: plan.OpExchange, Children: []*plan.Node{scan("mid", 2)}},
			},
		}},
	}}
	join := func(p *plan.Plan) *plan.Node { return p.Root.Children[0] }
	flip := base.Clone()
	join(flip).Op = plan.OpMergeJoin
	rotate := base.Clone()
	j := join(rotate)
	j.Children[0], j.Children[1] = j.Children[1], j.Children[0]
	j.LeftCols, j.RightCols = j.RightCols, j.LeftCols
	push := base.Clone()
	ex := join(push).Children[1]
	ex.Children[0] = &plan.Node{Op: plan.OpFilter, Pred: expr.Compare(expr.FuncLT, c2, 9), Children: []*plan.Node{ex.Children[0]}}
	parts := base.Clone()
	join(parts).Children[1].Children[0].PartitionsRead = 3
	cols := base.Clone()
	join(cols).Children[1].Children[0].ColumnsAccessed = 3
	twice := base.Clone()
	join(twice).Children[1] = join(twice).Children[0].Clone()
	union := &plan.Plan{Root: &plan.Node{Op: plan.OpUnion, Children: []*plan.Node{scan("mid", 2), scan("big", 8), scan("mid", 2)}}}
	deep := base.Clone()
	deep.Root.AggFuncs = []plan.AggFunc{plan.AggCount}
	join(deep).Children[0].Children[0].Children[0].PartitionsRead = 5
	bare := base.Clone()
	join(bare).Children[0].Parallelism = 0
	sharedJoin, sharedRoot := *join(base), *base.Root
	sharedJoin.Op = plan.OpMergeJoin
	sharedRoot.Children = []*plan.Node{&sharedJoin}
	right := join(base).Children[1]
	mixed := &plan.Node{Op: plan.OpHashJoin, JoinForm: plan.JoinInner, LeftCols: []expr.ColumnRef{c2}, RightCols: []expr.ColumnRef{c1}, Children: []*plan.Node{
		right, {Op: plan.OpUnion, Children: []*plan.Node{right, scan("big", 8), scan("mid", 2)}},
	}}
	return []*plan.Plan{base, flip, rotate, push, parts, cols, twice, union, deep, bare, {Root: &sharedRoot}, {Root: mixed}}
}

// TestScoringPathsBitIdenticalSharedSubtrees is TestScoringPathsBitIdentical
// over candidates that share subtrees, where scoring them as one forest could
// go wrong and scoring eight unrelated plans cannot: under a fixed
// environment, no environment, and a per-node RecordEnv source that observes
// only one candidate's nodes (so rows equal in everything but the environment
// must stay apart), the forest reproduces the one-at-a-time training forward
// bit for bit — unkeyed, and through the plan cache cold, with a mix of hits
// and misses, and warm. Every backbone kind runs the same skeleton.
func TestScoringPathsBitIdenticalSharedSubtrees(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 21)
	cands := explorerStyleCands()
	perNode := map[*plan.Node]cluster.Metrics{}
	for _, c := range cands[:2] {
		c.Root.Walk(func(n *plan.Node) {
			perNode[n] = cluster.Metrics{CPUIdle: 0.5, IOWait: float64(len(perNode)%3) / 8, Load5: 2, MemUsage: 0.4}
		})
	}
	// The plan holding one subtree twice: two pointers, equal structure, which
	// the per-node source reads apart.
	for i, twin := range cands[6].Root.Children[0].Children {
		twin.Walk(func(n *plan.Node) {
			perNode[n] = cluster.Metrics{CPUIdle: 0.5, IOWait: 0.125 + 0.5*float64(i), Load5: 2, MemUsage: 0.4}
		})
	}
	for _, kind := range []Kind{KindTCN, KindTransformer, KindGCN, KindXGBoost} {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := Train(tinyConfig(kind), enc, samples, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []struct {
				name string
				envs encoding.EnvSource
				key  encoding.EnvKey
			}{
				{"FixedEnv", encoding.FixedEnv(p.TrainMeanEnv()), encoding.FixedEnvKey(p.TrainMeanEnv())},
				{"NoEnv", encoding.NoEnv(), encoding.NoEnvKey()},
				{"RecordEnv", encoding.RecordEnv(func(n *plan.Node) (cluster.Metrics, bool) { m, ok := perNode[n]; return m, ok }), encoding.EnvKey{}},
			} {
				want := referenceCosts(p, cands, src.envs)
				_, costs, err := p.SelectPlanKeyed(cands, src.envs, encoding.EnvKey{})
				if err != nil {
					t.Fatal(err)
				}
				costsSameBits(t, src.name+" unkeyed", want, costs)
				for i, c := range cands {
					if got := p.PredictCost(c, src.envs); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("%s: PredictCost(%d) = %v, want %v", src.name, i, got, want[i])
					}
				}
				if !src.key.Keyed {
					continue
				}
				p.EnablePlanCache(64)
				// Half the set first, so the full set is a mix of hits and
				// misses; then cold entries are all warm.
				if _, _, err := p.SelectPlanKeyed([]*plan.Plan{cands[1], cands[3], cands[5], cands[7]}, src.envs, src.key); err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"mixed", "warm"} {
					_, costs, err := p.SelectPlanKeyed(cands, src.envs, src.key)
					if err != nil {
						t.Fatal(err)
					}
					costsSameBits(t, src.name+" keyed "+pass, want, costs)
				}
				p.EnablePlanCache(64)
				_, costs, err = p.SelectPlanKeyed(cands, src.envs, src.key)
				if err != nil {
					t.Fatal(err)
				}
				costsSameBits(t, src.name+" keyed cold", want, costs)
			}
		})
	}
}

// TestForestLayerClassesMatchCensus pins the classes the TCN forest convolves
// by against a census that keys a map on each entry's (self, left, right)
// triple one layer down: at every layer the class table assigns exactly the
// census's classes in the census's order, and each class's gather lists name
// the triple of every entry in it. deep's join, below a changed root, shares
// the base join's class at layers 1 and 2 and leaves it at layer 3, where
// the changed scan enters its neighbourhood.
func TestForestLayerClassesMatchCensus(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	cands := explorerStyleCands()
	classAt := func(of []int, e int) int {
		if e < 0 {
			return -1
		}
		return of[e]
	}
	var f encoding.Forest
	var c classTable
	for _, envs := range []encoding.EnvSource{encoding.FixedEnv([4]float64{0.5, 0.1, 0.4, 0.5}), encoding.NoEnv()} {
		enc.EncodeForestInto(&f, cands, envs)
		c.start(&f)
		census := slices.Clone(f.Row)
		baseJoin, deepJoin := f.PlanNodes(0)[1], f.PlanNodes(8)[1]
		for layer := 1; layer <= 4; layer++ {
			c.next(&f)
			ids := map[[3]int]int{}
			next := make([]int, len(census))
			for e, s := range census {
				key := [3]int{s, classAt(census, f.Left[e]), classAt(census, f.Right[e])}
				id, ok := ids[key]
				if !ok {
					id = len(ids)
					ids[key] = id
				}
				next[e] = id
				if cl := c.of[e]; [3]int{c.self[cl], c.left[cl], c.right[cl]} != key {
					t.Fatalf("layer %d: entry %d is in class %d, whose triple is not its %v", layer, e, cl, key)
				}
			}
			census = next
			if len(c.self) != len(ids) || !slices.Equal(c.of, census) {
				t.Fatalf("layer %d: %d classes, the census %d", layer, len(c.self), len(ids))
			}
			if shared := c.of[baseJoin] == c.of[deepJoin]; shared != (layer < 3) {
				t.Fatalf("layer %d: deep's join in the base join's class: %v, want %v", layer, shared, layer < 3)
			}
		}
	}
}

// TestForestFullTableAndBucketCollisionsBitIdentical drives the two places
// where the forest's sharing could be approximate and must not be. A
// candidate set with more distinct feature rows than the row table takes
// fills it, after which every later node is its own layer-0 class — same
// bits. And candidates that differ only in a column count, whose keys differ
// in one word, stay apart: their costs are the reference's, and differ from
// one another (TestEncodeForestSharesExactly forces one bucket).
func TestForestFullTableAndBucketCollisionsBitIdentical(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 31)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	envs := encoding.FixedEnv(p.TrainMeanEnv())

	var big []*plan.Plan
	for i := 0; i < 800; i++ {
		big = append(big, &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "mid", PartitionsRead: 1 + i, ColumnsAccessed: 1}})
	}
	big = append(big, explorerStyleCands()...)
	_, costs, err := p.SelectPlanKeyed(big, envs, encoding.EnvKey{})
	if err != nil {
		t.Fatal(err)
	}
	costsSameBits(t, "table full", referenceCosts(p, big, envs), costs)

	var collide []*plan.Plan
	for cols := 1; cols <= 4; cols++ {
		collide = append(collide, &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{
			{Op: plan.OpTableScan, Table: "big", PartitionsRead: 4, ColumnsAccessed: cols},
		}}})
	}
	want := referenceCosts(p, collide, envs)
	_, costs, err = p.SelectPlanKeyed(collide, envs, encoding.EnvKey{})
	if err != nil {
		t.Fatal(err)
	}
	costsSameBits(t, "one bucket", want, costs)
	for i := 1; i < len(want); i++ {
		if want[i] == want[0] {
			t.Fatalf("candidates %d and 0 cost the same (%v): the set does not tell sharing from not sharing", i, want[i])
		}
	}
}

// TestPlanCacheCounters pins the cache telemetry: first keyed select misses
// once per distinct plan, the second hits once per plan, and totals are
// independent of caller interleaving because hit/miss is decided under the
// cache lock at lookup time.
func TestPlanCacheCounters(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 22)
	cands := []*plan.Plan{samples[0].Plan, samples[3].Plan, samples[6].Plan, samples[9].Plan, samples[12].Plan}
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.EnablePlanCache(64)
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})

	if _, _, err := p.SelectPlanKeyed(cands, envs, key); err != nil {
		t.Fatal(err)
	}
	if h, m := p.tel.cacheHits.Value(), p.tel.cacheMisses.Value(); h != 0 || m != int64(len(cands)) {
		t.Fatalf("cold select: hits=%d misses=%d, want 0/%d", h, m, len(cands))
	}
	if _, _, err := p.SelectPlanKeyed(cands, envs, key); err != nil {
		t.Fatal(err)
	}
	if h, m := p.tel.cacheHits.Value(), p.tel.cacheMisses.Value(); h != int64(len(cands)) || m != int64(len(cands)) {
		t.Fatalf("warm select: hits=%d misses=%d, want %d/%d", h, m, len(cands), len(cands))
	}
	if n := p.PlanCacheLen(); n != len(cands) {
		t.Fatalf("cache holds %d estimates, want %d", n, len(cands))
	}

	// A different environment key must not share entries.
	other := p.EnvKeyFor(StrategyClusterCurrent, [4]float64{}, [4]float64{0.9, 0.9, 0.9, 0.9})
	if _, _, err := p.SelectPlanKeyed(cands, encoding.FixedEnv([4]float64{0.9, 0.9, 0.9, 0.9}), other); err != nil {
		t.Fatal(err)
	}
	if m := p.tel.cacheMisses.Value(); m != 2*int64(len(cands)) {
		t.Fatalf("distinct env key reused entries: misses=%d", m)
	}
}

// TestPlanCacheUnkeyedBypass: unkeyed selection (the zero EnvKey)
// must never populate the cache — per-node environment sources have no
// hashable identity.
func TestPlanCacheUnkeyedBypass(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 23)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.EnablePlanCache(64)
	cands := []*plan.Plan{samples[0].Plan, samples[1].Plan, samples[2].Plan, samples[3].Plan}
	if _, _, err := p.SelectPlanKeyed(cands, encoding.FixedEnv(p.TrainMeanEnv()), encoding.EnvKey{}); err != nil {
		t.Fatal(err)
	}
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("unkeyed selection cached %d estimates", n)
	}
}

// TestPlanCacheEvictionAndFlush verifies bounded LRU eviction order and that
// FlushPlanCache / EnablePlanCache drop all entries.
func TestPlanCacheEvictionAndFlush(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 24)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.EnablePlanCache(2)
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})

	a, b, c := samples[0].Plan, samples[1].Plan, samples[2].Plan
	for _, pl := range []*plan.Plan{a, b, c} {
		if _, _, err := p.SelectPlanKeyed([]*plan.Plan{pl}, envs, key); err != nil {
			t.Fatal(err)
		}
	}
	if ev := p.tel.cacheEvictions.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1 (capacity 2, 3 inserts)", ev)
	}
	if n := p.PlanCacheLen(); n != 2 {
		t.Fatalf("cache holds %d, want 2", n)
	}
	// a was evicted (LRU); touching it again must miss.
	misses := p.tel.cacheMisses.Value()
	if _, _, err := p.SelectPlanKeyed([]*plan.Plan{a, b, c}[:1], envs, key); err != nil {
		t.Fatal(err)
	}
	if m := p.tel.cacheMisses.Value(); m != misses+1 {
		t.Fatalf("evicted entry did not miss: misses %d -> %d", misses, m)
	}

	p.FlushPlanCache()
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("flush left %d entries", n)
	}
	if f := p.tel.cacheFlushes.Value(); f != 1 {
		t.Fatalf("flushes = %d, want 1", f)
	}
	// Re-enabling replaces the cache wholesale — the retrain/redeploy
	// invalidation rule.
	p.EnablePlanCache(64)
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("fresh cache holds %d entries", n)
	}
}

// TestPlanCacheSetCapacity pins the external-governance seam: shrinking
// evicts exactly the strict-LRU tail (counted as evictions) while the warm
// head survives, growing never drops entries, and capacity 0 keeps the cache
// installed but empty so zero-grant tenants stay governable.
func TestPlanCacheSetCapacity(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 29)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.Instrument(reg)
	p.EnablePlanCache(8)
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})

	plans := []*plan.Plan{samples[0].Plan, samples[1].Plan, samples[2].Plan, samples[3].Plan}
	for _, pl := range plans {
		if _, _, err := p.SelectPlanKeyed([]*plan.Plan{pl}, envs, key); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.PlanCacheCap(); got != 8 {
		t.Fatalf("PlanCacheCap = %d, want 8", got)
	}

	// Shrink to 2: the two least-recently-used entries (plans[0], plans[1])
	// go; the warm head stays resident.
	p.SetPlanCacheCapacity(2)
	if got := p.PlanCacheCap(); got != 2 {
		t.Fatalf("PlanCacheCap after shrink = %d, want 2", got)
	}
	if n := p.PlanCacheLen(); n != 2 {
		t.Fatalf("shrink left %d entries, want 2", n)
	}
	if ev := p.tel.cacheEvictions.Value(); ev != 2 {
		t.Fatalf("shrink evictions = %d, want 2", ev)
	}
	hits := p.tel.cacheHits.Value()
	if _, _, err := p.SelectPlanKeyed(plans[2:], envs, key); err != nil {
		t.Fatal(err)
	}
	if h := p.tel.cacheHits.Value(); h != hits+2 {
		t.Fatalf("warm head lost across shrink: hits %d -> %d", hits, h)
	}
	misses := p.tel.cacheMisses.Value()
	if _, _, err := p.SelectPlanKeyed(plans[:1], envs, key); err != nil {
		t.Fatal(err)
	}
	if m := p.tel.cacheMisses.Value(); m != misses+1 {
		t.Fatalf("LRU tail survived shrink: misses %d -> %d", misses, m)
	}

	// Growing never drops entries; re-filling uses the new headroom.
	p.SetPlanCacheCapacity(16)
	if n := p.PlanCacheLen(); n != 2 {
		t.Fatalf("grow dropped entries: %d, want 2", n)
	}
	for _, pl := range plans {
		if _, _, err := p.SelectPlanKeyed([]*plan.Plan{pl}, envs, key); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.PlanCacheLen(); n != 4 {
		t.Fatalf("after grow + refill: %d entries, want 4", n)
	}

	// Capacity 0: everything evicts, the cache object stays, and fills are
	// immediately discarded.
	p.SetPlanCacheCapacity(0)
	if n, c := p.PlanCacheLen(), p.PlanCacheCap(); n != 0 || c != 0 {
		t.Fatalf("zero-capacity cache: len=%d cap=%d", n, c)
	}
	if _, _, err := p.SelectPlanKeyed(plans[:2], envs, key); err != nil {
		t.Fatal(err)
	}
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("zero-capacity cache retained %d entries", n)
	}

	// SetPlanCacheCapacity on a cache-less predictor installs one.
	p2, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2.SetPlanCacheCapacity(4)
	if got := p2.PlanCacheCap(); got != 4 {
		t.Fatalf("install-on-demand cap = %d, want 4", got)
	}
}

// TestPlanCacheConcurrent hammers one shared cache from many goroutines mixing
// keyed selects and PredictCost; run under -race this is the predictor-level
// data-race test for the singleflight cache.
func TestPlanCacheConcurrent(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 25)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.EnablePlanCache(8) // small: forces concurrent eviction too
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})
	cands := make([]*plan.Plan, 12)
	for i := range cands {
		cands[i] = samples[i].Plan
	}
	want := referenceCosts(p, cands, envs)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 15; it++ {
				lo := (g + it) % 6
				sub := cands[lo : lo+6]
				_, costs, err := p.SelectPlanKeyed(sub, envs, key)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range costs {
					if math.Float64bits(costs[i]) != math.Float64bits(want[lo+i]) {
						t.Errorf("goroutine %d: cost %d drifted", g, lo+i)
						return
					}
				}
				_ = p.PredictCost(cands[it%len(cands)], envs)
			}
		}(g)
	}
	wg.Wait()
}

// benchPredictor trains one small TCN predictor and returns it with a
// recurring plan + env source, shared by the before/after forward benchmarks.
func benchPredictor(b *testing.B) (*Predictor, *plan.Plan, encoding.EnvSource) {
	b.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 27)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p, samples[0].Plan, encoding.FixedEnv(p.TrainMeanEnv())
}

// BenchmarkForwardTrainingPath is the "before" number: one cost prediction
// through the autograd forward (graph construction, per-op tensor + gradient
// allocation) that serving used prior to the inference fast path.
func BenchmarkForwardTrainingPath(b *testing.B) {
	p, pl, envs := benchPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := p.bb.embed(pl, envs)
		_ = p.denormalize(p.costHead.Forward(emb).Data[0])
	}
}

// BenchmarkForwardInfer is the "after" number: the same prediction through
// PredictCost's allocation-free inference forward.
func BenchmarkForwardInfer(b *testing.B) {
	p, pl, envs := benchPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PredictCost(pl, envs)
	}
}

// BenchmarkSelectPlanUncached scores an 8-candidate set per iteration with
// the cache disabled (batched head, fresh embeddings each time).
func BenchmarkSelectPlanUncached(b *testing.B) {
	p, _, envs := benchPredictor(b)
	samples, _ := synthetic(40, 28)
	cands := make([]*plan.Plan, 8)
	for i := range cands {
		cands[i] = samples[i].Plan
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.SelectPlanKeyed(cands, envs, encoding.EnvKey{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectPlanCached scores the same recurring 8-candidate set with a
// warm plan cache — the recurring-query serving hot path: every candidate's
// estimate is read from the cache, and no embedding or cost head is computed. The
// candidates are sealed, as the explorer hands them over, so the cache keys
// on the stored fingerprint and no tree walk is timed.
func BenchmarkSelectPlanCached(b *testing.B) {
	p, _, envs := benchPredictor(b)
	samples, _ := synthetic(40, 28)
	cands := make([]*plan.Plan, 8)
	for i := range cands {
		cands[i] = samples[i].Plan.Clone()
		cands[i].Seal()
	}
	p.EnablePlanCache(64)
	key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})
	if _, _, err := p.SelectPlanKeyed(cands, envs, key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.SelectPlanKeyed(cands, envs, key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictCostZeroAlloc is the serving-path allocation regression test,
// over every neural backbone: after warm-up, PredictCost on a binary
// predicate-free plan performs zero heap allocations (scratch comes from the
// pool, encoders and kernels reuse their buffers, and no autograd graph is
// built), and the scoring core — cold, every candidate embedded, and on a
// warm plan cache — allocates only the costs slice it returns. For the TCN
// the cold runs are answered by a warm plan memo, every plan a hit, and a
// pass that runs the forward and stores into an emptied memo, whose arrays
// are kept, or into one that knows half the set, allocates no more. This test owns the fast path's zero-allocation contract (DESIGN.md
// "Static analysis & code contracts").
func TestPredictCostZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 26)
	pl := &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{
		{Op: plan.OpTableScan, Table: "mid", PartitionsRead: 4, ColumnsAccessed: 2},
		{Op: plan.OpTableScan, Table: "big", PartitionsRead: 2, ColumnsAccessed: 3},
	}}}
	cands := make([]*plan.Plan, 8)
	for i := range cands {
		cands[i] = samples[i].Plan
	}
	for _, kind := range []Kind{KindTCN, KindGCN, KindTransformer} {
		p, err := Train(tinyConfig(kind), enc, samples, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		envs := encoding.FixedEnv(p.TrainMeanEnv())
		p.PredictCost(pl, envs) // warm the pooled scratch
		allocs := testing.AllocsPerRun(100, func() { p.PredictCost(pl, envs) })
		if allocs != 0 {
			t.Fatalf("%v: warmed PredictCost allocated %.1f times per run, want 0", kind, allocs)
		}

		// The cold path: every candidate embedded, by the TCN as one forest.
		// Binary plans only — folding an n-ary operator clones the tree.
		var binary []*plan.Plan
		for _, sm := range samples {
			if len(sm.Plan.Root.Children) <= 2 && len(binary) < 8 {
				binary = append(binary, sm.Plan)
			}
		}
		coldSelect := func() {
			if _, _, err := p.SelectPlanKeyed(binary, envs, encoding.EnvKey{}); err != nil {
				t.Fatal(err)
			}
		}
		coldSelect()
		scored, answered := p.PlanMemoStats()
		if allocs := testing.AllocsPerRun(100, coldSelect); allocs > 1 {
			t.Fatalf("%v: warmed unkeyed SelectPlanKeyed allocated %.1f times per run, want at most the returned costs slice", kind, allocs)
		}
		if kind == KindTCN {
			if s2, a2 := p.PlanMemoStats(); s2-scored != a2-answered || a2-answered < 100 {
				t.Fatalf("the warm plan memo answered %d of %d plans", a2-answered, s2-scored)
			}
			first := func() {
				p.ResetPlanMemo()
				coldSelect()
			}
			if allocs := testing.AllocsPerRun(100, first); allocs > 1 {
				t.Fatalf("unkeyed SelectPlanKeyed into an emptied plan memo allocated %.1f times per run, want at most the returned costs slice", allocs)
			}
			half := func() {
				p.ResetPlanMemo()
				if _, _, err := p.SelectPlanKeyed(binary[:len(binary)/2], envs, encoding.EnvKey{}); err != nil {
					t.Fatal(err)
				}
				coldSelect()
			}
			if allocs := testing.AllocsPerRun(100, half); allocs > 2 {
				t.Fatalf("unkeyed SelectPlanKeyed into a memo that knows half the set allocated %.1f times per run, want at most the two returned costs slices", allocs)
			}
		}

		p.EnablePlanCache(64)
		key := p.EnvKeyFor(StrategyMeanEnv, [4]float64{}, [4]float64{})
		warmSelect := func() {
			if _, _, err := p.SelectPlanKeyed(cands, envs, key); err != nil {
				t.Fatal(err)
			}
		}
		warmSelect()
		if allocs := testing.AllocsPerRun(100, warmSelect); allocs > 1 {
			t.Fatalf("%v: warm SelectPlanKeyed allocated %.1f times per run, want at most the returned costs slice", kind, allocs)
		}
	}
}
