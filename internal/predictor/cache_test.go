package predictor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loam/internal/encoding"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
)

// Tests of the plan cache's one protocol — claim every candidate, compute
// what the pass owns, publish, only then wait (cache.go) — and of the hazard
// it exists to avoid: a pass that waits while it holds an unpublished claim.
// The race detector does not find deadlocks, so each test that could hang
// runs its body under within, with a timeout as the detector.

var planCacheCaps = []int{0, 1, 3, 64}

// within runs body and, if it has not returned after limit, stops the test
// binary with every goroutine's stack — where each pass is parked is the
// diagnosis.
func within(limit time.Duration, what string, body func()) {
	watchdog := time.AfterFunc(limit, func() {
		panic(fmt.Sprintf("%s: still running after %v — a scoring pass is waiting on an entry nobody will publish", what, limit))
	})
	defer watchdog.Stop()
	body()
}

// cachedTCN trains a tiny TCN with an instrumented plan cache of the given
// capacity (SetPlanCacheCapacity, so 0 installs a cache that retains nothing)
// and returns it with a pool of distinct plans.
func cachedTCN(t *testing.T, seed uint64, capacity int) (*Predictor, []*plan.Plan, encoding.EnvSource) {
	t.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, seed)
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(telemetry.NewRegistry())
	p.SetPlanCacheCapacity(capacity)
	seen := map[uint64]bool{}
	var pool []*plan.Plan
	for _, sm := range samples {
		if fp := sm.Plan.CacheFingerprint(); !seen[fp] {
			seen[fp] = true
			pool = append(pool, sm.Plan)
		}
	}
	return p, pool, encoding.FixedEnv(p.TrainMeanEnv())
}

// TestPlanCacheClaimNeverBlocks walks the interleaving that deadlocks a
// claim pass with a blocking hit path, on one goroutine — so a claim that
// waited would stop the test dead: two passes each own one in-flight entry
// and each then claims the other's, and one claims its own again. Every one
// of those is a hit on the same entry, returned at once. It also pins what
// happens to an in-flight entry a small capacity evicts: it is delivered to
// whoever holds it and is not retained.
func TestPlanCacheClaimNeverBlocks(t *testing.T) {
	a, b := cacheKey{plan: 1}, cacheKey{plan: 2}
	for _, capacity := range planCacheCaps {
		within(10*time.Second, fmt.Sprintf("capacity %d", capacity), func() {
			var tel predictorTelemetry
			c := newPlanCache(capacity, &tel)
			ea, owner := c.claim(a) // pass 1
			if !owner {
				t.Fatal("first claim of A does not own it")
			}
			eb, owner := c.claim(b) // pass 2
			if !owner {
				t.Fatal("first claim of B does not own it")
			}
			if capacity >= 2 {
				for _, k := range []struct {
					key  cacheKey
					want *cacheEntry
				}{{b, eb}, {a, ea}, {a, ea}} { // pass 1 claims B, pass 2 claims A, pass 1 claims A again
					if e, owner := c.claim(k.key); owner || e != k.want {
						t.Fatalf("capacity %d: claim of an in-flight key: owner=%v, same entry=%v", capacity, owner, e == k.want)
					}
				}
			}
			ea.publish(1)
			eb.publish(2)
			<-ea.done
			<-eb.done
			if ea.failed || eb.failed || ea.cost != 1 || eb.cost != 2 {
				t.Fatalf("capacity %d: published entries read back wrong", capacity)
			}
			want := capacity
			if want > 2 {
				want = 2
			}
			if n := c.len(); n != want {
				t.Fatalf("capacity %d: %d entries retained, want %d", capacity, n, want)
			}
		})
	}

	// Capacity 1: a waiter holds A in flight, then B's insert evicts A.
	var tel predictorTelemetry
	c := newPlanCache(1, &tel)
	ea, _ := c.claim(a)
	held, owner := c.claim(a)
	if owner || held != ea {
		t.Fatal("the waiter's claim of in-flight A is not a hit on it")
	}
	eb, _ := c.claim(b)
	ea.publish(1)
	eb.publish(2)
	<-held.done
	if held.failed || held.cost != 1 {
		t.Fatal("an evicted in-flight entry was not delivered to its waiter")
	}
	if _, owner := c.claim(a); !owner {
		t.Fatal("an entry evicted in flight was retained")
	}
}

// TestPlanCacheCrossingOrdersNoDeadlock scores [A, B] and [B, A] from two
// goroutines on one predictor, every round cold (a fresh key), at capacities
// that retain nothing, evict within the pass, and retain everything. With a
// claim pass that blocked on in-flight hits, a round where each goroutine
// claims its first candidate before the other claims its second never ends.
func TestPlanCacheCrossingOrdersNoDeadlock(t *testing.T) {
	for _, capacity := range planCacheCaps {
		p, pool, envs := cachedTCN(t, 41, capacity)
		orders := [2][]*plan.Plan{{pool[0], pool[1]}, {pool[1], pool[0]}}
		want := referenceCosts(p, orders[0], envs)
		within(2*time.Minute, fmt.Sprintf("capacity %d", capacity), func() {
			const rounds = 2000
			// A spin barrier starts each round's two passes together: a
			// channel hand-off would skew them by more than a claim takes.
			var arrived atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						arrived.Add(1)
						for arrived.Load() < int64(2*(r+1)) {
							runtime.Gosched()
						}
						// The key is the caller's word for envs; a fresh one
						// per round makes both passes miss.
						_, costs, err := p.SelectPlanKeyed(orders[g], envs, encoding.EnvKey{Sum: uint64(r), Keyed: true})
						if err != nil {
							t.Error(err)
						} else if math.Float64bits(costs[g]) != math.Float64bits(want[0]) || math.Float64bits(costs[1-g]) != math.Float64bits(want[1]) {
							t.Errorf("capacity %d round %d goroutine %d: costs %v, want %v in its order", capacity, r, g, costs, want)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestPlanCacheDuplicateFingerprintSet: a candidate set may name one plan
// twice (SelectPlanKeyed callers may; the explorer dedupes). The second mention
// is a hit on the pass's own in-flight entry — or, where nothing is
// retained, a second miss — and either way the pass must not wait for itself.
// What is retained is each distinct plan's reference cost.
func TestPlanCacheDuplicateFingerprintSet(t *testing.T) {
	for _, capacity := range planCacheCaps {
		p, pool, envs := cachedTCN(t, 42, capacity)
		key := encoding.FixedEnvKey(p.TrainMeanEnv())
		set := []*plan.Plan{pool[0], pool[1], pool[0], pool[0].Clone(), pool[2], pool[1]}
		want := referenceCosts(p, set, envs)
		within(30*time.Second, fmt.Sprintf("capacity %d", capacity), func() {
			for _, pass := range []string{"cold", "warm"} {
				_, costs, err := p.SelectPlanKeyed(set, envs, key)
				if err != nil {
					t.Fatal(err)
				}
				costsSameBits(t, fmt.Sprintf("capacity %d %s", capacity, pass), want, costs)
			}
		})
		distinct := 3
		if capacity < distinct {
			distinct = capacity
		}
		if n := p.PlanCacheLen(); n != distinct {
			t.Fatalf("capacity %d: %d entries retained, want %d", capacity, n, distinct)
		}
		for i, pl := range set {
			if c, ok := cachedCost(p, pl, key); ok && math.Float64bits(c) != math.Float64bits(want[i]) {
				t.Fatalf("capacity %d: the cache holds %v for candidate %d, the reference %v", capacity, c, i, want[i])
			}
		}
	}
}

// TestPlanCacheMidForestPanic: a compute that panics on the third of five
// candidates — with another pass already waiting on all five — fails every
// entry the dying pass owned: nothing stays in the map, the waiter is
// released, computes locally and returns the right costs, and the next pass
// caches as if nothing had happened.
func TestPlanCacheMidForestPanic(t *testing.T) {
	p, pool, envs := cachedTCN(t, 43, 64)
	key := encoding.FixedEnvKey(p.TrainMeanEnv())
	set := pool[:5]
	costsSameBits(t, "the waiter", referenceCosts(p, set, envs), waitOnDyingOwner(t, p, set, envs, key))
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("%d entries left in the map after their owner died", n)
	}
	if _, _, err := p.SelectPlanKeyed(set, envs, key); err != nil {
		t.Fatal(err)
	}
	if n, m := p.PlanCacheLen(), p.tel.cacheMisses.Value(); n != len(set) || m != 2*int64(len(set)) {
		t.Fatalf("after the failed pass: %d entries, %d misses; want %d and %d", n, m, len(set), 2*len(set))
	}
}

// waitOnDyingOwner scores set twice at once under key: one pass owns every
// entry and panics on the third candidate's root mid-forest, after the other
// pass has claimed all of them — as hits on entries it must wait for. It
// returns the waiter's costs.
func waitOnDyingOwner(t *testing.T, p *Predictor, set []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) []float64 {
	t.Helper()
	reached, release := make(chan struct{}), make(chan struct{})
	poison := set[2].Root
	dying := func(n *plan.Node) ([4]float64, bool) {
		if n == poison {
			close(reached)
			<-release
			panic("environment lookup died mid-forest")
		}
		return envs(n)
	}
	hits := p.tel.cacheHits.Value()
	var costs []float64
	within(30*time.Second, "mid-forest panic", func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() == nil {
					t.Error("the dying pass returned normally")
				}
			}()
			_, _, _ = p.SelectPlanKeyed(set, dying, key)
		}()
		<-reached // every entry claimed and in flight, none published
		go func() {
			defer wg.Done()
			var err error
			if _, costs, err = p.SelectPlanKeyed(set, envs, key); err != nil {
				t.Error(err)
			}
		}()
		for p.tel.cacheHits.Value() < hits+int64(len(set)) { // the waiter has claimed them all
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
	})
	return costs
}

// cachedCost reads the estimate the cache holds for pl under key.
func cachedCost(p *Predictor, pl *plan.Plan, key encoding.EnvKey) (float64, bool) {
	c := p.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[cacheKey{plan: pl.CacheFingerprint(), env: key.Sum}]
	if !ok || !e.final.Load() || e.failed {
		return 0, false
	}
	return e.cost, true
}

// TestPlanCacheKeyedScoringMatchesUnkeyed: scoring through the plan cache
// gives the costs unkeyed scoring gives the same set, bit for bit, on every
// path a candidate can take — all misses, all hits, a mix, a set naming one
// fingerprint three times (and a clone of it), and a waiter whose owner
// panicked mid-forest, which estimates locally. Every entry the cache
// retains holds the cost of its plan.
func TestPlanCacheKeyedScoringMatchesUnkeyed(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 45)
	var pool []*plan.Plan
	seen := map[uint64]bool{}
	for _, sm := range samples {
		if fp := sm.Plan.CacheFingerprint(); !seen[fp] && len(pool) < 8 {
			seen[fp] = true
			pool = append(pool, sm.Plan)
		}
	}
	p, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(telemetry.NewRegistry())
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	key := encoding.FixedEnvKey(p.TrainMeanEnv())
	unkeyed := func(set []*plan.Plan) []float64 {
		_, costs, err := p.SelectPlanKeyed(set, envs, encoding.EnvKey{})
		if err != nil {
			t.Fatal(err)
		}
		return costs
	}
	keyed := func(name string, set []*plan.Plan) {
		t.Helper()
		_, costs, err := p.SelectPlanKeyed(set, envs, key)
		if err != nil {
			t.Fatal(err)
		}
		want := unkeyed(set)
		costsSameBits(t, name, want, costs)
		for i, pl := range set {
			if c, ok := cachedCost(p, pl, key); ok && math.Float64bits(c) != math.Float64bits(want[i]) {
				t.Fatalf("%s: the cache holds %v for candidate %d, which costs %v", name, c, i, want[i])
			}
		}
	}
	count := func() [2]int64 { return [2]int64{p.tel.cacheHits.Value(), p.tel.cacheMisses.Value()} }

	p.EnablePlanCache(64)
	before := count()
	keyed("all-miss", pool)
	keyed("all-hit", pool)
	if got, want := count(), [2]int64{before[0] + int64(len(pool)), before[1] + int64(len(pool))}; got != want {
		t.Fatalf("hits/misses %v after a cold and a warm pass, want %v", got, want)
	}

	p.EnablePlanCache(64)
	keyed("half", pool[:len(pool)/2])
	keyed("mixed", pool)

	p.EnablePlanCache(64)
	keyed("repeated fingerprint", []*plan.Plan{pool[0], pool[1], pool[0], pool[0].Clone(), pool[2], pool[0]})

	p.EnablePlanCache(64)
	costsSameBits(t, "waiter of a dying owner", unkeyed(pool[:5]), waitOnDyingOwner(t, p, pool[:5], envs, key))
	if n := p.PlanCacheLen(); n != 0 {
		t.Fatalf("%d entries left after their owner died", n)
	}
}

// lruModel is the counter oracle: the textbook per-candidate lookup — hit:
// move to front; miss: insert at front, evict from the back while over
// capacity — with no notion of passes, claims or in-flight entries.
type lruModel struct {
	capacity                int
	order                   []cacheKey // most recent first
	hits, misses, evictions int64
}

func (m *lruModel) lookup(k cacheKey) {
	for i, have := range m.order {
		if have == k {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = k
			m.hits++
			return
		}
	}
	m.misses++
	m.order = append([]cacheKey{k}, m.order...)
	for len(m.order) > m.capacity {
		m.order = m.order[:len(m.order)-1]
		m.evictions++
	}
}

// TestPlanCacheCountersMatchPerCandidateReference: claiming a whole set
// before computing any of it must not show in the telemetry. Over a seeded
// sequence of candidate sets — repeats across sets, repeats within a set —
// the hits / misses / evictions / size trace after every set equals the one
// looking the candidates up one by one produces.
func TestPlanCacheCountersMatchPerCandidateReference(t *testing.T) {
	for _, capacity := range planCacheCaps {
		p, pool, envs := cachedTCN(t, 44, capacity)
		key := encoding.FixedEnvKey(p.TrainMeanEnv())
		model := lruModel{capacity: capacity}
		rng := simrand.New(uint64(capacity) + 7)
		for step := 0; step < 200; step++ {
			set := make([]*plan.Plan, 1+rng.Intn(6))
			for i := range set {
				set[i] = pool[rng.Intn(8)]
				model.lookup(cacheKey{plan: set[i].CacheFingerprint(), env: key.Sum})
			}
			if _, _, err := p.SelectPlanKeyed(set, envs, key); err != nil {
				t.Fatal(err)
			}
			got := [4]int64{p.tel.cacheHits.Value(), p.tel.cacheMisses.Value(), p.tel.cacheEvictions.Value(), int64(p.tel.cacheSize.Value())}
			if want := [4]int64{model.hits, model.misses, model.evictions, int64(len(model.order))}; got != want {
				t.Fatalf("capacity %d step %d: hits/misses/evictions/size %v, per-candidate reference %v", capacity, step, got, want)
			}
			if n := p.PlanCacheLen(); n != len(model.order) {
				t.Fatalf("capacity %d step %d: %d entries, reference %d", capacity, step, n, len(model.order))
			}
		}
	}
}
