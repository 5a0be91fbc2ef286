package predictor

import (
	"sync"
	"sync/atomic"

	"loam/internal/plan"
)

// planCache is a bounded LRU of cost estimates keyed by the plan's structural
// fingerprint plus the environment key — the two inputs that fully determine
// a backbone embedding, and so the cost head's output on it: the head scores
// each embedding on its own (Predictor.estimate). Weights are fixed per
// deployed predictor; deployment replaces the cache wholesale, which is the
// invalidation rule.
//
// It is a singleflight cache: the first scoring pass to miss a key inserts an
// in-flight entry and owns its computation; a lookup that finds an entry —
// final or in flight — counts as a hit and reads the entry once its done
// channel closes, instead of recomputing. That keeps hit/miss totals a
// function of the request sequence alone, not of scheduling — required by the
// deterministic-telemetry contract. Eviction is strict LRU from the tail of
// an intrusive list, so with a fixed request order the eviction sequence is
// deterministic too.
//
// One protocol (Predictor.scoreCached): claim every candidate; compute the
// entries this pass owns; publish them; only then wait on entries another
// pass owns. Lookups, inserts and evictions so happen in the order
// per-candidate lookups would make them. claim never blocks, and a pass never
// waits while it holds an unpublished claim — two passes scoring [A, B] and
// [B, A] would otherwise each hold one entry and wait for the other's, and a
// set that repeats a fingerprint for itself.
type planCache struct {
	mu   sync.Mutex
	cap  int
	m    map[cacheKey]*cacheEntry
	head *cacheEntry // most recently used
	tail *cacheEntry // least recently used
	tel  *predictorTelemetry
}

// cacheKey identifies one estimate: the env-independent structural plan
// fingerprint and the EnvKey sum of a keyed environment source.
type cacheKey struct {
	plan uint64
	env  uint64
}

type cacheEntry struct {
	key    cacheKey
	cost   float64       // the denormalized estimate, as Predictor.score returns it
	done   chan struct{} // closed once cost is final (or the compute failed)
	failed bool          // set before close(done) if the compute panicked
	// final is set, after cost or failed, just before done closes: a reader
	// that loads it true reads the entry without a blocking receive.
	final      atomic.Bool
	prev, next *cacheEntry
}

func newPlanCache(capacity int, tel *predictorTelemetry) *planCache {
	return &planCache{
		cap: capacity,
		m:   make(map[cacheKey]*cacheEntry, capacity),
		tel: tel,
	}
}

// list ops — caller holds mu.

func (c *planCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *planCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *planCache) moveFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// claim looks key up and never blocks. A present entry — final or in flight,
// another pass's or this pass's own earlier claim — is a hit: counted, moved
// to the LRU front, returned with owner false; cost may be read once done has
// closed (and is computed locally if the entry failed). An absent key is a
// miss: counted, inserted in flight at the front, the tail evicted while over
// capacity — possibly the new entry itself — and the caller owns it: it must
// publish or fail it before it waits on anything. A lookup hits iff the key
// was present at lookup time, so totals do not vary with the interleaving of
// *distinct* keys.
func (c *planCache) claim(key cacheKey) (e *cacheEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claimLocked(key)
}

// claimAll claims each candidate's key — its fingerprint under env — in
// order, exactly as claim would one at a time, under one acquisition of mu.
// It appends every entry to s.entries and those it owns, with their plans, to
// s.owned and s.ownedPlans.
func (c *planCache) claimAll(s *inferScratch, cands []*plan.Plan, env uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pl := range cands {
		e, owner := c.claimLocked(cacheKey{plan: pl.CacheFingerprint(), env: env})
		s.entries = append(s.entries, e)
		if owner {
			s.owned = append(s.owned, e)
			s.ownedPlans = append(s.ownedPlans, pl)
		}
	}
}

// claimLocked is claim with mu held.
func (c *planCache) claimLocked(key cacheKey) (e *cacheEntry, owner bool) {
	if e, ok := c.m[key]; ok {
		c.moveFront(e)
		c.tel.cacheHits.Inc()
		return e, false
	}
	e = &cacheEntry{key: key, done: make(chan struct{})}
	c.m[key] = e
	c.pushFront(e)
	c.tel.cacheMisses.Inc()
	for len(c.m) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.tel.cacheEvictions.Inc()
	}
	c.tel.cacheSize.Set(float64(len(c.m)))
	return e, true
}

// publish makes cost the entry's final value and releases its waiters. An
// entry evicted or flushed while in flight is still delivered to whoever
// holds it; it is just no longer retained.
func (e *cacheEntry) publish(cost float64) {
	e.cost = cost
	e.final.Store(true)
	close(e.done)
}

// wait returns once the entry is final: at once if it already is.
func (e *cacheEntry) wait() {
	if !e.final.Load() {
		<-e.done
	}
}

// fail gives up an owned entry whose computation died: it leaves the map
// (unless eviction already took it) and its waiters compute locally.
func (c *planCache) fail(e *cacheEntry) {
	c.mu.Lock()
	if c.m[e.key] == e {
		c.unlink(e)
		delete(c.m, e.key)
		c.tel.cacheSize.Set(float64(len(c.m)))
	}
	c.mu.Unlock()
	e.failed = true
	e.final.Store(true)
	close(e.done)
}

// setCapacity resizes the cache in place. Shrinking evicts strict-LRU tail
// entries (counted as evictions) under the same lock that decides hits and
// misses, so a resize interleaved with a fixed per-key request order still
// yields scheduling-independent counter totals. Unlike a fresh cache it keeps
// every surviving entry, which is what lets an external budget governor
// shrink a cold tenant without discarding its hot head. capacity < 0 clamps
// to 0: the cache stays installed but retains nothing.
func (c *planCache) setCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	for len(c.m) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.tel.cacheEvictions.Inc()
	}
	c.tel.cacheSize.Set(float64(len(c.m)))
}

// capacity reports the current entry budget.
func (c *planCache) capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// flush drops every entry. In-flight computations complete and deliver to
// their waiters but are no longer retained.
func (c *planCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[cacheKey]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
	c.tel.cacheFlushes.Inc()
	c.tel.cacheSize.Set(0)
}

// len reports the current entry count (including in-flight entries).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
