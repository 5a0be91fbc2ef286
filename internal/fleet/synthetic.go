package fleet

import (
	"context"
	"sync"

	"loam/internal/query"
	"loam/internal/telemetry"
)

// SyntheticChoice is the outcome a SyntheticTenant serves: enough shape to
// drive fleet-scale experiments (origin, lane, cache behavior) without the
// cost of a trained deployment per tenant.
type SyntheticChoice struct {
	Tenant string
	// Origin mirrors guard.Origin labels: "learned" for admitted traffic,
	// "native-fallback" for shed traffic.
	Origin string
	// CacheHit reports whether the query's template was resident in the
	// tenant's (budget-governed) cache.
	CacheHit bool
	// Shed is true when the admission gate degraded this query.
	Shed bool
	// Cause is the shed cause (wraps ErrTenantThrottled), nil when admitted.
	Cause error
}

// SyntheticTenant is a Backend for fleet-scale experiments: it serves
// instantly, but its plan cache is real — a bounded LRU keyed by query
// template whose capacity is granted (and revoked) by the registry's budget
// governor exactly like a deployment's plan-embedding cache. Two hundred of
// these beside two real deployments (the bench package's fleet workload)
// exercise the registry's routing, admission and budget machinery.
type SyntheticTenant struct {
	name string

	mu      sync.Mutex
	cap     int
	seq     int64
	entries map[string]int64 // template -> last-use sequence

	hits, misses, evictions *telemetry.Counter
}

// NewSyntheticTenant builds a synthetic backend. Cache counters aggregate
// into the shared fleet.synthetic.cache.* instruments on reg (nil-safe):
// per-tenant hit/miss outcomes depend only on that tenant's own request
// order and grant sequence, so the aggregate totals are
// scheduling-independent under parallel-across-tenants traffic.
func NewSyntheticTenant(name string, reg *telemetry.Registry) *SyntheticTenant {
	return &SyntheticTenant{
		name:      name,
		entries:   map[string]int64{},
		hits:      reg.Counter("fleet.synthetic.cache.hits"),
		misses:    reg.Counter("fleet.synthetic.cache.misses"),
		evictions: reg.Counter("fleet.synthetic.cache.evictions"),
	}
}

// OptimizeCtx serves one admitted query: an LRU probe of the template cache.
func (s *SyntheticTenant) OptimizeCtx(ctx context.Context, q *query.Query) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := q.TemplateID
	if key == "" {
		key = q.ID
	}
	s.mu.Lock()
	s.seq++
	hit := false
	if _, ok := s.entries[key]; ok {
		hit = true
		s.entries[key] = s.seq
		s.hits.Inc()
	} else {
		s.misses.Inc()
		if s.cap > 0 {
			s.entries[key] = s.seq
			s.evictOverLocked()
		}
	}
	s.mu.Unlock()
	return &SyntheticChoice{Tenant: s.name, Origin: "learned", CacheHit: hit}, nil
}

// ShedCtx serves one load-shed query from the (synthetic) fallback rung.
func (s *SyntheticTenant) ShedCtx(ctx context.Context, q *query.Query, cause error) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &SyntheticChoice{Tenant: s.name, Origin: "native-fallback", Shed: true, Cause: cause}, nil
}

// CacheLen reports resident entries.
func (s *SyntheticTenant) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SetCacheCapacity applies a budget grant, evicting LRU entries when
// shrinking — the invariant len <= cap holds on exit and is maintained by
// every insert.
func (s *SyntheticTenant) SetCacheCapacity(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cap = n
	s.evictOverLocked()
}

// evictOverLocked evicts least-recently-used entries (ties broken by key,
// which cannot occur for live traffic since sequences are unique) until
// len <= cap. Caller holds mu. The min-reduction over the map is
// order-insensitive, so randomized iteration order cannot change the victim.
func (s *SyntheticTenant) evictOverLocked() {
	for len(s.entries) > s.cap {
		victim := ""
		var vseq int64
		first := true
		for k, sq := range s.entries {
			if first || sq < vseq || (sq == vseq && k < victim) {
				victim, vseq, first = k, sq, false
			}
		}
		delete(s.entries, victim)
		s.evictions.Inc()
	}
}
