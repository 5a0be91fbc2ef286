package fleet

import "sort"

// This file is the registry's control plane for shared resources: Tick
// restores admission headroom between traffic waves, and Rebalance
// re-divides the global plan-cache budget by observed traffic. Both are
// deterministic — integer arithmetic, sorted tenant order, logical clocks —
// so same-seed experiment runs produce identical grant sequences and
// identical fleet.cache.* gauges.

// Tick advances the fleet's logical admission clock by one step: every
// tenant's bucket refills by RefillPerTick (capped at Burst). Call it
// between traffic waves; per-tenant refills are independent, so order does
// not matter.
func (r *Registry) Tick() {
	r.tel.ticks.Inc()
	for _, t := range r.table.Load().sorted {
		t.refill(t.adm.RefillPerTick)
	}
}

// Rebalance re-divides the global cache budget across tenants in proportion
// to each tenant's serve count since the previous rebalance — hot projects
// earn cache, cold ones shrink — and applies the new grants to the backends
// (shrinking backends evict their LRU tail down to the grant). With no
// traffic at all since the last call, every tenant weighs equally.
//
// The division is exact and deterministic: floor(budget·w/W) per tenant in
// sorted name order, with the remainder distributed one entry at a time to
// the heaviest tenants (name-ordered among ties). Grants are applied under
// the registry lock, so cache evictions triggered by shrinking are
// serialized with table swaps.
func (r *Registry) Rebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tel.rebalances.Inc()

	ts := r.table.Load().sorted
	if len(ts) == 0 {
		r.granted = 0
		r.tel.grantedGauge.Set(0)
		return
	}

	weights := make([]int64, len(ts))
	var total int64
	for i, t := range ts {
		weights[i] = t.takeServed()
		total += weights[i]
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1
		}
		total = int64(len(ts))
	}

	budget := int64(r.cfg.CacheBudget)
	grants := make([]int, len(ts))
	var given int64
	for i := range ts {
		g := budget * weights[i] / total
		grants[i] = int(g)
		given += g
	}
	// Distribute the flooring remainder to the heaviest tenants, one entry
	// each; ties break by name order (ts is name-sorted, and the sort is
	// stable).
	rem := int(budget - given)
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	for k := 0; k < rem && k < len(order); k++ {
		grants[order[k]]++
	}

	granted := 0
	for i, t := range ts {
		granted += grants[i]
		if grants[i] == t.grant {
			continue
		}
		t.setGrant(grants[i])
		r.tel.grantChanges.Inc()
	}
	r.granted = granted
	r.tel.grantedGauge.Set(float64(granted))
}

// BudgetStatus is a point-in-time view of the global cache budget.
type BudgetStatus struct {
	// Budget is the configured global entry budget.
	Budget int
	// Granted is the sum of live grants (invariant: Granted <= Budget).
	Granted int
	// Entries is the sum of live cache entries across backends (invariant:
	// Entries <= Granted when the fleet is quiescent; each backend holds
	// len <= cap at all times, so Entries <= Granted also holds at every
	// concurrent snapshot).
	Entries int
	// Tenants is the live tenant count.
	Tenants int
}

// Budget reports the current budget status and refreshes the
// fleet.cache.entries gauge.
func (r *Registry) Budget() BudgetStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.table.Load().sorted
	entries := 0
	for _, t := range ts {
		entries += t.backend.CacheLen()
	}
	st := BudgetStatus{
		Budget:  r.cfg.CacheBudget,
		Granted: r.granted,
		Entries: entries,
		Tenants: len(ts),
	}
	r.tel.entriesGauge.Set(float64(entries))
	return st
}
