package analysis

import "strings"

// AllowEntry suppresses findings that are intentional. Every entry must
// carry a Reason — the allowlist is the single place where the repo's
// contracts are consciously waived, so it is reviewed like code. A test
// (TestAllowlistEntriesAllFire) asserts each entry still matches a live raw
// finding, so stale entries are removed rather than accumulating.
type AllowEntry struct {
	// Rule is the analyzer name the entry applies to.
	Rule string
	// PathPrefix matches the module-relative file path by prefix, so an
	// entry can cover one file or a whole package directory.
	PathPrefix string
	// Contains optionally narrows the entry to findings whose message
	// contains this substring ("" matches any finding in the path).
	Contains string
	// Reason documents why the exception is sound. Required.
	Reason string
}

// DefaultAllowlist is the repo's intentional-exception list.
//
// How to add an entry: run `make lint`, copy the finding's path and a
// distinctive message fragment, and write a Reason that argues why the
// contract holds anyway. Entries without a Reason are rejected by Allowed.
func DefaultAllowlist() []AllowEntry {
	return []AllowEntry{
		{
			Rule:       "determinism",
			PathPrefix: "internal/simrand/",
			Contains:   "math/rand",
			Reason: "simrand IS the sanctioned randomness boundary: it wraps math/rand's " +
				"PRNG core behind named, seed-derivable streams; nothing else may import it",
		},
		{
			Rule:       "determinism",
			PathPrefix: "internal/walltime/",
			Contains:   "wall-clock read",
			Reason: "walltime IS the sanctioned wall-clock boundary: metrics-only elapsed-time " +
				"readings that never feed simulated state",
		},
		{
			Rule:       "lockdiscipline",
			PathPrefix: "internal/cluster/cluster.go",
			Contains:   "Cluster.Size",
			Reason: "machines is sized once in New and never resized; len() on it is safe " +
				"without the mutex (documented on the method)",
		},

		// --- allocdiscipline: deliberate seams off the zero-alloc core. The
		// contract the AllocsPerRun tests pin (TestPredictCostZeroAlloc) is
		// the NN steady state: warm scratch, canonical recurring plans, cache
		// hits. Each entry below is a path that allocates by design — cold
		// starts, amortized growth, the XGB backbone, or parallel fan-out —
		// and each argues why the steady state stays clean.
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/encoding/encoding.go",
			Contains:   "in EncodeNode",
			Reason: "per-node vector API kept for the XGB flat path and training; the NN " +
				"fast path uses EncodeNodeInto, which writes into caller scratch",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/encoding/encoding.go",
			Contains:   "in EncodeFlat",
			Reason: "XGB backbone's pooled encoding allocates one vector per plan by design; " +
				"the zero-alloc contract covers the NN Encode*FlatInto path, not XGB",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/encoding/flat.go",
			Contains:   "in addRow",
			Reason: "amortized doubling growth of the flat-encoding scratch: allocation " +
				"happens only while a buffer is still growing toward the workload's max " +
				"plan size, then never again (bench: steady-state AllocsPerRun is zero)",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/expr/expr.go",
			Contains:   "in Clone",
			Reason: "expression clone runs only under plan.Canonicalize's copy-on-write " +
				"path for plans not already canonical; recurring serving plans are " +
				"canonicalized once at explore time",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/plan/plan.go",
			Contains:   "in Clone",
			Reason: "copy-on-write clone taken only when Canonicalize must reorder a " +
				"non-canonical plan; the recurring-query serving path hands over " +
				"already-canonical plans and never clones",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/plan/plan.go",
			Contains:   "in canonicalizeInPlace",
			Reason: "same copy-on-write canonicalization path as Clone: unreachable for " +
				"already-canonical plans, which is what recurring serving traffic is",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/nn/infer.go",
			Contains:   "in Floats",
			Reason: "scratch slab warm-up: Floats allocates a new slab only when the " +
				"arena has never served a request this large; steady state reuses slabs " +
				"(TestPredictCostZeroAlloc pins this)",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/predictor/cache.go",
			Contains:   "in getOrCompute",
			Reason: "singleflight bookkeeping on the cache-miss path only; hits return " +
				"the cached entry with zero allocation, and misses already pay the " +
				"full encode+forward cost the entry amortizes",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/predictor/infer.go",
			Contains:   "in embedRow",
			Reason: "embedding-cache fill: allocates once per (table, env-key) pair on " +
				"first sight, then every later lookup is a copy out of the cache",
		},
		{
			Rule:       "allocdiscipline",
			PathPrefix: "internal/predictor/predictor.go",
			Contains:   "in SelectPlanKeyed",
			Reason: "the per-call costs slice is the documented API result shape of " +
				"SelectPlan and friends; callers own it after return, so it cannot " +
				"come from reused scratch",
		},
	}
}

// Allowed reports whether a finding is suppressed by the allowlist.
// Entries lacking a Reason never match: an exception nobody can justify is
// not an exception.
func Allowed(allow []AllowEntry, f Finding) bool {
	_, ok := AllowedBy(allow, f)
	return ok
}

// AllowedBy returns the index of the first allowlist entry matching the
// finding, feeding both suppression and stale-entry tracking.
func AllowedBy(allow []AllowEntry, f Finding) (int, bool) {
	for i, e := range allow {
		if e.Reason == "" {
			continue
		}
		if e.Rule != f.Rule {
			continue
		}
		if !strings.HasPrefix(f.Pos.Filename, e.PathPrefix) {
			continue
		}
		if e.Contains != "" && !strings.Contains(f.Message, e.Contains) {
			continue
		}
		return i, true
	}
	return -1, false
}
