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
