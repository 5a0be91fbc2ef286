package analysis

import "testing"

// TestRunReport: Run returns the full report — allowlisted findings are
// absorbed, and entries that match nothing are surfaced as Stale so the CLI
// can fail the build on them.
func TestRunReport(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/p/p.go": `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`})
	allow := []AllowEntry{
		{Rule: "determinism", PathPrefix: "internal/p/", Reason: "fixture exception"},
		{Rule: "determinism", PathPrefix: "internal/q/", Reason: "matches nothing"},
	}
	rep := Run(prog, []*Analyzer{Determinism()}, allow)
	if len(rep.Findings) != 0 {
		t.Fatalf("all findings should be suppressed:\n%s", renderFindings(rep.Findings))
	}
	if len(rep.Stale) != 1 || rep.Stale[0].PathPrefix != "internal/q/" {
		t.Fatalf("Stale = %+v, want exactly the internal/q/ entry", rep.Stale)
	}
}

// TestRunReportTightAllowlist: when every entry matches, Stale is empty.
func TestRunReportTightAllowlist(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/p/p.go": `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`})
	allow := []AllowEntry{{Rule: "determinism", PathPrefix: "internal/p/", Reason: "fixture exception"}}
	rep := Run(prog, []*Analyzer{Determinism()}, allow)
	if len(rep.Stale) != 0 {
		t.Fatalf("Stale = %+v, want empty", rep.Stale)
	}
}

// TestAllowedBy: the index returned is the first matching entry's, and
// reason-less entries never match (they cannot feed stale tracking either).
func TestAllowedBy(t *testing.T) {
	f := Finding{Rule: "nansafety", Message: "raw < comparison"}
	f.Pos.Filename = "internal/x/x.go"
	allow := []AllowEntry{
		{Rule: "nansafety", PathPrefix: "internal/x/"},
		{Rule: "nansafety", PathPrefix: "internal/x/", Reason: "ok"},
	}
	idx, ok := AllowedBy(allow, f)
	if !ok || idx != 1 {
		t.Fatalf("AllowedBy = (%d, %v), want (1, true): entry 0 has no Reason", idx, ok)
	}
	if _, ok := AllowedBy(allow, Finding{Rule: "ctxflow"}); ok {
		t.Fatal("rule mismatch must not match")
	}
}
