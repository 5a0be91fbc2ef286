package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRepoIsClean runs the real binary path against the repository itself:
// `make verify` relies on this exiting 0.
func TestRepoIsClean(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"../.."}); code != 0 {
		t.Fatalf("loam-vet on repo exited %d:\n%s%s", code, out.String(), errw.String())
	}
}

// TestSeededViolations proves each analyzer catches a planted violation with
// a non-zero exit — the acceptance check from ISSUE.md.
func TestSeededViolations(t *testing.T) {
	tests := []struct {
		rule  string
		files map[string]string
		want  string
	}{
		{
			rule: "determinism",
			files: map[string]string{"internal/p/p.go": `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`},
			want: "[determinism]",
		},
		{
			rule: "nansafety",
			files: map[string]string{"internal/p/p.go": `package p
func Better(cost, bestCost float64) bool { return cost < bestCost }
`},
			want: "[nansafety]",
		},
		{
			rule: "errwrap",
			files: map[string]string{"internal/p/p.go": `package p
import "fmt"
func Wrap(err error) error { return fmt.Errorf("load state: %v", err) }
`},
			want: "[errwrap]",
		},
		{
			rule: "lockorder",
			files: map[string]string{"internal/p/p.go": `package p
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
func (a *A) One() {
	a.mu.Lock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
func (b *B) Two() {
	b.mu.Lock()
	b.a.mu.Lock()
	b.a.mu.Unlock()
	b.mu.Unlock()
}
`},
			want: "[lockorder]",
		},
		{
			rule: "ctxflow",
			files: map[string]string{"internal/p/p.go": `package p
import "context"
func Go() context.Context { return context.Background() }
`},
			want: "[ctxflow]",
		},
	}
	for _, tc := range tests {
		t.Run(tc.rule, func(t *testing.T) {
			root := writeModule(t, tc.files)
			var out, errw bytes.Buffer
			code := run(&out, &errw, []string{"-rules", tc.rule, root})
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out.String())
			}
		})
	}
}

func TestHintsMode(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": `package p
import "math/rand"
func Roll() int { return rand.Intn(6) }
`})
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-hints", root}); code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "hint:") {
		t.Fatalf("-hints output has no hint line:\n%s", out.String())
	}
}

func TestListAndBadRules(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-list"}); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, rule := range []string{"determinism", "nansafety", "errwrap", "guarddiscipline", "lockorder", "ctxflow", "iodiscipline"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %q:\n%s", rule, out.String())
		}
	}
	// Any name that is not an analyzer fails the run before anything is
	// checked — alone, mixed with valid names, or retired.
	for _, rules := range []string{"nosuch", "determinism,typo", "allocdiscipline,errwrap", "inferencepurity", "lockdiscipline"} {
		out.Reset()
		errw.Reset()
		if code := run(&out, &errw, []string{"-rules", rules, "../.."}); code != 2 {
			t.Fatalf("-rules %s exit = %d, want 2", rules, code)
		}
		if !strings.Contains(errw.String(), "valid: determinism, nansafety, errwrap, guarddiscipline, lockorder, ctxflow, iodiscipline") {
			t.Fatalf("-rules %s error does not list the valid names:\n%s", rules, errw.String())
		}
		if out.Len() != 0 {
			t.Fatalf("-rules %s ran analyzers before failing:\n%s", rules, out.String())
		}
	}
}

// TestTypeErrorFailsRun: a tree that does not type-check is a tool error
// (exit 2), not a clean or a weaker run.
func TestTypeErrorFailsRun(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": `package p
func F() int { return missing }
`})
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{root}); code != 2 {
		t.Fatalf("exit = %d, want 2:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "type-check fixture/internal/p") {
		t.Fatalf("error does not name the package:\n%s", errw.String())
	}
}

// TestStaleAllowlistFailsRun: on a module where no allowlist entry matches
// anything, the stale entries alone force exit 1 — suppressions that suppress
// nothing are bugs waiting to hide the next real finding.
func TestStaleAllowlistFailsRun(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": `package p
func F() int { return 1 }
`})
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{root})
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stale allowlist):\n%s%s", code, out.String(), errw.String())
	}
	// Each stale entry is printed with what to do about it, then the count.
	if n := strings.Count(out.String(), "stale allowlist entry: rule=determinism"); n != 2 {
		t.Fatalf("want both determinism entries reported stale, got %d:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "loam-vet: 2 stale allowlist entries") {
		t.Fatalf("stale summary missing:\n%s", out.String())
	}
}
