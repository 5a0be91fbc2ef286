package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-tiny", "-quiet", "-run", "fig1,table1"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	s := out.String()
	for _, want := range []string{"==== fig1 ====", "Figure 1", "==== table1 ====", "Table 1", "total:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "Figure 6") {
		t.Fatal("unrequested experiment ran")
	}
}

// TestRunThm1AndFig15 also owns the CLI half of a standing invariant: two
// identically-seeded runs print byte-identical experiment sections and
// -metrics snapshots (everything but the wall-clock total).
func TestRunThm1AndFig15(t *testing.T) {
	bench := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", "thm1,fig15", "-metrics"}, &out, &errw); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errw.String())
		}
		body, _, _ := strings.Cut(out.String(), "\ntotal:")
		return body
	}
	first := bench()
	for _, want := range []string{"Theorem 1", "Q-Q", "==== metrics ====\ncounter "} {
		if !strings.Contains(first, want) {
			t.Fatalf("output missing %q:\n%s", want, first)
		}
	}
	if second := bench(); second != first {
		t.Fatalf("same-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
}

// TestRunRejectsBadFlags: an unknown flag and -h both print the usage on the
// error writer and run nothing; only the unknown flag is an error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		arg     string
		wantErr bool
	}{
		{"-definitely-not-a-flag", true},
		{"-h", false},
	} {
		var out, errw bytes.Buffer
		err := run([]string{c.arg}, &out, &errw)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.arg, err, c.wantErr)
		}
		if !strings.Contains(errw.String(), "Usage of loam-bench") || out.Len() != 0 {
			t.Fatalf("%s: usage not on the error writer alone:\nstdout: %s\nstderr: %s", c.arg, out.String(), errw.String())
		}
	}
}

// TestRunUnknownExperimentFails: a misspelt id, or a retired one that a stale
// script still names, is an error listing the valid ids — not a run that
// selects nothing and exits 0 — and nothing runs before the error.
func TestRunUnknownExperimentFails(t *testing.T) {
	for _, spec := range []string{"nosuch", "perf", "serve", "guard", "lifecycle", "recover", "fleet", "fig1,pref"} {
		var out, errw bytes.Buffer
		err := run([]string{"-tiny", "-quiet", "-run", spec}, &out, &errw)
		if err == nil {
			t.Fatalf("-run %s accepted:\n%s", spec, out.String())
		}
		if !strings.Contains(err.Error(), "all, ") {
			t.Fatalf("-run %s: error does not offer all: %v", spec, err)
		}
		for _, e := range experimentTable {
			if !strings.Contains(err.Error(), " "+e.id) {
				t.Fatalf("-run %s: error does not list %q: %v", spec, e.id, err)
			}
		}
		if out.Len() != 0 {
			t.Fatalf("-run %s ran something before failing:\n%s", spec, out.String())
		}
	}
}

// sectionIDs lists the "==== id ====" headers of a loam-bench output in
// order, the closing metrics section excluded.
func sectionIDs(s string) []string {
	var ids []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "==== ") || !strings.HasSuffix(line, " ====") {
			continue
		}
		if id := strings.TrimSuffix(strings.TrimPrefix(line, "==== "), " ===="); id != "metrics" {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestRunAllRunsTableInOrder pins the dispatch table to the committed results
// files: the table's ids are exactly the sections of results_default.txt and
// results_ext.txt together — what `loam-bench` regenerates is what is
// committed, nothing else — each file lists its sections in table order, and
// `all` runs every entry once in that order.
func TestRunAllRunsTableInOrder(t *testing.T) {
	order := []string{
		"fig1", "table1", "fig5", "fig15", "fig6", "fig7", "fig9", "fig11", "fig10", "fig8",
		"thm1", "ext1", "ext2", "ext3", "fig12", "fig16", "sec73",
	}
	var table []string
	for _, e := range experimentTable {
		table = append(table, e.id)
	}
	if !slices.Equal(table, order) {
		t.Fatalf("table order %v, want %v", table, order)
	}
	var committed []string
	for _, name := range []string{"results_default.txt", "results_ext.txt"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, id := range sectionIDs(string(data)) {
			for next < len(order) && order[next] != id {
				next++
			}
			if next == len(order) {
				t.Fatalf("%s: section %q is not in table order", name, id)
			}
			next++
			committed = append(committed, id)
		}
	}
	slices.Sort(committed)
	slices.Sort(table)
	if !slices.Equal(committed, table) {
		t.Fatalf("committed sections %v, table ids %v: every -run id needs a committed section and vice versa", committed, table)
	}
	if testing.Short() {
		t.Skip("short mode: not running every experiment")
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-tiny", "-quiet"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if got := sectionIDs(out.String()); !slices.Equal(got, order) {
		t.Fatalf("all ran %v, want %v", got, order)
	}
}
