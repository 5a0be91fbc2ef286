package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
	if got := sectionIDs(tinyAll(t)); !slices.Equal(got, order) {
		t.Fatalf("all ran %v, want %v", got, order)
	}
}

var tinyAllOnce struct {
	sync.Once
	out, stderr string
	err         error
}

// tinyAll returns the output of `loam-bench -tiny -quiet`, every experiment,
// run once for all the tests that read it.
func tinyAll(t *testing.T) string {
	t.Helper()
	o := &tinyAllOnce
	o.Do(func() {
		var out, errw bytes.Buffer
		o.err = run([]string{"-tiny", "-quiet"}, &out, &errw)
		o.out, o.stderr = out.String(), errw.String()
	})
	if o.err != nil {
		t.Fatalf("run: %v\nstderr: %s", o.err, o.stderr)
	}
	return o.out
}

// sections splits a loam-bench output into its sections by id, without what
// a rerun cannot reproduce: the closing wall-clock total and Fig. 9's (a)
// training-time and (c) inference-time rows.
func sections(s string) map[string]string {
	out := map[string]string{}
	id, timed := "", false
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.HasPrefix(line, "==== ") && strings.HasSuffix(line, " ===="):
			id, timed = strings.TrimSuffix(strings.TrimPrefix(line, "==== "), " ===="), false
			continue
		case strings.HasPrefix(line, "total: "):
			id = ""
		case strings.HasPrefix(line, "(a) Training time"), strings.HasPrefix(line, "(c) Avg inference time"):
			timed = true
		case strings.HasPrefix(line, "("):
			timed = false
		case timed:
			continue
		}
		if id != "" {
			out[id] += line + "\n"
		}
	}
	return out
}

// TestResultsSectionsReproduce: every experiment flights on its own fork of
// the executors, so a section's numbers do not depend on which sections ran
// before it — each id run alone prints the same bytes as its section of
// `-run all`, and a subset of the committed results files regenerates by
// itself (`make results`).
func TestResultsSectionsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: not running every experiment")
	}
	if raceEnabled {
		t.Skip("-race: a single-goroutine determinism check, ~5x slower under the detector")
	}
	all := sections(tinyAll(t))
	for _, e := range experimentTable {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", e.id}, &out, &errw); err != nil {
			t.Fatalf("-run %s: %v\nstderr: %s", e.id, err, errw.String())
		}
		alone := sections(out.String())
		if len(alone) != 1 || alone[e.id] == "" {
			t.Fatalf("-run %s printed sections %v", e.id, sectionIDs(out.String()))
		}
		if alone[e.id] != all[e.id] {
			t.Errorf("-run %s alone differs from its section of -run all:\n--- alone ---\n%s--- all ---\n%s",
				e.id, alone[e.id], all[e.id])
		}
	}
}

// TestTinyGolden: at -tiny every section prints what testdata/tiny.golden
// holds, byte for byte, Fig. 9's wall-clock rows and the total aside — a
// refactor that moves any number of any section fails here in seconds, not
// only after the default-scale `make results`, which also regenerates this
// golden.
func TestTinyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: not running every experiment")
	}
	if raceEnabled {
		t.Skip("-race: a single-goroutine determinism check, ~5x slower under the detector")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := tinyAll(t)
	if got, want := sectionIDs(out), sectionIDs(string(golden)); !slices.Equal(got, want) {
		t.Fatalf("sections %v, golden %v", got, want)
	}
	got, want := sections(out), sections(string(golden))
	for _, id := range sectionIDs(out) {
		if got[id] != want[id] {
			t.Errorf("section %s differs from testdata/tiny.golden (make results regenerates it):\n--- got ---\n%s--- golden ---\n%s",
				id, got[id], want[id])
		}
	}
}
