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

func TestRunThm1AndFig15(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tiny", "-quiet", "-run", "thm1,fig15"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Theorem 1") || !strings.Contains(out.String(), "Q-Q") {
		t.Fatalf("output incomplete:\n%s", out.String())
	}
}

// metricsSection extracts the demarcated metrics dump from a full run's
// output; everything around it (wall-clock totals, serving throughput) is
// timing-dependent and excluded from the determinism comparison.
func metricsSection(t *testing.T, s string) string {
	t.Helper()
	_, rest, ok := strings.Cut(s, "==== metrics ====")
	if !ok {
		t.Fatalf("no metrics section in output:\n%s", s)
	}
	body, _, _ := strings.Cut(rest, "\ntotal:")
	return body
}

// counterNames lists the counter names in exposition order.
func counterNames(sec string) []string {
	var names []string
	for _, line := range strings.Split(sec, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "counter" {
			names = append(names, fields[1])
		}
	}
	return names
}

// TestRunGuardMetricsDeterministic is the acceptance check for the guarded
// serving experiment: `-run guard` walks the breaker through trip → cooldown
// → half-open probe → recovery with 100% availability, the guard.* counters
// render in the stable-ordered metrics dump, and two identically-seeded runs
// print byte-identical guard sections and metrics sections.
func TestRunGuardMetricsDeterministic(t *testing.T) {
	bench := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", "guard", "-metrics"}, &out, &errw); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errw.String())
		}
		return out.String()
	}
	first := bench()
	for _, want := range []string{
		"==== guard ====",
		"availability 100%",
		"trip(s)",
		"half-open probe window(s)",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("guard section missing %q:\n%s", want, first)
		}
	}
	sec := metricsSection(t, first)
	for _, want := range []string{
		"counter guard.serve.total 30",
		"counter guard.serve.learned 15",
		"counter guard.fallback.native 15",
		"counter guard.fallback.reason.breaker_open",
		"counter guard.fallback.reason.predictor_error",
		"counter guard.inject.predictor_errors",
		"counter guard.breaker.opened 2",
		"counter guard.breaker.half_opened 2",
		"counter guard.breaker.closed 1",
		"gauge guard.breaker.state",
	} {
		if !strings.Contains(sec, want) {
			t.Fatalf("metrics section missing %q:\n%s", want, sec)
		}
	}
	names := counterNames(sec)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("counters not name-sorted: %q before %q", names[i-1], names[i])
		}
	}
	second := bench()
	guardSection := func(s string) string {
		_, rest, ok := strings.Cut(s, "==== guard ====")
		if !ok {
			t.Fatalf("no guard section:\n%s", s)
		}
		body, _, _ := strings.Cut(rest, "====")
		return body
	}
	if guardSection(second) != guardSection(first) {
		t.Fatalf("same-seed guard sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			guardSection(first), guardSection(second))
	}
	if again := metricsSection(t, second); again != sec {
		t.Fatalf("same-seed metrics sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sec, again)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errw); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunUnknownExperimentFails: a misspelt id, or a retired one that a stale
// script still names, is an error listing the valid ids — not a run that
// selects nothing and exits 0 — and nothing runs before the error.
func TestRunUnknownExperimentFails(t *testing.T) {
	for _, spec := range []string{"nosuch", "perf", "serve", "fig1,pref"} {
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

// TestRunAllRunsTableInOrder pins the dispatch table: `all` runs every entry
// once in table order, that order is the one below, and the committed
// results files — each a run of a subset — list their sections in it.
func TestRunAllRunsTableInOrder(t *testing.T) {
	order := []string{
		"fig1", "table1", "fig5", "fig15", "fig6", "fig7", "fig9", "fig11", "fig10", "fig8",
		"thm1", "ext1", "ext2", "ext3", "fig12", "fig16", "sec73",
		"guard", "lifecycle", "recover", "fleet",
	}
	var table []string
	for _, e := range experimentTable {
		table = append(table, e.id)
	}
	if !slices.Equal(table, order) {
		t.Fatalf("table order %v, want %v", table, order)
	}
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
		}
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

// TestRunLifecycleMetricsDeterministic is the acceptance check for the model
// lifecycle experiment: `-run lifecycle` drives drift → retrain →
// shadow-score → hot-swap → sentinel-tripped rollback with 100% availability
// throughout, the lifecycle.* counters render in the stable-ordered metrics
// dump, and two identically-seeded runs print byte-identical lifecycle and
// metrics sections.
func TestRunLifecycleMetricsDeterministic(t *testing.T) {
	bench := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", "lifecycle", "-metrics"}, &out, &errw); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errw.String())
		}
		return out.String()
	}
	first := bench()
	for _, want := range []string{
		"==== lifecycle ====",
		"availability 100%",
		"promote  -> v2",
		"rollback -> v1",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("lifecycle section missing %q:\n%s", want, first)
		}
	}
	sec := metricsSection(t, first)
	for _, want := range []string{
		"counter lifecycle.feedback.harvested 60",
		"counter lifecycle.drift.signals",
		"counter lifecycle.retrain.runs",
		"counter lifecycle.promote",
		"counter lifecycle.rollback",
		"counter guard.quarantine.trips",
		"counter guard.quarantine.released",
		"gauge model.version",
		"gauge lifecycle.feedback.size",
	} {
		if !strings.Contains(sec, want) {
			t.Fatalf("metrics section missing %q:\n%s", want, sec)
		}
	}
	second := bench()
	lifecycleSection := func(s string) string {
		_, rest, ok := strings.Cut(s, "==== lifecycle ====")
		if !ok {
			t.Fatalf("no lifecycle section:\n%s", s)
		}
		body, _, _ := strings.Cut(rest, "====")
		return body
	}
	if lifecycleSection(second) != lifecycleSection(first) {
		t.Fatalf("same-seed lifecycle sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			lifecycleSection(first), lifecycleSection(second))
	}
	if again := metricsSection(t, second); again != sec {
		t.Fatalf("same-seed metrics sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sec, again)
	}
}

// TestRunRecoverMetricsDeterministic is the acceptance check for the
// kill-point chaos harness: `-run recover` sweeps an injected crash across
// every durable write point of a forced-drift lifecycle run, every point
// recovers to a consistent servable version with 100% post-recovery
// availability, the durable.* counters render in the stable-ordered metrics
// dump, and two identically-seeded runs print byte-identical recover and
// metrics sections.
func TestRunRecoverMetricsDeterministic(t *testing.T) {
	bench := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", "recover", "-metrics"}, &out, &errw); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errw.String())
		}
		return out.String()
	}
	first := bench()
	for _, want := range []string{
		"==== recover ====",
		"post-recovery availability 100%",
		"promote  -> v2",
		"rollback -> v1",
		"restore",
		"redeploy",
		"torn-tail",
		"fsck clean at every point",
		"fleet grants: 3 tenants survive a registry restart",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("recover section missing %q:\n%s", want, first)
		}
	}
	sec := metricsSection(t, first)
	for _, want := range []string{
		"counter durable.checkpoints",
		"counter durable.restores",
		"counter durable.errors 0",
		"counter durable.journal.appends",
		"counter durable.journal.replayed",
		"counter durable.journal.truncated",
		"counter durable.grants.saves",
		"counter durable.grants.restores 1",
		"gauge durable.version",
	} {
		if !strings.Contains(sec, want) {
			t.Fatalf("metrics section missing %q:\n%s", want, sec)
		}
	}
	second := bench()
	recoverSection := func(s string) string {
		_, rest, ok := strings.Cut(s, "==== recover ====")
		if !ok {
			t.Fatalf("no recover section:\n%s", s)
		}
		body, _, _ := strings.Cut(rest, "====")
		return body
	}
	if recoverSection(second) != recoverSection(first) {
		t.Fatalf("same-seed recover sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			recoverSection(first), recoverSection(second))
	}
	if again := metricsSection(t, second); again != sec {
		t.Fatalf("same-seed metrics sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sec, again)
	}
}

// TestRunFleetMetricsDeterministic is the acceptance check for multi-tenant
// fleet serving: `-run fleet` routes zipfian traffic for the synthetic tenant
// fleet plus two real deployments through the sharded registry, survives the
// tenant-skew spike with 100% availability and the cache budget respected at
// every wave boundary, the fleet.* counters render in the stable-ordered
// metrics dump, and two identically-seeded runs print byte-identical fleet
// and metrics sections despite parallel routing.
func TestRunFleetMetricsDeterministic(t *testing.T) {
	bench := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"-tiny", "-quiet", "-run", "fleet", "-metrics"}, &out, &errw); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errw.String())
		}
		return out.String()
	}
	first := bench()
	for _, want := range []string{
		"==== fleet ====",
		"availability 100.0%",
		"warmup", "steady", "spike", "recover",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("fleet section missing %q:\n%s", want, first)
		}
	}
	if strings.Contains(first, "OVER") {
		t.Fatalf("cache budget exceeded at a wave boundary:\n%s", first)
	}
	sec := metricsSection(t, first)
	for _, want := range []string{
		"counter fleet.route.total",
		"counter fleet.admission.admitted",
		"counter fleet.admission.shed",
		"counter fleet.admission.lane.recurring",
		"counter fleet.budget.rebalances 4",
		"counter fleet.route.errors 0",
		"counter fleet.route.unknown_tenant 0",
		"gauge fleet.cache.budget",
		"gauge fleet.tenants.active",
		"timer fleet.route.latency",
	} {
		if !strings.Contains(sec, want) {
			t.Fatalf("metrics section missing %q:\n%s", want, sec)
		}
	}
	second := bench()
	fleetSection := func(s string) string {
		_, rest, ok := strings.Cut(s, "==== fleet ====")
		if !ok {
			t.Fatalf("no fleet section:\n%s", s)
		}
		body, _, _ := strings.Cut(rest, "====")
		return body
	}
	if fleetSection(second) != fleetSection(first) {
		t.Fatalf("same-seed fleet sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			fleetSection(first), fleetSection(second))
	}
	if again := metricsSection(t, second); again != sec {
		t.Fatalf("same-seed metrics sections differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sec, again)
	}
}
