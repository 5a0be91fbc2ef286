GO ?= go

.PHONY: build test race bench-fleet bench-fleet-smoke bench-e2e bench-e2e-smoke bench-go lint lint-fix-hints lint-report chaos chaos-recover verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run exercises the concurrent serving layer (see serve_test.go and
# DESIGN.md's concurrency model); it is part of verification, not optional.
race:
	$(GO) test -race ./...

# bench-fleet runs the multi-tenant fleet-serving experiment (10k synthetic
# tenants + 2 real deployments, zipfian traffic, tenant-skew spike) and writes
# the machine-readable BENCH_fleet.json.
bench-fleet: build
	$(GO) run ./cmd/loam-bench -run fleet -quiet -fleetout BENCH_fleet.json

# bench-fleet-smoke is the tiny-scale CI variant of bench-fleet (100 tenants).
bench-fleet-smoke: build
	$(GO) run ./cmd/loam-bench -run fleet -tiny -quiet -fleetout BENCH_fleet.json

# bench-e2e runs the BENCHMARK.json serving benchmark (bench/README.md): four
# closed-loop workloads end to end — qps, latency, allocs/op, live heap per
# OptimizeCtx / Route / optimize→execute iteration — ~4 min. Performance
# claims are stated in its metric names; `-trace 1` adds the per-layer budget.
bench-e2e:
	bash bench/run.sh

# bench-e2e-smoke is the test-sized scenario (~10 s after the first build):
# every correctness check of the harness plus the four choices_digests, which
# a change that claims no behaviour change must leave as they were.
bench-e2e-smoke:
	bash bench/run.sh -smoke

# bench-go runs the go-test benchmark suite once through.
bench-go:
	$(GO) test -bench=. -benchtime=1x ./...

# lint runs stock go vet plus loam-vet, the repo's own analyzer suite
# (internal/analysis): determinism, lockdiscipline, nansafety, errwrap,
# guarddiscipline, inferencepurity, iodiscipline, and the typed contracts
# allocdiscipline, lockorder and ctxflow. See DESIGN.md "Static analysis &
# code contracts".
#
# Budget: the typed suite (go/types load of every package + call graph + all
# ten analyzers) completes in ~2s wall on the full repo, ~4s including the
# `go run` compile of loam-vet itself. If a change pushes the suite past ~10s,
# treat it as a regression in the analyzer, not a cost of doing business.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/loam-vet ./...

# lint-fix-hints prints a suggested rewrite under each finding.
lint-fix-hints:
	$(GO) run ./cmd/loam-vet -hints ./...

# lint-report writes the machine-readable report (active findings, suppressed
# findings with their allowlist Reasons, stale allowlist entries); CI uploads
# it as an artifact. Exit status matches `lint`: findings or stale entries
# fail.
lint-report:
	$(GO) run ./cmd/loam-vet -json ./... > LINT_report.json

# chaos re-runs the resilience suite — fault injection, circuit-breaker
# transitions, quarantine, forced outages, and the model-lifecycle fault
# scenario (a retrain failing mid-promote must leave the incumbent serving)
# — under the race detector. It overlaps `race` on purpose: a focused, fast
# loop for iterating on the guarded serving layer (see DESIGN.md
# "Degraded-mode serving contract" and "Model lifecycle contract").
chaos:
	$(GO) test -race -count=1 -run 'Guard|Breaker|Quarantine|Fault|Outage|Inject|Lifecycle|SwapScorer' ./...

# chaos-recover is the durability twin of chaos: the kill-point crash sweep,
# the atomic-write primitive, the journal's torn-tail repair, snapshot
# integrity, fsck, and warm restore — under the race detector (see DESIGN.md
# "Durability & recovery contract").
chaos-recover:
	$(GO) test -race -count=1 -run 'Recover|Durable|Journal|Fsck|Atomic|KillPoint|TornTail|Integrity|Restore|Grants' ./...

verify: build lint test race chaos chaos-recover bench-e2e-smoke
