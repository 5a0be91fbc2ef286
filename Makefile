GO ?= go

.PHONY: build test race fuzz-smoke bench-e2e bench-e2e-smoke bench-align lint lint-fix-hints chaos chaos-recover verify

build:
	$(GO) build ./...

# ./bench runs after the other packages, not beside them, as in `race`: its
# TestStageSumMatchesUntracedLatency compares wall-clock stage sums of a
# recurring request with the untraced latency (loam.trace_coverage >= 0.85),
# and on a 2-CPU box it reads 0.70-0.84 when internal/experiments (11 s of
# CPU) shares the machine. By itself it still trips about once in twelve runs,
# at any commit; re-run before looking for a cause.
test:
	$(GO) test $$($(GO) list ./... | grep -v '^loam/bench$$')
	$(GO) test ./bench

# The race run exercises the concurrent serving layer (see serve_test.go and
# DESIGN.md's concurrency model); it is part of verification, not optional.
# ./bench runs after the other packages, not beside them, and without
# TestStageSumMatchesUntracedLatency: the race run is for data races, and that
# test asserts wall-clock shares of a recurring request, which the detector's
# instrumentation moves. With exploration as cheap as it now is,
# predictor.share reads 0.104-0.107 under -race against a 0.1 bound (every run
# fails; explorer.share 0.55 against its 0.5 floor) and 0.03 without it.
# `make test` runs the test un-instrumented.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^loam/bench$$')
	$(GO) test -race -skip '^TestStageSumMatchesUntracedLatency$$' ./bench

# fuzz-smoke runs each native fuzz target for 10 s from its f.Add seeds (there
# are no corpus files): the frame scanner every journal open reads through,
# and predictor.Load on raw bytes and on a well-framed JSON payload. A crasher
# is written to the package's testdata/fuzz and fails the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScanFrames$$' -fuzztime 10s ./internal/atomicio
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/predictor
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPayload$$' -fuzztime 10s ./internal/predictor

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

# bench-align prints where the cold path's hot loops landed in the bench
# binary, modulo a cache line. The same source has read dayroll ±10% between
# two builds because one of them moved from 0 to 32 mod 64 (an edit in any
# package linked earlier shifts them); compare this on both checkouts before
# believing a paired run that moved by that much.
bench-align:
	@test -x .bench_build/loam-bench || bash bench/run.sh -smoke >/dev/null
	@$(GO) tool nm .bench_build/loam-bench | grep -E 'nn\.(\(\*TreeConv\)\.ForwardInfer|\(\*Scratch\)\.sparsify|matmulAccum)$$' | \
		while read -r addr _ sym; do printf '%s  %2d mod 64  %s\n' "$$addr" "$$((0x$$addr % 64))" "$$sym"; done

# lint checks formatting, runs stock go vet, then loam-vet, the repo's own
# analyzer suite (internal/analysis): determinism, nansafety, errwrap,
# guarddiscipline, lockorder, ctxflow and iodiscipline — each the only check
# that catches a violation of its contract; see DESIGN.md "Static analysis &
# code contracts" for the mutation table that decided the set.
#
# Budget: the suite (go/types load of every package + call graph + all seven
# analyzers) completes in ~2s wall on the full repo, ~4s including the
# `go run` compile of loam-vet itself. If a change pushes the suite past ~10s,
# treat it as a regression in the analyzer, not a cost of doing business.
lint:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l . lists:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/loam-vet ./...

# lint-fix-hints prints a suggested rewrite under each finding.
lint-fix-hints:
	$(GO) run ./cmd/loam-vet -hints ./...

# chaos re-runs the resilience suite — fault injection, circuit-breaker
# transitions, quarantine, forced outages, the model-lifecycle fault scenario
# (a retrain failing mid-promote must leave the incumbent serving), the
# fleet's admission shedding and budget invariant (every internal/fleet test,
# the tenant table's reference check and the concurrent control plane
# included), and the plan cache's claim → compute → publish → wait protocol
# (crossing candidate orders, a panic mid-forest) — under the race detector.
# It is a -run subset of `race`, so `verify` does not run it again: a focused,
# fast loop for iterating on the guarded serving layer (see DESIGN.md
# "Degraded-mode serving contract", "Model lifecycle contract" and "Fleet
# serving contract").
chaos:
	$(GO) test -race -count=1 -run 'Guard|Breaker|HalfOpen|RecoveryCycle|Quarantine|Fault|Outage|Inject|Lifecycle|SwapScorer|Fleet|Shed|TelemetryParallel|PlanCache|Forest' ./...
	$(GO) test -race -count=1 ./internal/fleet

# chaos-recover is the durability twin of chaos: the kill-point crash sweep
# (TestKillPointSweepRecoversEveryWrite), the atomic-write primitive, the
# journal's torn-tail repair, snapshot integrity, fsck, and warm restore —
# under the race detector (see DESIGN.md "Durability & recovery contract").
# Like chaos, a developer loop over a subset of `race`, not a `verify` step.
chaos-recover:
	$(GO) test -race -count=1 -run 'Recover|Durable|Journal|Fsck|Atomic|KillPoint|TornTail|Integrity|Restore' ./...

verify: build lint test race fuzz-smoke bench-e2e-smoke
