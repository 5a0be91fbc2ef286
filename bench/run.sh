#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source into
# .bench_build/ at the checkout root, then run it with the arguments given.
# The Go build cache lives there too, so building, like running, reads and
# writes only inside the checkout. The first call in a checkout compiles the
# standard library (about a minute); later calls only re-check staleness.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/loam-bench" ./bench
exec "$build/loam-bench" "$@"
