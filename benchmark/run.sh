#!/usr/bin/env bash
# Hermetic entry point of the benchmark: builds the benchmark binary from
# source into .bench_build/ inside the checkout (Go's build cache, module
# cache and temp files included, so nothing is read or written outside it
# except the toolchain itself) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload scan-zone --seed 1 --seconds 10 --trace 0
#
# In a directory without the repository's go.mod the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

cd "$root"
go build -C benchmark -o "$build/squatbench" . >&2
exec "$build/squatbench" "$@"
