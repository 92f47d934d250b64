#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout it is started in, then runs it with the arguments given. The
# binary and, unless GOCACHE is already set, Go's build cache live in
# .bench_build inside the checkout, so a run writes nowhere else; after
# the first build in a checkout the build step is a cache hit.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTOOLCHAIN=local
go build -o "$build/camelot-benchmark" ./benchmark
exec "$build/camelot-benchmark" "$@"
