#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload exec-scan --seed 42 --seconds 12 --trace 0
#
# bench/ is a module of its own (lqs/bench) that replaces lqs with the
# parent directory, so a directory holding only bench/ and BENCHMARK.json
# fails here, at the build. Everything the build writes stays under
# bench/out/ in the checkout: the binary and Go's build cache.
set -euo pipefail

root=$(pwd)
build="$root/bench/out"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/lqs-bench" .
exec "$build/lqs-bench" -root "$root" "$@"
