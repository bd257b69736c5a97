#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it. BENCHMARK.json's
# command. Everything the build writes (binary, Go build cache, temp files)
# stays under .bench_build at the root of the checkout.
#
#   bash bench/run.sh --workload wan_trial --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh -check A.ndjson B.ndjson
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/pcc-bench" .
cd "$root"
exec "$build/pcc-bench" "$@"
