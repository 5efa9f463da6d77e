#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it. Everything the build and the run leave behind — the Go
# build cache, the two binaries, scratch data, result.json, trace.json —
# stays under benchmark/out/, so a checkout is only ever written inside
# itself. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_hot_g6 --seed 7 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/benchmark" ./benchmark
exec "$out/bin/benchmark" "$@"
