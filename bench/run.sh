#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout: bash bench/run.sh --workload durable-tcp
# --seed 1 --seconds 10 --trace 0. Everything it writes stays inside the
# checkout: the Go build cache and the binary under .bench_build/, span
# files and scratch journals under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -out "$root/bench/out" "$@"
