#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there (the Go build cache included), so a run touches
# nothing outside the checkout. A failed build exits non-zero before any
# result is printed.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
