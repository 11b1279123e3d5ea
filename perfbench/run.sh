#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from anywhere; arguments go to the benchmark, e.g.
#   bash perfbench/run.sh --workload mixed-mem --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache and span files all stay under
# .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --dir "$out" "$@"
