#!/usr/bin/env bash
# Builds the semprox benchmark from the checkout it sits in and runs it.
# Run from anywhere; everything it builds or writes stays under the
# checkout's .bench_build directory, and it never fetches modules:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload cold_batch --seed 1 --seconds 30 --repeat 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
