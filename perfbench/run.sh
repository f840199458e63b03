#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload embedded --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, WAL directories, the span log.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The checkout need not be a git repository; never look above it for one.
export GIT_CEILING_DIRECTORIES=$(dirname "$root")
PERFBENCH_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
export PERFBENCH_GIT_REV

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
