#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory. Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOSUMDB=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
