#!/usr/bin/env bash
# Runs every workload untraced, then traced, prints each metric with its
# unit, and fails unless both runs of a workload checked out correct and
# produced the same output digest (tracing must change no result).
# Run from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
secs=${2:-25}
out=.bench_build/perfbench-all
mkdir -p "$out"

digest() { sed -n 's/^record .*"digest":"\([0-9a-f]*\)".*/\1/p' "$1"; }

for w in offline-synth tune-search serve-zipf; do
	for t in 0 1; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace "$t" | tee "$out/$w-$t.txt" | grep -v '^record '
	done
	d0=$(digest "$out/$w-0.txt")
	d1=$(digest "$out/$w-1.txt")
	if [[ -z "$d0" || "$d0" != "$d1" ]]; then
		echo "perfbench: $w: untraced digest '$d0' differs from traced '$d1'" >&2
		exit 1
	fi
	echo "$w: digest $d0 equal traced and untraced"
done
