#!/usr/bin/env bash
# Reads the output of
#   bash bench/run.sh --workload potrf_tcp --seed 1 --seconds 5 --trace 1
# on standard input and fails when scale.eff_2r (1-rank time ÷ 2 × 2-rank
# time) is below 0.6: the two ranks are taking turns again instead of
# overlapping (0.47 when sends waited for the rank to go idle, 0.90 since
# they leave with the task that produced them). A 1-CPU runner cannot tell
# the two apart; the harness says UNRESOLVED there and the guard skips.
set -euo pipefail
min=0.6
out=$(cat)
if grep -q UNRESOLVED <<<"$out"; then
	echo "overlap_guard: harness reported UNRESOLVED (fewer than 2 CPUs); skipped"
	exit 0
fi
eff=$(tail -n 1 <<<"$out" | sed -n 's/.*"scale\.eff_2r":{"value":\([0-9.eE+-]*\).*/\1/p')
if [ -z "$eff" ]; then
	echo "overlap_guard: no scale.eff_2r in the final JSON line" >&2
	exit 1
fi
if awk -v e="$eff" -v m="$min" 'BEGIN { exit !(e < m) }'; then
	echo "overlap_guard: scale.eff_2r = $eff < $min: the ranks of potrf_tcp no longer overlap" >&2
	exit 1
fi
echo "overlap_guard: scale.eff_2r = $eff >= $min"
