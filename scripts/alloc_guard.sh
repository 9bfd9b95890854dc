#!/usr/bin/env bash
# Reads the output of
#   bash bench/run.sh --workload <name> --seed 1 --seconds 5 --trace 0
# on standard input and fails when alloc_mb_per_run in the final JSON line
# exceeds the given number of MB. Unlike a time, the metric repeats to
# 0.1% from run to run, so it can be held on a shared runner. The holds
# sit between what a workload allocates and what it allocated before the
# change that cut it:
#
#   mra_stream     40   ≈ 14 MB since task bodies compute in borrowed
#                       workspaces; 581 MB when every contraction returned
#                       a fresh tensor
#   bspmm_madness 100   ≈ 71 MB since the MADNESS preset's per-consumer
#                       copies go back to the tile pool after their body;
#                       380 MB when nobody returned them
#   potrf_fine     76   ≈ 61 MB since each match shard is an open-addressed
#                       table of 16-byte slots with the key in the shell
#                       and the Cholesky bodies reuse their broadcast key
#                       lists; 90 MB with Go maps keyed by the 32-byte key
#                       and fresh key lists per TRSM. The schedule moves
#                       it: how far the TRSM panels run ahead decides how
#                       many shells wait.
#
#   ... | bash scripts/alloc_guard.sh mra_stream 40
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: alloc_guard.sh <workload> <max MB>" >&2
	exit 2
fi
name=$1 max=$2
mb=$(tail -n 1 | sed -n 's/.*"alloc_mb_per_run":{"value":\([0-9.eE+-]*\).*/\1/p')
if [ -z "$mb" ]; then
	echo "alloc_guard: no alloc_mb_per_run in the final JSON line" >&2
	exit 1
fi
if awk -v a="$mb" -v m="$max" 'BEGIN { exit !(a > m) }'; then
	echo "alloc_guard: $name allocated $mb MB per run > $max MB: memory this workload used to recycle is garbage again" >&2
	exit 1
fi
echo "alloc_guard: $name alloc_mb_per_run = $mb <= $max"
