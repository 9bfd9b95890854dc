#!/usr/bin/env bash
# Builds ./bench into a temporary directory, lists the binary with
# `go tool nm -n`, and fails unless every assembly kernel of
# internal/lapack — the TEXT symbols whose names end in AVX2 or AVX512,
# with the `.abi0` suffix nm gives assembly functions — starts at 0 mod 64.
# Each kernel's loop heads are PCALIGN $64, which raises the symbol's
# alignment to 64, so what links before lapack cannot move a kernel off a
# cache-line boundary.
#
# Run from anywhere:  bash scripts/asm_align.sh [root]   (default: the repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bench" ./bench
go tool nm -n "$tmp/bench" >"$tmp/nm"
# An address is 0 mod 64 when its last two hex digits are; they are read
# by hand, since not every awk parses hex.
awk '
	function hex(c) { return index("0123456789abcdef", tolower(c)) - 1 }
	$2 == "T" && $3 ~ /^repro\/internal\/lapack\.[A-Za-z0-9_]*AVX(2|512)\.abi0$/ {
		n++
		off = (16 * hex(substr($1, length($1) - 1, 1)) + hex(substr($1, length($1), 1))) % 64
		printf "%s %s mod 64 = %d\n", $1, $3, off
		if (off != 0) bad++
	}
	END {
		if (n == 0) { print "asm_align: no lapack AVX2/AVX512 kernel in the bench binary" > "/dev/stderr"; exit 1 }
		if (bad) { printf "asm_align: %d of %d kernels not at 0 mod 64\n", bad, n > "/dev/stderr"; exit 1 }
		printf "asm_align: all %d kernels at 0 mod 64\n", n
	}' "$tmp/nm"
