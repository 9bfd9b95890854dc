#!/usr/bin/env bash
# Builds ./bench into a temporary directory, lists the binary with
# `go tool nm -n`, and fails unless every assembly kernel of
# internal/lapack starts at 0 mod 64. The kernels are the TEXT symbols of
# internal/lapack/kernels_amd64.s other than the feature probes cpuid and
# xgetbv0; each must be in the binary, as `repro/internal/lapack.NAME.abi0`
# (the suffix nm gives assembly functions), so a kernel the linker drops
# or one named in no particular way is not skipped unchecked. Each
# kernel's loop heads are PCALIGN $64, which raises the symbol's alignment
# to 64, so what links before lapack cannot move a kernel off a
# cache-line boundary.
#
# Run from anywhere:  bash scripts/asm_align.sh [root]   (default: the repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
sed -n 's/^TEXT ·\([A-Za-z0-9_]*\)(SB).*/\1/p' internal/lapack/kernels_amd64.s |
	grep -vx -e cpuid -e xgetbv0 >"$tmp/kernels"
go build -o "$tmp/bench" ./bench
go tool nm -n "$tmp/bench" >"$tmp/nm"
# An address is 0 mod 64 when its last two hex digits are; they are read
# by hand, since not every awk parses hex.
awk '
	function hex(c) { return index("0123456789abcdef", tolower(c)) - 1 }
	FNR == NR { want[$1] = 1; n++; next }
	$2 == "T" && match($3, /^repro\/internal\/lapack\.[A-Za-z0-9_]*\.abi0$/) {
		name = substr($3, 23, length($3) - 27)
		if (!(name in want) || (name in seen)) next
		seen[name] = 1
		off = (16 * hex(substr($1, length($1) - 1, 1)) + hex(substr($1, length($1), 1))) % 64
		printf "%s %s mod 64 = %d\n", $1, $3, off
		if (off != 0) bad++
	}
	END {
		if (n == 0) { print "asm_align: no kernel TEXT in internal/lapack/kernels_amd64.s" > "/dev/stderr"; exit 1 }
		for (k in want) if (!(k in seen)) { printf "asm_align: kernel %s is not in the bench binary\n", k > "/dev/stderr"; missing++ }
		if (missing || bad) { printf "asm_align: %d of %d kernels missing, %d not at 0 mod 64\n", missing, n, bad > "/dev/stderr"; exit 1 }
		printf "asm_align: all %d kernels at 0 mod 64\n", n
	}' "$tmp/kernels" "$tmp/nm"
