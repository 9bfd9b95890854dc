#!/usr/bin/env bash
# Non-test Go source lines per package (directory), one line per package
# plus a total: `wc -l` over every *.go that is not *_test.go. bench/ is
# the frozen benchmark harness and is left out, and so are testdata/
# directories, whose Go files are test fixtures the go command ignores.
#
# Run from anywhere:  scripts/loc.sh [root]   (default: the repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
while read -r dir; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	[ "$n" -eq 0 ] && continue
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
	-exec dirname {} + | sort -u)
printf '%6d  total\n' "$total"
