#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it with the arguments given. The binary and Go's build cache stay
# under .bench_build/ in the checkout, so nothing outside it is written;
# a second run finds both there and rebuilds only what changed.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the harness builds only inside a checkout of the repository" >&2
	exit 1
fi
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
