#!/usr/bin/env bash
# Regenerate every committed BENCH_*.json baseline from a live run on the
# current machine. Each suite's timing table and environment block are
# rewritten and its headline timing ratios recomputed; workload
# annotations, prose notes, and structural metrics that come from tests
# rather than timers (BENCH_reduce's sim_counters and structural summary
# ratios, ...) are carried over from the committed file by
# scripts/benchjson.
#
# Run from the repository root:  ./scripts/bench.sh [pattern]
# With a pattern argument only matching baselines regenerate, e.g.
# ./scripts/bench.sh net. Expect several minutes for the full sweep.
# CI does not run this; it re-checks the committed ratios through the
# TTG_BENCH_GUARD=1 guard tests instead.
set -euo pipefail
cd "$(dirname "$0")/.."

want() { [[ "${1}" == *"${PAT}"* ]]; }
PAT="${1:-}"

bench() { go test . -run xxx -bench "$1" "${@:2}" | tee /dev/stderr; }

if want comm; then
  bench Comm -benchtime=100x -benchmem |
    go run ./scripts/benchjson -out BENCH_comm.json \
      -ratio pipelined_broadcast_speedup=BenchmarkCommBroadcastStoreForward:BenchmarkCommBroadcastPipelined
fi

if want data; then
  bench CoW -benchtime=200x -benchmem |
    go run ./scripts/benchjson -out BENCH_data.json -summary headline \
      -ratio shared_read_vs_always_clone_speedup=BenchmarkCoWAlwaysCloneFanout:BenchmarkCoWSharedReadFanout
fi

if want reduce; then
  # All summary ratios are structural (matchop/in-degree counts from the
  # sim tests); only the timing table and environment refresh here.
  bench BenchmarkReduceLocalAccum -benchtime=30x -benchmem |
    go run ./scripts/benchjson -out BENCH_reduce.json
fi

if want wire; then
  bench 'Wire|RecvViewDecode' -benchtime=10x -benchmem |
    go run ./scripts/benchjson -out BENCH_wire.json \
      -ratio gather_vs_copy_256k_ratio=BenchmarkWireCopy/256KB:BenchmarkWireGather/256KB \
      -ratio gather_vs_copy_4m_ratio=BenchmarkWireCopy/4MB:BenchmarkWireGather/4MB \
      -ratio gather_vs_copy_1k_ratio=BenchmarkWireCopy/1KB:BenchmarkWireGather/1KB \
      -ratio view_vs_copy_decode_ratio=BenchmarkRecvViewDecode/copy:BenchmarkRecvViewDecode/view
fi

if want net; then
  { bench 'BenchmarkNet(Gather|Copy)' -benchtime=10x -benchmem
    bench 'BenchmarkNet(PingPong|Bandwidth)' -benchtime=200ms; } |
    go run ./scripts/benchjson -out BENCH_net.json \
      -ratio gather_vs_copy_256k_ratio=BenchmarkNetCopy/256KB:BenchmarkNetGather/256KB \
      -ratio gather_vs_copy_4m_ratio=BenchmarkNetCopy/4MB:BenchmarkNetGather/4MB \
      -ratio gather_vs_copy_16k_ratio=BenchmarkNetCopy/16KB:BenchmarkNetGather/16KB \
      -ratio gather_vs_copy_1k_ratio=BenchmarkNetCopy/1KB:BenchmarkNetGather/1KB \
      -us tcp_pingpong_us=BenchmarkNetPingPong/tcp \
      -us unix_pingpong_us=BenchmarkNetPingPong/unix \
      -maxmbs peak_raw_bandwidth_mb_s=BenchmarkNetBandwidth
fi

echo "bench.sh: done"
