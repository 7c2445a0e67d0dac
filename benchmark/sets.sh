#!/usr/bin/env bash
# Two sets of runs of the same code, alternating A and B per workload, for
# `benchmark -agree`: set A uses seeds 1..N, set B seeds 101..100+N.
#
#   benchmark/sets.sh [runs-per-set] [seconds]     (from the repo root)
set -euo pipefail
runs=${1:-10}
seconds=${2:-28}
out=benchmark/out
mkdir -p "$out" .bench_build
go build -o .bench_build/benchmark ./benchmark
rm -f "$out/a.jsonl" "$out/b.jsonl"
for i in $(seq 1 "$runs"); do
	for w in session_real storm_emu scale_emu drive_emu; do
		.bench_build/benchmark --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 -out "$out/a.jsonl" | tail -n 1
		.bench_build/benchmark --workload "$w" --seed "$((100 + i))" --seconds "$seconds" --trace 0 -out "$out/b.jsonl" | tail -n 1
	done
done
.bench_build/benchmark -agree "$out/a.jsonl" "$out/b.jsonl"
