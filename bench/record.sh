#!/usr/bin/env bash
# Append this commit's benchmark figures to BENCH_perf.json (schema
# armb-perf-v3), the record of perfbench runs over time:
#   bash bench/record.sh
# Run from the repository root on a quiet host.  Every BENCHMARK.json
# workload runs 5 times with --trace 0 for the benchmark's run_seconds,
# interleaved so a slow spell of the host spreads over all of them.
# Then each workload runs once with --trace 1: its per-layer metrics go
# into the entry, and the first workload's host.kernel_ms, the
# calibration kernel's time, lets entries from different hosts be told
# apart.  The entry is
#   {commit, host_kernel_ms,
#    workloads: {name: {metric: {median, q1, q3, n}}},
#    layers: {name: {metric: value}}}
# A run that fails its output checks stops the script and records nothing.
set -euo pipefail

runs=5
out=BENCH_perf.json

if [ -f "$out" ] && [ "$(jq -r .schema "$out")" != armb-perf-v3 ]; then
  echo "record: $out is not an armb-perf-v3 file" >&2
  exit 2
fi
seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # workload trace
  echo "record: $1 --trace $2" >&2
  bash perfbench/run.sh --workload "$1" --seed 1 --seconds "$seconds" --trace "$2" | tail -n 1
}

for _ in $(seq "$runs"); do
  for w in $workloads; do
    run "$w" 0 >> "$tmp/$w"
  done
done
for w in $workloads; do
  run "$w" 1 > "$tmp/$w.layers"
done
kernel_ms=$(jq '.metrics["host.kernel_ms"].value' "$tmp/${workloads%%$'\n'*}.layers")

for w in $workloads; do
  jq -s -L bench --arg w "$w" 'include "perf"; {($w): per_metric}' "$tmp/$w"
done | jq -s add > "$tmp/workloads"
for w in $workloads; do
  jq --arg w "$w" '{($w): (.metrics | map_values(.value))}' "$tmp/$w.layers"
done | jq -s add > "$tmp/layers"
jq -n --arg commit "$(git rev-parse HEAD)" --argjson k "$kernel_ms" \
  --slurpfile w "$tmp/workloads" --slurpfile l "$tmp/layers" \
  '{commit: $commit, host_kernel_ms: $k, workloads: $w[0], layers: $l[0]}' > "$tmp/entry"

if [ -f "$out" ]; then cat "$out"; else echo '{"schema": "armb-perf-v3", "entries": []}'; fi \
  | jq --slurpfile e "$tmp/entry" '.entries += $e' > "$tmp/out"
mv "$tmp/out" "$out"
echo "record: appended $(git rev-parse --short HEAD) to $out" >&2
