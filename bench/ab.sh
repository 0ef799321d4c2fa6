#!/usr/bin/env bash
# Same-runner A/B perf gate of this tree against a base revision:
#   bash bench/ab.sh BASE
# Run from the repository root.  BASE is built in a git worktree; then
# each BENCHMARK.json workload runs in 5 pairs of base and head, the
# side that goes first alternating, with --trace 0 for a fixed short
# time.  For every end-to-end metric the script prints each side's
# median and quartiles, and it exits 1 when the head's median is worse
# than the base's by more than the metric's BENCHMARK.json bound, or
# when any run fails its output checks.  Both sides run on this host,
# so no number measured elsewhere enters the verdict.
set -euo pipefail

pairs=5
seconds=2
base_rev=${1:?usage: bash bench/ab.sh BASE}

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base_rev"
head=$PWD

run() { # side workload pair
  local dir=$head
  [ "$1" = base ] && dir=$tmp/base
  (cd "$dir" && bash perfbench/run.sh --workload "$2" --seed 1 --seconds "$seconds" --trace 0) \
    | tail -n 1 >> "$tmp/$1-$2" \
    || { echo "ab: $1 run $3 of $2 failed its output checks" >&2; exit 1; }
}

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
for i in $(seq "$pairs"); do
  for w in $workloads; do
    if [ $((i % 2)) = 1 ]; then run base "$w" "$i"; run head "$w" "$i"
    else run head "$w" "$i"; run base "$w" "$i"; fi
  done
done

report=$(for w in $workloads; do
  jq -n -r -L bench --arg w "$w" --slurpfile bench BENCHMARK.json \
    --slurpfile b "$tmp/base-$w" --slurpfile h "$tmp/head-$w" '
    include "perf";
    ($b | per_metric) as $base | ($h | per_metric) as $head
    | $bench[0].end_to_end[]
    | $base[.name] as $x | $head[.name] as $y
    | ($y.median / $x.median - 1) as $change
    | (if .better == "higher" then -$change else $change end) as $worse
    | [$w, .name, $x.median, $x.q1, $x.q3, $y.median, $y.q1, $y.q3, $change * 100, .bound * 100,
       (if $worse > .bound then "REGRESSION" else "ok" end)]
    | @tsv'
done | awk -F'\t' '{ printf "%-10s %-14s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %+.1f%% (bound %g%%)  %s\n",
  $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11 }')
echo "$report"
if grep -q REGRESSION <<< "$report"; then
  echo "ab: head regressed against $base_rev" >&2
  exit 1
fi
echo "ab: no end-to-end metric regressed against $base_rev beyond its bound"
