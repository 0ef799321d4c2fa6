#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail

# keep dune's shared build cache out of the home directory
export DUNE_CACHE=disabled

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
