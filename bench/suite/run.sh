#!/usr/bin/env bash
# Build hqbench from source and run it with the given arguments.
# Run from the repository root:
#   bash bench/suite/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
# The dune build cache is disabled so nothing is written outside the
# checkout; build output goes to stderr, so the last line of stdout is
# the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "hqbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/suite/hqbench.exe 1>&2
exec ./_build/default/bench/suite/hqbench.exe "$@"
