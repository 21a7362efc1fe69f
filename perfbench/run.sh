#!/usr/bin/env bash
# Build the benchmark from source and run it.  Arguments pass through to
# perfbench.exe (see perfbench/BENCHMARK.md).  Run from the repository
# root, e.g.
#   bash perfbench/run.sh --workload campaign-p3 --seed 7 --seconds 25 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a BISRAMGEN checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
