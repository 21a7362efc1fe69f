#!/usr/bin/env bash
# Every workload end to end, one after another, with its metrics, units
# and failure count.  Run from the repository root:
#   bash perfbench/all.sh [SEED] [SECONDS]
set -eu
for w in campaign-p3 campaign-rare campaign-2d explore-cold; do
  echo "== $w"
  bash perfbench/run.sh --workload "$w" --seed "${1:-7}" --seconds "${2:-25}" --trace 0
done
