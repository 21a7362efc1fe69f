#!/usr/bin/env bash
# Exact-counter test: two traced runs of one seed, of different lengths,
# must report every *.exact counter bit for bit identically, on every
# workload, and both runs must be correct.  Run from the repository root:
#   bash perfbench/exact_test.sh [SEED]
set -eu
seed=${1:-7}
out=perfbench/_work
mkdir -p "$out"
status=0
for w in campaign-p3 campaign-rare campaign-2d explore-cold; do
  for secs in 1 2; do
    line=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 1 | tail -n 1)
    case "$line" in
      *'"correct": true'*) ;;
      *) echo "exact $w: traced run not correct"; status=1 ;;
    esac
    printf '%s\n' "$line" | grep -o '"[a-z_.]*\.exact": {"value": [^,}]*' > "$out/exact-$w-$secs.txt"
  done
  if cmp -s "$out/exact-$w-1.txt" "$out/exact-$w-2.txt"; then
    echo "exact $w: OK ($(wc -l < "$out/exact-$w-1.txt") counters)"
  else
    echo "exact $w: MISMATCH"
    diff "$out/exact-$w-1.txt" "$out/exact-$w-2.txt" || true
    status=1
  fi
done
exit "$status"
