#!/usr/bin/env bash
# CLI error-surface gate.
#
# (1) Every invalid configuration must exit with its documented code
#     (2 for campaign and explore, 1 for compile, selftest and analyze)
#     and print exactly one stderr line, starting "bisramgen: " and
#     naming the offending value.
# (2) With --print-options, print the option header lines (names,
#     aliases, absent= defaults) of `bisramgen <cmd> --help=plain`
#     instead; test/dune diffs them against test/cli_options.txt.
#
# Usage: bash test/cli_errors.sh path/to/bisramgen.exe [--print-options]
set -u
exe=$1

if [ "${2:-}" = "--print-options" ]; then
  for c in compile selftest campaign explore analyze; do
    "$exe" "$c" --help=plain | sed -n "s/^       \(-.*\)$/$c \1/p"
  done
  exit 0
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0

# expect CODE TEXT ARGS...: `bisramgen ARGS` exits CODE and its stderr
# is one "bisramgen: " line containing TEXT (a fixed string).
expect() {
  local code=$1 text=$2
  shift 2
  "$exe" "$@" > /dev/null 2> "$dir/err"
  local got=$?
  if [ "$got" -ne "$code" ] || [ "$(wc -l < "$dir/err")" -ne 1 ] \
    || ! grep -q '^bisramgen: ' "$dir/err" \
    || ! grep -qF -- "$text" "$dir/err"; then
    echo "cli-errors: FAIL: bisramgen $* exited $got (want $code and one" \
      "line naming \"$text\"); stderr:"
    cat "$dir/err"
    fail=1
  fi
}

# campaign: exit 2, "invalid configuration"
expect 2 bogus-mix campaign --mix bogus-mix
expect 2 bogus-mode campaign --mode bogus-mode
expect 2 bogus-repair campaign --repair bogus-repair
expect 2 bogus-metric campaign --ci-metric bogus-metric
expect 2 bogus-pmix campaign --proposal-mix bogus-pmix
expect 2 bogus-level campaign --events-level bogus-level
expect 2 "bad order b" campaign --march 'bogus('
# a deadline must be finite and positive: nan and inf would otherwise
# wrap to a deadline in the past and fail every simulated trial
expect 2 --trial-deadline campaign --trial-deadline nan
expect 2 --trial-deadline campaign --trial-deadline inf
expect 2 --trial-deadline campaign --trial-deadline 0
# a time budget must be finite and positive: a NaN one never stops the
# run and an infinite one is not JSON; a negative checkpoint period
# would write no checkpoint
expect 2 "max_seconds must be finite and > 0 (got nan)" campaign --max-seconds=nan
expect 2 "max_seconds must be finite and > 0 (got inf)" campaign --max-seconds=inf
expect 2 "max_seconds must be finite and > 0 (got 0)" campaign --max-seconds=0
expect 2 "max_seconds must be finite and > 0 (got -1)" campaign --max-seconds=-1
expect 2 "every must be >= 0 (got -1)" campaign --checkpoint-every=-1
# a count model needs a finite mean and alpha: a NaN mean would crash
# the analytic yield and an infinite one never finish a draw
expect 2 "(got nan)" campaign --mode poisson --mean nan
expect 2 "(got inf)" campaign --mode poisson --mean inf
expect 2 "(got inf)" campaign --mode clustered --mean 1 --alpha inf
# a march that fails a fault-free array: zero-fault trials would not be
# clean, so the campaign refuses it before running a trial
expect 2 "u(w0); u(r1)" campaign --march 'u(w0); u(r1)'
expect 2 --proposal-nonzero campaign --proposal-nonzero 0.5 \
  --proposal-count-scale 2

# compile, selftest, analyze: exit 1
for c in compile selftest analyze; do
  expect 1 bogus-proc "$c" --process bogus-proc
  expect 1 "bad order b" "$c" --march 'bogus('
done
printf 'words = 64\nwordz = 64\n' > "$dir/key.cfg"
printf 'words 64\n' > "$dir/noeq.cfg"
printf 'process = bogus-proc\n' > "$dir/proc.cfg"
expect 1 wordz compile -c "$dir/key.cfg"
expect 1 "words 64" compile -c "$dir/noeq.cfg"
expect 1 bogus-proc compile -c "$dir/proc.cfg"

# explore --spec: exit 2
printf 'repair = bogus-repair\n' > "$dir/repair.spec"
printf 'process = bogus-proc\n' > "$dir/proc.spec"
printf 'words 64\n' > "$dir/noeq.spec"
printf 'march = bogus(\n' > "$dir/march.spec"
printf 'words = 64\ncampaign_trials = 2\nmarch = u(w0); u(r1)\n' \
  > "$dir/dirty.spec"
for s in repair:bogus-repair proc:bogus-proc "noeq:words 64" \
  "march:bad order b" "dirty:u(w0); u(r1)"; do
  expect 2 "${s#*:}" explore --spec "$dir/${s%%:*}.spec" \
    --cache "$dir/cache"
done

exit $fail
