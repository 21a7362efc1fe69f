.PHONY: all build test hot-path-lint campaign-smoke campaign-determinism estimator-smoke trace-smoke events-smoke explore-smoke chaos-smoke bira-smoke resume-determinism perfbench-exact cli-errors ci clean

all: build

build:
	dune build

test: build
	dune runtest

# Hot-path lint: the model, march engine, controller, TLB and escape
# sweep run per word op, as do the lane model and lane engine of a
# rare-fault campaign and the controller datapath's words, organization
# and address generator per cycle; the 2D BIRA flow, fault map and
# remap tables run per repair round and per failing cell.  So they must
# not call polymorphic min/max/compare (a compare_val per call) or the
# polymorphic Hashtbl (a caml_hash per call).  The lint parses the
# files, so comments and strings never match; Int.min, Int.compare
# etc. pass.
HOT_PATH = lib/sram/model.ml lib/bist/engine.ml lib/bist/controller.ml \
  lib/bisr/tlb.ml lib/campaign/sweep.ml lib/bira/bira.ml \
  lib/bira/fault_map.ml lib/bira/remap2d.ml lib/sram/lanes.ml \
  lib/bist/lane_engine.ml lib/sram/word.ml lib/sram/org.ml \
  lib/bist/addgen.ml

hot-path-lint: build
	dune exec bench/hot_path_lint.exe -- $(HOT_PATH)
	@echo "hot-path-lint: OK"

# Short randomized campaign as a CI gate: the stuck-at mix is fully
# covered by IFA-9, so any escape or oracle divergence is a regression
# (--fail-on-anomaly exits 3 in that case).  Runs on two worker domains
# to exercise the parallel scheduler in CI.
campaign-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --fail-on-anomaly --jobs 2 > /dev/null

# Determinism gate: the parallel report must be byte-identical to the
# sequential one for the same config and seed, and the lane-batched
# scheduler (--batch-lanes 62, the default) must be byte-identical to
# the scalar one (--batch-lanes 1) — with enough trials to form full
# 62-wide batches and a ragged tail, at a faulty, a mostly-clean and a
# repair-limited fault load (clean lanes are the ones the batch engine
# resolves without unpacking, so both paths must be covered; at Poisson
# mean 3 nearly every lane falls back to the scalar flow, where the
# fault-masked model path and the shared oracle run dominate).
campaign-determinism: build
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --jobs 1 > .ci-campaign-jobs1.json
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-campaign-jobs2.json
	diff .ci-campaign-jobs1.json .ci-campaign-jobs2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mix stuck-at --batch-lanes 62 --jobs 2 > .ci-campaign-lanes62.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mix stuck-at --batch-lanes 1 --jobs 1 > .ci-campaign-lanes1.json
	diff .ci-campaign-lanes62.json .ci-campaign-lanes1.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.4 --batch-lanes 62 --jobs 2 \
	  > .ci-campaign-planes62.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.4 --batch-lanes 1 --jobs 1 \
	  > .ci-campaign-planes1.json
	diff .ci-campaign-planes62.json .ci-campaign-planes1.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 3 --batch-lanes 62 --jobs 2 \
	  > .ci-campaign-p3lanes62.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 3 --batch-lanes 1 --jobs 1 \
	  > .ci-campaign-p3lanes1.json
	diff .ci-campaign-p3lanes62.json .ci-campaign-p3lanes1.json
	rm -f .ci-campaign-jobs1.json .ci-campaign-jobs2.json \
	  .ci-campaign-lanes62.json .ci-campaign-lanes1.json \
	  .ci-campaign-planes62.json .ci-campaign-planes1.json \
	  .ci-campaign-p3lanes62.json .ci-campaign-p3lanes1.json
	@echo "campaign-determinism: OK"

# Rare-event estimation gate.  (1) Adaptive stopping must actually
# save trials: on a rigged low-density config (poisson mean 0.02, zero
# spare rows, so the repair-failure rate is ~0.0198) the stratified
# proposal must reach the CI target in strictly fewer trials than
# naive adaptive sampling.  (2) The importance-weighted report must be
# byte-identical across --jobs counts — the weighted sums accumulate
# in strict trial order, so parallel fan-out must not perturb a single
# float.  (3) An adaptive report (batches of 130 trials, which 62-lane
# units do not divide, so the stopping rule fires inside a unit) must
# be byte-identical between the scalar sequential and the lane-batched
# parallel scheduler, since one fold counts every trial in trial order.
estimator-smoke: build
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.02 --seed 7 --jobs 2 --no-shrink \
	  --target-ci 0.25 --ci-batch 992 --ci-max-trials 20000 \
	  --proposal-nonzero 0.5 > .ci-est-strat.json 2> /dev/null
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.02 --seed 7 --jobs 2 --no-shrink \
	  --target-ci 0.25 --ci-batch 992 --ci-max-trials 20000 \
	  > .ci-est-naive.json 2> /dev/null
	@s=$$(sed -n 's/^ *"trials_run": \([0-9]*\),*$$/\1/p' .ci-est-strat.json); \
	n=$$(sed -n 's/^ *"trials_run": \([0-9]*\),*$$/\1/p' .ci-est-naive.json); \
	echo "estimator-smoke: stratified $$s trials vs naive $$n"; \
	test "$$s" -lt "$$n"
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.05 --seed 7 --trials 400 --no-shrink \
	  --proposal-count-scale 10 --jobs 1 > .ci-est-is1.json
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.05 --seed 7 --trials 400 --no-shrink \
	  --proposal-count-scale 10 --jobs 2 > .ci-est-is2.json
	diff .ci-est-is1.json .ci-est-is2.json
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.1 --seed 7 --target-ci 0.25 --ci-batch 130 \
	  --ci-max-trials 5000 --jobs 1 --batch-lanes 1 > .ci-est-ad1.json
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.1 --seed 7 --target-ci 0.25 --ci-batch 130 \
	  --ci-max-trials 5000 --jobs 2 --batch-lanes 62 > .ci-est-ad2.json
	diff .ci-est-ad1.json .ci-est-ad2.json
	rm -f .ci-est-strat.json .ci-est-naive.json .ci-est-is1.json \
	  .ci-est-is2.json .ci-est-ad1.json .ci-est-ad2.json
	@echo "estimator-smoke: OK"

# Telemetry wiring check: a tiny instrumented campaign must produce a
# well-formed Chrome trace and metrics file with the always-present
# keys (trial spans, campaign/model/pool counters, cycle histogram).
trace-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 6 --seed 11 --jobs 2 \
	  --trace .ci-trace-smoke.trace.json \
	  --metrics .ci-trace-smoke.metrics.json > /dev/null
	dune exec bench/trace_check.exe -- --trace .ci-trace-smoke.trace.json \
	  --metrics .ci-trace-smoke.metrics.json
	rm -f .ci-trace-smoke.trace.json .ci-trace-smoke.metrics.json
	@echo "trace-smoke: OK"

# Observability wiring check: a small campaign with the event log,
# live progress and status file armed must (1) produce a JSONL event
# log that strict-parses line by line with exactly one run lifecycle
# pair and a final status snapshot (events_check), and (2) produce a
# report byte-identical to the same run with every observability
# channel off, and (3) a --trace path in a missing directory must only
# warn: the run exits 0 with the same report and still writes its event
# log.  (4) An adaptive campaign over several --ci-batch batches is one
# run, so its log also holds exactly one lifecycle pair.
events-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 --events .ci-events.jsonl --progress \
	  --status-file .ci-status.json > .ci-events-on.json 2> /dev/null
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-events-off.json
	diff .ci-events-on.json .ci-events-off.json
	dune exec bench/events_check.exe -- --events .ci-events.jsonl \
	  --status .ci-status.json
	rm -rf .ci-missing
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 --events .ci-events2.jsonl \
	  --trace .ci-missing/t.json --stats > .ci-events-unwritable.json \
	  2> /dev/null
	cmp .ci-events-unwritable.json .ci-events-off.json
	dune exec bench/events_check.exe -- --events .ci-events2.jsonl
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.1 --seed 7 --target-ci 0.25 --ci-batch 130 \
	  --ci-max-trials 5000 --jobs 2 --events .ci-events3.jsonl \
	  > /dev/null 2> /dev/null
	dune exec bench/events_check.exe -- --events .ci-events3.jsonl
	rm -f .ci-events.jsonl .ci-status.json .ci-events-on.json \
	  .ci-events-off.json .ci-events2.jsonl .ci-events-unwritable.json \
	  .ci-events3.jsonl
	@echo "events-smoke: OK"

# Explore determinism + cache gate: the tiny example sweep must produce
# byte-identical reports sequentially and in parallel, and a second run
# resuming from the first run's cache must hit on every evaluation.
explore-smoke: build
	rm -rf .ci-explore-cache
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 1 --cache .ci-explore-cache > .ci-explore-jobs1.json
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 2 --cache .ci-explore-cache --resume \
	  > .ci-explore-jobs2.json 2> .ci-explore-warm.err
	cmp .ci-explore-jobs1.json test/golden_explore_smoke.json
	diff .ci-explore-jobs1.json .ci-explore-jobs2.json
	grep -q "(100.0% hit rate)" .ci-explore-warm.err
	rm -rf .ci-explore-cache .ci-explore-jobs1.json .ci-explore-jobs2.json \
	  .ci-explore-warm.err
	@echo "explore-smoke: OK"

# Fault-injection gate: with deterministic chaos armed, transient job
# failures must be absorbed by the pool's retry and injected cache
# corruption must quarantine-and-recompute — both byte-identical to the
# clean run (the whole point of the fault-tolerant execution layer).
chaos-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-chaos-clean.json
	BISRAM_CHAOS_SEED=11 BISRAM_CHAOS_JOB=0.2 \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-chaos-faulted.json
	diff .ci-chaos-clean.json .ci-chaos-faulted.json
	rm -rf .ci-chaos-cache
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 1 --cache .ci-chaos-cache > .ci-chaos-explore-cold.json
	BISRAM_CHAOS_SEED=3 BISRAM_CHAOS_CACHE_READ=0.5 \
	  dune exec bin/bisramgen.exe -- explore \
	  --spec examples/explore_smoke.spec --jobs 2 --cache .ci-chaos-cache \
	  --resume > .ci-chaos-explore-heal.json 2> .ci-chaos-explore.err
	diff .ci-chaos-explore-cold.json .ci-chaos-explore-heal.json
	grep -q "cache self-heal" .ci-chaos-explore.err
	rm -rf .ci-chaos-cache .ci-chaos-clean.json .ci-chaos-faulted.json \
	  .ci-chaos-explore-cold.json .ci-chaos-explore-heal.json \
	  .ci-chaos-explore.err
	@echo "chaos-smoke: OK"

# 2D BIRA gate: (1) the default row-TLB report must still match the
# committed golden bytes (test/golden_row_tlb.json) — the BIRA layer
# must be invisible unless asked for — as must the repair-limited
# Poisson mean-3 row-TLB run (test/golden_row_tlb_p3.json), and the
# bira-bnb reports must match test/golden_bira_bnb.json and the
# 200-trial Poisson mean-3 test/golden_bira_p3.json (15 of its trials
# end with a column repair armed, so it pins the steered model); (2)
# every BIRA allocator's report must be byte-identical across worker
# counts and lane widths, since fault-list collection rides the
# batched kernels;
# (3) a bogus --repair name must be rejected with the usage exit code
# (2).
bira-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 --jobs 1 \
	  > .ci-bira-golden.json
	cmp .ci-bira-golden.json test/golden_row_tlb.json
	dune exec bin/bisramgen.exe -- campaign --trials 200 --seed 7 \
	  --mode poisson --mean 3 --jobs 1 > .ci-bira-golden-p3.json
	cmp .ci-bira-golden-p3.json test/golden_row_tlb_p3.json
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 11 \
	  --mode poisson --mean 3 --spare-cols 2 --repair bira-bnb --jobs 1 \
	  > .ci-bira-golden-bnb.json
	cmp .ci-bira-golden-bnb.json test/golden_bira_bnb.json
	dune exec bin/bisramgen.exe -- campaign --trials 200 --seed 7 \
	  --mode poisson --mean 3 --spare-cols 2 --repair bira-bnb --jobs 1 \
	  > .ci-bira-golden-bnb-p3.json
	cmp .ci-bira-golden-bnb-p3.json test/golden_bira_p3.json
	for s in bira-greedy bira-essential bira-bnb; do \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 11 \
	    --mode poisson --mean 3 --spare-cols 2 --repair $$s \
	    --jobs 1 --batch-lanes 1 > .ci-bira-$$s-a.json && \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 11 \
	    --mode poisson --mean 3 --spare-cols 2 --repair $$s \
	    --jobs 2 --batch-lanes 62 > .ci-bira-$$s-b.json && \
	  diff .ci-bira-$$s-a.json .ci-bira-$$s-b.json || exit 1; \
	done
	dune exec bin/bisramgen.exe -- campaign --repair frobnicate \
	  > /dev/null 2>&1; test $$? -eq 2
	rm -f .ci-bira-golden.json .ci-bira-golden-p3.json \
	  .ci-bira-golden-bnb.json .ci-bira-golden-bnb-p3.json \
	  .ci-bira-bira-greedy-a.json \
	  .ci-bira-bira-greedy-b.json .ci-bira-bira-essential-a.json \
	  .ci-bira-bira-essential-b.json .ci-bira-bira-bnb-a.json \
	  .ci-bira-bira-bnb-b.json
	@echo "bira-smoke: OK"

# Crash-recovery gate: a campaign killed mid-run (injected exit 137 at
# trial 25) leaves a checkpoint from which --resume reproduces the
# uninterrupted report byte-for-byte.
resume-determinism: build
	rm -f .ci-resume.ckpt.json
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-resume-full.json
	BISRAM_CHAOS_KILL_TRIAL=25 dune exec bin/bisramgen.exe -- campaign \
	  --trials 60 --seed 7 --mix stuck-at --jobs 2 \
	  --checkpoint .ci-resume.ckpt.json --checkpoint-every 5 \
	  > /dev/null; test $$? -eq 137
	test -s .ci-resume.ckpt.json
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 \
	  --mix stuck-at --jobs 2 --checkpoint .ci-resume.ckpt.json --resume \
	  > .ci-resume-resumed.json 2> .ci-resume.err
	grep -q "resumed" .ci-resume.err
	diff .ci-resume-full.json .ci-resume-resumed.json
	rm -f .ci-resume-full.json .ci-resume-resumed.json .ci-resume.ckpt.json \
	  .ci-resume.err
	@echo "resume-determinism: OK"

# Exact-counter gate: on every perfbench workload, two traced runs of
# one seed and different lengths must be correct and report every
# *.exact work counter (model ops, controller cycles, repair rounds,
# minor words per trial, ...) bit for bit identically, at the default
# seed and at the held-out seed 1999.  The counters must also equal the
# pins in test/perfbench_exact.txt, with zero tolerance (minor words
# depend on the compiler, so the pins hold for the toolchain that wrote
# them).  A deliberate change in work is re-pinned, with a CHANGES.md
# note, by copying the failed run's counters over the pins:
#   cp .ci-perfbench-exact.txt test/perfbench_exact.txt
perfbench-exact: build
	rm -f .ci-perfbench-exact.txt
	for s in 7 1999; do \
	  bash perfbench/exact_test.sh $$s || exit 1; \
	  for w in campaign-p3 campaign-rare campaign-2d explore-cold; do \
	    sed "s/^/$$s $$w /" perfbench/_work/exact-$$w-1.txt \
	      >> .ci-perfbench-exact.txt || exit 1; \
	  done; \
	done
	cmp .ci-perfbench-exact.txt test/perfbench_exact.txt
	rm -f .ci-perfbench-exact.txt
	@echo "perfbench-exact: OK"

# CLI error-surface gate: every invalid flag, config file and explore
# spec exits with its documented code (2 campaign/explore, 1 compile/
# selftest/analyze) and one `bisramgen:` line naming the bad value, and
# the --help=plain option headers of every configuring subcommand match
# test/cli_options.txt (no flag, alias or default drifts).
cli-errors: build
	bash test/cli_errors.sh _build/default/bin/bisramgen.exe
	@echo "cli-errors: OK"

ci: build test hot-path-lint campaign-smoke campaign-determinism estimator-smoke trace-smoke events-smoke explore-smoke chaos-smoke bira-smoke resume-determinism perfbench-exact cli-errors
	@echo "ci: OK"

clean:
	dune clean
