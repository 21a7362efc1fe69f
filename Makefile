.PHONY: all build test hot-path-lint campaign-smoke campaign-determinism estimator-smoke trace-smoke events-smoke explore-smoke chaos-smoke bira-smoke resume-determinism perfbench-exact ci profile loc clean

all: build

build:
	dune build

test: build
	dune runtest

# Hot-path lint: the model, march engine, controller, TLB and escape
# sweep run per word op, as do the lane model and lane engine of
# perfbench's re-drive and the controller datapath's words, organization
# and address generator per cycle; the repair loop and its row-TLB
# allocator, the 2D BIRA allocator, fault map and remap tables run per
# repair round and per failing cell; the reliability curves run per
# crossover grid point and the placer per candidate position of every
# compile in an explore sweep; the fault draw (injection, proposal and
# defect-count samplers) and the campaign's trial flow (trial.ml),
# records (record.ml), tally (tally.ml) and fold (campaign.ml) run once
# per trial.  So they must
# not call polymorphic min/max/compare (a compare_val per call) or the
# polymorphic Hashtbl (a caml_hash per call).  The lint parses the
# files, so comments and strings never match; Int.min, Int.compare
# etc. pass.
HOT_PATH = lib/sram/model.ml lib/bist/engine.ml lib/bist/controller.ml \
  lib/bisr/tlb.ml lib/bisr/repair.ml lib/campaign/sweep.ml lib/bira/bira.ml \
  lib/bira/fault_map.ml lib/bira/remap2d.ml lib/sram/lanes.ml \
  lib/bist/lane_engine.ml lib/sram/word.ml lib/sram/org.ml \
  lib/bist/addgen.ml lib/yield/repairable.ml \
  lib/reliability/reliability.ml lib/place_route/placer.ml \
  lib/campaign/campaign.ml lib/campaign/trial.ml lib/campaign/record.ml \
  lib/campaign/tally.ml lib/faults/injection.ml lib/faults/proposal.ml \
  lib/faults/defect.ml

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
# sequential one for the same config and seed — with enough trials to
# form full 62-trial pool items and a ragged tail, at a faulty, a
# mostly-clean, a repair-limited and a rare fault load.  Trials that
# draw no fault resolve to the clean record without simulation; the
# rare pair also runs one side under a --trial-deadline, which every
# trial meets.  The pool-item width axis is test_campaign's "width and
# jobs pairs byte-identical" case.
campaign-determinism: build
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --jobs 1 > .ci-campaign-jobs1.json
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-campaign-jobs2.json
	diff .ci-campaign-jobs1.json .ci-campaign-jobs2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-campaign-sa2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mix stuck-at --jobs 1 > .ci-campaign-sa1.json
	diff .ci-campaign-sa2.json .ci-campaign-sa1.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.4 --jobs 2 > .ci-campaign-p04-2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.4 --jobs 1 > .ci-campaign-p04-1.json
	diff .ci-campaign-p04-2.json .ci-campaign-p04-1.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 3 --jobs 2 > .ci-campaign-p3-2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 3 --jobs 1 > .ci-campaign-p3-1.json
	diff .ci-campaign-p3-2.json .ci-campaign-p3-1.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.01 --jobs 2 > .ci-campaign-rare2.json
	dune exec bin/bisramgen.exe -- campaign --trials 130 --seed 7 \
	  --mode poisson --mean 0.01 --jobs 1 --trial-deadline 60 \
	  > .ci-campaign-rare1.json
	diff .ci-campaign-rare2.json .ci-campaign-rare1.json
	rm -f .ci-campaign-jobs1.json .ci-campaign-jobs2.json \
	  .ci-campaign-sa2.json .ci-campaign-sa1.json \
	  .ci-campaign-p04-2.json .ci-campaign-p04-1.json \
	  .ci-campaign-p3-2.json .ci-campaign-p3-1.json \
	  .ci-campaign-rare2.json .ci-campaign-rare1.json
	@echo "campaign-determinism: OK"

# Rare-event estimation gate.  (1) Adaptive stopping must actually
# save trials: on a rigged low-density config (poisson mean 0.02, zero
# spare rows, so the repair-failure rate is ~0.0198) the stratified
# proposal must reach the CI target in strictly fewer trials than
# naive adaptive sampling.  (2) The importance-weighted report must be
# byte-identical across --jobs counts — the weighted sums accumulate
# in strict trial order, so parallel fan-out must not perturb a single
# float.  (3) An adaptive report (batches of 130 trials, which
# 62-trial pool items do not divide, so the stopping rule fires inside
# an item) must be byte-identical on one domain and on two, since one
# fold counts every trial in trial order; test_estimator's "same report
# at widths 1 and 62" case covers the pool-item width.
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
	  --ci-max-trials 5000 --jobs 1 > .ci-est-ad1.json
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.1 --seed 7 --target-ci 0.25 --ci-batch 130 \
	  --ci-max-trials 5000 --jobs 2 > .ci-est-ad2.json
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

# Explore cache gate (test/dune diffs the jobs-1 golden report): the
# tiny example sweep must reproduce the golden cold on two domains (the
# run's shared evaluations and designs under concurrency), where each
# of its 42 distinct evaluations is computed exactly once and its 18
# repeats are shared, and warm on two domains, resuming from a jobs-1
# run's cache with a hit on every evaluation.
explore-smoke: build
	rm -rf .ci-explore-cache .ci-explore-cold2-cache
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 1 --cache .ci-explore-cache > /dev/null 2>&1
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 2 --cache .ci-explore-cold2-cache > .ci-explore-cold2.json \
	  2> .ci-explore-cold2.err
	grep -q "0 hit(s), 42 miss(es), 18 shared" .ci-explore-cold2.err
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 2 --cache .ci-explore-cache --resume \
	  > .ci-explore-warm.json 2> .ci-explore-warm.err
	cmp .ci-explore-cold2.json test/golden_explore_smoke.json
	cmp .ci-explore-warm.json test/golden_explore_smoke.json
	grep -q "(100.0% hit rate)" .ci-explore-warm.err
	rm -rf .ci-explore-cache .ci-explore-cold2-cache .ci-explore-cold2.json \
	  .ci-explore-cold2.err .ci-explore-warm.json .ci-explore-warm.err
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

# 2D BIRA gate (test/dune diffs the jobs-1 golden reports): (1) every
# BIRA allocator's report must be byte-identical across worker counts
# (test_bira's jobs x lanes case covers pool-item widths), as must the
# 200-trial bira-bnb run, whose 78 escapes would show a shrink memo
# leaking across trials or domains; (2) a bogus --repair name must be
# rejected with the usage exit code (2); (3) every BIRA allocator must
# repair a stuck-at Poisson mean-4 load with 2 spare columns without an
# escape or a divergence: IFA-9 covers that mix fully, and column
# repairs there run the steered words' packed path (--fail-on-anomaly
# exits 3 otherwise).
bira-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 200 --seed 7 \
	  --mode poisson --mean 3 --spare-cols 2 --repair bira-bnb --jobs 2 \
	  | cmp - test/golden_bira_p3.json
	for s in bira-greedy bira-essential bira-bnb; do \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 11 \
	    --mode poisson --mean 3 --spare-cols 2 --repair $$s \
	    --jobs 1 > .ci-bira-$$s-a.json && \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 11 \
	    --mode poisson --mean 3 --spare-cols 2 --repair $$s \
	    --jobs 2 > .ci-bira-$$s-b.json && \
	  diff .ci-bira-$$s-a.json .ci-bira-$$s-b.json || exit 1; \
	done
	dune exec bin/bisramgen.exe -- campaign --repair frobnicate \
	  > /dev/null 2>&1; test $$? -eq 2
	for s in bira-bnb bira-greedy bira-essential; do \
	  dune exec bin/bisramgen.exe -- campaign --trials 300 --seed 7 \
	    --mode poisson --mean 4 --spare-cols 2 --mix stuck-at \
	    --repair $$s --fail-on-anomaly --jobs 1 > /dev/null || exit 1; \
	done
	rm -f .ci-bira-bira-greedy-a.json .ci-bira-bira-greedy-b.json \
	  .ci-bira-bira-essential-a.json .ci-bira-bira-essential-b.json \
	  .ci-bira-bira-bnb-a.json .ci-bira-bira-bnb-b.json
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
# them).  On a mismatch the diff of the pins against the run prints
# first, so the log names the counters that moved; cmp stays the gate.
# A deliberate change in work is re-pinned, with a CHANGES.md
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
	diff test/perfbench_exact.txt .ci-perfbench-exact.txt || true
	cmp .ci-perfbench-exact.txt test/perfbench_exact.txt
	rm -f .ci-perfbench-exact.txt
	@echo "perfbench-exact: OK"

ci: build test hot-path-lint campaign-smoke campaign-determinism estimator-smoke trace-smoke events-smoke explore-smoke chaos-smoke bira-smoke resume-determinism perfbench-exact
	@echo "ci: OK"

# Line counts that the simplicity aim tracks (ROADMAP aim 2): the .ml +
# .mli of bin/ + lib/ and of each lib/ directory, each file the aim
# names, and the test and gate sources (each, then their total).  Run it
# on two commits to compare them; not part of ci.
LOC_FILES = bin/bisramgen.ml lib/campaign/campaign.ml \
  lib/campaign/trial.ml lib/campaign/record.ml lib/campaign/tally.ml \
  lib/sram/model.ml lib/bist/controller.ml
GATE_FILES = $(wildcard test/*.ml) test/dune test/cli_errors.sh Makefile

# Where a repair-limited campaign spends its time (not in ci): a ptrace
# instruction-pointer sampler stops the run every millisecond and prints
# per-function and per-line sample shares.  Shares only, not timings:
# perfbench is the timing harness.
profile: build
	python3 bench/ipsample.py --lines -- _build/default/bin/bisramgen.exe \
	  campaign --mode poisson --mean 3 --trials 8000 --seed 7

loc:
	@printf '%7d  %s\n' $$(cat $$(find bin lib -name '*.ml' -o -name '*.mli') | wc -l) 'bin/ + lib/'
	@for d in lib/*/; do \
	  printf '%7d  %s\n' $$(cat $$(find $$d -name '*.ml' -o -name '*.mli') | wc -l) $$d; \
	done
	@for f in $(LOC_FILES) $(GATE_FILES); do \
	  printf '%7d  %s\n' $$(wc -l < $$f) $$f; \
	done
	@printf '%7d  %s\n' $$(cat $(GATE_FILES) | wc -l) 'test/*.ml + gates'

clean:
	dune clean
