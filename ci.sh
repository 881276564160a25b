#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
#
#   ./ci.sh
#
# Mirrors what a hosted pipeline would run; every step must pass. The
# tier-1 subset (release build + root-package tests) comes first so the
# cheapest signal fails fastest, then the full workspace test suite and
# clippy with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Fault-injection suites, run explicitly so a chaos regression is named in
# the CI log even though the workspace pass above already covers them:
# randomized FaultPlans (termination + conserved accounting + replay
# determinism) and the empty-plan byte-invisibility differential.
echo "==> cargo test -q -p refdist-cluster --test proptest_faults --test differential_faults"
cargo test -q -p refdist-cluster --test proptest_faults --test differential_faults

# Serve-mode suites, likewise named explicitly: the single-submission
# serve-vs-legacy-engine differential (equivalence by construction) and the
# sweep determinism suite, whose serve cells prove multi-tenant streams are
# thread-count-proof and Poisson arrivals replay from the master seed.
echo "==> cargo test -q -p refdist-cluster --test differential_serve"
cargo test -q -p refdist-cluster --test differential_serve
echo "==> cargo test -q -p refdist-bench --test determinism"
cargo test -q -p refdist-bench --test determinism

# Event-queue property suite: the calendar queue must pop exactly a binary
# min-heap oracle's sequence under adversarial schedules (same-instant
# floods, far-future outliers, schedule-mid-drain).
echo "==> cargo test -q -p refdist-simcore --test proptest_simcore"
cargo test -q -p refdist-simcore --test proptest_simcore

# Frozen decision digests, named so a decision change is called out in the
# CI log: the engine corpus (block state, scheduler, event queue; solo and
# serve), the serve stream and decision corpora, and the tier-1 long-stream
# and 128-node digests. A refactor or performance change must leave every
# golden line as it is (DESIGN.md "Frozen decision digests").
echo "==> cargo test -q -p refdist-cluster --test engine_decisions"
cargo test -q -p refdist-cluster --test engine_decisions
echo "==> cargo test -q -p refdist-cluster --test differential_serve serve_equivalence_matches_golden serve_decisions_match_golden"
cargo test -q -p refdist-cluster --test differential_serve -- \
  serve_equivalence_matches_golden serve_decisions_match_golden
echo "==> cargo test -q --test serve_stream --test large_cluster"
cargo test -q --test serve_stream --test large_cluster

# Per-node state footprint: a many-node PageRank run's heap growth must stay
# within a few bits per block slot per node plus O(resident) (its own test
# binary, so its counting allocator sees nothing else).
echo "==> cargo test -q -p refdist-cluster --test engine_footprint"
cargo test -q -p refdist-cluster --test engine_footprint

# Serve hot-path scaling: allocations per eviction and peak heap growth per
# active submission must stay flat from 4 to 16 concurrently active MRD
# submissions (its own test binary, for the same reason).
echo "==> cargo test -q -p refdist-cluster --test serve_footprint"
cargo test -q -p refdist-cluster --test serve_footprint

# The benchmark is a package of its own (refbench/), outside the workspace:
# its unit tests and lints run against its own manifest.
echo "==> cargo test --offline --manifest-path refbench/Cargo.toml"
cargo test --offline --manifest-path refbench/Cargo.toml
echo "==> cargo clippy --offline --all-targets --manifest-path refbench/Cargo.toml -- -D warnings"
cargo clippy --offline --all-targets --manifest-path refbench/Cargo.toml -- -D warnings

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Bench smoke: every criterion suite runs each benchmark body once
# (--test mode). Guards against bit-rotted bench code; timing is NOT
# checked, so this cannot flake on a noisy machine.
for suite in policy_overhead dag_planning sim_throughput victim_selection sched_scaling event_queue; do
  echo "==> cargo bench -p refdist-bench --bench $suite -- --test"
  cargo bench -q -p refdist-bench --bench "$suite" -- --test
done

# Protocol-bench smoke: run the recorded-bench binary in quick mode in a
# scratch dir so the checked-in BENCH_*.json files are not clobbered. This
# exercises the full record-and-write path (`--out`), including the
# bench's own assertions (migrations happen, the serve arena stays
# O(active)).
( bench_tmp="$(mktemp -d)"
  trap 'rm -rf "$bench_tmp"' EXIT
  cd "$bench_tmp"
  echo "==> REFDIST_QUICK=1 bench_sched (scratch dir)"
  REFDIST_QUICK=1 cargo run --release -q -p refdist-bench --bin bench_sched \
    --manifest-path "$OLDPWD/Cargo.toml" --target-dir "$OLDPWD/target" \
    -- --out bench_smoke.json
  grep -q '"suite":"serve_stream"' bench_smoke.json \
    || { echo "bench smoke: no serve_stream record written"; exit 1; }

  # Chaos CLI smoke: a tiny resilience curve must run end-to-end (fault
  # injection -> sweep -> degradation table) and exit zero.
  echo "==> refdist chaos smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" chaos SP --policies lru,lrc,mrd \
    --rates 0.05 --nodes 2 --partitions 8 --scale 0.02 --threads 2 \
    --csv > chaos_smoke.csv
  grep -q '^0.0500,MRD' chaos_smoke.csv \
    || { echo "chaos smoke: missing chaotic MRD row"; exit 1; }

  # Serve CLI smoke: a tiny multi-tenant stream must run the full
  # sched x quota grid end-to-end and report per-tenant JCT distributions.
  echo "==> refdist serve smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" serve SP --policy lru --tenants 3 \
    --gap-ms 100 --nodes 2 --partitions 8 --scale 0.02 \
    --cache-fraction 0.3 > serve_smoke.txt
  grep -q 'fair-share, quota equal-share' serve_smoke.txt \
    || { echo "serve smoke: missing fair-share/equal-share cell"; exit 1; }
  grep -q '^tenant 2: .* p99 ' serve_smoke.txt \
    || { echo "serve smoke: missing per-tenant JCT distribution"; exit 1; }

  # Resilient-serve CLI smoke: wall-clock churn + app retries + a bounded
  # admission gate + a deadline must run end-to-end and report the
  # stream-level resilience line and SLO attainment.
  echo "==> refdist serve --churn smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" serve SP --policy lru --tenants 3 \
    --gap-ms 100 --nodes 2 --partitions 8 --scale 0.02 \
    --cache-fraction 0.3 --scheds fair-share --quotas unlimited \
    --churn 300,100 --app-retries 2 --max-active 2 --admission queue \
    --deadline 20000000 > serve_churn_smoke.txt
  grep -q 'resilience: churn mtbf 300ms mttr 100ms, 2 app retries' serve_churn_smoke.txt \
    || { echo "serve churn smoke: missing resilience header"; exit 1; }
  grep -q '^slo: .* met the 20.000s deadline' serve_churn_smoke.txt \
    || { echo "serve churn smoke: missing SLO attainment line"; exit 1; }

  # Serve x chaos smoke: the SLO-attainment-vs-churn-rate curve must run
  # end-to-end and the fault-free row must attain its self-calibrated
  # deadline in full.
  echo "==> refdist chaos --serve smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" chaos SP --serve --policies lru \
    --rates 0,0.5 --nodes 2 --partitions 8 --scale 0.02 --tenants 2 \
    --apps 4 --gap-ms 50 --csv > chaos_serve_smoke.csv
  grep -q '^LRU,0.0000,.*,1.0000,' chaos_serve_smoke.csv \
    || { echo "chaos serve smoke: fault-free row must attain 100%"; exit 1; }

  # Heterogeneous-mix smoke: a stream cycling through two workloads must
  # intern exactly two templates under streaming admission.
  echo "==> refdist serve --mix smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" serve --mix SP,CC --policy lru \
    --tenants 2 --apps 8 --gap-ms 50 --nodes 2 --partitions 8 --scale 0.02 \
    --cache-fraction 0.3 --scheds fifo --quotas unlimited > serve_mix.txt
  grep -q '^SP+CC x 2 tenants' serve_mix.txt \
    || { echo "serve mix smoke: missing mixed-stream header"; exit 1; }
  grep -q 'admission: 2 distinct templates interned over 8 submissions' serve_mix.txt \
    || { echo "serve mix smoke: missing interned-template accounting"; exit 1; }

  # Bad-input smoke: a zero-node cluster must be a clean CLI error (non-zero
  # exit, an `error:` line), never a panic.
  echo "==> refdist serve --nodes 0 smoke (scratch dir)"
  if "$OLDPWD/target/release/refdist" serve SP --nodes 0 --partitions 8 \
      --scale 0.02 > /dev/null 2> bad_input.err; then
    echo "bad-input smoke: --nodes 0 exited zero"; exit 1
  fi
  grep -q '^error:' bad_input.err \
    || { echo "bad-input smoke: no error line"; exit 1; }
  if grep -q 'panicked' bad_input.err; then
    echo "bad-input smoke: the CLI panicked"; exit 1
  fi
)

# Show hot-path deltas when both recorded benchmark files are present
# (informational; bench_diff only fails on missing/corrupt files).
if [[ -f BENCH_baseline.json && -f BENCH_pr2.json ]]; then
  echo "==> bench_diff BENCH_baseline.json BENCH_pr2.json"
  cargo run --release -q -p refdist-bench --bin bench_diff
fi

# Bench regression guard: compare the two newest recorded BENCH_pr*.json
# files and fail if any joined metric regressed more than 10%. Each file
# is recorded on one machine — as one bench_sched invocation or, when the
# machine's throughput drifts in multi-minute phases, as the per-record
# best (minimum) of a dozen alternating old/new invocations: both sides
# sampled in the same windows so the comparison stays apples-to-apples,
# and the minimum because the workload is deterministic so noise is
# strictly additive — the median flaps with whichever phase a round
# lands in (pr8/pr9 were re-baselined with alternating medians, pr9/pr10
# with alternating best-of-12, each same-day/same-machine). Set
# REFDIST_SKIP_BENCH_GUARD=1 to skip (e.g. when re-recording baselines
# on different hardware).
if [[ "${REFDIST_SKIP_BENCH_GUARD:-0}" != "1" ]]; then
  mapfile -t bench_files < <(ls BENCH_pr*.json 2>/dev/null | sort -V)
  if (( ${#bench_files[@]} >= 2 )); then
    prev="${bench_files[-2]}"
    newest="${bench_files[-1]}"
    echo "==> bench_diff --check --max-regress 10 $prev $newest"
    cargo run --release -q -p refdist-bench --bin bench_diff -- \
      --check --max-regress 10 "$prev" "$newest"
  fi
fi

echo "ci.sh: all checks passed"
