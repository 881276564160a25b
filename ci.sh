#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
#
#   ./ci.sh
#
# Mirrors what a hosted pipeline would run; every step must pass. The
# tier-1 subset (release build + root-package tests) comes first so the
# cheapest signal fails fastest, then the full workspace test suite and
# clippy and rustdoc with warnings promoted to errors.
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

# Store property suite: the memory store's byte accounting, and the block
# master's copy records (ascending holders, inline-first layout, each
# copy's in-flight and unused-prefetch marks) against a shadow model after
# every operation, multi-copy blocks included.
echo "==> cargo test -q -p refdist-store --test proptest_store"
cargo test -q -p refdist-store --test proptest_store

# Victim-index differentials, named so an index regression is called out in
# the CI log: every policy's batched select_victims (and MRD's, across all
# modes, tie-breaks and metrics) must pop exactly the naive pick_victim
# sequence, with the slot arena attached as the engine attaches it.
echo "==> cargo test -q -p refdist-policies --test differential_select"
cargo test -q -p refdist-policies --test differential_select
echo "==> cargo test -q -p refdist-core --test differential_mrd"
cargo test -q -p refdist-core --test differential_mrd

# Frozen decision digests, named so a decision change is called out in the
# CI log: the engine corpus (block state, scheduler, event queue; solo and
# serve), the serve stream, decision and admission-timeline corpora, and the
# tier-1 long-stream and 128-node digests. A refactor or performance change
# must leave every golden line as it is (DESIGN.md "Frozen decision
# digests").
echo "==> cargo test -q -p refdist-cluster --test engine_decisions"
cargo test -q -p refdist-cluster --test engine_decisions
echo "==> cargo test -q -p refdist-cluster --test differential_serve serve_equivalence_matches_golden serve_decisions_match_golden serve_admission_matches_golden"
cargo test -q -p refdist-cluster --test differential_serve -- \
  serve_equivalence_matches_golden serve_decisions_match_golden \
  serve_admission_matches_golden
echo "==> cargo test -q --test serve_stream --test large_cluster"
cargo test -q --test serve_stream --test large_cluster

# The performance gate: exact per-layer work counts (event queue, slot
# index, store, policy hooks, serve admission and retirement, heap
# allocations and peak bytes) of small fixed versions of the benchmark's
# workloads, compared line by line against tests/golden/work_counts.txt,
# plus the heap-footprint bounds (per-node state O(resident), serve cost
# flat in active submissions, serve arena O(active)). It measures the code
# under test, so any added work fails it on a named count.
echo "==> cargo test -q --test work_counts"
cargo test -q --test work_counts

# The benchmark is a package of its own (refbench/), outside the workspace:
# its unit tests and lints run against its own manifest.
echo "==> cargo test --offline --manifest-path refbench/Cargo.toml"
cargo test --offline --manifest-path refbench/Cargo.toml
echo "==> cargo clippy --offline --all-targets --manifest-path refbench/Cargo.toml -- -D warnings"
cargo clippy --offline --all-targets --manifest-path refbench/Cargo.toml -- -D warnings

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings promoted to errors, private items included: a
# broken or ambiguous intra-doc link, or public docs linking a private item,
# fails here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --document-private-items"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

# Bench smoke: every criterion suite runs each benchmark body once
# (--test mode). Guards against bit-rotted bench code; timing is NOT
# checked, so this cannot flake on a noisy machine.
for suite in policy_overhead dag_planning sim_throughput victim_selection sched_scaling event_queue; do
  echo "==> cargo bench -p refdist-bench --bench $suite -- --test"
  cargo bench -q -p refdist-bench --bench "$suite" -- --test
done

# Wall-clock bench smoke: bench_sched in quick mode must run every suite,
# including its own assertions (migrations happen), and print each table.
# Timing is not checked.
( bench_tmp="$(mktemp -d)"
  trap 'rm -rf "$bench_tmp"' EXIT
  cd "$bench_tmp"
  echo "==> REFDIST_QUICK=1 bench_sched (scratch dir)"
  REFDIST_QUICK=1 "$OLDPWD/target/release/bench_sched" > bench_smoke.txt
  grep -q '^== admission' bench_smoke.txt \
    || { echo "bench smoke: no admission table printed"; exit 1; }

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

echo "ci.sh: all checks passed"
