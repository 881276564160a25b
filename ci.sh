#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
#
#   ./ci.sh
#
# Mirrors what a hosted pipeline would run; every step must pass. The
# format check and the tier-1 subset (release build + root-package tests)
# come first so the cheapest signal fails fastest, then the full workspace
# test suite and clippy and rustdoc with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")"

# Format: the workspace and the benchmark package (a workspace of its own)
# must both be rustfmt-clean. Both steps only read files.
echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check
echo "==> cargo fmt --manifest-path refbench/Cargo.toml -- --check"
cargo fmt --manifest-path refbench/Cargo.toml -- --check

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

# simcore property suite: a FIFO resource serves arbitrary request streams
# in order, each completion at the later of its submission and the previous
# completion plus its transfer time.
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
# sequence, with the slot arena attached first, as the drivers attach it.
echo "==> cargo test -q -p refdist-policies --test differential_select"
cargo test -q -p refdist-policies --test differential_select
echo "==> cargo test -q -p refdist-core --test differential_mrd"
cargo test -q -p refdist-core --test differential_mrd

# LRU's per-node recency lists, named so a list regression is called out:
# after every insert, touch and remove, each node's order (orphans, then
# oldest touch first) must equal a BTreeSet<(key, BlockId)> model over
# several nodes, multi-copy blocks and orphans included.
echo "==> cargo test -q -p refdist-policies --test proptest_recency"
cargo test -q -p refdist-policies --test proptest_recency

# Frozen decision digests, named so a decision change is called out in the
# CI log: the engine corpus (block state, scheduler, speculation; solo and
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

# The performance gate: exact per-layer work counts (slot index, store,
# speculative copies, policy hooks, serve admission and retirement, heap
# allocations and peak bytes) of small fixed versions of the benchmark's
# workloads, compared line by line against tests/golden/work_counts.txt,
# plus the heap-footprint bounds (per-node state O(resident), serve cost
# flat in active submissions, serve arena O(active)). It measures the code
# under test, so any added work fails it on a named count.
echo "==> cargo test -q --test work_counts"
cargo test -q --test work_counts

# Reproduction artifacts: every exp_* binary with a checked-in output in
# experiments/ must print exactly that file (full-size runs, about 4 s in
# all). A change that moves a paper figure regenerates the file in the same
# commit (`target/release/exp_fig4 > experiments/exp_fig4.txt`) and updates
# the numbers EXPERIMENTS.md quotes from it.
echo "==> experiments/exp_*.txt match their exp_* binaries"
exp_err="$(mktemp)"
for expected in experiments/exp_*.txt; do
  bin="target/release/$(basename "$expected" .txt)"
  "$bin" 2> "$exp_err" | diff -u "$expected" - \
    || { tail -n 20 "$exp_err"; echo "experiments: $bin does not print $expected"; exit 1; }
done

# run_all renders the same experiment table in-process: written into a
# scratch directory, its 15 files must equal the checked-in ones.
echo "==> run_all writes experiments/ (scratch dir)"
run_all_dir="$(mktemp -d)"
REFDIST_OUT_DIR="$run_all_dir" target/release/run_all > /dev/null 2> "$exp_err" \
  || { tail -n 20 "$exp_err"; echo "run_all failed"; exit 1; }
diff -r experiments "$run_all_dir" \
  || { echo "run_all: its outputs differ from experiments/"; exit 1; }
rm -rf "$run_all_dir" "$exp_err"

# The paper's claims, each a named assertion on the files just checked: a
# regenerated file that breaks one fails here by the claim's name.
echo "==> cargo test -q --test paper_claims"
cargo test -q --test paper_claims

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

# CLI smokes, each run in a scratch directory so nothing lands in the tree.
( smoke_tmp="$(mktemp -d)"
  trap 'rm -rf "$smoke_tmp"' EXIT
  cd "$smoke_tmp"

  # Mega-run smoke: about a million tasks (PageRank, 8192 partitions on
  # 1024 nodes) through the engine must finish and report its task count.
  # Wall time is not checked here; EXPERIMENTS.md records it.
  echo "==> refdist run PR --nodes 1024 mega smoke (scratch dir)"
  "$OLDPWD/target/release/refdist" run PR --policy lru --nodes 1024 \
    --partitions 8192 --scale 0.05 --iterations 80 > mega_smoke.txt
  grep -q 'tasks 1007616' mega_smoke.txt \
    || { echo "mega smoke: expected 1007616 tasks"; exit 1; }

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

  # Bad-input smoke: a zero-node cluster, and a cache size whose byte count
  # overflows u64, must each be a clean CLI error (non-zero exit, an
  # `error:` line), never a panic.
  for bad in "serve SP --nodes 0" "run CC --policy lru --cache-mb 17592186044416"; do
    echo "==> refdist $bad smoke (scratch dir)"
    # shellcheck disable=SC2086 # $bad is a word list on purpose
    if "$OLDPWD/target/release/refdist" $bad --partitions 8 --scale 0.02 \
        > /dev/null 2> bad_input.err; then
      echo "bad-input smoke: refdist $bad exited zero"; exit 1
    fi
    grep -q '^error:' bad_input.err \
      || { echo "bad-input smoke: no error line for refdist $bad"; exit 1; }
    if grep -q 'panicked' bad_input.err; then
      echo "bad-input smoke: refdist $bad panicked"; exit 1
    fi
  done
)

echo "ci.sh: all checks passed"
