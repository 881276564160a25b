//! Cache hot-path benchmark: measures the eviction / simulation hot path
//! (the ordered-index `select_victims` path on dense slot-addressed
//! per-block state) and writes the records to `BENCH_pr3.json`, the
//! `dense` protocol file. The `naive` and `indexed` rows of
//! `BENCH_baseline.json` / `BENCH_pr2.json` measured implementations that
//! no longer exist; their last recorded numbers are kept in those files and
//! in EXPERIMENTS.md "Performance history".
//!
//! One record per line: micro records report `ns_per_evict` for one churn
//! step (access + insert-under-pressure + one eviction) at a given cache
//! population; macro records report `ms_total` for a complete
//! eviction-heavy simulation. `bench_diff` joins two files and prints
//! speedups (and gates CI regressions with `--check`).
//!
//! `REFDIST_QUICK=1` shrinks populations and measurement windows for smoke
//! runs (the output file is still written).

use refdist_bench::{bench_policies, cache_for_fraction, Churn, ExpContext, PolicySpec};
use refdist_cluster::{SimConfig, Simulation};
use refdist_core::ProfileMode;
use refdist_dag::AppPlan;
use refdist_policies::CachePolicy;
use refdist_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// The measured protocol's name in the records.
const PROTOCOL: &str = "dense";

struct Record {
    suite: &'static str,
    bench: String,
    policy: String,
    blocks: usize,
    protocol: &'static str,
    metric: &'static str,
    value: f64,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"suite\":\"{}\",\"bench\":\"{}\",\"policy\":\"{}\",\"blocks\":{},\"protocol\":\"{}\",\"{}\":{:.2}}}",
            self.suite, self.bench, self.policy, self.blocks, self.protocol, self.metric, self.value
        )
    }
}

fn quick() -> bool {
    std::env::var("REFDIST_QUICK").is_ok_and(|v| v != "0")
}

/// Mean ns per churn step, measured over a time-boxed window after warmup.
fn time_churn(build: fn() -> Box<dyn CachePolicy>, blocks: usize) -> f64 {
    let mut churn = Churn::new(build, blocks);
    let budget_ms: u64 = if quick() { 40 } else { 400 };
    let warmup = (blocks / 8).clamp(32, 2_000);
    for _ in 0..warmup {
        churn.step();
    }
    let mut steps: u64 = 0;
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            std::hint::black_box(churn.step());
        }
        steps += 32;
        if start.elapsed().as_millis() as u64 >= budget_ms || steps >= 200_000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / steps as f64
}

/// One eviction-heavy simulation workload; returns (best-of-reps wall ms,
/// hit ratio). Best-of keeps the record robust to scheduler noise.
fn time_macro(policy: PolicySpec) -> (f64, f64) {
    let mut ctx = ExpContext::main().quick();
    if quick() {
        ctx.params.partitions = 32;
        ctx.params.scale = 0.1;
    } else {
        // Larger than the CI-quick scale so eviction churn, not fixed setup
        // cost, dominates the wall time.
        ctx.params.partitions = 256;
        ctx.params.scale = 1.0;
    }
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    // A cache covering 20% of the cached footprint keeps the runtime under
    // constant eviction pressure — the free_up hot path dominates.
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.2).max(1);
    let reps = if quick() { 1 } else { 3 };
    let mut best_ms = f64::INFINITY;
    let mut hits = 0.0;
    for _ in 0..reps {
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let mut p = policy.build(None);
        let start = Instant::now();
        let report = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut *p);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        hits = report.hit_ratio();
    }
    (best_ms, hits)
}

fn main() {
    let mut records: Vec<Record> = Vec::new();

    let populations: &[usize] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    println!("== micro: evict_churn (ns/evict, lower is better) ==");
    println!("{:<10} {:>8} {:>14}", "policy", "blocks", "ns/evict");
    for &blocks in populations {
        for (name, build) in bench_policies() {
            let ns = time_churn(build, blocks);
            println!("{name:<10} {blocks:>8} {ns:>11.0} ns");
            records.push(Record {
                suite: "micro",
                bench: "evict_churn".into(),
                policy: name.into(),
                blocks,
                protocol: PROTOCOL,
                metric: "ns_per_evict",
                value: ns,
            });
        }
    }

    println!();
    println!("== macro: ConnectedComponents @ 20% cache (ms, lower is better) ==");
    println!("{:<10} {:>12} {:>10}", "policy", "wall", "hit ratio");
    for policy in [PolicySpec::Lru, PolicySpec::MrdFull] {
        let (ms, hits) = time_macro(policy);
        println!("{:<10} {ms:>9.0} ms {hits:>10.4}", policy.name());
        records.push(Record {
            suite: "macro",
            bench: "cc_sweep".into(),
            policy: policy.name().into(),
            blocks: 0,
            protocol: PROTOCOL,
            metric: "ms_total",
            value: ms,
        });
    }

    let path = "BENCH_pr3.json";
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "\n" } else { ",\n" };
        let _ = write!(out, "{}{}", r.to_json(), sep);
    }
    out.push_str("]\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path} ({} records)", records.len());
}
