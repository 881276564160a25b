//! Serve-grid experiment (ROADMAP item 1 follow-up): does reference
//! distance still win when tenants evict each other?
//!
//! The paper's comparison is single-application: one DAG, one cache, MRD's
//! reference distances computed against one profile. Serving breaks the
//! cleanest assumption behind that result — a tenant's blocks can be
//! evicted by *other* tenants' pressure, at moments its own reference
//! pattern never predicted. This experiment runs 10k-submission Poisson
//! streams over the full serve grid (tenants × arrival rate × scheduler ×
//! quota) with per-submission LRU vs LRC vs MRD policies and compares
//! per-tenant JCT distributions and cross-tenant eviction counts.
//!
//! The per-submission app is the hot/cold pattern where reference distance
//! has signal: two cached RDDs, one re-read by every job, one written early
//! and read back only by the final job. LRU keeps whatever was touched
//! last; MRD knows the cold RDD's next reference is far away and sheds it
//! first. The cluster's cache holds ~2 concurrent working sets while the
//! arrival rate keeps ~4-10 submissions live, so eviction pressure is
//! continuous and mostly *cross*-submission.
//!
//! `REFDIST_QUICK=1` shrinks the stream for smoke runs. The full run backs
//! the "MRD under multi-tenancy" section in EXPERIMENTS.md.

use refdist_bench::{cached_footprint, PolicySpec, ServeAxis, ServeScenario};
use refdist_cluster::{percentile, ClusterConfig, QuotaKind, ServeReport, ServeSched, SimConfig};
use refdist_dag::{AppBuilder, AppSpec, StorageLevel};
use refdist_metrics::TextTable;

fn quick() -> bool {
    std::env::var("REFDIST_QUICK").is_ok_and(|v| v != "0")
}

/// Hot/cold iterative app: `hot` is re-read by all three aggregation jobs,
/// `cold` is created up front and referenced again only by the last job —
/// the distance between LRU's recency signal and MRD's reference distance.
fn grid_app() -> AppSpec {
    let parts = 4;
    let block = 64 * 1024;
    let mut b = AppBuilder::new("grid-app");
    let input = b.input("in", parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, StorageLevel::MemoryAndDisk);
    let cold = b.narrow("cold", input, block, 5_000);
    b.persist(cold, StorageLevel::MemoryAndDisk);
    let seed = b.narrow_multi("seed", &[hot, cold], 1024, 100);
    b.action("create", seed);
    for i in 0..3 {
        let s = b.shuffle(format!("agg{i}"), &[hot], parts, block / 8, 500);
        b.action(format!("job{i}"), s);
    }
    let last = b.shuffle("coldref", &[cold], parts, block / 8, 500);
    b.action("jc", last);
    b.build()
}

fn run_cell(spec: &AppSpec, n: u32, axis: ServeAxis, policy: &str) -> ServeReport {
    // ~2 concurrent working sets fit; the rest is eviction pressure.
    let mut sim = SimConfig::new(ClusterConfig::tiny(2, cached_footprint(spec)));
    sim.seed = 42;
    sim.compute_jitter = 0.0;
    sim.exec_mem_fraction = 0.0;
    let scenario = ServeScenario {
        templates: std::slice::from_ref(spec),
        apps: n,
        sim,
        axis,
    };
    let policy = PolicySpec::from_cli_name(policy).expect("known policy");
    scenario.run(policy).expect("valid serve grid cell")
}

struct Cell {
    mean_ms: f64,
    p99_ms: f64,
    cross_frac: f64,
}

fn summarize(r: &ServeReport) -> Cell {
    let mut jcts: Vec<u64> = r.reports.iter().map(|x| x.jct.micros()).collect();
    jcts.sort_unstable();
    let mean = jcts.iter().sum::<u64>() as f64 / jcts.len() as f64;
    let p99 = percentile(&jcts, 0.99);
    let total: u64 = r.cross_evictions.iter().flatten().sum();
    let cross: u64 = r
        .cross_evictions
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v)
                .sum::<u64>()
        })
        .sum();
    Cell {
        mean_ms: mean / 1e3,
        p99_ms: p99 as f64 / 1e3,
        cross_frac: if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        },
    }
}

fn main() {
    let n: u32 = if quick() { 400 } else { 10_000 };
    let spec = grid_app();
    println!(
        "serve grid: {n}-submission Poisson streams of the hot/cold app, \
         per-submission policies, streaming admission\n"
    );
    let mut t = TextTable::new([
        "tenants", "gap ms", "sched", "quota", "policy", "mean JCT", "p99 JCT", "cross-ev",
        "vs lru",
    ]);
    for &tenants in &[4u32, 16] {
        for &gap in &[40_000u64, 80_000] {
            for &sched in &[ServeSched::Fifo, ServeSched::FairShare] {
                for &quota in &[QuotaKind::Unlimited, QuotaKind::EqualShare] {
                    let mut lru_mean = None;
                    for policy in ["lru", "lrc", "mrd"] {
                        let axis = ServeAxis {
                            tenants,
                            mean_gap_us: gap,
                            sched,
                            quota,
                            resilience: Default::default(),
                        };
                        let report = run_cell(&spec, n, axis, policy);
                        let c = summarize(&report);
                        if policy == "lru" {
                            lru_mean = Some(c.mean_ms);
                        }
                        let vs = lru_mean.map_or(1.0, |l| c.mean_ms / l);
                        t.row([
                            tenants.to_string(),
                            (gap / 1_000).to_string(),
                            sched.to_string(),
                            quota.to_string(),
                            policy.to_string(),
                            format!("{:.1} ms", c.mean_ms),
                            format!("{:.1} ms", c.p99_ms),
                            format!("{:.0}%", c.cross_frac * 100.0),
                            format!("{vs:.3}"),
                        ]);
                    }
                }
            }
        }
    }
    println!("{}", t.render());
    println!("vs lru: mean JCT relative to the same cell under LRU (lower is better).");
}
