//! Wall-clock bench of the simulator paths the benchmark (`refbench`) does
//! not time, printed as plain tables on stdout:
//!
//!     bench_sched
//!
//! * `sched`: end-to-end wall time of a wide iterative app (8 partitions
//!   per node, so every stage runs several task waves per node) with delay
//!   scheduling on and a straggler injected, as the cluster grows: the slot
//!   index's placement cost.
//! * `sim_throughput`: the full engine (dense block state, slot index,
//!   per-task records) on the same wide app under cache pressure, with
//!   speculation selecting a threshold per stage. Outside `REFDIST_QUICK`, a
//!   1024-node mega row pushes ~a million tasks through the engine alone.
//! * `admission`: the admission-planning path alone (build or intern the
//!   template's local-space plan/profile, rebase, wrap the profiler), cold
//!   vs template-interned over 1/4/16 distinct templates; the interned
//!   path must amortize to at least 3x on the full run.
//!
//! Wall time is best-of-reps and only informative. The deterministic counts
//! of these paths (slot-index commits, allocations) are
//! gated exactly by `tests/work_counts.rs`; the serve-stream and churn cells
//! this bench once timed live there as count lines, and their last recorded
//! rows in EXPERIMENTS.md "Performance history".
//!
//! `REFDIST_QUICK=1` shrinks cluster sizes and repetitions for smoke runs.

use refdist_cluster::{ClusterConfig, RunReport, SimConfig, Simulation};
use refdist_core::ProfileMode;
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};
use std::time::Instant;

fn quick() -> bool {
    std::env::var("REFDIST_QUICK").is_ok_and(|v| v != "0")
}

/// A wide iterative app: 8 partitions per node, one cached dataset reused by
/// every job, so each stage schedules several task waves per node.
fn sched_app(nodes: u32) -> AppSpec {
    sched_app_jobs(nodes, 8)
}

fn sched_app_jobs(nodes: u32, jobs: usize) -> AppSpec {
    let parts = nodes * 8;
    let block = 256 * 1024;
    let mut b = AppBuilder::new("sched-bench");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..jobs {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn sched_cfg(nodes: u32) -> SimConfig {
    // A cache that holds the whole dataset keeps eviction churn out of the
    // measurement; the per-task costs left are scheduling and cache hits.
    let mut cfg = SimConfig::new(ClusterConfig::tiny(nodes, 1 << 40));
    cfg.cluster.cores_per_node = 4;
    // Delay scheduling asks for the cluster-wide earliest slot per task;
    // the straggler guarantees migrations happen.
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults.slow_node(0, 4.0);
    cfg
}

/// Full-stack throughput configuration: cache pressure (half the cached
/// footprint fits), delay scheduling, a straggler, and speculative
/// execution — so per-task state transitions, slot selection, eviction and
/// the per-stage speculation threshold are all on the measured path.
fn throughput_cfg(spec: &AppSpec, nodes: u32) -> SimConfig {
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
    let mut cfg = SimConfig::new(ClusterConfig::tiny(
        nodes,
        (footprint / u64::from(nodes) / 2).max(1),
    ));
    cfg.cluster.cores_per_node = 4;
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults.slow_node(0, 4.0);
    cfg.faults.speculation_quantile = 0.75;
    cfg
}

/// Best-of-`reps` wall ms of an LRU run under `cfg`, plus the report
/// (identical across reps: the simulation is deterministic).
fn time_run(spec: &AppSpec, plan: &AppPlan, cfg: &SimConfig, reps: usize) -> (f64, RunReport) {
    let mut best_ms = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let sim = Simulation::new(spec, plan, ProfileMode::Recurring, cfg.clone());
        let mut lru = refdist_policies::PolicyKind::Lru.build();
        let start = Instant::now();
        let r = sim.run(&mut *lru);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    (best_ms, report.expect("at least one rep"))
}

/// `k` structurally distinct variants of a small two-job iterative app
/// (partition count and job count both vary), for admission benches over
/// heterogeneous mixes.
fn admission_specs(k: usize) -> Vec<AppSpec> {
    (0..k)
        .map(|v| {
            let block = 64 * 1024;
            let parts = 4 + (v as u32 % 4);
            let jobs = 2 + v / 4;
            let mut b = AppBuilder::new(format!("adm-{v}"));
            let input = b.input("in", parts, block, 2_000);
            let data = b.narrow("data", input, block, 5_000);
            b.persist(data, StorageLevel::MemoryAndDisk);
            for i in 0..jobs {
                let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 8, 500);
                b.action(format!("job{i}"), s);
            }
            b.build()
        })
        .collect()
}

/// Best-of-reps wall ms for the admission-planning path alone over a
/// submission stream cycling through `specs`: build (or intern) the
/// local-space plan/profile, rebase both to the submission's offset, and
/// wrap the profiler — exactly what the serve driver does at each arrival
/// event, minus the simulation itself.
fn time_admission(specs: &[AppSpec], apps: u32, interned: bool) -> f64 {
    use refdist_core::AppProfiler;
    use refdist_dag::{remap_plan, remap_profile, PlannedTemplate, TemplateCache};
    use std::sync::Arc;
    let reps = if quick() { 3 } else { 15 };
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let mut cache = TemplateCache::new();
        let start = Instant::now();
        let mut off = 0u32;
        for i in 0..apps {
            let spec = &specs[i as usize % specs.len()];
            let tpl = if interned {
                cache.intern(spec)
            } else {
                Arc::new(PlannedTemplate::build(spec))
            };
            let plan = remap_plan(&tpl.plan, off);
            let profiler =
                AppProfiler::from_shared(spec.name.clone(), remap_profile(&tpl.profile, off));
            std::hint::black_box((&plan, &profiler));
            off += spec.rdds.len() as u32;
        }
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best_ms
}

fn main() {
    let node_counts: &[u32] = if quick() { &[8, 32] } else { &[8, 32, 128, 256] };

    println!("== sched: wide app, delay scheduling on (ms, lower is better) ==");
    println!("{:<8} {:>8} {:>12}", "nodes", "tasks", "wall");
    for &nodes in node_counts {
        let spec = sched_app(nodes);
        let plan = AppPlan::build(&spec);
        // Best-of-15: contention on the recording machine comes in bursts
        // of seconds, so spreading more ms-scale reps across a longer window
        // is what makes the minimum a stable estimate of the quiet-machine
        // time.
        let reps = if quick() { 1 } else { 15 };
        let (ms, report) = time_run(&spec, &plan, &sched_cfg(nodes), reps);
        assert!(
            report.sched.remote_placements > 0,
            "no migrations at {nodes} nodes — the global-order path went unmeasured"
        );
        println!("{:<8} {:>8} {:>9.1} ms", nodes, report.tasks, ms);
    }

    println!();
    println!("== sim_throughput: full engine (ms) ==");
    println!("{:<8} {:>8} {:>12}", "nodes", "tasks", "wall");
    let tp_nodes: &[u32] = if quick() { &[8] } else { &[64, 128] };
    for &nodes in tp_nodes {
        let spec = sched_app(nodes);
        let plan = AppPlan::build(&spec);
        let reps = if quick() { 1 } else { 8 };
        let (ms, report) = time_run(&spec, &plan, &throughput_cfg(&spec, nodes), reps);
        println!("{:<8} {:>8} {:>9.1} ms", nodes, report.tasks, ms);
    }
    if !quick() {
        // Mega smoke: ~a million tasks through the engine. The slot index
        // and dense task records keep per-task cost flat at a scale
        // where scans over the cluster would be O(minutes).
        let nodes = 1024;
        let spec = sched_app_jobs(nodes, 60);
        let plan = AppPlan::build(&spec);
        let (ms, report) = time_run(&spec, &plan, &throughput_cfg(&spec, nodes), 1);
        println!(
            "{:<8} {:>8} {:>9.1} ms ({:.2} us/task)",
            nodes,
            report.tasks,
            ms,
            ms * 1e3 / report.tasks as f64
        );
    }

    println!();
    println!("== admission: cold replan vs template-interned (us/submission) ==");
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>9}",
        "templates", "apps", "cold", "interned", "speedup"
    );
    let adm_apps: u32 = if quick() { 256 } else { 1024 };
    for &k in &[1usize, 4, 16] {
        let specs = admission_specs(k);
        let cold_ms = time_admission(&specs, adm_apps, false);
        let hot_ms = time_admission(&specs, adm_apps, true);
        let speedup = cold_ms / hot_ms;
        println!(
            "{:<10} {:>6} {:>9.2} us {:>9.2} us {:>8.2}x",
            k,
            adm_apps,
            cold_ms * 1e3 / f64::from(adm_apps),
            hot_ms * 1e3 / f64::from(adm_apps),
            speedup
        );
        // The acceptance bar: on repeated templates, interned admission must
        // amortize to at least 3x over replanning each submission. Quick
        // mode's short stream and few reps make the ratio noisy, so the bar
        // only gates the full run.
        if !quick() {
            assert!(
                speedup >= 3.0,
                "interned admission only {speedup:.2}x over cold at {k} templates"
            );
        }
    }
}
