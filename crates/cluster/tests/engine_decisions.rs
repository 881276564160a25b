//! Frozen decision digests of the simulation engine.
//!
//! `tests/golden/engine_decisions.txt` holds one line per (scenario,
//! policy): the victim and purge counts and the FNV-1a digest of the run's
//! `RunReport` (access trace and task placements collected) together with
//! its victim and purge log. Three seeded families cover the engine's
//! mechanisms:
//!
//! * `state` — iterative apps with one or two cached RDDs on small and
//!   sparse (nodes ≫ partitions) clusters, cache pressure, execution-memory
//!   churn, crashes with cold rejoins, delay scheduling and MRD purges,
//!   under every policy family: the per-block state paths;
//! * `sched` — many task waves on 1–5 cores per node, stragglers, node
//!   failures and delay bounds at the migration boundary: task placement;
//! * `events` — stochastic chaos with speculation (the per-stage
//!   speculation threshold) solo, and three-submission serve streams under
//!   FIFO and fair-share: stage interleaving.
//!
//! Each family ends with named spot-checks of its nastiest corner. The
//! corpora are drawn from explicit seeds, so neither the proptest runner
//! nor `PROPTEST_CASES` can change them. Every line was recorded while the
//! engine still carried reference implementations of these mechanisms
//! (hash-backed block state, linear slot scans, a binary-heap event queue)
//! and each scenario was asserted identical under both. A refactor or performance change
//! must leave every line as is; an intended behaviour change regenerates
//! the file with
//! `UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test engine_decisions`
//! and the diff is reviewed.

mod common;

use common::{
    all_policies, check_golden, core_policies, fnv1a, snapshot, Build, Decisions, Gen, Recorder,
};
use refdist_cluster::{
    ArrivalProcess, ClusterConfig, FaultPlan, QuotaKind, ServeConfig, ServeSched, ServeSim,
    SimConfig, Simulation,
};
use refdist_core::ProfileMode;
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};

/// What one run produced: its report's `Debug` rendering and the decision
/// log its policies wrote.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: String,
    decisions: Decisions,
}

impl Outcome {
    fn line(&self, name: &str) -> String {
        let (nv, np) = self.decisions.counts();
        let d = &self.decisions;
        let digest = fnv1a(format!("{}|{:?}|{:?}", self.report, d.victims, d.purges).as_bytes());
        format!("{name}: victims {nv} purged {np} digest {digest:016x}\n")
    }
}

fn run_solo(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, build: &Build) -> Outcome {
    let (mut rec, log) = Recorder::wrap(build());
    let report = Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut *rec);
    assert!(report.placements.is_some(), "placements must be collected");
    Outcome {
        report: format!("{report:?}"),
        decisions: snapshot(&log),
    }
}

/// Per-node cache capacity holding `frac` of `spec`'s cached footprint,
/// spread over the nodes that can hold it (partitions' home nodes).
fn cache_for(spec: &AppSpec, frac: f64, holders: u32) -> u64 {
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    ((footprint as f64 * frac) / holders as f64) as u64
}

fn storage(mem_only: bool) -> StorageLevel {
    if mem_only {
        StorageLevel::MemoryOnly
    } else {
        StorageLevel::MemoryAndDisk
    }
}

// ---------------------------------------------------------------------------
// Family `state`
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct StateApp {
    iters: u64,
    parts: u32,
    block_kb: u64,
    mem_only: bool,
    two_rdds: bool,
}

#[derive(Debug, Clone)]
struct StateCfg {
    nodes: u32,
    cache_frac: f64,
    exec_mem: f64,
    jitter: f64,
    seed: u64,
    adaptive: bool,
    failure: bool,
    /// Scripted crash with a cold rejoin: `(node, at_stage, down_stages)`.
    /// Tasks homed on the node migrate meanwhile, so blocks end up with
    /// several holders.
    rejoin: Option<(u32, u32, u32)>,
    delay: Option<u64>,
}

fn state_app(p: &StateApp) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let level = storage(p.mem_only);
    let mut b = AppBuilder::new("diff-app");
    let input = b.input("in", p.parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, level);
    if p.two_rdds {
        let cold = b.narrow("cold", input, block, 5_000);
        b.persist(cold, level);
        let both = b.narrow_multi("both", &[hot, cold], 1024, 100);
        b.action("create", both);
        for i in 0..p.iters {
            let s = b.shuffle(format!("hot{i}"), &[hot], p.parts, 1024, 500);
            b.action(format!("jh{i}"), s);
        }
        let s = b.shuffle("coldref", &[cold], p.parts, 1024, 500);
        b.action("jc", s);
    } else {
        for i in 0..p.iters {
            let s = b.shuffle(format!("agg{i}"), &[hot], p.parts, block / 4, 1_000);
            b.action(format!("job{i}"), s);
        }
    }
    b.build()
}

fn state_cfg(c: &StateCfg, spec: &AppSpec) -> SimConfig {
    let max_parts = spec
        .cached_rdds()
        .map(|r| r.num_partitions)
        .max()
        .unwrap_or(1);
    let holders = c.nodes.min(max_parts);
    let mut cfg = SimConfig::new(ClusterConfig::tiny(
        c.nodes,
        cache_for(spec, c.cache_frac, holders),
    ));
    cfg.seed = c.seed;
    cfg.compute_jitter = c.jitter;
    cfg.exec_mem_fraction = c.exec_mem;
    cfg.adaptive_threshold = c.adaptive;
    cfg.delay_scheduling_us = c.delay;
    cfg.collect_trace = true;
    cfg.collect_placements = true;
    if c.failure {
        cfg.faults.node_failure(c.nodes - 1, 2);
    }
    if let Some((node, at_stage, down)) = c.rejoin {
        cfg.faults.crash_with_rejoin(node, at_stage, down);
    }
    cfg
}

fn state_corpus() -> Vec<(String, StateApp, StateCfg)> {
    let mut g = Gen(0x57A7_E5EE);
    let mut out = Vec::new();
    for i in 0..48 {
        let app = StateApp {
            iters: g.range(1, 4),
            parts: g.range(1, 8) as u32,
            block_kb: g.range(1, 4),
            mem_only: g.flip(),
            two_rdds: g.flip(),
        };
        // Small clusters, and the sparse regime: nodes >> partitions.
        let nodes = if g.flip() { g.range(1, 4) } else { g.range(9, 40) } as u32;
        let cfg = StateCfg {
            nodes,
            cache_frac: g.pick(&[0.0, 0.3, 0.6, 2.0]),
            exec_mem: g.pick(&[0.0, 0.3]),
            jitter: g.pick(&[0.0, 0.1]),
            seed: g.below(1 << 16),
            adaptive: g.flip(),
            failure: g.flip(),
            rejoin: if nodes > 1 && g.flip() {
                Some((g.below(nodes as u64) as u32, g.range(1, 4) as u32, g.range(1, 3) as u32))
            } else {
                None
            },
            delay: g.pick(&[None, Some(0), Some(10_000)]),
        };
        out.push((format!("state {i:02}"), app, cfg));
    }
    // Cache far smaller than the working set, execution-memory churn,
    // prefetching, a crash and a rejoin.
    out.push((
        "state pressure".into(),
        StateApp {
            iters: 3,
            parts: 7,
            block_kb: 2,
            mem_only: false,
            two_rdds: true,
        },
        StateCfg {
            nodes: 2,
            cache_frac: 0.3,
            exec_mem: 0.3,
            jitter: 0.1,
            seed: 7,
            adaptive: true,
            failure: true,
            rejoin: Some((0, 1, 2)),
            delay: Some(10_000),
        },
    ));
    // Many more nodes than partitions, a crash that drains a holder and
    // rejoins it cold while its tasks run elsewhere, and MRD purging blocks
    // with no future reference: the paths that visit a block's holders
    // instead of every node.
    out.push((
        "state sparse-crash-purge".into(),
        StateApp {
            iters: 3,
            parts: 5,
            block_kb: 1,
            mem_only: false,
            two_rdds: true,
        },
        StateCfg {
            nodes: 24,
            cache_frac: 0.6,
            exec_mem: 0.0,
            jitter: 0.1,
            seed: 11,
            adaptive: false,
            failure: true,
            rejoin: Some((2, 2, 2)),
            delay: Some(0),
        },
    ));
    out
}

fn state_lines(out: &mut String) {
    for (name, app, c) in state_corpus() {
        let spec = state_app(&app);
        let plan = AppPlan::build(&spec);
        let mut mrd_purged = 0;
        for (policy, build) in all_policies() {
            let o = run_solo(&spec, &plan, state_cfg(&c, &spec), &build);
            if policy.starts_with("mrd") {
                mrd_purged += o.decisions.counts().1;
            }
            out.push_str(&o.line(&format!("{name} {policy}")));
        }
        if name == "state sparse-crash-purge" {
            assert!(mrd_purged > 0, "the MRD runs must exercise the purge path");
        }
    }
}

// ---------------------------------------------------------------------------
// Family `sched`
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SchedApp {
    iters: u64,
    parts: u32,
    block_kb: u64,
}

#[derive(Debug, Clone)]
struct SchedCfg {
    nodes: u32,
    cores: u32,
    cache_frac: f64,
    jitter: f64,
    seed: u64,
    slow: bool,
    failure: bool,
    delay: Option<u64>,
}

fn sched_app(p: &SchedApp) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let mut b = AppBuilder::new("sched-app");
    let input = b.input("in", p.parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..p.iters {
        let s = b.shuffle(format!("agg{i}"), &[data], p.parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn sched_cfg(c: &SchedCfg, spec: &AppSpec) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterConfig::tiny(
        c.nodes,
        cache_for(spec, c.cache_frac, c.nodes),
    ));
    cfg.cluster.cores_per_node = c.cores;
    cfg.seed = c.seed;
    cfg.compute_jitter = c.jitter;
    cfg.delay_scheduling_us = c.delay;
    cfg.collect_placements = true;
    if c.slow {
        cfg.faults.slow_node(0, 8.0);
    }
    if c.failure {
        cfg.faults.node_failure(c.nodes - 1, 2);
    }
    cfg
}

fn sched_corpus() -> Vec<(String, SchedApp, SchedCfg)> {
    let mut g = Gen(0x5C4E_D00D);
    let mut out = Vec::new();
    for i in 0..48 {
        let app = SchedApp {
            iters: g.range(1, 4),
            parts: g.range(1, 16) as u32,
            block_kb: g.range(1, 4),
        };
        let cfg = SchedCfg {
            nodes: g.range(1, 6) as u32,
            cores: g.range(1, 5) as u32,
            cache_frac: g.pick(&[0.3, 2.0]),
            jitter: g.pick(&[0.0, 0.1]),
            seed: g.below(1 << 16),
            slow: g.flip(),
            failure: g.flip(),
            // None exercises the home-only path; 0 migrates aggressively
            // (maximum index churn); 5 ms sits at the decision boundary.
            delay: g.pick(&[None, Some(0), Some(5_000)]),
        };
        out.push((format!("sched {i:02}"), app, cfg));
    }
    // The migration-heavy corner: a straggler, many task waves per node, a
    // tight delay bound, and free-time ties from jitter being off — where
    // tie-breaking mistakes surface.
    for delay in [0, 5_000, 50_000] {
        out.push((
            format!("sched migration delay{delay}"),
            SchedApp {
                iters: 4,
                parts: 13,
                block_kb: 2,
            },
            SchedCfg {
                nodes: 3,
                cores: 2,
                cache_frac: 2.0,
                jitter: 0.0,
                seed: 7,
                slow: true,
                failure: false,
                delay: Some(delay),
            },
        ));
    }
    out
}

fn sched_lines(out: &mut String) {
    let policies = core_policies();
    for (name, app, c) in sched_corpus() {
        let spec = sched_app(&app);
        let plan = AppPlan::build(&spec);
        for (policy, build) in [&policies[0], &policies[5]] {
            let o = run_solo(&spec, &plan, sched_cfg(&c, &spec), build);
            out.push_str(&o.line(&format!("{name} {policy}")));
        }
    }
}

// ---------------------------------------------------------------------------
// Family `events`
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct EventParams {
    iters: u64,
    parts: u32,
    block_kb: u64,
    mem_only: bool,
    nodes: u32,
    cache_frac: f64,
    jitter: f64,
    seed: u64,
    /// Stochastic chaos plus speculation — the regime where the engine
    /// keeps per-task records and selects each stage's speculation
    /// threshold from their finish times.
    chaos: bool,
}

fn events_app(p: &EventParams) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let mut b = AppBuilder::new("event-diff-app");
    let input = b.input("in", p.parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, storage(p.mem_only));
    for i in 0..p.iters {
        let s = b.shuffle(format!("agg{i}"), &[hot], p.parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn events_cfg(p: &EventParams, spec: &AppSpec) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterConfig::tiny(
        p.nodes,
        cache_for(spec, p.cache_frac, p.nodes),
    ));
    cfg.seed = p.seed;
    cfg.compute_jitter = p.jitter;
    cfg.collect_trace = true;
    cfg.collect_placements = true;
    if p.chaos {
        cfg.faults = FaultPlan::chaos(0.05);
        // Chaos alone never speculates; turn it on so the completion-event
        // queue (the k-th-pop threshold) is on the measured path, and slow
        // a node so stragglers exist to speculate on.
        cfg.faults.speculation_quantile = 0.5;
        cfg.faults.slow_node(0, 3.0);
    }
    cfg
}

fn events_corpus() -> Vec<(String, EventParams)> {
    let mut g = Gen(0xE7E7_5EED);
    let mut out: Vec<(String, EventParams)> = (0..24)
        .map(|i| {
            let p = EventParams {
                iters: g.range(1, 4),
                parts: g.range(1, 8) as u32,
                block_kb: g.range(1, 4),
                mem_only: g.flip(),
                nodes: g.range(1, 4) as u32,
                cache_frac: g.pick(&[0.3, 0.6, 2.0]),
                jitter: g.pick(&[0.0, 0.1]),
                seed: g.below(1 << 16),
                chaos: g.flip(),
            };
            (format!("events {i:02}"), p)
        })
        .collect();
    out.push((
        "events pressure".into(),
        EventParams {
            iters: 3,
            parts: 7,
            block_kb: 2,
            mem_only: false,
            nodes: 3,
            cache_frac: 0.3,
            jitter: 0.1,
            seed: 7,
            chaos: true,
        },
    ));
    out.push((
        "events serve-pressure".into(),
        EventParams {
            iters: 2,
            parts: 5,
            block_kb: 1,
            mem_only: false,
            nodes: 2,
            cache_frac: 0.4,
            jitter: 0.1,
            seed: 11,
            chaos: false,
        },
    ));
    out
}

/// Three submissions across two tenants (LRU, MRD, LRC), Poisson arrivals
/// and equal-share quotas; the whole `ServeReport` and the global decision
/// order are digested.
fn run_events_serve(p: &EventParams, sched: ServeSched) -> Outcome {
    let spec_a = events_app(p);
    let spec_b = events_app(&EventParams {
        iters: (p.iters % 2) + 1,
        ..p.clone()
    });
    let subs: Vec<(&AppSpec, u32)> = vec![(&spec_a, 0), (&spec_b, 0), (&spec_a, 1)];
    let mut cfg = ServeConfig::passthrough(events_cfg(p, &spec_a));
    cfg.arrivals = ArrivalProcess::Poisson {
        mean_gap_us: 200_000,
    };
    cfg.sched = sched;
    cfg.quota = QuotaKind::EqualShare;
    let serve = ServeSim::new(&subs, cfg);
    let fams = core_policies();
    let log = common::Log::default();
    let report = serve.run_with(|i| Recorder::sharing(fams[[0, 5, 3][i]].1(), &log));
    Outcome {
        report: format!("{report:?}"),
        decisions: snapshot(&log),
    }
}

fn events_lines(out: &mut String) {
    for (name, p) in events_corpus() {
        let spec = events_app(&p);
        let plan = AppPlan::build(&spec);
        if name != "events serve-pressure" {
            for (policy, build) in core_policies() {
                let o = run_solo(&spec, &plan, events_cfg(&p, &spec), &build);
                out.push_str(&o.line(&format!("{name} {policy}")));
            }
        }
        if name != "events pressure" {
            for sched in [ServeSched::Fifo, ServeSched::FairShare] {
                let o = run_events_serve(&p, sched);
                out.push_str(&o.line(&format!("{name} serve-{sched}")));
            }
        }
    }
}

fn engine_digests() -> String {
    let mut out = String::new();
    state_lines(&mut out);
    sched_lines(&mut out);
    events_lines(&mut out);
    out
}

#[test]
fn engine_decisions_match_golden() {
    check_golden(
        "engine_decisions.txt",
        &engine_digests(),
        "UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test engine_decisions",
    );
}
