//! Differential property test for the multi-tenant serve driver.
//!
//! Serving is *equivalent by construction* to the single-app engine: a
//! 1-submission serve (one tenant, zero arrival delay, unlimited quota)
//! combines the spec into a clone of itself, the tenant mux passes every
//! policy hook through unchanged, and the driver performs exactly the legacy
//! `Engine::run` call sequence. This test holds the construction to the
//! proof obligation: for randomized applications × cluster configurations
//! (fault events included) × every policy family, the legacy engine and the
//! 1-tenant serve must produce byte-identical `RunReport`s (access trace and
//! task placements included) and identical victim/purge decision sequences
//! as observed through the policy interface.

use proptest::prelude::*;
use refdist_cluster::{
    ArrivalProcess, ClusterConfig, QuotaKind, RunReport, ServeConfig, ServeReport, ServeSched,
    ServeSim, SimConfig, Simulation,
};
use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy, ProfileMode};
use refdist_dag::{AppBuilder, AppPlan, AppSpec, BlockId, BlockSlots, StorageLevel};
use refdist_policies::{CachePolicy, PolicyKind};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Decision log shared between the test and a [`Recorder`] that gets moved
/// into the serve driver (which consumes its policies).
#[derive(Default)]
struct DecisionLog {
    victims: Mutex<Vec<(NodeId, Vec<BlockId>)>>,
    purges: Mutex<Vec<Vec<BlockId>>>,
}

type VictimLog = Vec<(NodeId, Vec<BlockId>)>;
type PurgeLog = Vec<Vec<BlockId>>;

impl DecisionLog {
    fn snapshot(&self) -> (VictimLog, PurgeLog) {
        (
            self.victims.lock().unwrap().clone(),
            self.purges.lock().unwrap().clone(),
        )
    }
}

/// Wraps a policy and logs every eviction batch and purge decision into a
/// shared [`DecisionLog`], so runs that consume the policy (the serve
/// driver) can still be compared on their decision sequences.
struct Recorder {
    inner: Box<dyn CachePolicy>,
    log: Arc<DecisionLog>,
}

impl Recorder {
    fn new(inner: Box<dyn CachePolicy>, log: Arc<DecisionLog>) -> Self {
        Recorder { inner, log }
    }
}

impl CachePolicy for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.inner.attach_slots(slots);
    }
    fn on_job_submit(&mut self, job: refdist_dag::JobId, visible: &refdist_dag::AppProfile) {
        self.inner.on_job_submit(job, visible);
    }
    fn on_stage_start(&mut self, stage: refdist_dag::StageId, visible: &refdist_dag::AppProfile) {
        self.inner.on_stage_start(stage, visible);
    }
    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_insert(node, block);
    }
    fn on_access(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_access(node, block);
    }
    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_remove(node, block);
    }
    fn on_node_join(&mut self, node: NodeId) {
        self.inner.on_node_join(node);
    }
    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        self.inner.pick_victim(node, candidates)
    }
    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let v = self.inner.select_victims(node, shortfall, resident);
        self.log.victims.lock().unwrap().push((node, v.clone()));
        v
    }
    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let p = self.inner.purge_candidates(in_memory);
        self.log.purges.lock().unwrap().push(p.clone());
        p
    }
    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        self.inner.prefetch_order(node, missing)
    }
    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
    fn wants_purge(&self) -> bool {
        self.inner.wants_purge()
    }
}

/// Parameters of a randomized iterative application.
#[derive(Debug, Clone)]
struct AppParams {
    iters: usize,
    parts: u32,
    block_kb: u64,
    mem_only: bool,
    two_rdds: bool,
}

fn build_app(p: &AppParams) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let level = if p.mem_only {
        StorageLevel::MemoryOnly
    } else {
        StorageLevel::MemoryAndDisk
    };
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

/// Parameters of a randomized cluster configuration.
#[derive(Debug, Clone)]
struct CfgParams {
    nodes: u32,
    cache_frac: f64,
    exec_mem: f64,
    jitter: f64,
    seed: u64,
    adaptive: bool,
    failure: bool,
    rejoin: bool,
    delay: Option<u64>,
}

fn build_cfg(c: &CfgParams, spec: &AppSpec) -> SimConfig {
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    let per_node = ((footprint as f64 * c.cache_frac) / c.nodes as f64) as u64;
    let mut cfg = SimConfig::new(ClusterConfig::tiny(c.nodes, per_node));
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
    if c.rejoin {
        cfg.faults.crash_with_rejoin(0, 1, 2);
    }
    cfg
}

type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;

/// Every servable policy family: the five baselines plus MRD in all three
/// modes and with job-granular distances (Belady is excluded by design —
/// its whole-run trace has no meaning under serving).
fn all_policies() -> Vec<(&'static str, Build)> {
    let mut v: Vec<(&'static str, Build)> = vec![
        ("lru", Box::new(|| PolicyKind::Lru.build())),
        ("fifo", Box::new(|| PolicyKind::Fifo.build())),
        ("random", Box::new(|| PolicyKind::Random.build())),
        ("lrc", Box::new(|| PolicyKind::Lrc.build())),
        ("memtune", Box::new(|| PolicyKind::MemTune.build())),
    ];
    for (name, mode, metric) in [
        ("mrd-evict", MrdMode::EvictOnly, DistanceMetric::Stage),
        ("mrd-prefetch", MrdMode::PrefetchOnly, DistanceMetric::Stage),
        ("mrd-full", MrdMode::Full, DistanceMetric::Stage),
        ("mrd-full-job", MrdMode::Full, DistanceMetric::Job),
    ] {
        v.push((
            name,
            Box::new(move || {
                Box::new(MrdPolicy::new(MrdConfig {
                    mode,
                    metric,
                    ..Default::default()
                }))
            }),
        ));
    }
    v
}

fn run_legacy(
    spec: &AppSpec,
    plan: &AppPlan,
    cfg: SimConfig,
    build: &Build,
) -> (RunReport, Arc<DecisionLog>) {
    let log = Arc::new(DecisionLog::default());
    let mut rec = Recorder::new(build(), Arc::clone(&log));
    let report = Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut rec);
    (report, log)
}

fn run_serve(spec: &AppSpec, cfg: SimConfig, build: &Build) -> (RunReport, Arc<DecisionLog>) {
    let log = Arc::new(DecisionLog::default());
    let rec = Recorder::new(build(), Arc::clone(&log));
    let serve = ServeSim::new(&[(spec, 0)], ServeConfig::passthrough(cfg));
    let mut sr = serve.run(vec![Box::new(rec)]);
    assert_eq!(sr.reports.len(), 1);
    assert_eq!(sr.makespan, sr.reports[0].jct);
    (sr.reports.remove(0), log)
}

fn assert_equivalent(p: &AppParams, c: &CfgParams) {
    let spec = build_app(p);
    let plan = AppPlan::build(&spec);
    for (name, build) in all_policies() {
        let (legacy_report, legacy_log) = run_legacy(&spec, &plan, build_cfg(c, &spec), &build);
        let (serve_report, serve_log) = run_serve(&spec, build_cfg(c, &spec), &build);
        assert_eq!(
            format!("{legacy_report:?}"),
            format!("{serve_report:?}"),
            "report diverged for {name} on {p:?} {c:?}"
        );
        let (lv, lp) = legacy_log.snapshot();
        let (sv, sp) = serve_log.snapshot();
        assert_eq!(lv, sv, "victim sequence diverged for {name} on {p:?} {c:?}");
        assert_eq!(lp, sp, "purge sequence diverged for {name} on {p:?} {c:?}");
    }
}

fn app_strategy() -> impl Strategy<Value = AppParams> {
    (1usize..4, 1u32..8, 1u64..4, any::<bool>(), any::<bool>()).prop_map(
        |(iters, parts, block_kb, mem_only, two_rdds)| AppParams {
            iters,
            parts,
            block_kb,
            mem_only,
            two_rdds,
        },
    )
}

fn cfg_strategy() -> impl Strategy<Value = CfgParams> {
    (
        (
            1u32..4,
            prop_oneof![Just(0.0), Just(0.3), Just(0.6), Just(2.0)],
            prop_oneof![Just(0.0), Just(0.3)],
            prop_oneof![Just(0.0), Just(0.1)],
        ),
        (
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            prop_oneof![Just(None), Just(Some(0u64)), Just(Some(10_000u64))],
        ),
    )
        .prop_map(
            |((nodes, cache_frac, exec_mem, jitter), (seed, adaptive, failure, rejoin, delay))| {
                CfgParams {
                    nodes,
                    cache_frac,
                    exec_mem,
                    jitter,
                    seed: seed as u64,
                    adaptive,
                    failure,
                    rejoin: rejoin && nodes > 1,
                    delay,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn single_tenant_serve_is_indistinguishable_from_legacy(
        app in app_strategy(),
        cfg in cfg_strategy(),
    ) {
        assert_equivalent(&app, &cfg);
    }
}

// ---------------------------------------------------------------------------
// Streaming vs upfront
// ---------------------------------------------------------------------------

/// Parameters of a randomized multi-submission stream.
#[derive(Debug, Clone)]
struct StreamParams {
    /// Inter-arrival gaps; the stream has `gaps.len() + 1` submissions.
    gaps: Vec<u64>,
    tenants: usize,
    fair_share: bool,
    /// 0 = unlimited, 1 = equal-share, 2 = per-tenant byte budget.
    quota: u8,
    app: AppParams,
    /// Vary iteration counts across submissions (heterogeneous stream).
    vary: bool,
    /// Poisson arrivals instead of the trace built from `gaps`.
    poisson: bool,
}

fn run_stream(
    p: &StreamParams,
    c: &CfgParams,
    upfront: bool,
    intern: bool,
) -> (ServeReport, (VictimLog, PurgeLog)) {
    run_stream_with(p, c, upfront, intern, &|_| {})
}

fn run_stream_with(
    p: &StreamParams,
    c: &CfgParams,
    upfront: bool,
    intern: bool,
    tweak: &dyn Fn(&mut ServeConfig),
) -> (ServeReport, (VictimLog, PurgeLog)) {
    let n = p.gaps.len() + 1;
    let specs: Vec<AppSpec> = (0..n)
        .map(|i| {
            let mut ap = p.app.clone();
            if p.vary {
                ap.iters = 1 + (i % 3);
            }
            build_app(&ap)
        })
        .collect();
    let subs: Vec<(&AppSpec, u32)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s, (i % p.tenants) as u32))
        .collect();
    let mut arrivals = vec![0u64];
    for g in &p.gaps {
        arrivals.push(arrivals.last().unwrap() + g);
    }
    let block = p.app.block_kb * 256 * 1024;
    let cfg = ServeConfig {
        sim: build_cfg(c, &specs[0]),
        arrivals: if p.poisson {
            ArrivalProcess::Poisson {
                mean_gap_us: p.gaps.first().copied().unwrap_or(0).max(1),
            }
        } else {
            ArrivalProcess::Trace(arrivals)
        },
        sched: if p.fair_share {
            ServeSched::FairShare
        } else {
            ServeSched::Fifo
        },
        quota: match p.quota {
            0 => QuotaKind::Unlimited,
            1 => QuotaKind::EqualShare,
            _ => QuotaKind::Bytes(block * 2),
        },
        upfront,
        intern,
        resilience: Default::default(),
    };
    let mut cfg = cfg;
    tweak(&mut cfg);
    let serve = ServeSim::new(&subs, cfg);
    // One shared log across every submission's recorder: the *global*
    // victim/purge call sequence must match, interleaving included. The
    // factory runs once per admission, so app-level retries get a fresh
    // instance of the same family.
    let log = Arc::new(DecisionLog::default());
    let fams = all_policies();
    let report = serve.run_with(|i| {
        Box::new(Recorder::new(fams[i % fams.len()].1(), Arc::clone(&log)))
    });
    (report, log.snapshot())
}

fn assert_stream_equivalent(p: &StreamParams, c: &CfgParams) {
    let (up, (uv, upu)) = run_stream(p, c, true, true);
    let (st, (sv, spu)) = run_stream(p, c, false, true);
    assert_eq!(
        format!("{:?}", up.reports),
        format!("{:?}", st.reports),
        "per-submission reports diverged on {p:?} {c:?}"
    );
    assert_eq!(up.arrivals, st.arrivals, "{p:?} {c:?}");
    assert_eq!(up.completions, st.completions, "{p:?} {c:?}");
    assert_eq!(up.tenants, st.tenants, "{p:?} {c:?}");
    assert_eq!(
        up.cross_evictions, st.cross_evictions,
        "eviction matrix diverged on {p:?} {c:?}"
    );
    assert_eq!(up.makespan, st.makespan, "{p:?} {c:?}");
    assert_eq!(up.summary(), st.summary(), "{p:?} {c:?}");
    assert_eq!(uv, sv, "victim sequence diverged on {p:?} {c:?}");
    assert_eq!(upu, spu, "purge sequence diverged on {p:?} {c:?}");
    // Residency is identical moment for moment, so the sampled peaks agree
    // exactly; the streaming arena must never exceed the upfront one (which
    // holds the whole stream).
    assert_eq!(up.peak_resident_blocks, st.peak_resident_blocks);
    assert_eq!(up.peak_resident_bytes, st.peak_resident_bytes);
    assert!(
        st.peak_arena_slots <= up.peak_arena_slots,
        "streaming arena ({}) exceeded upfront ({}) on {p:?} {c:?}",
        st.peak_arena_slots,
        up.peak_arena_slots
    );
}

/// Interned admission must be indistinguishable — report bytes and global
/// victim/purge decision sequences — from replanning every submission from
/// scratch. The planner and analyzer are deterministic, so a template cache
/// hit followed by an offset rebase has to reproduce `plan_one` exactly.
fn assert_interned_equivalent(p: &StreamParams, c: &CfgParams) {
    let (cold, (cv, cp)) = run_stream(p, c, false, false);
    let (hot, (hv, hp)) = run_stream(p, c, false, true);
    assert_eq!(
        format!("{:?}", cold.reports),
        format!("{:?}", hot.reports),
        "per-submission reports diverged between cold and interned admission on {p:?} {c:?}"
    );
    assert_eq!(cold.summary(), hot.summary(), "{p:?} {c:?}");
    assert_eq!(cold.cross_evictions, hot.cross_evictions, "{p:?} {c:?}");
    assert_eq!(cv, hv, "victim sequence diverged on {p:?} {c:?}");
    assert_eq!(cp, hp, "purge sequence diverged on {p:?} {c:?}");
    // Cold admission never touches the template cache; interned admission is
    // bounded by template diversity: `vary` cycles iters over 1 + (i % 3).
    assert_eq!(cold.distinct_templates, 0);
    let n = p.gaps.len() + 1;
    let distinct = if p.vary { n.min(3) } else { 1 };
    assert!(
        (1..=distinct).contains(&hot.distinct_templates),
        "expected 1..={distinct} distinct templates, interned {} on {p:?} {c:?}",
        hot.distinct_templates
    );
}

fn stream_strategy() -> impl Strategy<Value = StreamParams> {
    (
        (
            prop::collection::vec(0u64..400_000, 1..4),
            1usize..3,
            any::<bool>(),
        ),
        (0u8..3, app_strategy(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((gaps, tenants, fair_share), (quota, app, vary, poisson))| StreamParams {
                gaps,
                tenants,
                fair_share,
                quota,
                app,
                vary,
                poisson,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn streaming_serve_is_byte_identical_to_upfront(
        stream in stream_strategy(),
        cfg in cfg_strategy(),
    ) {
        assert_stream_equivalent(&stream, &cfg);
    }

    #[test]
    fn interned_admission_is_byte_identical_to_per_submission(
        stream in stream_strategy(),
        cfg in cfg_strategy(),
    ) {
        assert_interned_equivalent(&stream, &cfg);
    }
}

/// Deterministic streaming spot-check of the nastiest corner: fair-share
/// dispatch (out-of-index-order admission), a byte quota, node failure and
/// rejoin chaos, heterogeneous submissions, and a cache far smaller than
/// the combined working set — the regime where admission re-seating, ghost
/// disk accounting and drain-then-retire ordering all have to be exact.
#[test]
fn streaming_matches_upfront_under_heavy_pressure() {
    let stream = StreamParams {
        gaps: vec![40_000, 0, 120_000, 10_000],
        tenants: 2,
        fair_share: true,
        quota: 2,
        app: AppParams {
            iters: 3,
            parts: 5,
            block_kb: 2,
            mem_only: false,
            two_rdds: true,
        },
        vary: true,
        poisson: false,
    };
    let cfg = CfgParams {
        nodes: 2,
        cache_frac: 0.4,
        exec_mem: 0.3,
        jitter: 0.1,
        seed: 11,
        adaptive: true,
        failure: true,
        rejoin: true,
        delay: Some(10_000),
    };
    assert_stream_equivalent(&stream, &cfg);
    assert_interned_equivalent(&stream, &cfg);
    // FIFO + unlimited quota exercises the drain-heavy path instead.
    let mut s2 = stream.clone();
    s2.fair_share = false;
    s2.quota = 0;
    let mut c2 = cfg.clone();
    c2.cache_frac = 0.3;
    c2.seed = 23;
    assert_stream_equivalent(&s2, &c2);
    assert_interned_equivalent(&s2, &c2);
}

/// The stream/config pair the resilience differentials run on: heavy cache
/// pressure, chaos events, heterogeneous submissions across two tenants.
fn pressure_stream() -> (StreamParams, CfgParams) {
    (
        StreamParams {
            gaps: vec![40_000, 0, 120_000, 10_000],
            tenants: 2,
            fair_share: true,
            quota: 2,
            app: AppParams {
                iters: 3,
                parts: 5,
                block_kb: 2,
                mem_only: false,
                two_rdds: true,
            },
            vary: true,
            poisson: false,
        },
        CfgParams {
            nodes: 2,
            cache_frac: 0.4,
            exec_mem: 0.3,
            jitter: 0.1,
            seed: 11,
            adaptive: true,
            failure: true,
            rejoin: true,
            delay: Some(10_000),
        },
    )
}

/// A `ResilienceConfig` with every *inert* knob set to a non-default value
/// must be byte-invisible — reports, summaries and the global victim/purge
/// decision sequences — to every serve path: streaming and upfront, interned
/// and cold, FIFO and fair-share, with quota and chaos in play.
#[test]
fn inert_resilience_config_is_byte_invisible_everywhere() {
    let (mut stream, cfg) = pressure_stream();
    let inert = |sc: &mut ServeConfig| {
        sc.resilience = refdist_cluster::ResilienceConfig {
            max_app_attempts: 1,
            retry_backoff_us: 123,
            max_retry_backoff_us: 456,
            admission: refdist_cluster::AdmissionPolicy::Degrade,
            max_active_apps: None,
            queue_cap: None,
            deadline_us: None,
        };
    };
    for fair_share in [true, false] {
        stream.fair_share = fair_share;
        for (upfront, intern) in [(false, true), (false, false), (true, true)] {
            let (base, blog) = run_stream(&stream, &cfg, upfront, intern);
            let (res, rlog) = run_stream_with(&stream, &cfg, upfront, intern, &inert);
            assert_eq!(
                format!("{:?}", base.reports),
                format!("{:?}", res.reports),
                "inert resilience config changed reports (fair_share={fair_share}, upfront={upfront}, intern={intern})"
            );
            assert_eq!(base.summary(), res.summary());
            assert_eq!(base.completions, res.completions);
            assert_eq!(base.cross_evictions, res.cross_evictions);
            assert_eq!(blog, rlog, "decision sequences diverged under an inert config");
            assert!(res.resilience.is_none(), "passive config must not report resilience");
        }
    }
}

/// Regression pin for the serve×chaos stage-indexing contract: stage-indexed
/// `CrashEvent`s fire against *per-application* stage numbering (fire-once,
/// cluster-wide), and wall-clock events (timed crashes, churn) fire against
/// the engine's monotone cluster clock — so a given chaos seed produces the
/// same fault sequence whether the stream runs under the upfront
/// reference driver, the streaming driver, or streaming with template
/// interning.
#[test]
fn chaos_fault_sequence_is_driver_invariant() {
    let (stream, cfg) = pressure_stream();
    // Stage-indexed chaos (from `cfg`: node_failure + crash_with_rejoin)
    // plus the full wall-clock arsenal.
    let chaos = |sc: &mut ServeConfig| {
        sc.sim.faults.timed_crash(1, 200_000, Some(150_000));
        sc.sim.faults.timed_slowdown(0, 3.0, 100_000, Some(400_000));
        sc.sim.faults.node_churn(900_000, 300_000);
    };
    let (up, ulog) = run_stream_with(&stream, &cfg, true, true, &chaos);
    let (st, slog) = run_stream_with(&stream, &cfg, false, true, &chaos);
    let (cold, clog) = run_stream_with(&stream, &cfg, false, false, &chaos);

    let faults = |r: &ServeReport| -> Vec<String> {
        r.reports.iter().map(|x| format!("{:?}", x.faults)).collect()
    };
    assert_eq!(
        faults(&up),
        faults(&st),
        "per-submission fault sequence diverged between upfront and streaming"
    );
    assert_eq!(
        faults(&st),
        faults(&cold),
        "per-submission fault sequence diverged between interned and cold admission"
    );
    // The whole run — not just the fault counters — is driver-invariant.
    assert_eq!(format!("{:?}", up.reports), format!("{:?}", st.reports));
    assert_eq!(format!("{:?}", st.reports), format!("{:?}", cold.reports));
    assert_eq!(ulog, slog);
    assert_eq!(slog, clog);
    // And the chaos actually fired: this pin is vacuous on a quiet cluster.
    let total: u64 = st.reports.iter().map(|r| r.faults.crashes).sum();
    assert!(total > 0, "chaos plan must take nodes down during the stream");
    // Same chaos seed, same run: byte-deterministic replay.
    let (again, alog) = run_stream_with(&stream, &cfg, false, true, &chaos);
    assert_eq!(format!("{:?}", st.reports), format!("{:?}", again.reports));
    assert_eq!(slog, alog);
}

/// Deterministic spot-check of the pressure-heavy corner (cache far smaller
/// than the working set, execution-memory churn, prefetching, fault events),
/// so the equivalence claim does not rest on random sampling alone.
#[test]
fn serve_matches_legacy_under_heavy_pressure() {
    let app = AppParams {
        iters: 3,
        parts: 7,
        block_kb: 2,
        mem_only: false,
        two_rdds: true,
    };
    let cfg = CfgParams {
        nodes: 2,
        cache_frac: 0.3,
        exec_mem: 0.3,
        jitter: 0.1,
        seed: 7,
        adaptive: true,
        failure: true,
        rejoin: true,
        delay: Some(10_000),
    };
    assert_equivalent(&app, &cfg);
}

// ---------------------------------------------------------------------------
// Frozen decision digests
// ---------------------------------------------------------------------------

/// FNV-1a: a digest that stays the same across toolchains (the std hashers
/// promise no such thing).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministic splitmix64 stream that generates the decision corpus.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a decision-corpus scenario drives the stream beyond its base
/// parameters.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Streaming,
    Upfront,
    /// Wall-clock node churn.
    Churn,
    /// Task failures that abort stages, with an app-level retry budget.
    Retry,
    /// An active-app cap that sheds arrivals.
    Shed,
    /// An active-app cap with a bounded pending queue (overflow sheds).
    Queue,
}

/// The fixed, seeded scenario corpus behind `serve_decisions.txt`: every
/// variant × FIFO/fair-share × unlimited/equal-share/byte quota, with app
/// and cluster parameters drawn from one seeded stream. Each stream has ten
/// submissions, so all nine policy instances of [`all_policies`] (all seven
/// families, Random included) are interleaved in every scenario.
fn decision_corpus() -> Vec<(String, StreamParams, CfgParams, Variant)> {
    use Variant::*;
    let mut g = Gen(0xD1CE_5EED);
    let mut out = Vec::new();
    for variant in [Streaming, Upfront, Churn, Retry, Shed, Queue] {
        for fair_share in [false, true] {
            for quota in 0u8..3 {
                let stream = StreamParams {
                    gaps: (0..9).map(|_| g.below(4) * 40_000).collect(),
                    tenants: 1 + g.below(3) as usize,
                    fair_share,
                    quota,
                    app: AppParams {
                        iters: 1 + g.below(3) as usize,
                        parts: 3 + g.below(6) as u32,
                        block_kb: 1 + g.below(3),
                        mem_only: g.below(2) == 0,
                        two_rdds: g.below(2) == 0,
                    },
                    vary: g.below(2) == 0,
                    poisson: g.below(4) == 0,
                };
                let nodes = 1 + g.below(3) as u32;
                let cfg = CfgParams {
                    nodes,
                    cache_frac: [0.6, 1.0, 1.6, 2.5][g.below(4) as usize],
                    exec_mem: [0.0, 0.3][g.below(2) as usize],
                    jitter: [0.0, 0.1][g.below(2) as usize],
                    seed: g.below(1 << 16),
                    adaptive: g.below(2) == 0,
                    failure: g.below(4) == 0,
                    rejoin: nodes > 1 && g.below(3) == 0,
                    delay: [None, Some(0), Some(10_000)][g.below(3) as usize],
                };
                let sched = if fair_share { "fair" } else { "fifo" };
                let name = format!("{:02} {variant:?} {sched} quota{quota}", out.len());
                out.push((name, stream, cfg, variant));
            }
        }
    }
    out
}

fn apply_variant(variant: Variant, sc: &mut ServeConfig) {
    use refdist_cluster::{AdmissionPolicy, ResilienceConfig};
    match variant {
        Variant::Streaming | Variant::Upfront => {}
        Variant::Churn => {
            sc.sim.faults.node_churn(600_000, 200_000);
        }
        Variant::Retry => {
            sc.sim.faults.task_failure_p = 0.15;
            sc.sim.faults.max_task_attempts = 2;
            sc.resilience = ResilienceConfig {
                max_app_attempts: 3,
                retry_backoff_us: 50_000,
                ..ResilienceConfig::default()
            };
        }
        Variant::Shed => {
            sc.resilience = ResilienceConfig {
                max_active_apps: Some(2),
                admission: AdmissionPolicy::Shed,
                ..ResilienceConfig::default()
            };
        }
        Variant::Queue => {
            sc.resilience = ResilienceConfig {
                max_active_apps: Some(3),
                admission: AdmissionPolicy::Queue,
                queue_cap: Some(2),
                ..ResilienceConfig::default()
            };
        }
    }
}

/// One line per corpus scenario: decision counts and the FNV-1a digest of
/// the global victim and purge log.
fn decision_digests() -> String {
    let mut out = String::new();
    for (name, stream, cfg, variant) in decision_corpus() {
        let upfront = matches!(variant, Variant::Upfront);
        let (_, (victims, purges)) =
            run_stream_with(&stream, &cfg, upfront, true, &|sc| apply_variant(variant, sc));
        let nv: usize = victims.iter().map(|(_, v)| v.len()).sum();
        let np: usize = purges.iter().map(Vec::len).sum();
        let digest = fnv1a(format!("{victims:?}|{purges:?}").as_bytes());
        out.push_str(&format!(
            "{name}: victims {nv} purged {np} digest {digest:016x}\n"
        ));
    }
    out
}

/// The global victim/purge decision sequence of every corpus scenario is
/// frozen. The streaming-vs-upfront differential cannot see a change to
/// the tenant mux (both drivers share it); this golden can. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve`
/// and review the diff.
#[test]
fn serve_decisions_match_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/serve_decisions.txt");
    let actual = decision_digests();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("writing the decision golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("reading the decision golden");
    assert_eq!(
        actual,
        expected,
        "serve decisions diverged from {}",
        path.display()
    );
}
