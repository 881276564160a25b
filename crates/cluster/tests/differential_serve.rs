//! Differential property test for the multi-tenant serve driver.
//!
//! Serving is *equivalent by construction* to a solo run: a 1-submission
//! serve (one tenant, zero arrival delay, unlimited quota) combines the spec
//! into a clone of itself, the tenant mux passes every policy hook through
//! unchanged, and the serve driver performs exactly the solo driver's call
//! sequence over the one stage executor. This test holds the construction
//! to the proof obligation: for randomized applications × cluster
//! configurations (fault events included) × every policy family, the solo
//! run and the 1-tenant serve must produce byte-identical `RunReport`s
//! (access trace and task placements included) and identical victim/purge
//! decision sequences as observed through the policy interface.
//!
//! Multi-submission streams are pinned by three frozen digest files, each
//! drawn from a seeded corpus: `tests/golden/serve_equivalence.txt` (whole
//! reports and global decision logs of randomized and pressure streams),
//! `tests/golden/serve_decisions.txt` (decision logs across every quota,
//! discipline and resilience variant) and `tests/golden/serve_admission.txt`
//! (the admission timeline of the resilience variants). Every stream of
//! both digest corpora also checks eviction conservation
//! ([`assert_evictions_conserved`]).

mod common;

use common::{all_policies, check_golden, fnv1a, snapshot, Build, Decisions, Gen, Log, Recorder};
use proptest::prelude::*;
use refdist_cluster::{
    ArrivalProcess, ClusterConfig, QuotaKind, RunReport, ServeConfig, ServeReport, ServeSched,
    ServeSim, SimConfig, Simulation,
};
use refdist_core::ProfileMode;
use refdist_dag::{
    remap_plan, remap_profile, AppBuilder, AppPlan, AppSpec, PlannedTemplate, StorageLevel,
    TemplateCache,
};

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

fn run_legacy(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, build: &Build) -> (RunReport, Log) {
    let (mut rec, log) = Recorder::wrap(build());
    let report = Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut *rec);
    (report, log)
}

fn run_serve(spec: &AppSpec, cfg: SimConfig, build: &Build) -> (RunReport, Log) {
    let log = Log::default();
    let serve = ServeSim::new(&[(spec, 0)], ServeConfig::passthrough(cfg));
    let mut sr = serve.run_with(|_| Recorder::sharing(build(), &log));
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
        assert_eq!(
            snapshot(&legacy_log),
            snapshot(&serve_log),
            "decision sequence diverged for {name} on {p:?} {c:?}"
        );
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
// Multi-submission streams
// ---------------------------------------------------------------------------

/// Parameters of a multi-submission stream.
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

fn stream_specs(p: &StreamParams) -> Vec<AppSpec> {
    (0..p.gaps.len() + 1)
        .map(|i| {
            let mut ap = p.app.clone();
            if p.vary {
                ap.iters = 1 + (i % 3);
            }
            build_app(&ap)
        })
        .collect()
}

/// Run the stream with submission `i` under policy family `i % 9`, every
/// recorder appending to one shared log: the *global* victim/purge call
/// sequence, interleaving included. The factory runs once per admission,
/// so app-level retries get a fresh instance of the same family.
fn run_stream(
    p: &StreamParams,
    c: &CfgParams,
    tweak: &dyn Fn(&mut ServeConfig),
) -> (ServeReport, Decisions) {
    let specs = stream_specs(p);
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
    let mut cfg = ServeConfig::passthrough(build_cfg(c, &specs[0]));
    cfg.arrivals = if p.poisson {
        ArrivalProcess::Poisson {
            mean_gap_us: p.gaps.first().copied().unwrap_or(0).max(1),
        }
    } else {
        ArrivalProcess::Trace(arrivals)
    };
    cfg.sched = if p.fair_share {
        ServeSched::FairShare
    } else {
        ServeSched::Fifo
    };
    cfg.quota = match p.quota {
        0 => QuotaKind::Unlimited,
        1 => QuotaKind::EqualShare,
        _ => QuotaKind::Bytes(block * 2),
    };
    tweak(&mut cfg);
    let serve = ServeSim::new(&subs, cfg);
    let log = Log::default();
    let fams = all_policies();
    let report = serve.run_with(|i| Recorder::sharing(fams[i % fams.len()].1(), &log));
    (report, snapshot(&log))
}

/// Eviction conservation, for a stream of at least two submissions: the
/// tenant mux counts every victim it hands the engine once, in the
/// `[evictor][victim]` cross-eviction matrix, and the engine counts every
/// eviction once, on the evicting submission's cache counters. So the
/// matrix total equals the submissions' eviction total, provided the
/// engine refused no victim (`bad_victims` is 0, asserted too). A
/// one-submission stream is not covered: the mux passes it straight
/// through and its matrix stays zero. Returns whether the stream evicted.
fn assert_evictions_conserved(name: &str, report: &ServeReport) -> bool {
    let subs = report.reports.len();
    assert!(
        subs >= 2,
        "{name}: {subs} submission(s), conservation needs 2"
    );
    let matrix: u64 = report.cross_evictions.iter().flatten().sum();
    let evicted: u64 = report.reports.iter().map(|r| r.stats.evictions).sum();
    let bad: u64 = report.reports.iter().map(|r| r.stats.bad_victims).sum();
    assert_eq!(bad, 0, "{name}: the engine refused a victim");
    assert_eq!(
        matrix, evicted,
        "{name}: cross-eviction matrix total vs the submissions' evictions"
    );
    evicted > 0
}

/// One golden line: decision counts and the FNV-1a digest of the whole
/// `ServeReport` plus the global victim and purge log.
fn stream_line(name: &str, report: &ServeReport, d: &Decisions) -> String {
    let (nv, np) = d.counts();
    let digest = fnv1a(format!("{report:?}|{:?}|{:?}", d.victims, d.purges).as_bytes());
    format!("{name}: victims {nv} purged {np} digest {digest:016x}\n")
}

fn random_app(g: &mut Gen) -> AppParams {
    AppParams {
        iters: g.range(1, 4) as usize,
        parts: g.range(1, 8) as u32,
        block_kb: g.range(1, 4),
        mem_only: g.flip(),
        two_rdds: g.flip(),
    }
}

fn random_cfg(g: &mut Gen) -> CfgParams {
    let nodes = g.range(1, 4) as u32;
    CfgParams {
        nodes,
        cache_frac: g.pick(&[0.0, 0.3, 0.6, 2.0]),
        exec_mem: g.pick(&[0.0, 0.3]),
        jitter: g.pick(&[0.0, 0.1]),
        seed: g.below(1 << 16),
        adaptive: g.flip(),
        failure: g.flip(),
        rejoin: g.flip() && nodes > 1,
        delay: g.pick(&[None, Some(0), Some(10_000)]),
    }
}

/// The stream/config pair of the pressure spot-checks: fair-share dispatch
/// (out-of-index-order admission), a byte quota, node failure and rejoin,
/// heterogeneous submissions, and a cache far smaller than the combined
/// working set — the regime where admission re-seating, ghost disk
/// accounting and drain-then-retire ordering all have to be exact.
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

/// Stage-indexed chaos (from the config: node failure and a rejoin) plus
/// the full wall-clock arsenal: a timed crash, a timed slowdown, churn.
fn chaos(sc: &mut ServeConfig) {
    sc.sim.faults.timed_crash(1, 200_000, Some(150_000));
    sc.sim.faults.timed_slowdown(0, 3.0, 100_000, Some(400_000));
    sc.sim.faults.node_churn(900_000, 300_000);
}

type Tweak = fn(&mut ServeConfig);

/// The seeded stream corpus behind `serve_equivalence.txt`: 32 random
/// streams (2–4 submissions over 1–2 tenants, every quota kind, both
/// disciplines, trace and Poisson arrivals, chaos events), then the
/// pressure stream under fair-share and under FIFO with an unlimited quota
/// and a smaller cache (the drain-heavy path), and the pressure stream
/// under wall-clock chaos.
fn stream_corpus() -> Vec<(String, StreamParams, CfgParams, Tweak)> {
    let mut g = Gen(0x5E4E_57AE);
    let mut out: Vec<(String, StreamParams, CfgParams, Tweak)> = Vec::new();
    for i in 0..32 {
        let stream = StreamParams {
            gaps: (0..g.range(1, 4)).map(|_| g.below(400_000)).collect(),
            tenants: g.range(1, 3) as usize,
            fair_share: g.flip(),
            quota: g.below(3) as u8,
            app: random_app(&mut g),
            vary: g.flip(),
            poisson: g.flip(),
        };
        out.push((format!("stream {i:02}"), stream, random_cfg(&mut g), |_| {}));
    }
    let (stream, cfg) = pressure_stream();
    out.push(("pressure fair".into(), stream.clone(), cfg.clone(), |_| {}));
    let mut fifo = stream.clone();
    fifo.fair_share = false;
    fifo.quota = 0;
    let mut small = cfg.clone();
    small.cache_frac = 0.3;
    small.seed = 23;
    out.push(("pressure fifo".into(), fifo, small, |_| {}));
    out.push(("pressure chaos".into(), stream, cfg, chaos));
    out
}

fn stream_digests() -> String {
    let mut out = String::new();
    let mut evicting = 0;
    for (name, stream, cfg, tweak) in stream_corpus() {
        let (report, decisions) = run_stream(&stream, &cfg, &tweak);
        if name == "pressure chaos" {
            let crashes: u64 = report.reports.iter().map(|r| r.faults.crashes).sum();
            assert!(crashes > 0, "the chaos plan must take nodes down during the stream");
        }
        evicting += assert_evictions_conserved(&name, &report) as usize;
        out.push_str(&stream_line(&name, &report, &decisions));
    }
    assert!(evicting > 0, "no stream of the corpus evicts");
    out
}

/// Every corpus stream's `ServeReport` and global decision sequence is
/// frozen. The lines were recorded while the build-everything-upfront and
/// the plan-every-admission drivers still existed, with every stream
/// asserted identical under all three. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve`
/// and review the diff.
#[test]
fn serve_equivalence_matches_golden() {
    check_golden(
        "serve_equivalence.txt",
        &stream_digests(),
        "UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve",
    );
}

/// Interned admission rebases one memoized local-space plan and profile
/// per template; planning every submission from scratch must produce the
/// same artifacts, value for value, at every offset — including for a
/// renamed spec, which shares its template with the original.
#[test]
fn interned_plans_match_from_scratch_planning() {
    let mut g = Gen(0x1A7E_421E);
    let mut cache = TemplateCache::new();
    let mut offset = 0u32;
    for i in 0..48 {
        let mut spec = build_app(&random_app(&mut g));
        if i % 5 == 0 {
            spec.name = format!("renamed-{i}");
        }
        let interned = cache.intern(&spec);
        let scratch = PlannedTemplate::build(&spec);
        assert_eq!(
            format!("{:?}", remap_plan(&interned.plan, offset)),
            format!("{:?}", remap_plan(&scratch.plan, offset)),
            "plan diverged for spec {i} at offset {offset}"
        );
        assert_eq!(
            format!("{:?}", remap_profile(&interned.profile, offset)),
            format!("{:?}", remap_profile(&scratch.profile, offset)),
            "profile diverged for spec {i} at offset {offset}"
        );
        offset += spec.rdds.len() as u32;
    }
    assert!(cache.len() < 48, "repeat structures must hit the template cache");
}

/// A `ResilienceConfig` with every *inert* knob set to a non-default value
/// must be byte-invisible — reports, summaries and the global victim/purge
/// decision sequences — under FIFO and fair-share, with quota and chaos in
/// play.
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
        let (base, blog) = run_stream(&stream, &cfg, &|_| {});
        let (res, rlog) = run_stream(&stream, &cfg, &inert);
        assert_eq!(
            format!("{base:?}"),
            format!("{res:?}"),
            "inert resilience config changed the report (fair_share={fair_share})"
        );
        assert_eq!(base.summary(), res.summary());
        assert_eq!(blog, rlog, "decision sequences diverged under an inert config");
        assert!(res.resilience.is_none(), "passive config must not report resilience");
    }
}

/// Serve×chaos stage-indexing contract: stage-indexed `CrashEvent`s fire
/// against *per-application* stage numbering (fire-once, cluster-wide) and
/// wall-clock events (timed crashes, churn) against the engine's monotone
/// cluster clock, so a given chaos seed replays the same fault sequence
/// byte for byte.
#[test]
fn chaos_fault_sequence_replays_from_the_seed() {
    let (stream, cfg) = pressure_stream();
    let (st, slog) = run_stream(&stream, &cfg, &chaos);
    let total: u64 = st.reports.iter().map(|r| r.faults.crashes).sum();
    assert!(total > 0, "chaos plan must take nodes down during the stream");
    let (again, alog) = run_stream(&stream, &cfg, &chaos);
    assert_eq!(format!("{st:?}"), format!("{again:?}"));
    assert_eq!(slog, alog);
}

// ---------------------------------------------------------------------------
// Frozen decision digests
// ---------------------------------------------------------------------------

/// How a decision-corpus scenario drives the stream beyond its base
/// parameters. `Upfront` rows were recorded on the build-everything-upfront
/// driver, which made the same decisions as the streaming one.
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
    /// An active-app cap that admits arrivals with caching bypassed, under
    /// task failures and an app-level retry budget, so degraded submissions
    /// also retry.
    Degrade,
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
    for variant in [Streaming, Upfront, Churn, Retry, Shed, Queue, Degrade] {
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
        Variant::Degrade => {
            sc.sim.faults.task_failure_p = 0.15;
            sc.sim.faults.max_task_attempts = 2;
            sc.resilience = ResilienceConfig {
                max_active_apps: Some(2),
                admission: AdmissionPolicy::Degrade,
                max_app_attempts: 3,
                retry_backoff_us: 50_000,
                ..ResilienceConfig::default()
            };
        }
    }
}

/// One line per corpus scenario: decision counts and the FNV-1a digest of
/// the global victim and purge log.
fn decision_digests() -> String {
    let mut out = String::new();
    let mut evicting = 0;
    for (name, stream, cfg, variant) in decision_corpus() {
        let (report, d) = run_stream(&stream, &cfg, &|sc| apply_variant(variant, sc));
        evicting += assert_evictions_conserved(&name, &report) as usize;
        let (nv, np) = d.counts();
        let digest = fnv1a(format!("{:?}|{:?}", d.victims, d.purges).as_bytes());
        out.push_str(&format!(
            "{name}: victims {nv} purged {np} digest {digest:016x}\n"
        ));
    }
    assert!(evicting > 0, "no scenario of the corpus evicts");
    out
}

/// The global victim/purge decision sequence of every corpus scenario is
/// frozen, tenant mux included. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve`
/// and review the diff.
#[test]
fn serve_decisions_match_golden() {
    check_golden(
        "serve_decisions.txt",
        &decision_digests(),
        "UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve",
    );
}

/// One line per resilience row of the decision corpus (`Retry`, `Shed`,
/// `Queue`, `Degrade`): how many submissions were shed, queued and retried,
/// and the FNV-1a digest of every submission's completion time, queue
/// delay, attempt count and shed and degraded flags. Panics unless the
/// corpus degrades at least one submission and retries a degraded one.
fn admission_digests() -> String {
    let mut out = String::new();
    let (mut degraded, mut degraded_retries) = (0, 0);
    for (name, stream, cfg, variant) in decision_corpus() {
        if !matches!(
            variant,
            Variant::Retry | Variant::Shed | Variant::Queue | Variant::Degrade
        ) {
            continue;
        }
        let (report, _) = run_stream(&stream, &cfg, &|sc| apply_variant(variant, sc));
        let res = report.resilience.as_ref().expect("an active config reports");
        let mut timeline = String::new();
        for (i, &done) in report.completions.iter().enumerate() {
            degraded += res.degraded[i] as usize;
            degraded_retries += (res.degraded[i] && res.app_attempts[i] > 1) as usize;
            timeline.push_str(&format!(
                "{done} {} {} {} {};",
                res.queue_delay_us[i], res.app_attempts[i], res.shed[i], res.degraded[i]
            ));
        }
        let queued = res.queue_delay_us.iter().filter(|&&d| d > 0).count();
        out.push_str(&format!(
            "{name}: shed {} queued {queued} retries {} digest {:016x}\n",
            res.shed_count(),
            res.total_retries(),
            fnv1a(timeline.as_bytes())
        ));
    }
    assert!(degraded > 0, "no corpus row degrades a submission");
    assert!(
        degraded_retries > 0,
        "no corpus row retries a degraded submission"
    );
    out
}

/// The admission timeline of every resilience scenario is frozen: when
/// each submission completed, how long it queued, how many attempts it
/// consumed and whether it was shed or degraded. Victim digests alone
/// would miss a gate that admits at another tick but evicts the same
/// blocks. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve`
/// and review the diff.
#[test]
fn serve_admission_matches_golden() {
    check_golden(
        "serve_admission.txt",
        &admission_digests(),
        "UPDATE_GOLDEN=1 cargo test -p refdist-cluster --test differential_serve",
    );
}
