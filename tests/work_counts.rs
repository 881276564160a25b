//! The repository's performance gate: exact per-layer work counts, frozen
//! in `tests/golden/work_counts.txt`.
//!
//! Small fixed versions of the four benchmark workloads (`paper_sweep`,
//! `scale_out`, `serve_mix`, `serve_churn`) run here, together with a
//! speculative solo run, a burst of 16 MRD submissions served uncapped and
//! through a capped admission queue, and long streams of a tiny app with and
//! without churn. Each scenario writes one golden line per count:
//!
//! * `sched.*`: slot-index commits and home/remote task placements;
//! * `store.*`: hits, misses, evictions, purges and prefetches;
//! * `faults.*`: speculative copies launched, and those that won;
//! * `policy.*`: calls into each `CachePolicy` hook, and victims returned;
//! * `serve.*`: admissions, retirements, sheds, app retries, deadlines met,
//!   peaks, and the plans admission built (one per distinct template, so a
//!   broken template cache shows as one plan per submission);
//! * `heap.*`: heap allocations and peak heap growth while it ran.
//!
//! A `setup` scenario reports only `heap.*`: building the paper sweep's
//! 14 workloads (spec, plan, profile, slot arena), which the other
//! scenarios do before they measure.
//!
//! No count reads a clock, and everything runs on one thread, so the counts
//! are a function of the code alone and the golden compares exactly. A
//! mismatch names the first count that moved. A count that falls is a
//! noise-free win. A count that rises is a cost: regenerate the golden
//! (`UPDATE_GOLDEN=1 cargo test --test work_counts`) only with the diff
//! argued in CHANGES.md (DESIGN.md "Frozen decision digests"). Debug
//! assertions allocate nothing, so `--release` reads the same counts.
//!
//! The same test also holds the heap-footprint bounds: per-node block state
//! in O(resident) at 256 nodes, a serve submission's cost flat in the number
//! of active submissions, and the serve arena in O(active).
//!
//! The whole file is one `#[test]`, and the counting global allocator
//! counts only the thread running it, so it sees nothing but these
//! scenarios, always in the same order.

mod common;

use common::check_golden;
use refdist_bench::{
    cache_for_fraction, ExpContext, PolicySpec, PreparedWorkload, ServeAxis, ServeScenario,
    SweepGrid,
};
use refdist_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, EngineScratch, QuotaKind, ResilienceConfig,
    RunReport, ServeConfig, ServeReport, ServeSched, ServeSim, SimConfig, Simulation,
};
use refdist_core::{MrdPolicy, ProfileMode};
use refdist_dag::{
    AppBuilder, AppPlan, AppProfile, AppSpec, BlockId, BlockSlots, JobId, StageId, StorageLevel,
};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use refdist_workloads::{graph::pagerank, Workload, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting the allocations of the thread inside
/// [`measure`] and tracking its live bytes and their high-water mark. The
/// test harness's own thread allocates while a test runs, at times that
/// vary from run to run, so only the measuring thread is counted.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread is inside [`measure`]. Const-initialized and
    /// without a destructor, so reading it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn grew(bytes: usize) {
    if MEASURING.with(Cell::get) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if MEASURING.with(Cell::get) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap traffic of one measured region.
#[derive(Debug, Clone, Copy)]
struct Heap {
    allocs: u64,
    /// Peak live bytes above the live bytes at the region's start.
    peak_growth: usize,
}

/// Run `f`, counting the heap traffic it causes.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let allocs = ALLOCS.load(Relaxed);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    let heap = Heap {
        allocs: ALLOCS.load(Relaxed) - allocs,
        peak_growth: (PEAK.load(Relaxed) - base) as usize,
    };
    (out, heap)
}

/// Every `CachePolicy` method, in trait order.
const HOOKS: [&str; 14] = [
    "name",
    "attach_slots",
    "on_job_submit",
    "on_stage_start",
    "on_insert",
    "on_access",
    "on_remove",
    "on_node_join",
    "pick_victim",
    "select_victims",
    "purge_candidates",
    "wants_purge",
    "prefetch_order",
    "wants_prefetch",
];

/// Calls per hook, indexed like [`HOOKS`], over every [`Counted`] policy.
static CALLS: [AtomicU64; 14] = [const { AtomicU64::new(0) }; 14];
/// Victims returned by `pick_victim` and `select_victims`.
static VICTIMS: AtomicU64 = AtomicU64::new(0);

fn call(hook: usize) {
    CALLS[hook].fetch_add(1, Relaxed);
}

/// Forwards every hook to the wrapped policy, counting the call. All
/// fourteen methods are forwarded, defaults included, so wrapping changes
/// no decision.
struct Counted(Box<dyn CachePolicy>);

fn counted(policy: Box<dyn CachePolicy>) -> Box<dyn CachePolicy> {
    Box::new(Counted(policy))
}

impl CachePolicy for Counted {
    fn name(&self) -> String {
        call(0);
        self.0.name()
    }
    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        call(1);
        self.0.attach_slots(slots);
    }
    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        call(2);
        self.0.on_job_submit(job, visible);
    }
    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        call(3);
        self.0.on_stage_start(stage, visible);
    }
    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        call(4);
        self.0.on_insert(node, block);
    }
    fn on_access(&mut self, node: NodeId, block: BlockId) {
        call(5);
        self.0.on_access(node, block);
    }
    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        call(6);
        self.0.on_remove(node, block);
    }
    fn on_node_join(&mut self, node: NodeId) {
        call(7);
        self.0.on_node_join(node);
    }
    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        call(8);
        let v = self.0.pick_victim(node, candidates);
        VICTIMS.fetch_add(v.is_some() as u64, Relaxed);
        v
    }
    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        call(9);
        let v = self.0.select_victims(node, shortfall, resident);
        VICTIMS.fetch_add(v.len() as u64, Relaxed);
        v
    }
    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        call(10);
        self.0.purge_candidates(in_memory)
    }
    fn wants_purge(&self) -> bool {
        call(11);
        self.0.wants_purge()
    }
    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        call(12);
        self.0.prefetch_order(node, missing)
    }
    fn wants_prefetch(&self) -> bool {
        call(13);
        self.0.wants_prefetch()
    }
}

/// What a scenario ran: per-application reports, plus the stream's report
/// when it served one.
trait Ran {
    fn reports(&self) -> &[RunReport];
    fn stream(&self) -> Option<&ServeReport> {
        None
    }
}

impl Ran for Vec<RunReport> {
    fn reports(&self) -> &[RunReport] {
        self
    }
}

impl Ran for ServeReport {
    fn reports(&self) -> &[RunReport] {
        &self.reports
    }
    fn stream(&self) -> Option<&ServeReport> {
        Some(self)
    }
}

/// Run scenario `name` on a fresh engine scratch and append its counts to
/// `out`, one `name key value` line each; returns what it ran and its heap
/// traffic. Only `run` is measured: inputs are built before it.
fn scenario<R: Ran>(
    out: &mut String,
    name: &str,
    run: impl FnOnce(&mut EngineScratch) -> R,
) -> (R, Heap) {
    for c in &CALLS {
        c.store(0, Relaxed);
    }
    VICTIMS.store(0, Relaxed);
    let mut scratch = EngineScratch::default();
    let (ran, heap) = measure(|| run(&mut scratch));
    let work = scratch.work();
    let reports = ran.reports();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    let mut put = |key: &str, value: u64| {
        writeln!(out, "{name} {key} {value}").expect("writing to a String");
    };
    put("tasks", sum(|r| r.tasks));
    put("sched.slot_commits", work.slot_commits);
    put("sched.home_placements", sum(|r| r.sched.home_placements));
    put(
        "sched.remote_placements",
        sum(|r| r.sched.remote_placements),
    );
    put("store.hits", sum(|r| r.stats.hits));
    put("store.misses", sum(|r| r.stats.misses));
    put("store.evictions", sum(|r| r.stats.evictions));
    put("store.purges", sum(|r| r.stats.purges));
    put("store.prefetches", sum(|r| r.stats.prefetches));
    put("faults.spec_launched", sum(|r| r.faults.spec_launched));
    put("faults.spec_wins", sum(|r| r.faults.spec_wins));
    for (hook, calls) in HOOKS.iter().zip(&CALLS) {
        put(&format!("policy.{hook}"), calls.load(Relaxed));
    }
    put("policy.victims", VICTIMS.load(Relaxed));
    if let Some(s) = ran.stream() {
        let res = s.resilience.as_ref();
        put("serve.admissions", work.admissions);
        put("serve.retirements", work.retirements);
        put("serve.shed", res.map_or(0, |r| r.shed_count()));
        put("serve.app_retries", res.map_or(0, |r| r.total_retries()));
        if let Some(met) = s.deadline_met() {
            put("serve.slo_met", met as u64);
        }
        put("serve.peak_active_apps", s.peak_active_apps);
        put("serve.peak_arena_slots", s.peak_arena_slots);
        put("serve.plans_built", s.distinct_templates as u64);
    }
    put("heap.allocs", heap.allocs);
    put("heap.peak_bytes", heap.peak_growth as u64);
    (ran, heap)
}

/// The paper's grid, shrunk: three workloads x LRU/LRC/MRD x two cache
/// fractions x two seeds on 4 nodes, cell by cell as `run_sweep` runs them
/// (shared artifacts, per-cell seeds, one recycled scratch).
fn paper_sweep(out: &mut String) {
    let mut ctx = ExpContext::main().quick();
    ctx.params.partitions = 8;
    ctx.params.scale = 0.05;
    ctx.cluster.nodes = 4;
    let grid = SweepGrid::new(
        vec![
            Workload::KMeans,
            Workload::PageRank,
            Workload::ConnectedComponents,
        ],
        vec![PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull],
    )
    .fractions(&[0.25, 0.8])
    .seeds(&[42, 43]);
    let preps: Vec<PreparedWorkload> = grid
        .workloads
        .iter()
        .map(|&w| PreparedWorkload::new(w, &ctx.params, ProfileMode::Recurring))
        .collect();
    let cells = grid.cells();
    scenario(out, "paper_sweep", |scratch| {
        cells
            .iter()
            .map(|cell| {
                let prep = preps
                    .iter()
                    .find(|p| p.workload == cell.workload)
                    .expect("every grid workload is prepared");
                let cache = cache_for_fraction(&prep.spec, &ctx.cluster, cell.capacity_frac).max(1);
                let cfg = SimConfig::new(ctx.cluster.with_cache(cache))
                    .with_seed(cell.sim_seed(ctx.seed));
                let mut policy = counted(cell.policy.build(None));
                prep.simulation(cfg).run_with_scratch(&mut *policy, scratch)
            })
            .collect::<Vec<_>>()
    });
}

/// Set-up of the full paper sweep: the 14 SparkBench workloads at the
/// main experiment's size, each built into its spec, plan, profiler and
/// slot arena, as `run_sweep` builds them before its first cell. Only heap
/// traffic is reported; no simulation runs.
fn setup(out: &mut String) {
    let params = ExpContext::main().params;
    let (preps, heap) = measure(|| {
        Workload::sparkbench()
            .iter()
            .map(|&w| PreparedWorkload::new(w, &params, ProfileMode::Recurring))
            .collect::<Vec<_>>()
    });
    assert_eq!(preps.len(), 14);
    writeln!(out, "setup heap.allocs {}", heap.allocs).expect("writing to a String");
    writeln!(out, "setup heap.peak_bytes {}", heap.peak_growth).expect("writing to a String");
}

/// One PageRank run under LRU on 16 nodes, half its footprint cached.
fn scale_out(out: &mut String) {
    let params = WorkloadParams {
        partitions: 256,
        ..Default::default()
    };
    let prep = PreparedWorkload::new(Workload::PageRank, &params, ProfileMode::Recurring);
    let mut cluster = ExpContext::main().cluster;
    cluster.nodes = 16;
    let cache = cache_for_fraction(&prep.spec, &cluster, 0.5).max(1);
    let sim = prep.simulation(SimConfig::new(cluster.with_cache(cache)).with_seed(42));
    scenario(out, "scale_out", |scratch| {
        let mut policy = counted(PolicySpec::Lru.build(None));
        vec![sim.run_with_scratch(&mut *policy, scratch)]
    });
}

/// PageRank on 8 nodes with a straggler, delay scheduling and speculative
/// execution: the one engine path that keeps per-task records and selects
/// the speculation threshold, and the cluster-wide slot order.
fn speculation(out: &mut String) {
    let params = WorkloadParams {
        partitions: 64,
        scale: 0.1,
        ..Default::default()
    };
    let prep = PreparedWorkload::new(Workload::PageRank, &params, ProfileMode::Recurring);
    let mut cluster = ExpContext::main().cluster;
    cluster.nodes = 8;
    let cache = cache_for_fraction(&prep.spec, &cluster, 0.5).max(1);
    let mut cfg = SimConfig::new(cluster.with_cache(cache)).with_seed(42);
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults.slow_node(0, 4.0);
    cfg.faults.speculation_quantile = 0.75;
    let sim = prep.simulation(cfg);
    let (ran, _) = scenario(out, "speculation", |scratch| {
        let mut policy = counted(PolicySpec::Lru.build(None));
        vec![sim.run_with_scratch(&mut *policy, scratch)]
    });
    let report = &ran.reports()[0];
    assert!(
        report.sched.remote_placements > 0,
        "the straggler must push tasks off their home node"
    );
    assert!(
        report.faults.spec_launched > 0,
        "the straggler's tasks must get speculative copies"
    );
}

/// Serve `sc`'s submissions under `cfg` as scenario `name`, a fresh
/// `policy` per admission.
fn serve(
    out: &mut String,
    name: &str,
    sc: &ServeScenario,
    cfg: ServeConfig,
    policy: PolicySpec,
) -> (ServeReport, Heap) {
    let subs = sc.submissions();
    let sim = ServeSim::new(&subs, cfg);
    scenario(out, name, |scratch| {
        sim.run_with_scratch(|_| counted(policy.build(None)), scratch)
    })
}

/// The SP/CC/KM mix of the serve workloads.
fn serve_templates() -> Vec<AppSpec> {
    let params = WorkloadParams {
        partitions: 16,
        scale: 0.05,
        ..Default::default()
    };
    [
        Workload::ShortestPaths,
        Workload::ConnectedComponents,
        Workload::KMeans,
    ]
    .iter()
    .map(|w| w.build(&params))
    .collect()
}

/// `apps` submissions of the mix over `tenants` on 4 nodes, cache 30% of
/// the largest template's footprint, fair-share.
fn mix_scenario(templates: &[AppSpec], apps: u32, tenants: u32) -> ServeScenario<'_> {
    let mut cluster = ExpContext::main().cluster;
    cluster.nodes = 4;
    ServeScenario {
        templates,
        apps,
        sim: SimConfig::new(cluster).with_seed(42),
        axis: ServeAxis {
            tenants,
            mean_gap_us: 30_000_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::Unlimited,
            resilience: ResilienceConfig::default(),
        },
    }
    .fit_cache(0.3)
    .expect("a finite fraction")
}

/// The serve benchmark workloads at 120 submissions over 8 tenants: the
/// fault-free mix, then the same stream overloaded (12 s gaps), churned,
/// failing tasks, retrying apps and shedding past 16 active.
fn serve_streams(out: &mut String, templates: &[AppSpec]) {
    let mix = mix_scenario(templates, 120, 8);
    serve(out, "serve_mix", &mix, mix.config(), PolicySpec::MrdFull);

    let mut churn = mix;
    churn.sim.faults.node_churn(600_000_000, 60_000_000);
    churn.sim.faults.task_failure_p = 0.02;
    churn.sim.faults.max_task_attempts = 2;
    churn.axis.mean_gap_us = 12_000_000;
    churn.axis.quota = QuotaKind::EqualShare;
    churn.axis.resilience = ResilienceConfig {
        max_app_attempts: 3,
        admission: AdmissionPolicy::Shed,
        max_active_apps: Some(16),
        deadline_us: Some(300_000_000),
        ..Default::default()
    };
    serve(
        out,
        "serve_churn",
        &churn,
        churn.config(),
        PolicySpec::MrdFull,
    );
}

/// 16 MRD submissions over 4 tenants all arriving at t=0: served uncapped,
/// then through an admission queue that lets 2 run at a time. A queued
/// submission that finds the gate full sleeps until capacity frees, so
/// waiting costs nothing per simulated millisecond: the capped burst may
/// allocate at most twice what the uncapped one does.
fn serve_bursts(out: &mut String, templates: &[AppSpec]) {
    let burst = mix_scenario(templates, 16, 4);
    let mut cfg = burst.config();
    cfg.arrivals = ArrivalProcess::Trace(vec![0; 16]);
    let (uncapped, free) = serve(out, "serve_burst", &burst, cfg.clone(), PolicySpec::MrdFull);
    cfg.resilience.admission = AdmissionPolicy::Queue;
    cfg.resilience.max_active_apps = Some(2);
    let (capped, queued) = serve(out, "serve_queue", &burst, cfg, PolicySpec::MrdFull);
    assert_eq!(capped.peak_active_apps, 2, "the gate caps the burst");
    let tasks = |s: &ServeReport| s.reports.iter().map(|r| r.tasks).sum::<u64>();
    assert_eq!(
        tasks(&capped),
        tasks(&uncapped),
        "queueing runs the same tasks"
    );
    assert!(
        queued.allocs <= 2 * free.allocs,
        "the capped burst made {} allocations, the uncapped one {}",
        queued.allocs,
        free.allocs
    );
}

/// A two-job iterative app small enough that a long stream of it measures
/// serve-driver overhead (admission, retirement, arena recycling), not
/// task simulation.
fn stream_app() -> AppSpec {
    let block = 64 * 1024;
    let mut b = AppBuilder::new("stream-app");
    let input = b.input("in", 4, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..2 {
        let s = b.shuffle(format!("agg{i}"), &[data], 4, block / 8, 500);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

/// `apps` stream-app submissions over 4 tenants on a 2-node cluster,
/// fair-share with equal-share quotas.
fn stream_scenario(spec: &AppSpec, apps: u32, mean_gap_us: u64) -> ServeScenario<'_> {
    let mut sim = SimConfig::new(ClusterConfig::tiny(2, 512 * 1024)).with_seed(42);
    sim.compute_jitter = 0.0;
    sim.exec_mem_fraction = 0.0;
    ServeScenario {
        templates: std::slice::from_ref(spec),
        apps,
        sim,
        axis: ServeAxis {
            tenants: 4,
            mean_gap_us,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: ResilienceConfig::default(),
        },
    }
}

/// Long stream-app streams under LRU. Fault-free at 40 and 80 ms mean gaps
/// (near-critical and moderate load), the slot arena's high-water mark must
/// track peak concurrency, far below the slots of the whole stream. With
/// a bounded gate, app retry and a deadline, node churn (mild and harsh
/// MTBF) plus a task-fault storm must force app retries, and sheds under
/// the shedding gate.
fn long_streams(out: &mut String) {
    let spec = stream_app();
    let slots_per_app: u64 = spec
        .cached_rdds()
        .map(|r| u64::from(r.num_partitions))
        .sum();
    for (apps, gap_ms) in [(256, 80), (1024, 80), (1024, 40)] {
        let sc = stream_scenario(&spec, apps, gap_ms * 1_000);
        let name = format!("stream_{apps}_gap{gap_ms}");
        let (st, _) = serve(out, &name, &sc, sc.config(), PolicySpec::Lru);
        let whole = u64::from(apps) * slots_per_app;
        assert!(
            st.peak_arena_slots < whole / 4,
            "arena {} slots vs {whole} for the whole stream at {apps} apps",
            st.peak_arena_slots
        );
    }
    for (cell, mtbf_ms) in [("mild", 800), ("harsh", 400)] {
        for admission in [AdmissionPolicy::Queue, AdmissionPolicy::Shed] {
            let mut sc = stream_scenario(&spec, 1024, 40_000);
            sc.axis.resilience = ResilienceConfig {
                max_app_attempts: 3,
                retry_backoff_us: 10_000,
                max_retry_backoff_us: 80_000,
                admission,
                max_active_apps: Some(8),
                queue_cap: Some(16),
                deadline_us: Some(2_000_000),
            };
            let faults = &mut sc.sim.faults;
            faults.task_failure_p = 0.02;
            faults.max_task_attempts = 2;
            faults.node_churn(mtbf_ms * 1_000, mtbf_ms * 250);
            let name = format!("churn_{cell}_{admission:?}").to_lowercase();
            let (st, _) = serve(out, &name, &sc, sc.config(), PolicySpec::Lru);
            let res = st.resilience.as_ref().expect("an active config reports");
            assert!(res.total_retries() > 0, "{name}: no app-level retries");
            if admission == AdmissionPolicy::Shed {
                assert!(
                    res.shed_count() > 0,
                    "{name}: the shedding gate shed nothing"
                );
            }
        }
    }
}

const MIB: usize = 1 << 20;

/// Each node's block tables (the memory store's resident map) and each
/// policy's per-node state (LRU's list ends and orphan set, the other
/// victim indexes' ordered sets, MRD monitors' recency and index) must
/// hold nothing per cached-block slot, only O(blocks resident on that
/// node), the shape of Spark's `MemoryStore`; per-copy facts (holder,
/// in-flight arrival time, unused-prefetch mark, a spilled copy on disk)
/// live once in the block master, like Spark's `BlockManagerMaster`. Per-slot rows on every
/// node (an `Option<u64>` size, a pin count, an arrival time, a recency
/// stamp) would cost 32 B x slots x nodes, over 200 MiB at 256 nodes x
/// 28,672 slots; even one bit per slot per node would be 0.9 MiB. LRU, LRC
/// and MRD each run under the same bound.
fn per_node_block_state_is_o_resident() {
    let nodes = 256u32;
    let spec = pagerank(&WorkloadParams {
        partitions: 2048,
        ..Default::default()
    });
    let plan = AppPlan::build(&spec);
    let slots = BlockSlots::new(&spec).len();
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
    let mut cluster = ClusterConfig::main_cluster();
    cluster.nodes = nodes;
    // Half the cached footprint fits in the cluster (the policy evicts the
    // rest).
    let cache = footprint / 2 / nodes as u64;
    let sim = Simulation::new(
        &spec,
        &plan,
        ProfileMode::Recurring,
        SimConfig::new(cluster.with_cache(cache)).with_seed(42),
    );
    // 256 B per slot covers the cluster-wide per-slot tables (block
    // master, materialization and prefetch candidacy, the policy's
    // per-block table) and every O(resident) map entry, since at most half
    // the footprint is resident. Nothing scales with slots x nodes.
    let bound = 256 * slots;
    let dense_rows = 32 * nodes as usize * slots;
    for policy in [PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull] {
        let mut built = policy.build(None);
        let (report, heap) = measure(|| sim.run(built.as_mut()));
        let peak_growth = heap.peak_growth;

        assert!(report.stats.hits > 0 && report.stats.evictions > 0);
        assert!(
            peak_growth <= bound,
            "{} peaked at {:.1} MiB of heap growth over {slots} slots x {nodes} nodes; \
             bound {:.1} MiB (dense per-node rows alone would be {:.1} MiB)",
            policy.name(),
            peak_growth as f64 / MIB as f64,
            bound as f64 / MIB as f64,
            dense_rows as f64 / MIB as f64,
        );
    }
}

/// What one burst cost.
#[derive(Debug)]
struct Footprint {
    active: u64,
    allocs_per_eviction: f64,
    peak_growth_per_active: f64,
}

/// Serve `active` submissions that all arrive at t=0 (so all of them run
/// concurrently under fair-share) on a cache holding 30% of the largest
/// template's footprint, one MRD policy each.
fn burst_footprint(specs: &[AppSpec], active: usize) -> Footprint {
    const TENANTS: usize = 4;
    let footprint: u64 = specs
        .iter()
        .map(|s| s.cached_rdds().map(|r| r.total_size()).sum())
        .max()
        .unwrap_or(0);
    let mut cluster = ClusterConfig::main_cluster();
    cluster.nodes = 4;
    let cache = (footprint * 3 / 10 / cluster.nodes as u64).max(1);
    let mut cfg = ServeConfig::passthrough(SimConfig::new(cluster.with_cache(cache)).with_seed(42));
    cfg.arrivals = ArrivalProcess::Trace(vec![0; active]);
    cfg.sched = ServeSched::FairShare;
    cfg.quota = QuotaKind::Unlimited;
    let subs: Vec<(&AppSpec, u32)> = (0..active)
        .map(|i| (&specs[i % specs.len()], (i % TENANTS) as u32))
        .collect();
    let sim = ServeSim::new(&subs, cfg);

    let (report, heap) = measure(|| sim.run_with(|_| Box::new(MrdPolicy::full())));

    let evictions: u64 = report.reports.iter().map(|r| r.stats.evictions).sum();
    let active = report.peak_active_apps;
    assert!(evictions > 0, "the stream must run under cache pressure");
    Footprint {
        active,
        allocs_per_eviction: heap.allocs as f64 / evictions as f64,
        peak_growth_per_active: heap.peak_growth as f64 / active as f64,
    }
}

/// A submission's cost must not grow with the number of *other* submissions
/// live beside it: allocations per eviction and peak heap growth per active
/// submission stay flat from a burst of 4 to a burst of 16. Victim selection
/// hands each policy its own-blocks map instead of re-splitting the node's
/// resident map, candidate scans cover the running submission's slot run
/// only, and each MRD monitor's tables hold its node's resident blocks, not
/// the shared arena.
///
/// Measured (4 nodes, cache 30% of the largest template's footprint; the
/// "before" rows ran against the revision where each MRD monitor allocated
/// per-block tables over the whole shared arena):
///
/// | build  | active | allocs/eviction | peak growth/active |
/// |--------|--------|-----------------|--------------------|
/// | before |      4 | 7.29            | 59.7 KiB           |
/// | before |     16 | 5.95            | 114.9 KiB          |
/// | after  |      4 | 4.93            | 44.9 KiB           |
/// | after  |     16 | 3.62            | 46.4 KiB           |
fn per_submission_cost_is_flat_in_active_submissions(specs: &[AppSpec]) {
    let few = burst_footprint(specs, 4);
    let many = burst_footprint(specs, 16);
    assert!(
        many.active >= 3 * few.active,
        "the caps must separate the runs: {few:?} vs {many:?}"
    );
    assert!(
        many.allocs_per_eviction <= 1.2 * few.allocs_per_eviction,
        "allocations per eviction grew with active submissions: {few:?} vs {many:?}"
    );
    assert!(
        many.peak_growth_per_active <= 1.2 * few.peak_growth_per_active,
        "peak heap growth per active submission grew: {few:?} vs {many:?}"
    );
}

#[test]
fn work_counts_match_golden_and_footprints_hold() {
    let templates = serve_templates();
    let mut out = String::new();
    setup(&mut out);
    paper_sweep(&mut out);
    scale_out(&mut out);
    speculation(&mut out);
    serve_streams(&mut out, &templates);
    serve_bursts(&mut out, &templates);
    long_streams(&mut out);
    check_golden(
        "work_counts.txt",
        &out,
        "UPDATE_GOLDEN=1 cargo test --test work_counts",
    );
    per_node_block_state_is_o_resident();
    per_submission_cost_is_flat_in_active_submissions(&templates);
}
