//! The simulation engine: executes planned applications' stages on a
//! simulated cluster under a cache policy.
//!
//! ## The engine runs stages, the drivers own applications
//!
//! The engine holds the shared cluster (stores, block master, disks, NICs,
//! task slots, fault topology) and the `AppState` of the application whose
//! stage runs: clock, RNG streams, accumulators, logs, per-node cache
//! counters, fault and abort accounting, slot run and caching mode. The
//! stores count nothing: every hit, miss, eviction, purge and prefetch is
//! counted on the running application's row for the node it happened on.
//! A driver owns each application: plan, profiler, job cursor and
//! `AppState`. The solo driver
//! ([`Simulation::run_with_scratch`]) runs in the engine's own state; the
//! serve driver ([`crate::serve`]) swaps each submission's in around its
//! stages. Both run stages through `Engine::run_one_stage` and build the
//! [`RunReport`] with `AppState::report`.
//!
//! ## Execution model
//!
//! Jobs run in submission order; within the application, stages execute in
//! stage-ID order (a valid topological order — see `refdist_dag::plan`) with
//! a barrier between stages. Each stage runs one task per partition; tasks
//! are placed on their partition's home node (`partition mod nodes`) and
//! queue for that node's task slots.
//!
//! A task's cost is `input-I/O + pipelined compute (+ shuffle write)`:
//!
//! * **memory hit** — free (possibly waiting for an in-flight prefetch);
//! * **remote memory** — pays the reader's NIC;
//! * **disk** — pays the source disk (plus NIC when remote) and promotes the
//!   block back into the reader's memory;
//! * **gone** (MEMORY_ONLY eviction) — recomputes the lineage: descends
//!   through narrow parents, re-reading inputs and shuffle outputs, paying
//!   compute again;
//! * **shuffle read** — pays `parent_bytes / child_partitions` on the NIC;
//! * **external input** — pays the local disk.
//!
//! After a stage's tasks are scheduled, the prefetch engine (for policies
//! that want it) enqueues background fetches *behind* the stage's task I/O,
//! so prefetching genuinely overlaps computation and contends for the same
//! disk/NIC bandwidth (Algorithm 1's prefetching phase, threshold rule
//! included).
//!
//! ## Dense block-slot state
//!
//! The engine's per-block bookkeeping (materialization and the
//! "prefetchable" set) lives in cluster-wide bitsets indexed by
//! [`BlockSlots`] — every cached-RDD block maps to a `u32` slot, in
//! `BlockId` sort order, so the hot path does no hashing and the prefetcher
//! reads an incrementally maintained bitset instead of rescanning every
//! cached RDD × partition each stage. Per-copy facts (which node holds a
//! block, when its bytes arrive, whether it is an unused prefetch) live
//! once, in the block master's record of the copy ([`MemCopy`]); per node
//! the engine keeps nothing per slot. The stores, the block master and
//! every policy are slot-indexed over the same arena.
//!
//! ## Scheduler index and shared artifacts
//!
//! Task placement runs off an incrementally maintained slot index
//! (`SlotIndex`): O(log n) per placement instead of a scan
//! over every core. Every placement, eviction and purge this engine decides
//! is pinned by the frozen decision digests
//! (`tests/golden/engine_decisions.txt`). Run-independent artifacts — the
//! [`AppProfiler`] and the [`BlockSlots`] arena — are held as `Arc`s on
//! [`Simulation`] so sweeps can build them
//! once per workload ([`Simulation::with_artifacts`]) and every run of the
//! same cell shares them; per-run engine allocations can likewise be
//! recycled across runs through [`EngineScratch`].

use crate::config::SimConfig;
use crate::faults::{FaultStats, StageAbort};
use crate::report::{RunReport, SchedStats};
use crate::sched::{SlotIndex, NODE_DOWN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use refdist_core::{AppProfiler, ProfileMode};
use refdist_dag::{
    shift_rdd, AppPlan, AppProfile, AppSpec, BlockId, BlockSlots, JobId, Rdd, RddId, SlotSet,
    Stage, StageKind, TenantMap,
};
use refdist_policies::{CachePolicy, LruPolicy};
use refdist_simcore::{FifoResource, SimDuration, SimTime};
use refdist_store::{BlockMaster, CacheStats, InsertError, MemCopy, MemoryStore, NodeId};
use std::mem::take;
use std::ops::Range;
use std::sync::Arc;

/// A configured simulation of one application on one cluster.
pub struct Simulation<'a> {
    spec: &'a AppSpec,
    plan: &'a AppPlan,
    profiler: Arc<AppProfiler>,
    arena: Arc<BlockSlots>,
    cfg: SimConfig,
}

impl<'a> Simulation<'a> {
    /// Create a simulation, building its shared artifacts (profiler and
    /// block-slot arena) from scratch. The profiler decides how much of the
    /// DAG each policy sees at each point (ad-hoc vs recurring, paper §5.8).
    pub fn new(spec: &'a AppSpec, plan: &'a AppPlan, mode: ProfileMode, cfg: SimConfig) -> Self {
        Self::with_artifacts(
            spec,
            plan,
            Arc::new(AppProfiler::new(spec, plan, mode)),
            Arc::new(BlockSlots::new(spec)),
            cfg,
        )
    }

    /// Create a simulation around pre-built shared artifacts. The profiler
    /// depends only on `(spec, plan, mode)` and the arena only on `spec`, so
    /// a sweep that runs one workload under many `(policy, fraction, seed)`
    /// cells builds each exactly once and shares the `Arc`s across cells
    /// instead of re-profiling the DAG and rebuilding the arena per run.
    ///
    /// `profiler` and `arena` must have been built from this same
    /// `(spec, plan)` — the engine trusts the arena's slot mapping. Panics
    /// on a cluster or fault plan that fails validation
    /// ([`crate::FaultPlan::validate`]).
    pub fn with_artifacts(
        spec: &'a AppSpec,
        plan: &'a AppPlan,
        profiler: Arc<AppProfiler>,
        arena: Arc<BlockSlots>,
        cfg: SimConfig,
    ) -> Self {
        cfg.cluster
            .validate()
            .unwrap_or_else(|e| panic!("invalid cluster config: {e}"));
        cfg.faults
            .validate()
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        Simulation {
            spec,
            plan,
            profiler,
            arena,
            cfg,
        }
    }

    /// The profiler in use.
    pub fn profiler(&self) -> &AppProfiler {
        &self.profiler
    }

    /// Shared handles to the run-independent artifacts, for reuse in another
    /// simulation of the same workload ([`Simulation::with_artifacts`]).
    pub fn artifacts(&self) -> (Arc<AppProfiler>, Arc<BlockSlots>) {
        (Arc::clone(&self.profiler), Arc::clone(&self.arena))
    }

    /// Execute the application under `policy` and report.
    pub fn run(&self, policy: &mut dyn CachePolicy) -> RunReport {
        self.run_with_scratch(policy, &mut EngineScratch::default())
    }

    /// Execute the application under `policy`, recycling `scratch`'s buffers
    /// for the engine's per-run state and leaving them in `scratch` for the
    /// next run. Results are identical to [`Simulation::run`] — the engine
    /// resets every recycled buffer to its fresh state — but back-to-back
    /// runs (sweep cells on one worker thread) skip the allocations.
    ///
    /// This is the solo driver: the plan's stages in order, each through
    /// the job cursor and `Engine::run_one_stage` exactly as the serve
    /// driver runs a submission's, until the last stage or an abort.
    pub fn run_with_scratch(
        &self,
        policy: &mut dyn CachePolicy,
        scratch: &mut EngineScratch,
    ) -> RunReport {
        let (arena, nrdds) = (Arc::clone(&self.arena), self.spec.rdds.len());
        let source = SpecSource::Whole(self.spec);
        let mut engine = Engine::build(source, &self.cfg, arena, nrdds, take(scratch));
        // Offer the arena before any other hook so policies can switch
        // their per-block state to slot-indexed tables.
        policy.attach_slots(&self.arena);
        let mut jobs = JobCursor::default();
        for stage in &self.plan.stages {
            let visible = jobs.start_stage(stage, &self.profiler, policy);
            engine.run_one_stage(stage, visible, policy);
            if engine.app.aborted.is_some() {
                // A task exhausted its retry budget: the driver gives up on
                // the application; later stages never run.
                break;
            }
        }
        let (name, app) = (self.spec.name.clone(), &mut engine.app);
        let report = app.report(&self.cfg, name, policy.name(), SimTime::ZERO, 1);
        *scratch = engine.into_scratch();
        report
    }
}

/// Reusable engine allocations, recycled across runs via
/// [`Simulation::run_with_scratch`]. Holds the per-run tables whose shapes
/// depend only on the cluster and workload sizes: slot free times, dense
/// per-block state, the lineage-walk epoch stamps, and the purge and
/// prefetch candidate buffers. A default-constructed scratch is simply "no
/// buffers yet".
#[derive(Debug, Default)]
pub struct EngineScratch {
    slots: Vec<Vec<SimTime>>,
    materialized_d: SlotSet,
    prefetchable: SlotSet,
    visited_epoch: Vec<u64>,
    purge_buf: Vec<BlockId>,
    stage_tasks: TaskTable,
    prefetch_lists: Vec<Vec<BlockId>>,
    work: WorkCounts,
}

impl EngineScratch {
    /// Work done by every run this scratch served, summed.
    pub fn work(&self) -> WorkCounts {
        self.work
    }
}

/// Deterministic engine work no report, policy wrapper or allocator sees,
/// read off [`EngineScratch::work`] after the runs it served. Plain
/// always-on counters: they never reach a report, so recording them changes
/// no output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Slot-index commits: one per placed task attempt, speculative copy,
    /// and core moved by a crash or rejoin.
    pub slot_commits: u64,
    /// Applications admitted into a streaming engine.
    pub admissions: u64,
    /// Applications retired from a streaming engine.
    pub retirements: u64,
}

/// Struct-of-arrays record of one stage's launched tasks, indexed by the
/// dense task index (== partition, tasks launch in partition order). Only
/// filled when speculation needs the stage's completion profile; the
/// parallel `Vec`s replace the old per-stage `Vec` of 5-field tuples so the
/// speculation pass streams each column it needs instead of striding
/// through 40-byte records.
#[derive(Debug, Default)]
pub(crate) struct TaskTable {
    /// Finish time of the task's successful (or aborted) attempt.
    finish: Vec<SimTime>,
    /// Node the attempt ran on.
    node: Vec<u32>,
    /// Slot index on that node.
    slot: Vec<u32>,
    /// Start time of the *last* attempt (the one `finish` belongs to) — the
    /// deadline floor for killing a losing attempt.
    start: Vec<SimTime>,
    /// Attempts consumed (retries + 1).
    attempts: Vec<u32>,
    /// Scratch copy of `finish` that [`TaskTable::kth_finish`] reorders.
    select: Vec<SimTime>,
}

impl TaskTable {
    fn clear(&mut self) {
        self.finish.clear();
        self.node.clear();
        self.slot.clear();
        self.start.clear();
        self.attempts.clear();
    }
    fn len(&self) -> usize {
        self.finish.len()
    }
    fn is_empty(&self) -> bool {
        self.finish.is_empty()
    }
    fn push(&mut self, finish: SimTime, node: u32, slot: u32, start: SimTime, attempts: u32) {
        self.finish.push(finish);
        self.node.push(node);
        self.slot.push(slot);
        self.start.push(start);
        self.attempts.push(attempts);
    }
    /// The `k`-th smallest finish time (1-based, `1 <= k <= len`), selected
    /// in linear time over a recycled copy of the `finish` column. Equal
    /// times are interchangeable, so the result does not depend on how the
    /// selection orders ties.
    fn kth_finish(&mut self, k: usize) -> SimTime {
        self.select.clear();
        self.select.extend_from_slice(&self.finish);
        *self.select.select_nth_unstable(k - 1).1
    }
}

/// Shape `rows` into `outer` rows of `inner` copies of `fill`, reusing row
/// allocations from a previous run.
fn reset_rows(rows: &mut Vec<Vec<SimTime>>, outer: usize, inner: usize, fill: SimTime) {
    rows.truncate(outer);
    for row in rows.iter_mut() {
        row.clear();
        row.resize(inner, fill);
    }
    while rows.len() < outer {
        rows.push(vec![fill; inner]);
    }
}

/// Record the global cached-block access trace of an application by running
/// it once with an effectively infinite cache (no evictions). The Belady MIN
/// oracle consumes this trace.
pub fn collect_trace(spec: &AppSpec, plan: &AppPlan, cfg: &SimConfig) -> Vec<BlockId> {
    let mut big = cfg.clone();
    big.collect_trace = true;
    big.cluster = big.cluster.with_cache(1 << 60);
    let sim = Simulation::new(spec, plan, ProfileMode::Recurring, big);
    let mut lru = LruPolicy::new();
    sim.run(&mut lru)
        .trace
        .expect("trace collection was requested")
}

/// Where the engine resolves RDD metadata from: the whole application spec
/// (single-app runs), or an owned, windowed registry that streaming serve
/// populates at admission and drains at retirement, so resolvable metadata
/// is `O(live apps)` rather than `O(total stream)`.
pub(crate) enum SpecSource<'a> {
    Whole(&'a AppSpec),
    Registry(SpecRegistry),
}

/// Owned, windowed RDD registry for the streaming engine. `rdds[i]` holds
/// the RDD with global id `rdd_base + i`; only live applications' RDDs are
/// resolvable. Global RDD ids are never recycled (they are embedded in
/// `BlockId`s, traces, and decision logs), so the window only ever covers
/// the live span and advances monotonically as the oldest apps retire.
#[derive(Debug, Default)]
pub(crate) struct SpecRegistry {
    rdd_base: usize,
    rdds: Vec<Option<Rdd>>,
}

impl SpecRegistry {
    fn rdd(&self, id: RddId) -> &Rdd {
        self.rdds[id.index() - self.rdd_base]
            .as_ref()
            .expect("rdd of a live application")
    }

    fn len(&self) -> usize {
        self.rdds.len()
    }

    /// Insert `spec`'s RDDs shifted by `offset` into the global id space.
    /// Returns how many entries were spliced in at the *front* (an admission
    /// below the current window — trace arrivals admit in arrival order, not
    /// id order), so parallel window tables stay index-aligned.
    fn admit(&mut self, spec: &AppSpec, offset: u32) -> usize {
        let first = offset as usize;
        let mut front = 0;
        if self.rdds.is_empty() {
            self.rdd_base = first;
        } else if first < self.rdd_base {
            front = self.rdd_base - first;
            self.rdds
                .splice(0..0, std::iter::repeat_with(|| None).take(front));
            self.rdd_base = first;
        }
        let end = first - self.rdd_base + spec.rdds.len();
        if end > self.rdds.len() {
            self.rdds.resize_with(end, || None);
        }
        for r in &spec.rdds {
            let shifted = shift_rdd(r, offset);
            let i = shifted.id.index() - self.rdd_base;
            debug_assert!(self.rdds[i].is_none(), "rdd ids are never recycled");
            self.rdds[i] = Some(shifted);
        }
        front
    }

    /// Drop one application's RDDs (`range` in the global id space) and
    /// advance the window past any leading retired entries. Returns the
    /// number of entries drained from the front so parallel window tables
    /// can drain in lockstep.
    fn retire(&mut self, range: std::ops::Range<u32>) -> usize {
        for ri in range {
            self.rdds[ri as usize - self.rdd_base] = None;
        }
        let lead = self.rdds.iter().take_while(|r| r.is_none()).count();
        if lead > 0 {
            self.rdds.drain(..lead);
            self.rdd_base += lead;
        }
        lead
    }
}

/// The stage executor: the shared cluster, and the [`AppState`] of the
/// application whose stage runs.
pub(crate) struct Engine<'a> {
    source: SpecSource<'a>,
    cfg: &'a SimConfig,
    nodes: usize,

    /// Per node: the memory cache.
    memory: Vec<MemoryStore>,
    master: BlockMaster,
    disk: Vec<FifoResource>,
    net: Vec<FifoResource>,
    /// Per node, per core: time the slot becomes free (authoritative).
    slots: Vec<Vec<SimTime>>,
    /// Ordered mirror of `slots` for O(log n) placement.
    sched: SlotIndex,

    /// Block → dense slot mapping over the cached RDDs.
    arena: Arc<BlockSlots>,

    /// Slots computed at least once this run.
    materialized_d: SlotSet,
    /// Slots that are materialized and not resident in their home node's
    /// memory — exactly the prefetcher's candidates, every node's at once
    /// (a block's home is `partition % nodes`), maintained incrementally at
    /// every residency/materialization transition instead of rescanned
    /// each stage.
    prefetchable: SlotSet,
    /// Per RDD: the epoch it was last visited in (epoch-stamped `visited`
    /// set — no per-task allocation). Indexed by `rdd.index() - vis_base`;
    /// the base is 0 except in streaming mode, where the table is windowed
    /// alongside the registry.
    visited_epoch: Vec<u64>,
    /// Window base of `visited_epoch` (streaming mode; 0 otherwise).
    vis_base: usize,
    epoch: u64,
    /// Purge candidate buffer, also a crashed node's disk copies; reused
    /// across stages (and runs, via scratch).
    purge_buf: Vec<BlockId>,
    /// Struct-of-arrays task records for the running stage (speculation).
    stage_tasks: TaskTable,
    /// Per node: that node's prefetch candidates for the running stage,
    /// reused across stages.
    prefetch_lists: Vec<Vec<BlockId>>,
    /// Admission and retirement counts so far (slot commits are read off
    /// `sched` when the scratch is handed back).
    work: WorkCounts,

    /// Per-node prefetch thresholds (adaptive when configured).
    thresholds: Vec<f64>,
    /// Per node: (prefetches issued, prefetches wasted) since its last
    /// threshold adaptation, every application's counted.
    since_adapt: Vec<(u64, u64)>,
    /// The running application's state: a solo run's own, or the serve
    /// submission swapped in around its stage ([`Engine::swap_app`]).
    app: AppState,

    // --- fault injection (`cfg.faults`) ---
    /// Per node: currently down (crashed with a pending rejoin). Tasks homed
    /// on a down node run on the cluster-wide earliest slot instead.
    down: Vec<bool>,
    /// Per node: stage id at which a downed node rejoins.
    rejoin_at: Vec<Option<u32>>,
    /// Per node: disk spills of *retired* applications, purged at
    /// retirement but still counted as the node's until it next crashes. A
    /// crash counts them into `lost_blocks` (then forgets them), so a crash
    /// loses the same blocks whether or not their owners have retired.
    ghost_disk: Vec<u64>,
    /// Per scripted crash: whether it already fired. A solo run visits each
    /// stage id exactly once so this is inert there; the serve driver replays
    /// per-application stage counters that *do* recur, and a scripted crash
    /// must still fire at most once per simulation.
    crash_fired: Vec<bool>,

    // --- wall-clock faults (cluster-level; never swapped per-app) ---
    /// High-water mark of every stage-start clock observed so far. The
    /// per-app `now` is *not* monotone across a serve stream (FIFO runs an
    /// early arrival to completion before a later-arriving app starts at its
    /// earlier clock), so wall-clock events fire against this monotone mark
    /// instead. Maintained only when timed crashes or churn are configured.
    cluster_now: u64,
    /// Per scripted timed crash: whether it already fired.
    timed_fired: Vec<bool>,
    /// Per node: wall-clock instant at which a timed-crash downtime expires.
    rejoin_at_time: Vec<Option<u64>>,
    /// Dedicated churn stream — a third salt of the master seed, so churn
    /// timing is independent of jitter, fault draws, and arrivals, and zero
    /// draws happen when churn is off.
    churn_rng: Option<SmallRng>,
    /// Per node: wall-clock instant of the next churn transition.
    churn_next: Vec<u64>,
    /// Per node: whether the next churn transition is a repair (the node's
    /// current churn interval is a down interval) rather than a failure.
    churn_repair: Vec<bool>,
}

/// Deserialization cost when a block is read from disk or across the
/// network, in CPU microseconds per MiB (~85 MB/s). Memory hits skip it —
/// Spark's MemoryStore holds deserialized objects, while disk and network
/// blocks are serialized bytes. This is a large part of why a cache hit is
/// so much cheaper than a "cheap" local-disk miss.
const DESER_US_PER_MB: u64 = 12_000;

/// The fault-draw stream for `seed`: a splitmix of the master seed,
/// decorrelated from the jitter stream but fully determined by `seed`, so a
/// serve app's streams match what a solo run of the same seed would use.
fn fault_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64((seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// The churn stream for `seed`: yet another salt of the master seed
/// (distinct from the fault-draw and arrival salts), so the membership
/// timeline is a function of the seed alone — independent of which apps run,
/// their jitter, and their per-app fault draws.
fn churn_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64((seed ^ 0x6A09_E667_F3BC_C909).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// One exponentially distributed interval with the given mean, at least 1 µs
/// so successive churn transitions always advance the clock.
fn exp_gap(rng: &mut SmallRng, mean_us: u64) -> u64 {
    let u: f64 = rng.random();
    let gap = -(1.0 - u).ln() * mean_us as f64;
    (gap as u64).max(1)
}

/// Everything the engine keeps per application: the one state a driver
/// owns per application and the engine runs stages against. A solo run's
/// lives in its engine; the serve driver keeps one per submission and
/// [`Engine::swap_app`]s it in around each stage, so one engine (shared
/// cluster, stores, master, scheduler) interleaves many applications while
/// each keeps its own clock, RNG streams, accumulators, per-node cache
/// counters, slot run, caching mode and fault/abort accounting.
pub(crate) struct AppState {
    pub(crate) now: SimTime,
    /// Compute-jitter stream.
    rng: SmallRng,
    /// Stochastic fault-draw stream, derived from the seed but separate from
    /// `rng` so an empty plan draws nothing and fault-free runs stay
    /// byte-identical.
    frng: SmallRng,
    io_accum: SimDuration,
    compute_accum: SimDuration,
    tasks_run: u64,
    stage_times: Vec<(refdist_dag::StageId, SimTime, SimTime)>,
    trace: Vec<BlockId>,
    /// Per-task `(node, slot, start)` log (`cfg.collect_placements`).
    placements: Vec<(u32, u32, SimTime)>,
    /// Home vs delay-scheduled-remote placement counters.
    sched_stats: SchedStats,
    fstats: FaultStats,
    pub(crate) aborted: Option<StageAbort>,
    /// The application's dense slot run. Purge and prefetch candidates are
    /// collected from it alone, so a stage's candidate scans cost O(its own
    /// application), not O(every live one). A solo run covers everything;
    /// the serve driver sets it at each admission.
    pub(crate) slot_run: Range<u32>,
    /// Degraded admission: nothing is inserted into the memory cache and no
    /// prefetch runs — the application executes, it just cannot cache. Set
    /// by the serve driver at a degraded admission and kept across retries.
    pub(crate) cache_bypass: bool,
    /// Per node: the cache counters of this application's accesses,
    /// evictions, purges and prefetches there. Empty until the application
    /// is admitted ([`AppState::open_counters`]); the report takes it.
    stats: Box<[CacheStats]>,
}

impl AppState {
    /// Fresh per-app state whose clock starts at `arrival` and whose RNG
    /// streams are seeded exactly as a standalone engine run with `seed`
    /// would seed them.
    pub(crate) fn fresh(seed: u64, arrival: SimTime) -> AppState {
        AppState {
            now: arrival,
            rng: SmallRng::seed_from_u64(seed),
            frng: fault_rng(seed),
            io_accum: SimDuration::ZERO,
            compute_accum: SimDuration::ZERO,
            tasks_run: 0,
            stage_times: Vec::new(),
            trace: Vec::new(),
            placements: Vec::new(),
            sched_stats: SchedStats::default(),
            fstats: FaultStats::default(),
            aborted: None,
            slot_run: 0..u32::MAX,
            cache_bypass: false,
            stats: Box::default(),
        }
    }

    /// Give the application one zeroed counter row per node, at its first
    /// admission (a retry keeps its rows).
    pub(crate) fn open_counters(&mut self, nodes: usize) {
        self.stats = vec![CacheStats::default(); nodes].into_boxed_slice();
    }

    /// Restart for an app-level retry: fresh clock and RNG streams (seeded
    /// exactly as a standalone run of `seed` would be), with the failed
    /// attempts' accumulators, logs, cache and fault counters kept so the
    /// submission's final report covers every attempt it consumed.
    pub(crate) fn restart(&mut self, seed: u64, arrival: SimTime) {
        self.now = arrival;
        self.rng = SmallRng::seed_from_u64(seed);
        self.frng = fault_rng(seed);
        self.aborted = None;
    }

    /// The application's report: its clock since `arrival`, its
    /// accumulators and logs, and its per-node cache counters with their
    /// sum. The one place that gates the access trace and placement log on
    /// `cfg`.
    pub(crate) fn report(
        &mut self,
        cfg: &SimConfig,
        app: String,
        policy: String,
        arrival: SimTime,
        app_attempts: u32,
    ) -> RunReport {
        let per_node = take(&mut self.stats).into_vec();
        let mut stats = CacheStats::new();
        for s in &per_node {
            stats.merge(s);
        }
        RunReport {
            app,
            policy,
            jct: self.now - arrival,
            stats,
            sched: self.sched_stats,
            per_node,
            io_time: self.io_accum,
            compute_time: self.compute_accum,
            stage_times: take(&mut self.stage_times),
            tasks: self.tasks_run,
            faults: self.fstats,
            app_attempts,
            aborted: self.aborted,
            trace: cfg.collect_trace.then(|| take(&mut self.trace)),
            placements: cfg.collect_placements.then(|| take(&mut self.placements)),
        }
    }
}

/// An application's job-submission cursor: jobs are submitted to the
/// policy as the first of their stages starts, each with the profile
/// visible once it is submitted. Solo runs and serve submissions share it.
#[derive(Default)]
pub(crate) struct JobCursor {
    /// The next job to submit.
    next: u32,
    /// The profile visible since the latest submitted job.
    visible: Option<Arc<AppProfile>>,
}

impl JobCursor {
    /// Submit every job up to `stage`'s, then start `stage`; returns the
    /// profile the stage runs with.
    pub(crate) fn start_stage(
        &mut self,
        stage: &Stage,
        profiler: &AppProfiler,
        policy: &mut dyn CachePolicy,
    ) -> &Arc<AppProfile> {
        for j in self.next..=stage.job.0 {
            let profile = profiler.visible_at_job_shared(JobId(j));
            policy.on_job_submit(JobId(j), self.visible.insert(profile));
        }
        self.next = self.next.max(stage.job.0 + 1);
        let visible = self.visible.as_ref().expect("the stage's job is submitted");
        policy.on_stage_start(stage.id, visible);
        visible
    }
}

impl<'a> Engine<'a> {
    /// A streaming engine: starts with no resolvable RDDs and an empty slot
    /// arena snapshot; the serve driver grows both one application at a time
    /// via [`Engine::admit_app`] and shrinks them via [`Engine::retire_app`].
    pub(crate) fn new_streaming(
        cfg: &'a SimConfig,
        arena: Arc<BlockSlots>,
        s: EngineScratch,
    ) -> Self {
        let source = SpecSource::Registry(SpecRegistry::default());
        Self::build(source, cfg, arena, 0, s)
    }

    /// An engine over `source` whose own application state starts fresh at
    /// time zero, seeded with `cfg.seed`.
    fn build(
        source: SpecSource<'a>,
        cfg: &'a SimConfig,
        arena: Arc<BlockSlots>,
        nrdds: usize,
        mut s: EngineScratch,
    ) -> Self {
        let n = cfg.cluster.nodes as usize;
        let nslots = arena.len();
        // Shape the recycled scratch buffers into exactly the state fresh
        // allocations would have — run_with_scratch feeds a previous run's
        // buffers back in, possibly from a different cluster/workload size.
        reset_rows(
            &mut s.slots,
            n,
            cfg.cluster.cores_per_node as usize,
            SimTime::ZERO,
        );
        s.materialized_d.reset(nslots);
        s.prefetchable.reset(nslots);
        s.visited_epoch.clear();
        s.visited_epoch.resize(nrdds, 0);
        s.purge_buf.clear();
        s.stage_tasks.clear();
        s.prefetch_lists.truncate(n);
        for list in &mut s.prefetch_lists {
            list.clear();
        }
        s.prefetch_lists.resize_with(n, Vec::new);
        let sched = SlotIndex::new(
            &s.slots,
            cfg.delay_scheduling_us.is_some() || cfg.faults.needs_global_slots(),
        );
        // Churn: draw every node's initial time-to-failure up front, in node
        // order, so the draw sequence is fixed by the seed alone.
        let churn_on = cfg.faults.churn.is_some();
        let mut churn_rng = cfg.faults.churn.map(|_| churn_rng(cfg.seed));
        let churn_next = match (&cfg.faults.churn, &mut churn_rng) {
            (Some(ch), Some(rng)) => (0..n).map(|_| exp_gap(rng, ch.mtbf_us)).collect(),
            _ => Vec::new(),
        };
        let mut app = AppState::fresh(cfg.seed, SimTime::ZERO);
        app.open_counters(n);
        Engine {
            source,
            cfg,
            nodes: n,
            memory: (0..n)
                .map(|_| MemoryStore::with_slots(cfg.cluster.cache_bytes, Arc::clone(&arena)))
                .collect(),
            master: BlockMaster::with_slots(Arc::clone(&arena)),
            disk: (0..n)
                .map(|_| FifoResource::new(cfg.cluster.disk_bw))
                .collect(),
            net: (0..n)
                .map(|_| FifoResource::new(cfg.cluster.net_bw))
                .collect(),
            slots: s.slots,
            sched,
            materialized_d: s.materialized_d,
            prefetchable: s.prefetchable,
            visited_epoch: s.visited_epoch,
            vis_base: 0,
            epoch: 0,
            stage_tasks: s.stage_tasks,
            prefetch_lists: s.prefetch_lists,
            work: s.work,
            purge_buf: s.purge_buf,
            arena,
            thresholds: vec![cfg.prefetch_threshold; n],
            since_adapt: vec![(0, 0); n],
            app,
            down: vec![false; n],
            rejoin_at: vec![None; n],
            ghost_disk: vec![0; n],
            crash_fired: vec![false; cfg.faults.crashes.len()],
            cluster_now: 0,
            timed_fired: vec![false; cfg.faults.timed_crashes.len()],
            rejoin_at_time: vec![None; n],
            churn_rng,
            churn_next,
            churn_repair: vec![false; if churn_on { n } else { 0 }],
        }
    }

    /// Swap the engine's application state with `app`. Called in pairs by
    /// the serve driver: swap in before running one of the app's stages,
    /// swap out after. Shared cluster state (stores, master, slots,
    /// scheduler index, fault topology) stays in place.
    pub(crate) fn swap_app(&mut self, app: &mut AppState) {
        std::mem::swap(&mut self.app, app);
    }

    /// Turn on per-tenant cache quotas in every node's memory store. Must be
    /// called before any block is inserted (the stores assert emptiness).
    pub(crate) fn enable_store_tenancy(&mut self, map: &Arc<TenantMap>, quota_bytes: u64) {
        for m in &mut self.memory {
            m.enable_tenancy(Arc::clone(map), quota_bytes);
        }
    }

    /// Admit one application into the streaming engine: its RDDs (shifted by
    /// `offset` into the global id space) become resolvable, and every
    /// slot-indexed table grows to `snap`, the arena snapshot taken after
    /// the app's slot range was allocated. Tables grow to the
    /// arena's *capacity*, which tracks peak-active slots, not the stream
    /// length: retired ranges are recycled in place.
    pub(crate) fn admit_app(&mut self, spec: &AppSpec, offset: u32, snap: &Arc<BlockSlots>) {
        let SpecSource::Registry(reg) = &mut self.source else {
            panic!("admit_app is a streaming-engine operation");
        };
        self.work.admissions += 1;
        let front = reg.admit(spec, offset);
        let len = reg.len();
        self.vis_base = reg.rdd_base;
        // Keep the epoch window index-aligned with the registry window.
        if front > 0 {
            self.visited_epoch
                .splice(0..0, std::iter::repeat_n(0, front));
        }
        if self.visited_epoch.len() < len {
            self.visited_epoch.resize(len, 0);
        }
        let nslots = snap.len();
        self.materialized_d.grow(nslots);
        self.prefetchable.grow(nslots);
        for m in &mut self.memory {
            m.adopt(snap);
        }
        self.master.adopt(snap);
        self.arena = Arc::clone(snap);
    }

    /// Retire one application from the streaming engine once none of its
    /// blocks are memory-resident: purge its surviving disk spills (with
    /// ghost accounting — see `ghost_disk`), zero its dense per-block state
    /// in the to-be-recycled slot range, and drop its RDDs from the registry
    /// (advancing the window when it was the oldest live app). No cache
    /// statistics are touched: retirement is bookkeeping, not cache
    /// behaviour, so a stream's counters are those of its runs alone.
    ///
    /// In-flight and unused-prefetch marks live on the master's copy
    /// records, so an app with no copy left has none to scrub.
    pub(crate) fn retire_app(&mut self, rdds: Range<u32>, slots: Range<u32>) {
        debug_assert!(!self.any_resident(rdds.clone()), "retiring a resident app");
        self.work.retirements += 1;
        for ri in rdds.clone() {
            let id = RddId(ri);
            let (cached, parts) = {
                let r = self.rdd(id);
                (r.is_cached(), r.num_partitions)
            };
            if !cached {
                continue;
            }
            for p in 0..parts {
                let b = BlockId::new(id, p);
                // Each holder visited is de-registered, so the next
                // `disk_locations` yields the next-lowest one.
                loop {
                    let Some(n) = self.master.disk_locations(b).next() else {
                        break;
                    };
                    self.master.unregister_disk(b, n);
                    self.ghost_disk[n.index()] += 1;
                }
            }
        }
        if !slots.is_empty() {
            let len = slots.end - slots.start;
            self.materialized_d.clear_range(slots.start, len);
            self.prefetchable.clear_range(slots.start, len);
        }
        let SpecSource::Registry(reg) = &mut self.source else {
            panic!("retire_app is a streaming-engine operation");
        };
        let drained = reg.retire(rdds);
        self.visited_epoch.drain(..drained);
        self.vis_base = reg.rdd_base;
    }

    /// Forcibly evict every memory-resident block of `rdds` (an aborted
    /// attempt's range) so the range can be retired and re-admitted for an
    /// app-level retry. Removals route through `policy.on_remove` so policy
    /// bookkeeping stays consistent, but deliberately touch no cache
    /// counters: the teardown is a driver artifact, not cache behaviour.
    pub(crate) fn purge_app(&mut self, rdds: std::ops::Range<u32>, policy: &mut dyn CachePolicy) {
        for ri in rdds {
            let id = RddId(ri);
            let (cached, parts) = {
                let r = self.rdd(id);
                (r.is_cached(), r.num_partitions)
            };
            if !cached {
                continue;
            }
            for p in 0..parts {
                let b = BlockId::new(id, p);
                loop {
                    let Some(n) = self.master.memory_locations(b).next() else {
                        break;
                    };
                    let node = n.index();
                    self.memory[node].remove(b);
                    self.master.unregister_memory(b, n);
                    policy.on_remove(n, b);
                }
                self.sync_prefetchable(b);
            }
        }
    }

    /// Cluster-wide memory residency `(blocks, bytes)` — the serve driver's
    /// peak-footprint sample.
    pub(crate) fn resident_totals(&self) -> (u64, u64) {
        self.memory
            .iter()
            .fold((0, 0), |(n, b), m| (n + m.len() as u64, b + m.used()))
    }

    /// Whether any block of the RDDs in `rdds` is memory-resident anywhere.
    /// A completed app with none left is drained and can retire.
    pub(crate) fn any_resident(&self, rdds: std::ops::Range<u32>) -> bool {
        for ri in rdds {
            let id = RddId(ri);
            let (cached, parts) = {
                let r = self.rdd(id);
                (r.is_cached(), r.num_partitions)
            };
            if !cached {
                continue;
            }
            for p in 0..parts {
                if self.master.in_memory_anywhere(BlockId::new(id, p)) {
                    return true;
                }
            }
        }
        false
    }

    /// One stochastic fault draw. Draws from the fault stream only when the
    /// probability is positive, so an empty plan draws nothing.
    fn fault_draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.app.frng.random_bool(p.min(1.0))
    }

    /// Hand the reusable buffers back for the next run.
    pub(crate) fn into_scratch(self) -> EngineScratch {
        EngineScratch {
            slots: self.slots,
            materialized_d: self.materialized_d,
            prefetchable: self.prefetchable,
            visited_epoch: self.visited_epoch,
            purge_buf: self.purge_buf,
            stage_tasks: self.stage_tasks,
            prefetch_lists: self.prefetch_lists,
            work: WorkCounts {
                slot_commits: self.work.slot_commits + self.sched.commits,
                ..self.work
            },
        }
    }

    fn home(&self, partition: u32) -> usize {
        partition as usize % self.nodes
    }

    /// Resolve RDD metadata from the active source (whole spec or the
    /// streaming registry). The returned borrow is tied to `&self`, so hot
    /// paths copy out the scalars they need rather than holding it across
    /// `&mut self` calls.
    #[inline]
    fn rdd(&self, id: RddId) -> &Rdd {
        match &self.source {
            SpecSource::Whole(s) => s.rdd(id),
            SpecSource::Registry(r) => r.rdd(id),
        }
    }

    fn block_size(&self, b: BlockId) -> u64 {
        self.rdd(b.rdd).block_size
    }

    /// Deserialization CPU cost for a block arriving from disk or network.
    fn deser_us(&self, bytes: u64) -> u64 {
        bytes * DESER_US_PER_MB / (1 << 20)
    }

    /// Dense slot of a cached-RDD block (every block the engine tracks
    /// belongs to a cached RDD, so the arena covers it).
    fn slot(&self, b: BlockId) -> u32 {
        self.arena
            .slot(b)
            .expect("engine-tracked blocks belong to cached RDDs")
    }

    /// Start a task's lineage walk: a fresh epoch empties the visited set.
    fn begin_task(&mut self) {
        self.epoch += 1;
    }

    /// Mark `rdd` visited in the current task; true on first visit.
    fn visit(&mut self, rdd: RddId) -> bool {
        let e = &mut self.visited_epoch[rdd.index() - self.vis_base];
        let first = *e != self.epoch;
        *e = self.epoch;
        first
    }

    /// When `src`'s memory copy of `b` arrives: its arrival time while in
    /// flight, else `SimTime::ZERO` (callers `max()` it into their start
    /// time, and `max` with `ZERO` is the identity).
    fn copy_avail(&self, b: BlockId, src: NodeId) -> SimTime {
        SimTime(self.master.memory_copy(b, src).map_or(0, |c| c.avail))
    }

    fn is_materialized(&self, b: BlockId) -> bool {
        self.materialized_d.contains(self.slot(b))
    }

    fn mark_materialized(&mut self, b: BlockId) {
        let s = self.slot(b);
        self.materialized_d.insert(s);
        self.sync_prefetchable(b);
    }

    /// Clear the unused-prefetch mark on `src`'s memory copy of `b`; true
    /// if it was set.
    fn take_prefetched(&mut self, b: BlockId, src: NodeId) -> bool {
        self.master
            .memory_copy_mut(b, src)
            .is_some_and(|c| take(&mut c.prefetched))
    }

    /// Recompute `b`'s membership in the prefetchable set (materialized and
    /// not resident in its home node's memory). Idempotent; called at every
    /// transition that can change either input.
    fn sync_prefetchable(&mut self, b: BlockId) {
        let home = NodeId(self.home(b.partition) as u32);
        let s = self.slot(b);
        if self.materialized_d.contains(s) && !self.master.in_memory_on(b, home) {
            self.prefetchable.insert(s);
        } else {
            self.prefetchable.remove(s);
        }
    }

    /// Debug audit, run after every stage: each node's resident blocks
    /// each have a master copy on that node, and the master holds no other
    /// copies. Reads only maintained counts and the resident maps, so it
    /// allocates nothing.
    #[cfg(debug_assertions)]
    fn audit_residency(&self) {
        let mut resident = 0;
        for (node, m) in self.memory.iter().enumerate() {
            let id = NodeId(node as u32);
            for &b in m.resident().keys() {
                assert!(
                    self.master.in_memory_on(b, id),
                    "{b} is resident on {id} without a master copy"
                );
            }
            resident += m.len();
        }
        assert_eq!(
            self.master.memory_copy_count(),
            resident,
            "the master's memory copies and the nodes' resident blocks differ"
        );
    }

    /// Execute one stage end to end: scripted fault events, cluster-wide
    /// purge, execution-memory reservation, the stage's tasks, then the
    /// prefetch pass and stage-clock advance, all against the swapped-in
    /// [`AppState`]. Job submission and `on_stage_start` belong to the
    /// caller — the solo driver ([`Simulation::run_with_scratch`]) and the
    /// serve driver both route every stage through here, which is what makes
    /// single-tenant serving equivalent by construction.
    pub(crate) fn run_one_stage(
        &mut self,
        stage: &Stage,
        visible: &AppProfile,
        policy: &mut dyn CachePolicy,
    ) {
        // Wall-clock faults: advance the cluster-wide clock high-water mark
        // and fire everything due by it. Gated so fault-free runs (and runs
        // with only stage-indexed plans) pay nothing here.
        if !self.timed_fired.is_empty() || self.churn_rng.is_some() {
            self.cluster_now = self.cluster_now.max(self.app.now.0);
            self.process_time_events(policy);
        }

        // Scripted faults: rejoins due at this stage, then crashes.
        self.process_fault_events(stage.id.0, policy);

        self.run_purge(policy);

        // Execution memory borrows from the storage region for the
        // stage's duration, evicting cached blocks per the policy.
        let exec_bytes = (self.cfg.cluster.cache_bytes as f64
            * self.cfg.exec_mem_fraction.clamp(0.0, 1.0)) as u64;
        for node in 0..self.nodes {
            if self.down[node] {
                continue;
            }
            let used = self.memory[node].used();
            if used + exec_bytes > self.cfg.cluster.cache_bytes {
                let shortfall = used + exec_bytes - self.cfg.cluster.cache_bytes;
                self.free_up(node, shortfall, policy);
            }
            self.memory[node].set_reserved(exec_bytes);
        }

        let start = self.app.now;
        let end = self.run_stage_tasks(stage, policy);

        // The stage's execution memory is released; the freed headroom
        // is what the prefetcher fills.
        for node in 0..self.nodes {
            self.memory[node].set_reserved(0);
        }
        if self.app.aborted.is_none() && !self.app.cache_bypass && policy.wants_prefetch() {
            self.run_prefetch(stage, visible, policy);
        }
        self.app.stage_times.push((stage.id, start, end));
        self.app.now = end;
        #[cfg(debug_assertions)]
        self.audit_residency();
    }

    /// Fire the scripted fault events due at the start of stage `stage`:
    /// first rejoins of nodes whose downtime expired, then crashes. Crashes
    /// on out-of-range nodes are ignored, as is a downtime crash that would
    /// take the last live node (the cluster must keep at least one).
    fn process_fault_events(&mut self, stage: u32, policy: &mut dyn CachePolicy) {
        for node in 0..self.nodes {
            // `<=` instead of `==`: a solo run's stage counter hits every
            // value exactly once (identical behaviour), but the serve driver
            // interleaves per-app counters that can step past the due stage.
            if self.rejoin_at[node].is_some_and(|r| r <= stage) {
                self.rejoin_node(node, policy);
            }
        }
        for i in 0..self.cfg.faults.crashes.len() {
            let c = self.cfg.faults.crashes[i];
            let node = c.node as usize;
            if self.crash_fired[i] || c.at_stage != stage {
                continue;
            }
            // A scripted crash is consumed at its first due stage whether or
            // not it can fire — under serving, another app's stage counter
            // revisiting the same value must not re-crash the node.
            self.crash_fired[i] = true;
            if node >= self.nodes || self.down[node] {
                continue;
            }
            if let Some(downtime) = c.rejoin_after {
                if self.live_nodes() <= 1 {
                    continue;
                }
                self.take_node_down(node, policy);
                self.rejoin_at[node] = Some(stage.saturating_add(downtime.max(1)));
            } else {
                // Legacy shape: storage wiped, the replacement executor is
                // up immediately and the MRDmanager re-issues the table
                // replica on the next interaction (§4.4).
                self.fail_node(node, policy);
            }
        }
    }

    /// Fire the wall-clock fault events due by the cluster clock high-water
    /// mark: first timed rejoins whose downtime expired, then scripted timed
    /// crashes, then the churn process's transitions in strict `(time, node)`
    /// order — so the churn RNG's draw sequence, and with it the whole
    /// membership timeline, is a function of the seed alone.
    fn process_time_events(&mut self, policy: &mut dyn CachePolicy) {
        let tnow = self.cluster_now;
        for node in 0..self.nodes {
            if self.rejoin_at_time[node].is_some_and(|r| r <= tnow) {
                self.rejoin_at_time[node] = None;
                if self.down[node] {
                    self.rejoin_node(node, policy);
                }
            }
        }
        for i in 0..self.cfg.faults.timed_crashes.len() {
            let c = self.cfg.faults.timed_crashes[i];
            let node = c.node as usize;
            if self.timed_fired[i] || c.at_time_us > tnow {
                continue;
            }
            // Consumed at its first due stage boundary whether or not it can
            // fire, exactly like the stage-indexed shape.
            self.timed_fired[i] = true;
            if node >= self.nodes || self.down[node] {
                continue;
            }
            if let Some(downtime) = c.rejoin_after_us {
                if self.live_nodes() <= 1 {
                    continue;
                }
                self.take_node_down(node, policy);
                self.rejoin_at_time[node] = Some(c.at_time_us.saturating_add(downtime.max(1)));
            } else {
                self.fail_node(node, policy);
            }
        }
        let Some(ch) = self.cfg.faults.churn else {
            return;
        };
        loop {
            // Earliest due transition, ties broken by node index.
            let mut due: Option<(u64, usize)> = None;
            for node in 0..self.nodes {
                let t = self.churn_next[node];
                if t <= tnow && due.is_none_or(|(bt, bn)| (t, node) < (bt, bn)) {
                    due = Some((t, node));
                }
            }
            let Some((t, node)) = due else { break };
            let rng = self.churn_rng.as_mut().expect("churn rng exists when churn is on");
            if self.churn_repair[node] {
                // Repair: the drawn down interval is over; schedule the next
                // failure and rejoin — unless a scripted event owns the
                // node's downtime (its own rejoin will handle it).
                let gap = exp_gap(rng, ch.mtbf_us);
                self.churn_next[node] = t.saturating_add(gap);
                self.churn_repair[node] = false;
                if self.down[node]
                    && self.rejoin_at[node].is_none()
                    && self.rejoin_at_time[node].is_none()
                {
                    self.rejoin_node(node, policy);
                }
            } else {
                // Failure: the repair time is drawn unconditionally (fixed
                // draw order), but the node only goes down if it is up and
                // not the last one live.
                let gap = exp_gap(rng, ch.mttr_us);
                self.churn_next[node] = t.saturating_add(gap);
                self.churn_repair[node] = true;
                if !self.down[node] && self.live_nodes() > 1 {
                    self.take_node_down(node, policy);
                }
            }
        }
    }

    /// Number of nodes currently up.
    fn live_nodes(&self) -> usize {
        self.down.iter().filter(|d| !**d).count()
    }

    /// Take `node` down: storage wiped, slots parked at `NODE_DOWN` so no
    /// ordered scan or slot index can choose them until the rejoin.
    fn take_node_down(&mut self, node: usize, policy: &mut dyn CachePolicy) {
        self.fail_node(node, policy);
        self.down[node] = true;
        for slot in 0..self.slots[node].len() {
            let old = std::mem::replace(&mut self.slots[node][slot], NODE_DOWN);
            self.sched.commit(node, slot, old, NODE_DOWN);
        }
    }

    /// A downed node's replacement executor registers: slots become free
    /// from now, caches are cold, and the policy is told so it can re-issue
    /// per-node state (for MRD, the distance-table replica — §4.4).
    fn rejoin_node(&mut self, node: usize, policy: &mut dyn CachePolicy) {
        self.down[node] = false;
        self.rejoin_at[node] = None;
        for slot in 0..self.slots[node].len() {
            let old = std::mem::replace(&mut self.slots[node][slot], self.app.now);
            self.sched.commit(node, slot, old, self.app.now);
        }
        policy.on_node_join(NodeId(node as u32));
        self.app.fstats.rejoins += 1;
    }

    /// Wipe one node's memory and disk (executor loss). Lost cached blocks
    /// will be recomputed or re-read from surviving copies on access.
    fn fail_node(&mut self, node: usize, policy: &mut dyn CachePolicy) {
        // De-register exactly the copies the node held (Spark's
        // `removeBlockManager`): its memory copies from its own store.
        let id = NodeId(node as u32);
        let lost_mem = self.memory[node].drain();
        for &(b, _) in &lost_mem {
            self.master.unregister_memory(b, id);
            self.sync_prefetchable(b);
            policy.on_remove(id, b);
        }
        // Spilled copies are recorded only in the master: sweep its disk
        // table (O(arena), once per crash) into the recycled buffer.
        self.purge_buf.clear();
        self.purge_buf.extend(self.master.disk_blocks_on(id));
        for &b in &self.purge_buf {
            self.master.unregister_disk(b, id);
        }
        // Ghosts: retired apps' disk spills, already purged at retirement
        // but still the node's to lose — a crash counts them once.
        self.app.stats[node].lost_blocks +=
            (lost_mem.len() + self.purge_buf.len()) as u64 + self.ghost_disk[node];
        self.ghost_disk[node] = 0;
        self.app.fstats.crashes += 1;
    }

    /// Adapt a node's prefetch threshold from its recent prefetch economy
    /// (the paper's future-work item): mostly-wasted prefetches raise the
    /// threshold (require more free memory before forcing), an all-hit
    /// record lowers it.
    fn adapt_threshold(&mut self, node: usize) {
        let (pf, waste) = self.since_adapt[node];
        if pf == 0 {
            return;
        }
        self.since_adapt[node] = (0, 0);
        let t = &mut self.thresholds[node];
        if waste * 5 >= pf {
            // More than 20% of recent prefetches were wasted: require more
            // free headroom before force-prefetching.
            *t = (*t + 0.05).min(0.6);
        } else if waste == 0 {
            *t = (*t - 0.02).max(0.05);
        }
    }

    /// Cluster-wide proactive purge (Algorithm 1, eviction phase part 1).
    fn run_purge(&mut self, policy: &mut dyn CachePolicy) {
        if !policy.wants_purge() {
            // Purge-free policies (LRU, FIFO, Random, MemTune): their
            // `purge_candidates` is an empty no-op, so skip the cluster-wide
            // residency collection entirely.
            return;
        }
        // The master registry mirrors every node's memory residency and its
        // dense table iterates ascending by slot — ascending `BlockId` within
        // the running application's run — so the run's share already *is*
        // the sorted, deduped candidate list: no per-stage collect + sort
        // over all nodes or apps.
        self.purge_buf.clear();
        self.purge_buf
            .extend(self.master.memory_resident_in(self.app.slot_run.clone()));
        if self.purge_buf.is_empty() {
            // Still let the policy refresh its purge bookkeeping.
            let _ = policy.purge_candidates(&[]);
            return;
        }
        for b in policy.purge_candidates(&self.purge_buf) {
            // Holders in ascending node order; each visit de-registers the
            // node's copies, so the next `first_holder` is the next node.
            while let Some(n) = self.master.first_holder(b) {
                let node = n.index();
                if let Some(size) = self.memory[node].remove(b) {
                    let s = &mut self.app.stats[node];
                    s.purges += 1;
                    s.bytes_evicted += size;
                }
                self.master.unregister_disk(b, n);
                if let Some(copy) = self.master.unregister_memory(b, n) {
                    if copy.prefetched {
                        self.count_wasted_prefetch(node);
                    }
                    self.sync_prefetchable(b);
                    policy.on_remove(n, b);
                }
            }
        }
    }

    /// Run all tasks of a stage; returns the stage end time.
    fn run_stage_tasks(&mut self, stage: &Stage, policy: &mut dyn CachePolicy) -> SimTime {
        let stage_start = self.app.now;
        let mut stage_end = stage_start;
        let speculating = self.cfg.faults.speculation_quantile > 0.0;
        // Task records are kept only when speculation needs the stage's
        // completion profile (the placement is needed to free a loser
        // attempt's slot when its copy wins).
        self.stage_tasks.clear();
        for p in 0..stage.num_tasks {
            let home = self.home(p);
            // Earliest-free slot on the home node, lowest slot index on a
            // free-time tie. A down home node has no slots to offer; its
            // tasks run on the cluster-wide earliest slot (down nodes carry
            // the `NODE_DOWN` free time, so that is a live one whenever any
            // live slot exists).
            let (mut node, mut slot_idx, mut slot_free) = if self.down[home] {
                self.sched.earliest_global()
            } else {
                let (i, t) = self.sched.earliest_on(home);
                (home, i, t)
            };
            // Delay scheduling: if enabled and the home node keeps the task
            // waiting too long past the globally earliest slot, run it
            // remotely and pay remote reads instead.
            if let Some(delay) = self.cfg.delay_scheduling_us {
                if node == home {
                    let (gn, gi, gt) = self.sched.earliest_global();
                    if slot_free.max(stage_start).micros() > gt.max(stage_start).micros() + delay {
                        (node, slot_idx, slot_free) = (gn, gi, gt);
                    }
                }
            }
            let start = slot_free.max(stage_start);
            if node == home {
                self.app.sched_stats.home_placements += 1;
            } else {
                self.app.sched_stats.remote_placements += 1;
            }
            if self.cfg.collect_placements {
                self.app
                    .placements
                    .push((node as u32, slot_idx as u32, start));
            }

            // Attempt loop: each failed attempt occupies the slot for its
            // full duration, then retries after a capped exponential backoff
            // until it succeeds or the retry budget is spent (stage abort).
            let task_fail_p = self.cfg.faults.task_failure_p;
            let max_attempts = self.cfg.faults.max_task_attempts.max(1);
            let mut attempt_start = start;
            let mut attempts = 0u32;
            let task_end = loop {
                attempts += 1;
                let end = self.run_attempt(stage, p, node, attempt_start, policy);
                if !self.fault_draw(task_fail_p) {
                    break end;
                }
                self.app.fstats.task_failures += 1;
                if attempts >= max_attempts {
                    // The serve driver stamps its submission index over `app`.
                    self.app.aborted = Some(StageAbort {
                        stage: stage.id,
                        app: 0,
                        task: p,
                        attempts,
                    });
                    self.app.fstats.aborts += 1;
                    break end;
                }
                let backoff = self.cfg.faults.backoff_us(attempts);
                self.app.fstats.retries += 1;
                self.app.fstats.backoff_us += backoff;
                attempt_start = end + SimDuration::from_micros(backoff);
            };

            let old = std::mem::replace(&mut self.slots[node][slot_idx], task_end);
            self.sched.commit(node, slot_idx, old, task_end);
            self.app.tasks_run += 1;
            stage_end = stage_end.max(task_end);
            if self.app.aborted.is_some() {
                return stage_end;
            }
            if speculating {
                self.stage_tasks
                    .push(task_end, node as u32, slot_idx as u32, attempt_start, attempts);
            }
        }
        if speculating && !self.stage_tasks.is_empty() {
            stage_end = self.run_speculation(stage, policy);
        }
        stage_end
    }

    /// One task attempt on `node` starting at `start`: input acquisition,
    /// jittered (and possibly slowed-down) compute, shuffle write. Returns
    /// the attempt's finish time. Placement counters, the slot table, and
    /// `tasks_run` belong to the caller — retries and speculative copies
    /// share one placement.
    fn run_attempt(
        &mut self,
        stage: &Stage,
        p: u32,
        node: usize,
        start: SimTime,
        policy: &mut dyn CachePolicy,
    ) -> SimTime {
        self.begin_task();
        let (io_done, compute_us) = self.acquire(stage.final_rdd, p, node, start, policy);

        let mut jitter = if self.cfg.compute_jitter > 0.0 {
            1.0 + self
                .app
                .rng
                .random_range(-self.cfg.compute_jitter..=self.cfg.compute_jitter)
        } else {
            1.0
        };
        for s in &self.cfg.faults.slowdowns {
            if s.node as usize == node && s.active_at(stage.id.0) {
                jitter *= s.factor.max(1.0);
            }
        }
        // Wall-clock slowdown windows are matched against the attempt's own
        // start instant (the app clock): transient noise hits whatever runs
        // while the window is open.
        for s in &self.cfg.faults.timed_slowdowns {
            if s.node as usize == node && s.active_at_time(start.0) {
                jitter *= s.factor.max(1.0);
            }
        }
        let compute = SimDuration::from_secs_f64(compute_us as f64 * jitter / 1e6);
        let mut task_end = io_done + compute;

        if let StageKind::ShuffleMap { .. } = stage.kind {
            // Write this task's map output to local disk.
            let out = self.rdd(stage.final_rdd).block_size;
            task_end = self.disk[node].request(task_end, out);
        }
        self.app.io_accum += io_done - start;
        self.app.compute_accum += compute;
        task_end
    }

    /// Speculative execution over one finished stage schedule: once the
    /// fastest `speculation_quantile` fraction of tasks has completed, each
    /// still-running straggler gets a copy on the cluster-wide earliest free
    /// slot; the first finisher defines the task's completion and the losing
    /// attempt is killed — when the loser was the last occupant of its slot,
    /// that slot is released at the winner's finish, so a straggler node
    /// stops dragging later stages (Spark's `spark.speculation` semantics).
    /// Returns the corrected stage end.
    fn run_speculation(&mut self, stage: &Stage, policy: &mut dyn CachePolicy) -> SimTime {
        let q = self.cfg.faults.speculation_quantile.clamp(0.0, 1.0);
        // The threshold is the k-th smallest completion.
        let mut tasks = take(&mut self.stage_tasks);
        let n = tasks.len();
        debug_assert_eq!(tasks.attempts.len(), n, "task columns stay parallel");
        let k = ((n as f64) * q).ceil() as usize;
        let threshold = tasks.kth_finish(k.clamp(1, n));
        let mut stage_end = SimTime::ZERO;
        // Stragglers are visited in task (partition) order — not completion
        // order — so the speculative copies' RNG draws do not depend on
        // how completion ties are broken.
        for i in 0..n {
            let (end, p) = (tasks.finish[i], i as u32);
            let (onode, oslot, ostart) = (
                tasks.node[i] as usize,
                tasks.slot[i] as usize,
                tasks.start[i],
            );
            if end <= threshold {
                stage_end = stage_end.max(end);
                continue;
            }
            let (node, slot_idx, free) = self.sched.earliest_global();
            if free == NODE_DOWN {
                // No live slot to speculate on; keep the original attempt.
                stage_end = stage_end.max(end);
                continue;
            }
            self.app.fstats.spec_launched += 1;
            let copy_start = free.max(threshold);
            let copy_end = self.run_attempt(stage, p, node, copy_start, policy);
            let old = std::mem::replace(&mut self.slots[node][slot_idx], copy_end);
            self.sched.commit(node, slot_idx, old, copy_end);
            if copy_end < end {
                self.app.fstats.spec_wins += 1;
                stage_end = stage_end.max(copy_end);
                // Kill the original attempt. If it was the last occupant of
                // its slot, the slot frees at the kill (never before the
                // attempt began — a kill cannot rewind the schedule).
                if self.slots[onode][oslot] == end {
                    let kill = copy_end.max(ostart);
                    let prev = std::mem::replace(&mut self.slots[onode][oslot], kill);
                    self.sched.commit(onode, oslot, prev, kill);
                }
            } else {
                self.app.fstats.spec_losses += 1;
                stage_end = stage_end.max(end);
            }
        }
        // Hand the columns back so the next stage reuses their allocations.
        self.stage_tasks = tasks;
        stage_end
    }

    /// Acquire the data needed to produce `(rdd, part)` on `node` starting at
    /// `at`. Returns `(io_ready_time, compute_us)`.
    fn acquire(
        &mut self,
        rdd: RddId,
        part: u32,
        node: usize,
        at: SimTime,
        policy: &mut dyn CachePolicy,
    ) -> (SimTime, u64) {
        if !self.visit(rdd) {
            return (at, 0);
        }
        // Copy the two scalars out: the metadata borrow must not be held
        // across the `&mut self` recursion (the streaming registry is owned
        // by the engine, unlike a whole-spec `&'a` reference).
        let (cached, rdd_compute_us) = {
            let r = self.rdd(rdd);
            (r.is_cached(), r.compute_us)
        };
        let b = BlockId::new(rdd, part);
        if cached && self.is_materialized(b) {
            return self.access(b, node, at, policy);
        }
        // Compute path (also the creation path for cached RDDs).
        let (io, mut compute_us) = self.compute_inputs(rdd, part, node, at, policy);
        compute_us += rdd_compute_us;
        if cached {
            self.mark_materialized(b);
            if self.cfg.collect_trace {
                self.app.trace.push(b);
            }
            self.try_insert(node, b, io, false, policy);
        }
        (io, compute_us)
    }

    /// Pay for the inputs of `(rdd, part)`: recurse into narrow parents, read
    /// shuffle outputs, read external input.
    fn compute_inputs(
        &mut self,
        rdd: RddId,
        part: u32,
        node: usize,
        at: SimTime,
        policy: &mut dyn CachePolicy,
    ) -> (SimTime, u64) {
        // Dependencies are `Copy` and re-fetched by index each iteration:
        // the metadata borrow cannot be held across the recursion when the
        // streaming registry (owned by the engine) is the source, and the
        // per-iteration O(1) re-lookup is noise next to the resource queues.
        let (ndeps, num_partitions, is_input, input_block) = {
            let r = self.rdd(rdd);
            (r.deps.len(), r.num_partitions, r.is_input(), r.block_size)
        };
        let mut io = at;
        let mut compute_us = 0u64;
        for di in 0..ndeps {
            match self.rdd(rdd).deps[di] {
                refdist_dag::Dependency::Narrow(p) => {
                    let (i, c) = self.acquire(p, part, node, at, policy);
                    io = io.max(i);
                    compute_us += c;
                }
                refdist_dag::Dependency::Shuffle(p) => {
                    // Shuffle files persist on the map-side disks; the read
                    // crosses the network (all-to-all).
                    let bytes = self.rdd(p).total_size() / num_partitions.max(1) as u64;
                    let done = self.net[node].request(at, bytes);
                    io = io.max(done);
                }
            }
        }
        if is_input {
            let done = self.disk[node].request(at, input_block);
            io = io.max(done);
        }
        (io, compute_us)
    }

    /// Access an already-materialized cached block.
    fn access(
        &mut self,
        b: BlockId,
        node: usize,
        at: SimTime,
        policy: &mut dyn CachePolicy,
    ) -> (SimTime, u64) {
        if self.cfg.collect_trace {
            self.app.trace.push(b);
        }
        let size = self.block_size(b);
        // Local memory hit: residency, arrival time and prefetch mark are
        // one read of the master's copy record.
        let id = NodeId(node as u32);
        if let Some(copy) = self.master.memory_copy_mut(b, id) {
            let avail = SimTime(copy.avail);
            let prefetch_hit = take(&mut copy.prefetched);
            let stats = &mut self.app.stats[node];
            stats.hits += 1;
            stats.prefetch_hits += prefetch_hit as u64;
            policy.on_access(id, b);
            return (at.max(avail), 0);
        }
        match self.master.best_source(b, id) {
            Some((src, true)) => {
                // Remote memory: pay the reader's NIC; no local copy is kept
                // (Spark reads remote blocks without replicating them).
                let src_i = src.index();
                let avail = self.copy_avail(b, src);
                let done = self.net[node].request(at.max(avail), size);
                if self.fault_draw(self.cfg.faults.fetch_failure_p) {
                    // The fetch died mid-flight: the attempted transfer time
                    // is sunk, then the reader recovers through lineage.
                    self.app.fstats.fetch_failures += 1;
                    return self.recompute_fallback(b, node, done, policy);
                }
                self.app.stats[node].hits += 1;
                self.app.stats[node].remote_hits += 1;
                if self.take_prefetched(b, src) {
                    self.app.stats[src_i].prefetch_hits += 1;
                }
                policy.on_access(src, b);
                (done, self.deser_us(size))
            }
            Some((src, false)) => {
                // On disk (local spill or remote): read it and promote back
                // into the reader's memory.
                let src_i = src.index();
                let mut done = self.disk[src_i].request(at, size);
                if src_i != node {
                    done = self.net[node].request(done, size);
                }
                if self.fault_draw(self.cfg.faults.disk_failure_p) {
                    self.app.fstats.disk_failures += 1;
                    return self.recompute_fallback(b, node, done, policy);
                }
                self.app.stats[node].misses += 1;
                self.app.stats[node].disk_hits += 1;
                self.try_insert(node, b, done, false, policy);
                (done, self.deser_us(size))
            }
            None => {
                // Evicted and dropped (MEMORY_ONLY): recompute from lineage.
                self.app.stats[node].misses += 1;
                self.app.stats[node].recomputes += 1;
                let (io, mut compute_us) =
                    self.compute_inputs(b.rdd, b.partition, node, at, policy);
                compute_us += self.rdd(b.rdd).compute_us;
                self.try_insert(node, b, io, false, policy);
                (io, compute_us)
            }
        }
    }

    /// Recovery path for a failed fetch or disk read: the access becomes a
    /// lineage recomputation starting when the failure was detected (`at`),
    /// exactly like a MEMORY_ONLY miss (paper §4.4).
    fn recompute_fallback(
        &mut self,
        b: BlockId,
        node: usize,
        at: SimTime,
        policy: &mut dyn CachePolicy,
    ) -> (SimTime, u64) {
        self.app.stats[node].misses += 1;
        self.app.stats[node].recomputes += 1;
        self.app.fstats.fault_recomputes += 1;
        let (io, mut compute_us) = self.compute_inputs(b.rdd, b.partition, node, at, policy);
        compute_us += self.rdd(b.rdd).compute_us;
        self.try_insert(node, b, io, false, policy);
        (io, compute_us)
    }

    /// Insert `b` into `node`'s memory, evicting per the policy as needed.
    /// Returns whether the block ended up cached.
    fn try_insert(
        &mut self,
        node: usize,
        b: BlockId,
        available_at: SimTime,
        prefetched: bool,
        policy: &mut dyn CachePolicy,
    ) -> bool {
        // Degraded admission: the submission runs but caches nothing — every
        // insert (demand, promote, prefetch) is declined up front, exactly
        // like a block that never fits.
        if self.app.cache_bypass {
            return false;
        }
        let size = self.block_size(b);
        loop {
            match self.memory[node].insert(b, size) {
                Ok(()) => {
                    // A copy usable only later carries its arrival time.
                    let avail = if available_at > self.app.now {
                        available_at.micros()
                    } else {
                        0
                    };
                    let node = NodeId(node as u32);
                    let copy = MemCopy {
                        node,
                        avail,
                        prefetched,
                    };
                    self.master.register_memory(b, copy);
                    self.sync_prefetchable(b);
                    policy.on_insert(node, b);
                    return true;
                }
                Err(InsertError::TooLarge) => return false,
                Err(InsertError::NeedsEviction { shortfall }) => {
                    if !self.free_up(node, shortfall, policy) {
                        return false;
                    }
                }
            }
        }
    }

    /// Free at least `shortfall` bytes on `node` by evicting a policy-chosen
    /// victim batch. The candidate set is the store's maintained sorted
    /// resident map — no per-pressure-event collect + sort — and indexed
    /// policies pop the whole batch in O(log n) per victim. Returns whether
    /// the shortfall was covered; false aborts the pending insert, exactly
    /// like the old one-victim-at-a-time protocol did when the policy ran
    /// out of candidates.
    fn free_up(&mut self, node: usize, shortfall: u64, policy: &mut dyn CachePolicy) -> bool {
        let victims =
            policy.select_victims(NodeId(node as u32), shortfall, self.memory[node].resident());
        let mut freed = 0u64;
        for victim in victims {
            let Some(size) = self.memory[node].remove(victim) else {
                // Policy chose a block that is not resident: its
                // bookkeeping diverged from the store. Count it
                // and abort the insert rather than loop forever — the
                // counter surfaces in the run report, so the failure is
                // visible in release builds too.
                self.app.stats[node].bad_victims += 1;
                return false;
            };
            let s = &mut self.app.stats[node];
            s.evictions += 1;
            s.bytes_evicted += size;
            let copy = self.master.unregister_memory(victim, NodeId(node as u32));
            if self.rdd(victim.rdd).storage.spills_to_disk() {
                self.master.register_disk(victim, NodeId(node as u32));
            }
            if copy.is_some_and(|c| c.prefetched) {
                self.count_wasted_prefetch(node);
            }
            self.sync_prefetchable(victim);
            policy.on_remove(NodeId(node as u32), victim);
            freed += size;
        }
        freed >= shortfall
    }

    /// Count a prefetched copy dropped from `node` before its first use:
    /// against the running application, and into the node's adaptation
    /// window.
    fn count_wasted_prefetch(&mut self, node: usize) {
        self.app.stats[node].wasted_prefetches += 1;
        self.since_adapt[node].1 += 1;
    }

    /// Background prefetching for the stages ahead (Algorithm 1, prefetching
    /// phase). Runs after the stage's tasks so the transfers queue behind
    /// demand I/O.
    fn run_prefetch(&mut self, stage: &Stage, visible: &AppProfile, policy: &mut dyn CachePolicy) {
        // RDDs the current stage itself touches are being handled by its
        // tasks; prefetch targets strictly future references. The stage's
        // RDDs are stamped into the epoch table (a fresh epoch, the same
        // mechanism as the per-task lineage walks — no allocation).
        self.epoch += 1;
        if let Some(t) = visible.per_stage.get(stage.id.index()) {
            for &r in t.reads.iter().chain(&t.creates) {
                self.visited_epoch[r.index() - self.vis_base] = self.epoch;
            }
        }

        // The maintained bitset already holds exactly the materialized
        // blocks missing from their home memory; one walk over the running
        // application's run buckets them by home node. Ascending slots
        // within the run are ascending `BlockId`s, so each node's
        // candidates arrive sorted. Taking every list up front equals
        // collecting each at its node's turn: a prefetch or eviction on
        // node k changes only the bits of blocks homed on k, and node k's
        // list is taken before node k runs.
        let mut lists = take(&mut self.prefetch_lists);
        for list in &mut lists {
            list.clear();
        }
        for s in self.prefetchable.ones_in(self.app.slot_run.clone()) {
            let b = self.arena.block(s);
            if self.visited_epoch[b.rdd.index() - self.vis_base] != self.epoch {
                lists[self.home(b.partition)].push(b);
            }
        }
        for (node, missing) in lists.iter().enumerate() {
            if self.down[node] {
                continue;
            }
            if self.cfg.adaptive_threshold {
                self.adapt_threshold(node);
            }
            let mut order = policy.prefetch_order(NodeId(node as u32), missing);
            order.truncate(self.cfg.max_prefetch_per_node);
            for b in order {
                let size = self.block_size(b);
                let free = self.memory[node].free();
                let fits = size <= free;
                let above_threshold = self.memory[node].free_fraction() > self.thresholds[node];
                if !fits && !above_threshold {
                    break;
                }
                let Some((src, in_mem)) = self.master.best_source(b, NodeId(node as u32)) else {
                    continue;
                };
                let src_i = src.index();
                let done = if in_mem {
                    // Pull from a remote node's memory over the network.
                    let avail = self.copy_avail(b, src);
                    self.net[node].request(self.app.now.max(avail), size)
                } else {
                    let mut d = self.disk[src_i].request(self.app.now, size);
                    if src_i != node {
                        d = self.net[node].request(d, size);
                    }
                    d
                };
                // Background transfers fail like demand ones; a failed
                // prefetch is simply dropped (no retry, no recompute — the
                // block stays wherever it was).
                let fail_p = if in_mem {
                    self.cfg.faults.fetch_failure_p
                } else {
                    self.cfg.faults.disk_failure_p
                };
                if self.fault_draw(fail_p) {
                    if in_mem {
                        self.app.fstats.fetch_failures += 1;
                    } else {
                        self.app.fstats.disk_failures += 1;
                    }
                    continue;
                }
                // The prefetched bytes are deserialized off the critical
                // path, before the block becomes usable.
                let done = done + refdist_simcore::SimDuration::from_micros(self.deser_us(size));
                if self.try_insert(node, b, done, true, policy) {
                    self.app.stats[node].prefetches += 1;
                    self.since_adapt[node].0 += 1;
                }
            }
        }
        self.prefetch_lists = lists;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use refdist_core::{MrdConfig, MrdMode, MrdPolicy};
    use refdist_dag::AppBuilder;
    use refdist_policies::PolicyKind;

    /// Iterative app: cached dataset reused by `iters` jobs.
    fn iterative_app(iters: usize, parts: u32, block: u64) -> AppSpec {
        let mut b = AppBuilder::new("iter-app");
        let input = b.input("in", parts, block, 2_000);
        let data = b.narrow("data", input, block, 5_000);
        b.persist(data, refdist_dag::StorageLevel::MemoryAndDisk);
        for i in 0..iters {
            let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 4, 1_000);
            b.action(format!("job{i}"), s);
        }
        b.build()
    }

    fn sim_cfg(nodes: u32, cache: u64) -> SimConfig {
        let mut cfg = SimConfig::new(ClusterConfig::tiny(nodes, cache));
        cfg.compute_jitter = 0.0; // exact determinism for the unit tests
                                  // Most unit tests exercise the caching mechanics in isolation; the
                                  // execution-memory churn has its own test below.
        cfg.exec_mem_fraction = 0.0;
        cfg
    }

    fn run(spec: &AppSpec, cfg: SimConfig, policy: &mut dyn CachePolicy) -> RunReport {
        let plan = AppPlan::build(spec);
        Simulation::new(spec, &plan, ProfileMode::Recurring, cfg).run(policy)
    }

    #[test]
    fn big_cache_gets_full_hit_ratio() {
        let spec = iterative_app(4, 4, 1024 * 1024);
        let report = run(&spec, sim_cfg(2, 1 << 40), &mut *PolicyKind::Lru.build());
        // After creation, every re-reference hits.
        assert_eq!(report.stats.misses, 0);
        assert!(report.stats.hits > 0);
        assert_eq!(report.hit_ratio(), 1.0);
        assert!(report.jct.micros() > 0);
    }

    #[test]
    fn zero_cache_still_completes() {
        let spec = iterative_app(3, 4, 1024 * 1024);
        let report = run(&spec, sim_cfg(2, 0), &mut *PolicyKind::Lru.build());
        // Nothing can be cached: every access misses (recompute since the
        // block never reached memory => never spilled; it is re-created).
        assert_eq!(report.stats.hits, 0);
        assert!(report.jct.micros() > 0);
    }

    #[test]
    fn small_cache_evicts_and_spills() {
        // Cache fits 2 of 4 one-MB blocks per node (2 nodes, 4 partitions:
        // each node homes 2 blocks of `data`).
        let spec = iterative_app(4, 4, 1024 * 1024);
        let report = run(
            &spec,
            sim_cfg(2, 1024 * 1024),
            &mut *PolicyKind::Lru.build(),
        );
        assert!(report.stats.evictions > 0);
        // MEMORY_AND_DISK: misses come back from disk, not recompute.
        assert!(report.stats.disk_hits > 0);
        assert_eq!(report.stats.recomputes, 0);
    }

    #[test]
    fn memory_only_misses_recompute() {
        let mut bld = AppBuilder::new("mo");
        let input = bld.input("in", 4, 1024 * 1024, 1_000);
        let data = bld.narrow("data", input, 1024 * 1024, 2_000);
        bld.cache(data); // MEMORY_ONLY
        for i in 0..3 {
            let s = bld.shuffle(format!("s{i}"), &[data], 4, 1024, 500);
            bld.action(format!("j{i}"), s);
        }
        let spec = bld.build();
        let report = run(
            &spec,
            sim_cfg(2, 1024 * 1024),
            &mut *PolicyKind::Lru.build(),
        );
        assert!(report.stats.recomputes > 0);
        assert_eq!(report.stats.disk_hits, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = iterative_app(5, 8, 512 * 1024);
        let mut cfg = sim_cfg(3, 2 * 1024 * 1024);
        cfg.compute_jitter = 0.1;
        let r1 = run(&spec, cfg.clone(), &mut *PolicyKind::Lru.build());
        let r2 = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert_eq!(r1.jct, r2.jct);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let spec = iterative_app(5, 8, 512 * 1024);
        let mut cfg = sim_cfg(3, 2 * 1024 * 1024);
        cfg.compute_jitter = 0.1;
        let r1 = run(
            &spec,
            cfg.clone().with_seed(1),
            &mut *PolicyKind::Lru.build(),
        );
        let r2 = run(&spec, cfg.with_seed(2), &mut *PolicyKind::Lru.build());
        assert_ne!(r1.jct, r2.jct);
    }

    #[test]
    fn mrd_beats_lru_under_pressure() {
        // Two cached RDDs with different reference patterns under a cache
        // that holds only one of them: LRU keeps the recently-used one; MRD
        // keeps the one referenced sooner.
        let mut bld = AppBuilder::new("pressure");
        let input = bld.input("in", 8, 1024 * 1024, 1_000);
        let hot = bld.narrow("hot", input, 1024 * 1024, 30_000);
        bld.persist(hot, refdist_dag::StorageLevel::MemoryAndDisk);
        let cold = bld.narrow("cold", input, 1024 * 1024, 30_000);
        bld.persist(cold, refdist_dag::StorageLevel::MemoryAndDisk);
        // Job 0 creates both; jobs 1..6 reference hot every job, cold only
        // at the end.
        let both = bld.narrow_multi("both", &[hot, cold], 1024, 100);
        bld.action("create", both);
        for i in 0..5 {
            let s = bld.shuffle(format!("hot{i}"), &[hot], 8, 1024, 100);
            bld.action(format!("jh{i}"), s);
        }
        let s = bld.shuffle("coldref", &[cold], 8, 1024, 100);
        bld.action("jc", s);
        let spec = bld.build();

        // Per node (4 nodes, 8 partitions): 2 hot + 2 cold blocks of 1 MiB;
        // cache holds 2.
        let cfg = sim_cfg(4, 2 * 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let lru = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone())
            .run(&mut *PolicyKind::Lru.build());
        let mut mrd = MrdPolicy::new(MrdConfig {
            mode: MrdMode::EvictOnly,
            ..Default::default()
        });
        let mrd_r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut mrd);
        assert!(
            mrd_r.hit_ratio() >= lru.hit_ratio(),
            "MRD {} < LRU {}",
            mrd_r.hit_ratio(),
            lru.hit_ratio()
        );
        assert!(mrd_r.jct <= lru.jct, "MRD {} > LRU {}", mrd_r.jct, lru.jct);
    }

    #[test]
    fn prefetch_restores_spilled_blocks() {
        // Phase 1 (jobs 0-2) works on RDD `a`; phase 2 (jobs 3-5) on `b`.
        // The cache cannot hold both, so `b` spills during phase 1; once `a`
        // dies, MRD purges it and the freed space lets the prefetcher pull
        // `b` back from disk before phase 2 references it.
        let mut bld = AppBuilder::new("phases");
        let input = bld.input("in", 8, 1024 * 1024, 1_000);
        let a = bld.narrow("a", input, 1024 * 1024, 20_000);
        bld.persist(a, refdist_dag::StorageLevel::MemoryAndDisk);
        let b = bld.narrow("b", input, 1024 * 1024, 20_000);
        bld.persist(b, refdist_dag::StorageLevel::MemoryAndDisk);
        let both = bld.narrow_multi("both", &[a, b], 1024, 100);
        bld.action("create", both);
        for i in 0..3 {
            let s = bld.shuffle(format!("pa{i}"), &[a], 8, 1024, 100);
            bld.action(format!("ja{i}"), s);
        }
        for i in 0..3 {
            let s = bld.shuffle(format!("pb{i}"), &[b], 8, 1024, 100);
            bld.action(format!("jb{i}"), s);
        }
        let spec = bld.build();
        // 2 nodes, 4 blocks of each RDD per node; cache holds 5 of the 8.
        let cfg = sim_cfg(2, 5 * 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let mut full = MrdPolicy::full();
        let full_r =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone()).run(&mut full);
        assert!(full_r.stats.prefetches > 0, "no prefetches: {full_r:?}");
        assert!(
            full_r.stats.prefetch_hits > 0,
            "prefetches never hit: {full_r:?}"
        );
        // Full MRD should not be slower than evict-only here.
        let mut evict_only = MrdPolicy::new(MrdConfig {
            mode: MrdMode::EvictOnly,
            ..Default::default()
        });
        let eo = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut evict_only);
        assert!(full_r.hit_ratio() >= eo.hit_ratio());
    }

    #[test]
    fn trace_collection_records_accesses() {
        let spec = iterative_app(3, 4, 1024);
        let plan = AppPlan::build(&spec);
        let cfg = sim_cfg(2, 1 << 40);
        let trace = collect_trace(&spec, &plan, &cfg);
        // data has 4 blocks, created once and read twice (jobs 1 and 2).
        assert_eq!(trace.len(), 12);
        let data = RddId(1);
        assert!(trace.iter().all(|b| b.rdd == data));
    }

    #[test]
    fn purge_frees_dead_data() {
        // One RDD referenced only at creation: MRD purges it at the next
        // stage; LRU keeps it pinned in memory until pressure.
        let mut bld = AppBuilder::new("dead");
        let input = bld.input("in", 4, 1024 * 1024, 1_000);
        let once = bld.narrow("once", input, 1024 * 1024, 1_000);
        bld.persist(once, refdist_dag::StorageLevel::MemoryAndDisk);
        let s0 = bld.shuffle("s0", &[once], 4, 1024, 100);
        bld.action("j0", s0);
        let other = bld.narrow("other", input, 1024, 100);
        let s1 = bld.shuffle("s1", &[other], 4, 1024, 100);
        bld.action("j1", s1);
        let spec = bld.build();
        let plan = AppPlan::build(&spec);
        let mut mrd = MrdPolicy::full();
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, sim_cfg(2, 1 << 30))
            .run(&mut mrd);
        assert!(r.stats.purges > 0, "dead RDD should be purged");
    }

    #[test]
    fn exec_memory_churn_evicts_and_releases() {
        // With execution memory borrowing 50% of a just-fitting cache, the
        // cached dataset cannot stay fully resident: stage-start reservations
        // force evictions even though the data fits when idle.
        let spec = iterative_app(4, 4, 1024 * 1024);
        let mut cfg = sim_cfg(2, 2 * 1024 * 1024); // exactly fits 2 blocks/node
        cfg.exec_mem_fraction = 0.5;
        let with_churn = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert!(with_churn.stats.evictions > 0);

        let no_churn = run(
            &spec,
            sim_cfg(2, 2 * 1024 * 1024),
            &mut *PolicyKind::Lru.build(),
        );
        assert_eq!(no_churn.stats.evictions, 0);
        // Churn can only slow things down for LRU.
        assert!(with_churn.jct >= no_churn.jct);
    }

    #[test]
    fn node_failure_loses_blocks_but_run_completes() {
        let spec = iterative_app(5, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let healthy = Simulation::new(&spec, &plan, ProfileMode::Recurring, sim_cfg(2, 1 << 30))
            .run(&mut *PolicyKind::Lru.build());
        assert_eq!(healthy.stats.lost_blocks, 0);

        let mut cfg = sim_cfg(2, 1 << 30);
        cfg.faults.node_failure(0, 4); // node 0 dies at stage 4
        let failed = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg)
            .run(&mut *PolicyKind::Lru.build());
        assert!(failed.stats.lost_blocks > 0);
        // Lost blocks are re-acquired: the run finishes, no slower than never
        // having cached and no faster than the healthy run.
        assert!(failed.jct >= healthy.jct);
        assert!(failed.stats.misses > healthy.stats.misses);
    }

    /// Spilled copies are recorded only in the master's disk table, so a
    /// crash finds them there: it loses the node's memory copies, its disk
    /// copies and its ghosts, leaves the other node's spills alone, and the
    /// lost blocks come back through lineage.
    #[test]
    fn crash_after_spill_loses_the_masters_disk_copies() {
        // 8 one-MB blocks over 2 nodes with room for 2 each: every node
        // spills 2 of its 4 blocks in the first job.
        let spec = iterative_app(4, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, sim_cfg(2, 2 << 20));
        let mut policy = PolicyKind::Lru.build();
        let mut engine = Engine::build(
            SpecSource::Whole(&spec),
            &sim.cfg,
            Arc::clone(&sim.arena),
            spec.rdds.len(),
            EngineScratch::default(),
        );
        policy.attach_slots(&sim.arena);
        let recomputes = |e: &Engine| e.app.stats.iter().map(|s| s.recomputes).sum::<u64>();
        let (n0, n1) = (NodeId(0), NodeId(1));
        let mut jobs = JobCursor::default();
        let mut lost = None;
        for stage in &plan.stages {
            let visible = Arc::clone(jobs.start_stage(stage, &sim.profiler, &mut *policy));
            if lost.is_none() && stage.job.0 == 1 {
                let mem = engine.memory[0].len();
                let disk = engine.master.disk_blocks_on(n0).count();
                let survivors: Vec<BlockId> = engine.master.disk_blocks_on(n1).collect();
                assert!(mem > 0 && disk > 0, "node 0 holds {mem} in memory, {disk} on disk");
                assert_eq!(recomputes(&engine), 0);
                // Two retired applications' spills, still node 0's to lose.
                engine.ghost_disk[0] = 2;
                engine.fail_node(0, &mut *policy);
                assert_eq!(engine.app.stats[0].lost_blocks, (mem + disk + 2) as u64);
                assert_eq!(engine.ghost_disk[0], 0);
                assert_eq!(engine.master.disk_blocks_on(n0).count(), 0);
                assert!(engine.memory[0].is_empty());
                assert_eq!(engine.master.disk_blocks_on(n1).collect::<Vec<_>>(), survivors);
                lost = Some(mem + disk);
            }
            engine.run_one_stage(stage, &visible, &mut *policy);
        }
        // Node 0 held the only copy of each lost block: each next read
        // recomputes it from its lineage.
        assert_eq!(recomputes(&engine), lost.expect("the crash fired") as u64);
        assert!(engine.app.aborted.is_none());
    }

    #[test]
    fn node_failure_with_mrd_resyncs_and_completes() {
        let spec = iterative_app(5, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let mut cfg = sim_cfg(2, 2 * 1024 * 1024);
        cfg.faults.node_failure(1, 6);
        let mut mrd = MrdPolicy::full();
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut mrd);
        assert!(r.stats.lost_blocks > 0);
        assert!(r.jct.micros() > 0);
        // The manager kept broadcasting table replicas after the failure.
        assert!(mrd.sync_messages() > 0);
    }

    /// §4.4 at its hardest: two nodes crash at the same stage, stay down for
    /// different windows (their tasks migrate to live slots), then rejoin
    /// cold. MRD must resync the replacement monitors and the run must
    /// complete with full task accounting.
    #[test]
    fn concurrent_crashes_with_rejoin_resync_and_complete() {
        let spec = iterative_app(8, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let healthy_sim =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, sim_cfg(4, 2 * 1024 * 1024));
        let mut healthy_mrd = MrdPolicy::full();
        let healthy = healthy_sim.run(&mut healthy_mrd);

        let mut cfg = sim_cfg(4, 2 * 1024 * 1024);
        cfg.faults.crash_with_rejoin(0, 3, 2);
        cfg.faults.crash_with_rejoin(1, 3, 4);
        let mut mrd = MrdPolicy::full();
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut mrd);

        assert!(r.stats.lost_blocks > 0);
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.rejoins, 2);
        assert!(r.aborted.is_none());
        // Tasks homed on the downed nodes migrated; every task still ran.
        assert_eq!(r.tasks, healthy.tasks);
        assert!(r.sched.remote_placements > 0, "down-node tasks must migrate");
        // The manager re-issued table replicas to the replacement monitors.
        assert_eq!(mrd.replicas_reissued(), 2);
        assert_eq!(healthy_mrd.replicas_reissued(), 0);
        assert!(mrd.sync_messages() > 0);
        // Losing a third of the run's cache capacity cannot speed it up.
        assert!(r.jct >= healthy.jct);
        assert!(r.summary().contains("2 crashes / 2 rejoins"));
    }

    #[test]
    fn crash_that_would_down_last_node_is_ignored() {
        let spec = iterative_app(3, 4, 256 * 1024);
        let mut cfg = sim_cfg(1, 1 << 30);
        cfg.faults.crash_with_rejoin(0, 1, 2);
        let r = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert_eq!(r.faults.crashes, 0);
        assert!(r.jct.micros() > 0);
    }

    #[test]
    fn task_failures_retry_with_backoff() {
        let spec = iterative_app(4, 8, 256 * 1024);
        let mut cfg = sim_cfg(2, 1 << 30);
        cfg.faults.task_failure_p = 0.2;
        cfg.faults.max_task_attempts = 50; // effectively never abort
        let r = run(&spec, cfg.clone(), &mut *PolicyKind::Lru.build());
        assert!(r.faults.task_failures > 0, "p=0.2 must fail some attempts");
        assert_eq!(r.faults.retries, r.faults.task_failures);
        assert!(r.faults.backoff_us > 0);
        assert!(r.aborted.is_none());
        let healthy = run(
            &spec,
            sim_cfg(2, 1 << 30),
            &mut *PolicyKind::Lru.build(),
        );
        assert_eq!(r.tasks, healthy.tasks);
        assert!(r.jct > healthy.jct, "retries cost time");
        // Same seed, same faults: byte-deterministic.
        let again = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert_eq!(format!("{r:?}"), format!("{again:?}"));
    }

    #[test]
    fn exhausted_retries_abort_the_stage() {
        let spec = iterative_app(5, 8, 256 * 1024);
        let plan = AppPlan::build(&spec);
        let mut cfg = sim_cfg(2, 1 << 30);
        cfg.faults.task_failure_p = 1.0; // every attempt fails
        cfg.faults.max_task_attempts = 3;
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg)
            .run(&mut *PolicyKind::Lru.build());
        let abort = r.aborted.expect("certain failure must abort");
        assert_eq!(abort.stage.0, 0);
        assert_eq!(abort.app, 0);
        assert_eq!(abort.task, 0);
        assert_eq!(abort.attempts, 3);
        assert_eq!(r.faults.aborts, 1);
        // The run stopped early: only the failing task ran, in one stage.
        assert_eq!(r.tasks, 1);
        assert_eq!(r.stage_times.len(), 1);
        assert_eq!(r.faults.retries, 2);
        assert_eq!(r.faults.task_failures, 3);
        assert!(r.summary().contains("ABORTED at stage 0"));
    }

    #[test]
    fn timed_crash_fires_on_the_wall_clock_and_rejoins() {
        let spec = iterative_app(6, 8, 256 * 1024);
        let mut cfg = sim_cfg(2, 1 << 30);
        // Crash node 1 once the app clock passes 1ms; bring it back 1ms
        // later. Both transitions are keyed to simulated time, not stage
        // ids, so they fire wherever the clock happens to be.
        cfg.faults.timed_crash(1, 1_000, Some(1_000));
        let r = run(&spec, cfg.clone(), &mut *PolicyKind::Lru.build());
        assert_eq!(r.faults.crashes, 1);
        assert_eq!(r.faults.rejoins, 1);
        assert!(r.aborted.is_none());
        let again = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert_eq!(format!("{r:?}"), format!("{again:?}"));
        // A timed crash far past the makespan never fires.
        let mut late = sim_cfg(2, 1 << 30);
        late.faults.timed_crash(1, u64::MAX / 2, Some(1_000));
        let l = run(&spec, late, &mut *PolicyKind::Lru.build());
        assert_eq!(l.faults.crashes, 0);
    }

    #[test]
    fn timed_slowdown_window_stretches_the_run() {
        let spec = iterative_app(4, 8, 256 * 1024);
        let healthy = run(&spec, sim_cfg(2, 1 << 30), &mut *PolicyKind::Lru.build());
        let mut cfg = sim_cfg(2, 1 << 30);
        cfg.faults.timed_slowdown(0, 20.0, 0, None);
        let slow = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert!(slow.jct > healthy.jct, "an open-ended 20x slowdown must cost time");
        // A window that opens after the run ends is inert.
        let mut future = sim_cfg(2, 1 << 30);
        future.faults.timed_slowdown(0, 20.0, u64::MAX / 2, None);
        let p = run(&spec, future, &mut *PolicyKind::Lru.build());
        assert_eq!(p.jct, healthy.jct);
    }

    #[test]
    fn churn_process_is_deterministic_and_survivable() {
        let spec = iterative_app(8, 8, 256 * 1024);
        let mut cfg = sim_cfg(3, 1 << 30);
        // Aggressive churn relative to the run length so transitions fire.
        cfg.faults.node_churn(20_000, 10_000);
        let r = run(&spec, cfg.clone(), &mut *PolicyKind::Lru.build());
        assert!(
            r.faults.crashes > 0,
            "MTBF far below the makespan must take nodes down: {:?}",
            r.faults
        );
        assert!(r.faults.rejoins > 0, "MTTR must bring them back");
        assert!(r.aborted.is_none(), "task retries ride out the churn");
        let again = run(&spec, cfg.clone(), &mut *PolicyKind::Lru.build());
        assert_eq!(format!("{r:?}"), format!("{again:?}"), "same seed, same membership timeline");
        let mut other = cfg.clone();
        other.seed ^= 0xDEAD_BEEF;
        let o = run(&spec, other, &mut *PolicyKind::Lru.build());
        assert_ne!(
            format!("{r:?}"),
            format!("{o:?}"),
            "churn draws come from the seed-salted churn stream"
        );
    }

    #[test]
    fn churn_never_downs_the_last_live_node() {
        let spec = iterative_app(6, 4, 256 * 1024);
        let mut cfg = sim_cfg(1, 1 << 30);
        // On a one-node cluster the churn process can never fire a failure.
        cfg.faults.node_churn(1_000, 1_000_000);
        let r = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert_eq!(r.faults.crashes, 0);
        assert!(r.aborted.is_none());
    }

    #[test]
    fn fetch_and_disk_failures_recover_through_lineage() {
        // 32 partitions on 4 nodes: several task waves per node, so the
        // straggler queues and delay scheduling migrates tasks off it —
        // migrated tasks fetch their cached input remotely. The cache holds
        // 2 of each node's 8 home blocks, so evicted copies come back from
        // disk.
        let spec = iterative_app(4, 32, 256 * 1024);
        let mut cfg = sim_cfg(4, 512 * 1024);
        cfg.faults.slow_node(0, 10.0);
        cfg.delay_scheduling_us = Some(10_000);
        cfg.faults.fetch_failure_p = 0.5;
        cfg.faults.disk_failure_p = 0.5;
        let r = run(&spec, cfg, &mut *PolicyKind::Lru.build());
        assert!(
            r.faults.fetch_failures + r.faults.disk_failures > 0,
            "p=0.5 must fail some reads: {:?}",
            r.faults
        );
        assert!(r.faults.fault_recomputes > 0);
        assert!(r.stats.recomputes >= r.faults.fault_recomputes);
        // Accounting invariants survive the injected failures.
        assert_eq!(r.stats.accesses(), r.stats.hits + r.stats.misses);
        assert!(r.stats.disk_hits + r.stats.recomputes <= r.stats.misses);
        assert!(r.aborted.is_none());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan: slowdown factor must be finite")]
    fn solo_runs_reject_an_invalid_fault_plan() {
        // Unchecked, an infinite factor gives node 0 zero compute time:
        // `SimDuration::from_secs_f64(inf)` is 0.
        let spec = iterative_app(2, 8, 1024);
        let mut cfg = sim_cfg(2, 1 << 20);
        cfg.faults.slow_node(0, f64::INFINITY);
        run(&spec, cfg, &mut *PolicyKind::Lru.build());
    }

    #[test]
    fn speculation_rescues_stragglers() {
        // Node 0 computes 20x slower; speculation re-launches its tasks on
        // the fast nodes and wins. Small blocks keep the copy's remote fetch
        // of the straggler's cached input well under the compute skew.
        let spec = iterative_app(4, 32, 256 * 1024);
        let mut slow = sim_cfg(4, 1 << 30);
        slow.faults.slow_node(0, 20.0);
        let r_slow = run(&spec, slow.clone(), &mut *PolicyKind::Lru.build());

        let mut spec_cfg = slow.clone();
        spec_cfg.faults.speculation_quantile = 0.75;
        let r_spec = run(&spec, spec_cfg, &mut *PolicyKind::Lru.build());
        assert!(r_spec.faults.spec_launched > 0);
        assert_eq!(
            r_spec.faults.spec_wins + r_spec.faults.spec_losses,
            r_spec.faults.spec_launched
        );
        assert!(r_spec.faults.spec_wins > 0, "copies must beat a 20x straggler");
        // Speculative copies are not extra tasks.
        assert_eq!(r_spec.tasks, r_slow.tasks);
        assert!(
            r_spec.jct < r_slow.jct,
            "speculation should cut the straggler tail: {} vs {}",
            r_spec.jct,
            r_slow.jct
        );
    }

    #[test]
    fn adaptive_threshold_stays_bounded_and_runs() {
        let spec = iterative_app(6, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let mut cfg = sim_cfg(2, 2 * 1024 * 1024);
        cfg.adaptive_threshold = true;
        let mut mrd = MrdPolicy::full();
        let adaptive =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone()).run(&mut mrd);
        assert!(adaptive.jct.micros() > 0);
        // Sanity: fixed-threshold run on the same inputs also completes and
        // both agree on task counts (adaptation changes I/O, not work).
        cfg.adaptive_threshold = false;
        let mut mrd = MrdPolicy::full();
        let fixed = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut mrd);
        assert_eq!(adaptive.tasks, fixed.tasks);
    }

    #[test]
    fn delay_scheduling_balances_skewed_stages() {
        // 9 partitions on 3 nodes: home mapping puts 3 tasks per node, but a
        // partition count much larger than one node's share exercises the
        // remote path only when delay scheduling is on and tight.
        let mut bld = AppBuilder::new("skew");
        let input = bld.input("in", 9, 4 * 1024 * 1024, 2_000_000);
        let s = bld.shuffle("s", &[input], 9, 1024, 1_000);
        bld.action("j", s);
        let spec = bld.build();
        let plan = AppPlan::build(&spec);

        // One-node cluster comparison is meaningless; use a 3-node cluster
        // where node 0's disk is the bottleneck for its 3 input reads.
        let mut strict = sim_cfg(3, 1 << 30);
        strict.delay_scheduling_us = None;
        let r_strict = Simulation::new(&spec, &plan, ProfileMode::Recurring, strict)
            .run(&mut *PolicyKind::Lru.build());

        let mut relaxed = sim_cfg(3, 1 << 30);
        relaxed.delay_scheduling_us = Some(0); // always take the earliest slot
        let r_relaxed = Simulation::new(&spec, &plan, ProfileMode::Recurring, relaxed)
            .run(&mut *PolicyKind::Lru.build());
        // Both complete deterministically; the relaxed schedule never leaves
        // a slot idle while a task waits, so it cannot be slower on compute-
        // bound stages.
        assert!(r_relaxed.jct <= r_strict.jct);
    }

    #[test]
    fn delay_scheduling_routes_around_stragglers() {
        // Node 0 computes 10x slower and every node runs several task waves,
        // so the straggler's queue backs up. With strict home placement its
        // tasks gate every stage; with delay scheduling they migrate.
        let spec = iterative_app(4, 32, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let mut strict = sim_cfg(4, 1 << 30);
        strict.faults.slow_node(0, 10.0);
        let r_strict = Simulation::new(&spec, &plan, ProfileMode::Recurring, strict)
            .run(&mut *PolicyKind::Lru.build());

        let mut routed = sim_cfg(4, 1 << 30);
        routed.faults.slow_node(0, 10.0);
        routed.delay_scheduling_us = Some(10_000); // wait at most 10ms
        let r_routed = Simulation::new(&spec, &plan, ProfileMode::Recurring, routed)
            .run(&mut *PolicyKind::Lru.build());
        assert!(
            r_routed.jct < r_strict.jct,
            "delay scheduling should beat strict placement under a straggler: {} vs {}",
            r_routed.jct,
            r_strict.jct
        );
    }

    #[test]
    fn migrated_tasks_take_remote_memory_hits() {
        // With a straggler and delay scheduling, tasks migrate off their
        // home node and read that node's cached blocks over the network —
        // the remote-memory path.
        let spec = iterative_app(4, 32, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let mut cfg = sim_cfg(4, 1 << 30);
        cfg.faults.slow_node(0, 10.0);
        cfg.delay_scheduling_us = Some(10_000);
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg)
            .run(&mut *PolicyKind::Lru.build());
        assert!(r.stats.remote_hits > 0, "no remote hits: {:?}", r.stats);
        // Remote hits are still hits.
        assert!(r.stats.remote_hits <= r.stats.hits);
        // The migrations show up in the placement counters and the summary.
        assert!(r.sched.remote_placements > 0, "no migrations: {:?}", r.sched);
        assert_eq!(
            r.sched.home_placements + r.sched.remote_placements,
            r.tasks
        );
        assert!(r.summary().contains("delay-scheduled remotely"));
    }

    #[test]
    fn placements_collected_only_on_request() {
        let spec = iterative_app(3, 8, 256 * 1024);
        let plan = AppPlan::build(&spec);
        let mut cfg = sim_cfg(2, 1 << 30);
        cfg.collect_placements = true;
        let r = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg)
            .run(&mut *PolicyKind::Lru.build());
        let placements = r.placements.expect("placements were requested");
        assert_eq!(placements.len(), r.tasks as usize);
        // Without delay scheduling every task runs at home: node = p % nodes
        // in task order, stage by stage.
        assert!(placements.iter().all(|&(n, _, _)| n < 2));

        let r = run(&spec, sim_cfg(2, 1 << 30), &mut *PolicyKind::Lru.build());
        assert!(r.placements.is_none());
        assert_eq!(r.sched.home_placements, r.tasks);
        assert_eq!(r.sched.remote_placements, 0);
    }

    #[test]
    fn scratch_reuse_is_equivalent_across_cells() {
        // One scratch threaded through runs of different shapes (cluster
        // sizes, policies, even another workload) must not change any result.
        let spec_a = iterative_app(4, 8, 512 * 1024);
        let plan_a = AppPlan::build(&spec_a);
        let spec_b = iterative_app(2, 6, 256 * 1024);
        let plan_b = AppPlan::build(&spec_b);
        let mut scratch = EngineScratch::default();
        for (spec, plan) in [(&spec_a, &plan_a), (&spec_b, &plan_b)] {
            for nodes in [2u32, 3] {
                for kind in [PolicyKind::Lru, PolicyKind::Fifo] {
                    let mut cfg = sim_cfg(nodes, 1024 * 1024);
                    cfg.delay_scheduling_us = Some(1_000);
                    let sim = Simulation::new(spec, plan, ProfileMode::Recurring, cfg);
                    let fresh = sim.run(&mut *kind.build());
                    let reused = sim.run_with_scratch(&mut *kind.build(), &mut scratch);
                    assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
                }
            }
        }
    }

    #[test]
    fn shared_artifacts_match_freshly_built() {
        let spec = iterative_app(4, 8, 512 * 1024);
        let plan = AppPlan::build(&spec);
        let cfg = sim_cfg(3, 2 * 1024 * 1024);
        let base = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone());
        let (profiler, arena) = base.artifacts();
        let shared = Simulation::with_artifacts(&spec, &plan, profiler, arena, cfg);
        let r1 = base.run(&mut *PolicyKind::Lru.build());
        let r2 = shared.run(&mut *PolicyKind::Lru.build());
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }

    #[test]
    fn stage_times_are_monotone() {
        let spec = iterative_app(4, 4, 256 * 1024);
        let r = run(&spec, sim_cfg(2, 1 << 30), &mut *PolicyKind::Lru.build());
        for w in r.stage_times.windows(2) {
            assert!(w[0].2 <= w[1].1, "stages must not overlap");
        }
        assert_eq!(
            r.stage_times.last().unwrap().2,
            SimTime(r.jct.micros()),
            "JCT equals last stage end"
        );
    }

    #[test]
    fn task_count_matches_plan() {
        let spec = iterative_app(3, 4, 1024);
        let plan = AppPlan::build(&spec);
        let expected: u64 = plan.stages.iter().map(|s| s.num_tasks as u64).sum();
        let r = run(&spec, sim_cfg(2, 1 << 30), &mut *PolicyKind::Lru.build());
        assert_eq!(r.tasks, expected);
    }

    #[test]
    fn all_baselines_complete() {
        let spec = iterative_app(4, 8, 256 * 1024);
        for &kind in PolicyKind::all() {
            let r = run(&spec, sim_cfg(2, 1024 * 1024), &mut *kind.build());
            assert!(r.jct.micros() > 0, "{kind:?} did not run");
        }
    }

    #[test]
    fn belady_from_trace_completes_and_is_competitive() {
        let spec = iterative_app(6, 8, 1024 * 1024);
        let plan = AppPlan::build(&spec);
        let cfg = sim_cfg(2, 2 * 1024 * 1024);
        let trace = collect_trace(&spec, &plan, &cfg);
        let mut belady = refdist_policies::BeladyMinPolicy::from_trace(&trace);
        let b = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone()).run(&mut belady);
        let l = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg)
            .run(&mut *PolicyKind::Lru.build());
        assert!(b.hit_ratio() >= l.hit_ratio());
    }
}
