//! Parallel experiment sweep engine.
//!
//! The paper's evaluation is a grid of (workload × policy × cache capacity ×
//! seed) simulations. This module expands such a grid declaratively
//! ([`SweepGrid`] → [`SweepCell`]s), runs the cells across a fixed-size
//! crossbeam worker pool, and aggregates the resulting [`RunReport`]s in
//! canonical cell order regardless of completion order, so the output of a
//! sweep is byte-identical whether it ran on 1 thread or N.
//!
//! Determinism contract (upheld by `tests/determinism.rs`):
//!
//! * every cell's simulation seed is derived from a hash of the cell's
//!   *environment* key (workload, capacity fraction, replicate seed, master
//!   seed) — never from thread identity, scheduling order, or wall clock;
//! * the policy name is deliberately **excluded** from the seed hash, so all
//!   policies at the same grid point share identical simulation randomness —
//!   normalized-JCT comparisons are paired, as in the paper's methodology;
//! * aggregated output ([`SweepResults::csv`], [`SweepResults::table`]) is
//!   ordered by canonical cell index via [`refdist_metrics::OrderedSink`];
//! * progress and ETA lines go to **stderr** only, leaving stdout
//!   deterministic.

use crate::{
    cache_for_fraction, run_one, ExpContext, PolicySpec, PreparedWorkload, ServeScenario,
};
use parking_lot::Mutex;
use refdist_cluster::{EngineScratch, QuotaKind, ResilienceConfig, RunReport, ServeSched, SimConfig};
use refdist_core::ProfileMode;
use refdist_metrics::{CsvWriter, OrderedSink, TextTable};
use refdist_workloads::Workload;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of worker threads to use when none is requested explicitly:
/// `REFDIST_THREADS` from the environment if set and positive, otherwise the
/// number of available cores.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("REFDIST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over `items` on a bounded worker pool, returning results in input
/// order no matter which worker finished which item first. `threads == 0`
/// means [`default_threads`].
pub fn pool_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    }
    .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let sink: Mutex<OrderedSink<usize, R>> =
        Mutex::new(OrderedSink::with_capacity(items.len()));
    crossbeam::scope(|s| {
        for _ in 0..threads {
            let (next, sink, f) = (&next, &sink, &f);
            s.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                sink.lock().push(i, r);
            });
        }
    })
    .expect("sweep worker panicked");
    sink.into_inner().into_ordered()
}

/// Multi-tenant serving parameters for one sweep cell: the cell's workload
/// is submitted once per tenant as a stream of arrivals onto one shared
/// cluster instead of running a single isolated application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeAxis {
    /// Number of tenants; each submits one instance of the cell's workload.
    pub tenants: u32,
    /// Mean inter-arrival gap of the Poisson arrival process, in simulated
    /// microseconds (`0` degenerates to all-at-once arrivals).
    pub mean_gap_us: u64,
    /// Inter-job scheduling discipline for the shared cluster.
    pub sched: ServeSched,
    /// Per-tenant cache quota policy.
    pub quota: QuotaKind,
    /// Serve-mode resilience knobs (app-level retry, admission control,
    /// SLO deadline). The passive default keeps the cell's key and seed in
    /// their pre-resilience shapes, so historical grids stay stable.
    pub resilience: ResilienceConfig,
}

/// One point of a sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// The workload to simulate.
    pub workload: Workload,
    /// The cache policy to drive.
    pub policy: PolicySpec,
    /// Per-cluster cache capacity as a fraction of the workload's cached
    /// footprint.
    pub capacity_frac: f64,
    /// Replicate seed (grid-level; the simulation seed is derived from it).
    pub seed: u64,
    /// Chaos fault rate applied via [`FaultPlan::chaos`]; `0.0` means no
    /// fault injection (the historical cell shape — its key and seed are
    /// unchanged from grids that predate the chaos axis).
    ///
    /// [`FaultPlan::chaos`]: refdist_cluster::FaultPlan::chaos
    pub chaos: f64,
    /// Multi-tenant serving axis; `None` runs the historical single-app
    /// cell (its key and seed are unchanged from grids that predate the
    /// tenancy axis).
    pub serve: Option<ServeAxis>,
}

impl SweepCell {
    /// The cell's fields joined by `sep`, with `policy` (if any) after the
    /// workload. Fault-free, single-app and passive-resilience cells keep
    /// the shapes that predate those axes, so historical keys and seeds
    /// stay stable.
    fn env_key(&self, sep: char, policy: Option<&str>) -> String {
        let mut key = self.workload.short_name().to_string();
        if let Some(p) = policy {
            let _ = write!(key, "{sep}{p}");
        }
        let _ = write!(key, "{sep}f{:.4}{sep}s{}", self.capacity_frac, self.seed);
        if self.chaos != 0.0 {
            let _ = write!(key, "{sep}c{:.4}", self.chaos);
        }
        if let Some(ax) = &self.serve {
            let _ = write!(
                key,
                "{sep}t{}{sep}g{}{sep}{}{sep}q{}",
                ax.tenants, ax.mean_gap_us, ax.sched, ax.quota
            );
            if !ax.resilience.is_passive() {
                let r = &ax.resilience;
                let _ = write!(
                    key,
                    "{sep}r{}-{}-m{}-c{}-d{}",
                    r.max_app_attempts,
                    r.admission,
                    r.max_active_apps.unwrap_or(0),
                    r.queue_cap.unwrap_or(0),
                    r.deadline_us.unwrap_or(0)
                );
            }
        }
        key
    }

    /// Canonical key identifying this cell in reports and golden files.
    pub fn key(&self) -> String {
        self.env_key('/', Some(self.policy.name()))
    }

    /// The simulation seed for this cell: a hash of the cell's environment
    /// key mixed with the context's master seed. The policy is excluded on
    /// purpose — all policies at one grid point see identical simulation
    /// *and fault* randomness, so their JCTs are directly comparable
    /// (paired runs). Fault-free cells hash the pre-chaos key shape, so
    /// their seeds are stable across the axis's introduction.
    pub fn sim_seed(&self, master_seed: u64) -> u64 {
        let env_key = self.env_key('|', None);
        // FNV-1a over the key, finalized with a splitmix64 round so nearby
        // keys land far apart in seed space.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master_seed;
        for &b in env_key.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A declarative grid of sweep cells: the cross product of workloads,
/// policies, capacity fractions, and replicate seeds.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Workloads to sweep.
    pub workloads: Vec<Workload>,
    /// Policies to run at every point.
    pub policies: Vec<PolicySpec>,
    /// Capacity fractions (of the cached footprint).
    pub fractions: Vec<f64>,
    /// Replicate seeds.
    pub seeds: Vec<u64>,
    /// Chaos fault rates; the default `[0.0]` runs fault-free.
    pub chaos: Vec<f64>,
    /// Serving axes; the default `[None]` runs single-app cells only.
    pub serve: Vec<Option<ServeAxis>>,
}

impl SweepGrid {
    /// Grid over `workloads` × `policies` with the standard
    /// [`crate::SWEEP_FRACTIONS`] and a single replicate (seed 42).
    pub fn new(
        workloads: impl Into<Vec<Workload>>,
        policies: impl Into<Vec<PolicySpec>>,
    ) -> Self {
        SweepGrid {
            workloads: workloads.into(),
            policies: policies.into(),
            fractions: crate::SWEEP_FRACTIONS.to_vec(),
            seeds: vec![42],
            chaos: vec![0.0],
            serve: vec![None],
        }
    }

    /// Replace the capacity fractions.
    pub fn fractions(mut self, fractions: &[f64]) -> Self {
        self.fractions = fractions.to_vec();
        self
    }

    /// Replace the replicate seeds.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Replace the chaos fault rates (`0.0` = fault-free).
    pub fn chaos(mut self, chaos: &[f64]) -> Self {
        self.chaos = chaos.to_vec();
        self
    }

    /// Replace the serving axes (`None` = single-app cell).
    pub fn serve(mut self, serve: &[Option<ServeAxis>]) -> Self {
        self.serve = serve.to_vec();
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.fractions.len()
            * self.seeds.len()
            * self.chaos.len()
            * self.serve.len()
            * self.policies.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand to cells in canonical order: workload, then fraction, then
    /// seed, then chaos rate, then serving axis, then policy. All reports
    /// are aggregated in this order.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::with_capacity(self.len());
        for &workload in &self.workloads {
            for &capacity_frac in &self.fractions {
                for &seed in &self.seeds {
                    for &chaos in &self.chaos {
                        for &serve in &self.serve {
                            for &policy in &self.policies {
                                out.push(SweepCell {
                                    workload,
                                    policy,
                                    capacity_frac,
                                    seed,
                                    chaos,
                                    serve,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Execution options for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; 0 means [`default_threads`].
    pub threads: usize,
    /// Profile visibility mode for every cell.
    pub mode: ProfileMode,
    /// Emit per-cell progress with elapsed/ETA to stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            mode: ProfileMode::Recurring,
            progress: false,
        }
    }
}

impl SweepOptions {
    /// Set the worker thread count (0 = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the profile mode.
    pub fn mode(mut self, mode: ProfileMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable or disable progress reporting.
    pub fn progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }
}

/// Streaming-serve high-water marks, carried from the cell's
/// [`refdist_cluster::ServeReport`] into the CSV sink. Only serve cells
/// have them — the aggregate [`RunReport`] folds per-submission stats and
/// would lose the peaks otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePeaks {
    /// Most submissions simultaneously admitted-but-not-retired.
    pub active_apps: u64,
    /// Slot-arena high-water mark (tracks peak concurrency, not stream
    /// length, under the streaming driver).
    pub arena_slots: u64,
    /// Most blocks memory-resident across the cluster at once.
    pub resident_blocks: u64,
    /// Most bytes memory-resident across the cluster at once.
    pub resident_bytes: u64,
}

/// Stream-level SLO accounting of a resilient serve cell, folded from the
/// per-submission [`refdist_cluster::ResilienceReport`]. Only serve cells
/// with a non-passive [`ResilienceConfig`] have one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSlo {
    /// Total app-level retries across the stream.
    pub retries: u64,
    /// Submissions shed at admission.
    pub shed: u64,
    /// Submissions admitted with caching bypassed.
    pub degraded: u64,
    /// Submissions that missed the configured deadline (shed included);
    /// zero when no deadline was configured.
    pub deadline_misses: u64,
    /// 95th-percentile admission-queue delay, microseconds.
    pub queue_p95_us: u64,
    /// 99th-percentile admission-queue delay, microseconds.
    pub queue_p99_us: u64,
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: SweepCell,
    /// Per-node cache bytes the fraction resolved to.
    pub cache_bytes: u64,
    /// The simulation report.
    pub report: RunReport,
    /// High-water marks of the serve stream, for serve cells only.
    pub serve_peaks: Option<ServePeaks>,
    /// SLO accounting, for serve cells with non-passive resilience only.
    pub serve_slo: Option<ServeSlo>,
}

/// All results of a sweep, in canonical cell order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Completed cells, ordered as [`SweepGrid::cells`] expanded them.
    pub cells: Vec<CellResult>,
    /// Wall-clock time of the whole sweep (excluded from all deterministic
    /// output).
    pub wall: Duration,
}

impl SweepResults {
    /// The result for one exact cell, if it was part of the grid.
    pub fn get(
        &self,
        workload: Workload,
        policy: PolicySpec,
        capacity_frac: f64,
        seed: u64,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.cell.workload == workload
                && c.cell.policy == policy
                && c.cell.capacity_frac == capacity_frac
                && c.cell.seed == seed
        })
    }

    /// Best (lowest) JCT of `policy` normalized against `baseline` at the
    /// same grid point, over all fractions and seeds of `workload`. Returns
    /// `(best normalized JCT, baseline hit ratio, policy hit ratio)` at the
    /// best point — the paper's Figure 4/5 methodology.
    pub fn best_normalized(
        &self,
        workload: Workload,
        baseline: PolicySpec,
        policy: PolicySpec,
    ) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        for c in self.cells.iter().filter(|c| {
            c.cell.workload == workload && c.cell.policy == policy
        }) {
            let base = self.get(workload, baseline, c.cell.capacity_frac, c.cell.seed)?;
            let norm = c.report.normalized_jct(&base.report);
            if best.is_none_or(|(b, _, _)| norm < b) {
                best = Some((norm, base.report.hit_ratio(), c.report.hit_ratio()));
            }
        }
        best
    }

    /// Human-readable table of every cell, in canonical order.
    pub fn table(&self) -> String {
        let mut t = TextTable::new([
            "Workload",
            "Policy",
            "Frac",
            "Seed",
            "Cache/node",
            "JCT (s)",
            "Hit %",
            "Evictions",
            "Prefetches",
        ]);
        for c in &self.cells {
            t.row([
                c.cell.workload.short_name().to_string(),
                c.cell.policy.name().to_string(),
                format!("{:.2}", c.cell.capacity_frac),
                c.cell.seed.to_string(),
                refdist_metrics::human_bytes(c.cache_bytes),
                format!("{:.2}", c.report.jct_secs()),
                format!("{:.1}", c.report.hit_ratio() * 100.0),
                (c.report.stats.evictions + c.report.stats.purges).to_string(),
                c.report.stats.prefetches.to_string(),
            ]);
        }
        t.render()
    }

    /// Machine-readable CSV of every cell, in canonical order. All values
    /// are exact integers or fixed-precision decimals, so equal sweeps
    /// produce byte-identical CSV.
    pub fn csv(&self) -> String {
        let mut w = CsvWriter::new([
            "workload",
            "policy",
            "fraction",
            "seed",
            "cache_bytes",
            "jct_us",
            "hits",
            "misses",
            "hit_ratio",
            "evictions",
            "purges",
            "prefetches",
            "prefetch_hits",
            "wasted_prefetches",
            "disk_hits",
            "recomputes",
            "tasks",
            "peak_active_apps",
            "peak_arena_slots",
            "peak_resident_blocks",
            "peak_resident_bytes",
            "app_retries",
            "shed",
            "degraded",
            "deadline_misses",
            "queue_p95_us",
            "queue_p99_us",
        ]);
        for c in &self.cells {
            let s = &c.report.stats;
            // Serve-stream high-water marks; empty cells for solo runs,
            // which have no stream to peak over.
            let peaks = |f: fn(&ServePeaks) -> u64| {
                c.serve_peaks.map_or(String::new(), |p| f(&p).to_string())
            };
            // SLO accounting; empty cells whenever resilience was passive.
            let slo = |f: fn(&ServeSlo) -> u64| {
                c.serve_slo.map_or(String::new(), |s| f(&s).to_string())
            };
            w.row([
                c.cell.workload.short_name().to_string(),
                c.cell.policy.name().to_string(),
                format!("{:.4}", c.cell.capacity_frac),
                c.cell.seed.to_string(),
                c.cache_bytes.to_string(),
                c.report.jct.micros().to_string(),
                s.hits.to_string(),
                s.misses.to_string(),
                format!("{:.4}", c.report.hit_ratio()),
                s.evictions.to_string(),
                s.purges.to_string(),
                s.prefetches.to_string(),
                s.prefetch_hits.to_string(),
                s.wasted_prefetches.to_string(),
                s.disk_hits.to_string(),
                s.recomputes.to_string(),
                c.report.tasks.to_string(),
                peaks(|p| p.active_apps),
                peaks(|p| p.arena_slots),
                peaks(|p| p.resident_blocks),
                peaks(|p| p.resident_bytes),
                slo(|s| s.retries),
                slo(|s| s.shed),
                slo(|s| s.degraded),
                slo(|s| s.deadline_misses),
                slo(|s| s.queue_p95_us),
                slo(|s| s.queue_p99_us),
            ]);
        }
        w.finish().to_string()
    }
}

/// Per-cell progress reporting with elapsed/ETA, stderr only.
struct Progress {
    total: usize,
    done: AtomicUsize,
    start: Instant,
    enabled: bool,
}

impl Progress {
    fn new(total: usize, enabled: bool) -> Self {
        Progress {
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            enabled,
        }
    }

    fn cell_done(&self, key: &str, cell_wall: Duration) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = elapsed / done as f64 * (self.total.saturating_sub(done)) as f64;
        eprintln!(
            "[{done}/{}] {key} in {:.1}s (elapsed {:.0}s, eta {:.0}s)",
            self.total,
            cell_wall.as_secs_f64(),
            elapsed,
            eta
        );
    }
}

/// Run one multi-tenant serve cell: `ax.tenants` copies of the prepared
/// workload, one per tenant, served as a [`ServeScenario`], and the
/// per-submission reports folded into one aggregate [`RunReport`] via
/// [`refdist_cluster::ServeReport::merged_report`]. Serve mode always uses
/// recurring profiles (each submission is a known, previously-seen app), and
/// Belady is excluded — a whole-run trace is meaningless under interleaving.
fn run_serve_cell(
    prep: &PreparedWorkload,
    ctx: &ExpContext,
    cache_bytes: u64,
    policy: PolicySpec,
    ax: ServeAxis,
) -> (RunReport, ServePeaks, Option<ServeSlo>) {
    let mut sim = SimConfig::new(ctx.cluster.with_cache(cache_bytes)).with_seed(ctx.seed);
    sim.faults = ctx.faults.clone();
    let scenario = ServeScenario {
        templates: std::slice::from_ref(&prep.spec),
        apps: ax.tenants,
        sim,
        axis: ax,
    };
    let report = scenario
        .run(policy)
        .unwrap_or_else(|e| panic!("serve cell: {e}"));
    let peaks = ServePeaks {
        active_apps: report.peak_active_apps,
        arena_slots: report.peak_arena_slots,
        resident_blocks: report.peak_resident_blocks,
        resident_bytes: report.peak_resident_bytes,
    };
    let slo = report.resilience.as_ref().map(|res| ServeSlo {
        retries: res.total_retries(),
        shed: res.shed_count(),
        degraded: res.degraded_count(),
        deadline_misses: report
            .deadline_met()
            .map_or(0, |met| (report.reports.len() - met) as u64),
        queue_p95_us: report.queue_delay_percentile(0.95).unwrap_or_default(),
        queue_p99_us: report.queue_delay_percentile(0.99).unwrap_or_default(),
    });
    (report.merged_report(), peaks, slo)
}

/// Run every cell of `grid` on a worker pool and aggregate the reports in
/// canonical cell order. See the module docs for the determinism contract.
pub fn run_sweep(grid: &SweepGrid, ctx: &ExpContext, opts: &SweepOptions) -> SweepResults {
    let started = Instant::now();

    // Build each workload's run-independent artifacts — spec, plan, profiler
    // and block-slot arena — exactly once, shared read-only by every cell of
    // that workload (cross-cell artifact sharing).
    let prepared: Vec<PreparedWorkload> = pool_map(&grid.workloads, opts.threads, |_, &w| {
        PreparedWorkload::new(w, &ctx.params, opts.mode)
    });

    // Per worker thread: engine buffers recycled across that worker's cells.
    thread_local! {
        static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
    }

    let cells = grid.cells();
    let progress = Progress::new(cells.len(), opts.progress);
    let cells = pool_map(&cells, opts.threads, |_, cell| {
        let prep = prepared
            .iter()
            .find(|p| p.workload == cell.workload)
            .expect("workload prepared");
        let cache_bytes =
            cache_for_fraction(&prep.spec, &ctx.cluster, cell.capacity_frac).max(1);
        let mut cell_ctx = ctx.clone();
        cell_ctx.seed = cell.sim_seed(ctx.seed);
        if cell.chaos > 0.0 {
            cell_ctx.faults = refdist_cluster::FaultPlan::chaos(cell.chaos);
        }
        let cell_started = Instant::now();
        let (report, serve_peaks, serve_slo) = if let Some(ax) = cell.serve {
            let (report, peaks, slo) =
                run_serve_cell(prep, &cell_ctx, cache_bytes, cell.policy, ax);
            (report, Some(peaks), slo)
        } else {
            let report = SCRATCH.with(|s| {
                run_one(prep, &cell_ctx, cache_bytes, cell.policy, &mut s.borrow_mut())
            });
            (report, None, None)
        };
        progress.cell_done(&cell.key(), cell_started.elapsed());
        CellResult {
            cell: *cell,
            cache_bytes,
            report,
            serve_peaks,
            serve_slo,
        }
    });

    SweepResults {
        cells,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        let mut ctx = ExpContext::main().quick();
        ctx.params.partitions = 8;
        ctx.params.scale = 0.02;
        ctx.cluster.nodes = 4;
        ctx
    }

    #[test]
    fn grid_expands_in_canonical_order() {
        let grid = SweepGrid::new(
            vec![Workload::KMeans, Workload::PageRank],
            vec![PolicySpec::Lru, PolicySpec::MrdFull],
        )
        .fractions(&[0.3, 0.6])
        .seeds(&[1, 2]);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 16);
        // First workload's cells come first; within one (workload, fraction,
        // seed) the policies are adjacent.
        assert_eq!(cells[0].key(), "KM/LRU/f0.3000/s1");
        assert_eq!(cells[1].key(), "KM/MRD/f0.3000/s1");
        assert_eq!(cells[2].key(), "KM/LRU/f0.3000/s2");
        assert!(cells[..8].iter().all(|c| c.workload == Workload::KMeans));
        assert!(cells[8..].iter().all(|c| c.workload == Workload::PageRank));
    }

    #[test]
    fn sim_seed_ignores_policy_but_not_environment() {
        let mk = |policy, frac, seed| SweepCell {
            workload: Workload::KMeans,
            policy,
            capacity_frac: frac,
            seed,
            chaos: 0.0,
            serve: None,
        };
        let a = mk(PolicySpec::Lru, 0.4, 42).sim_seed(42);
        let b = mk(PolicySpec::MrdFull, 0.4, 42).sim_seed(42);
        assert_eq!(a, b, "policies at one grid point must share randomness");
        assert_ne!(a, mk(PolicySpec::Lru, 0.6, 42).sim_seed(42));
        assert_ne!(a, mk(PolicySpec::Lru, 0.4, 43).sim_seed(42));
        assert_ne!(a, mk(PolicySpec::Lru, 0.4, 42).sim_seed(7));
    }

    #[test]
    fn chaos_axis_is_invisible_at_rate_zero() {
        let base = SweepCell {
            workload: Workload::KMeans,
            policy: PolicySpec::Lru,
            capacity_frac: 0.4,
            seed: 42,
            chaos: 0.0,
            serve: None,
        };
        let chaotic = SweepCell { chaos: 0.02, ..base };
        // Rate 0 keeps the pre-chaos key and seed shapes (golden files and
        // paired baselines stay stable); nonzero rates extend both.
        assert_eq!(base.key(), "KM/LRU/f0.4000/s42");
        assert_eq!(chaotic.key(), "KM/LRU/f0.4000/s42/c0.0200");
        assert_ne!(base.sim_seed(42), chaotic.sim_seed(42));
        assert_ne!(chaotic.sim_seed(42), SweepCell { chaos: 0.04, ..base }.sim_seed(42));
    }

    #[test]
    fn chaos_cells_inject_faults_and_clean_cells_do_not() {
        let ctx = tiny_ctx();
        let grid = SweepGrid::new(vec![Workload::KMeans], vec![PolicySpec::Lru])
            .fractions(&[0.5])
            .chaos(&[0.0, 0.08]);
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(2));
        assert_eq!(res.cells.len(), 2);
        let clean = &res.cells[0];
        let chaotic = &res.cells[1];
        assert_eq!(clean.cell.chaos, 0.0);
        assert!(clean.report.faults.is_empty(), "{:?}", clean.report.faults);
        assert!(
            chaotic.report.faults.task_failures + chaotic.report.faults.fetch_failures > 0,
            "{:?}",
            chaotic.report.faults
        );
        assert!(chaotic.report.aborted.is_none());
    }

    #[test]
    fn serve_axis_is_invisible_when_absent() {
        let base = SweepCell {
            workload: Workload::KMeans,
            policy: PolicySpec::Lru,
            capacity_frac: 0.4,
            seed: 42,
            chaos: 0.0,
            serve: None,
        };
        let ax = ServeAxis {
            tenants: 3,
            mean_gap_us: 200_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        };
        let served = SweepCell {
            serve: Some(ax),
            ..base
        };
        // `None` keeps the pre-tenancy key and seed shapes; a serving axis
        // extends both, and composes with the chaos suffix.
        assert_eq!(base.key(), "KM/LRU/f0.4000/s42");
        assert_eq!(
            served.key(),
            "KM/LRU/f0.4000/s42/t3/g200000/fair-share/qequal-share"
        );
        assert_ne!(base.sim_seed(42), served.sim_seed(42));
        let fifo = SweepCell {
            serve: Some(ServeAxis {
                sched: ServeSched::Fifo,
                ..ax
            }),
            ..base
        };
        assert_ne!(served.sim_seed(42), fifo.sim_seed(42));
        let both = SweepCell {
            chaos: 0.02,
            ..served
        };
        assert_eq!(
            both.key(),
            "KM/LRU/f0.4000/s42/c0.0200/t3/g200000/fair-share/qequal-share"
        );
        // Policies at one serve grid point still share simulation randomness.
        assert_eq!(
            served.sim_seed(42),
            SweepCell {
                policy: PolicySpec::MrdFull,
                ..served
            }
            .sim_seed(42)
        );
    }

    #[test]
    fn serve_cells_run_multi_tenant_streams() {
        let ctx = tiny_ctx();
        let ax = ServeAxis {
            tenants: 3,
            mean_gap_us: 100_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        };
        let grid = SweepGrid::new(vec![Workload::KMeans], vec![PolicySpec::Lru])
            .fractions(&[0.5])
            .serve(&[None, Some(ax)]);
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(2));
        assert_eq!(res.cells.len(), 2);
        let single = &res.cells[0];
        let served = &res.cells[1];
        assert!(single.cell.serve.is_none());
        assert_eq!(served.cell.serve, Some(ax));
        // Three tenants each ran a full copy of the workload.
        assert_eq!(served.report.tasks, 3 * single.report.tasks);
        assert!(served.report.jct >= single.report.jct);
        assert!(served.report.app.contains('+'), "{}", served.report.app);
    }

    #[test]
    fn resilience_axis_is_invisible_when_passive() {
        use refdist_cluster::AdmissionPolicy;
        let ax = ServeAxis {
            tenants: 3,
            mean_gap_us: 200_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        };
        let base = SweepCell {
            workload: Workload::KMeans,
            policy: PolicySpec::Lru,
            capacity_frac: 0.4,
            seed: 42,
            chaos: 0.0,
            serve: Some(ax),
        };
        // A passive config — even one with non-default backoff knobs, which
        // only matter once retries happen — keeps the pre-resilience key and
        // seed shapes, so historical serve grids stay byte-stable.
        let tuned_but_passive = SweepCell {
            serve: Some(ServeAxis {
                resilience: ResilienceConfig {
                    retry_backoff_us: 123,
                    max_retry_backoff_us: 456,
                    admission: AdmissionPolicy::Degrade,
                    ..Default::default()
                },
                ..ax
            }),
            ..base
        };
        assert_eq!(
            base.key(),
            "KM/LRU/f0.4000/s42/t3/g200000/fair-share/qequal-share"
        );
        assert_eq!(base.key(), tuned_but_passive.key());
        assert_eq!(base.sim_seed(42), tuned_but_passive.sim_seed(42));
        // Any gating field extends both, and distinct configs get distinct
        // fault/arrival randomness.
        let resilient = SweepCell {
            serve: Some(ServeAxis {
                resilience: ResilienceConfig {
                    max_app_attempts: 3,
                    admission: AdmissionPolicy::Shed,
                    max_active_apps: Some(2),
                    queue_cap: Some(4),
                    deadline_us: Some(5_000_000),
                    ..Default::default()
                },
                ..ax
            }),
            ..base
        };
        assert_eq!(
            resilient.key(),
            "KM/LRU/f0.4000/s42/t3/g200000/fair-share/qequal-share/r3-shed-m2-c4-d5000000"
        );
        assert_ne!(base.sim_seed(42), resilient.sim_seed(42));
        // Policies at one resilient grid point still share randomness.
        assert_eq!(
            resilient.sim_seed(42),
            SweepCell {
                policy: PolicySpec::MrdFull,
                ..resilient
            }
            .sim_seed(42)
        );
    }

    #[test]
    fn serve_cell_keys_and_seeds_are_frozen() {
        // Literals recorded before `key` and `sim_seed` shared one
        // formatter: neither the '/' key nor the '|' seed input may move.
        use refdist_cluster::AdmissionPolicy;
        let ax = ServeAxis {
            tenants: 3,
            mean_gap_us: 200_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        };
        let passive = SweepCell {
            workload: Workload::KMeans,
            policy: PolicySpec::Lru,
            capacity_frac: 0.4,
            seed: 42,
            chaos: 0.0,
            serve: Some(ax),
        };
        let resilient = SweepCell {
            chaos: 0.02,
            serve: Some(ServeAxis {
                resilience: ResilienceConfig {
                    max_app_attempts: 3,
                    admission: AdmissionPolicy::Shed,
                    max_active_apps: Some(2),
                    queue_cap: Some(4),
                    deadline_us: Some(5_000_000),
                    ..Default::default()
                },
                ..ax
            }),
            ..passive
        };
        assert_eq!(
            passive.key(),
            "KM/LRU/f0.4000/s42/t3/g200000/fair-share/qequal-share"
        );
        assert_eq!(passive.sim_seed(42), 13_828_689_401_376_245_882);
        assert_eq!(
            resilient.key(),
            "KM/LRU/f0.4000/s42/c0.0200/t3/g200000/fair-share/qequal-share/r3-shed-m2-c4-d5000000"
        );
        assert_eq!(resilient.sim_seed(42), 11_901_974_435_278_185_890);
    }

    #[test]
    fn resilient_serve_cells_report_slo_columns() {
        use refdist_cluster::AdmissionPolicy;
        let ctx = tiny_ctx();
        let passive = ServeAxis {
            tenants: 3,
            mean_gap_us: 0,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        };
        // All three tenants arrive at t=0; one admission slot and a shedding
        // policy means exactly two submissions are turned away.
        let shedding = ServeAxis {
            resilience: ResilienceConfig {
                admission: AdmissionPolicy::Shed,
                max_active_apps: Some(1),
                deadline_us: Some(1),
                ..Default::default()
            },
            ..passive
        };
        let grid = SweepGrid::new(vec![Workload::KMeans], vec![PolicySpec::Lru])
            .fractions(&[0.5])
            .serve(&[Some(passive), Some(shedding)]);
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(2));
        assert_eq!(res.cells.len(), 2);
        let quiet = &res.cells[0];
        let shed = &res.cells[1];
        assert!(
            quiet.serve_slo.is_none(),
            "passive resilience must not grow an SLO report"
        );
        let slo = shed.serve_slo.expect("non-passive cell reports SLO stats");
        assert_eq!(slo.shed, 2, "one slot, three simultaneous arrivals");
        assert_eq!(slo.degraded, 0);
        assert!(
            slo.deadline_misses >= 2,
            "shed submissions always miss the deadline"
        );
        // The CSV carries the SLO columns: empty for the passive cell,
        // populated for the resilient one.
        let csv = res.csv();
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 3, "header + one row per cell");
        assert!(rows[0].ends_with(
            "app_retries,shed,degraded,deadline_misses,queue_p95_us,queue_p99_us"
        ));
        assert!(rows[1].ends_with(",,,,,"), "{}", rows[1]);
        assert!(
            rows[2].contains(",2,0,") && !rows[2].ends_with(",,,,,"),
            "{}",
            rows[2]
        );
    }

    #[test]
    fn pool_map_orders_results_at_any_width() {
        let items: Vec<usize> = (0..25).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [1, 2, 7, 64] {
            let got = pool_map(&items, threads, |_, &i| i * i);
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(pool_map(&[] as &[usize], 4, |_, &i| i).is_empty());
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let ctx = tiny_ctx();
        let grid = SweepGrid::new(
            vec![Workload::ShortestPaths],
            vec![PolicySpec::Lru, PolicySpec::MrdFull],
        )
        .fractions(&[0.3, 0.9]);
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(2));
        assert_eq!(res.cells.len(), 4);
        assert!(res.cells.iter().all(|c| c.report.jct.micros() > 0));
        let (norm, lru_hits, mrd_hits) = res
            .best_normalized(Workload::ShortestPaths, PolicySpec::Lru, PolicySpec::MrdFull)
            .unwrap();
        assert!(norm > 0.0);
        assert!((0.0..=1.0).contains(&lru_hits));
        assert!((0.0..=1.0).contains(&mrd_hits));
        let csv = res.csv();
        assert_eq!(csv.lines().count(), 5, "header + one row per cell");
        assert!(res.table().contains("SP"));
    }
}
