//! The four benchmark workloads: how each builds its inputs (set-up), what
//! its timed region calls, and what it must produce.
//!
//! Inputs are built only through stable public constructors
//! (`SimConfig::new`, `ServeConfig::passthrough` plus field assignment,
//! `ExpContext::main`, `PolicySpec::build`), never through the reference
//! implementations' switches, so those can be retired without touching the
//! benchmark.

use crate::mem;
use crate::stats::digest;
use crate::trace::{json_str, Tracer};
use crate::traced::{drain, LayerHooks, Sink, TracedPolicy};
use refdist_bench::{
    cache_for_fraction, cached_footprint, run_sweep, CellResult, ExpContext, PolicySpec, SweepGrid,
    SweepOptions, SweepResults,
};
use refdist_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, EngineScratch, FaultStats, QuotaKind,
    ResilienceConfig, RunReport, SchedStats, ServeConfig, ServeReport, ServeSched, ServeSim,
    SimConfig, Simulation,
};
use refdist_core::{AppProfiler, ProfileMode};
use refdist_dag::{AppPlan, AppSpec, BlockSlots};
use refdist_policies::CachePolicy;
use refdist_store::CacheStats;
use refdist_workloads::{Workload as App, WorkloadParams};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation grid through `run_sweep`.
    PaperSweep,
    /// One large PageRank run: per-task engine work and per-node state.
    ScaleOut,
    /// A fault-free multi-tenant serve stream under MRD.
    ServeMix,
    /// The same stream overloaded, churned and failing, behind admission
    /// control and app retry.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `--smoke` run order. Peak RSS is per process and
    /// the heap keeps what a workload freed, so the large `scale_out` runs
    /// last.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::ServeMix,
        Workload::ServeChurn,
        Workload::ScaleOut,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ScaleOut => "scale_out",
            Workload::ServeMix => "serve_mix",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Serve streams cycle through these templates.
const SERVE_MIX: [App; 3] = [App::ShortestPaths, App::ConnectedComponents, App::KMeans];
/// Tenants the serve streams round-robin over.
const SERVE_TENANTS: usize = 8;

/// One rep: host timings plus what the workload produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds building inputs.
    pub setup_s: f64,
    /// Host seconds of the timed region (simulation plus report rendering).
    pub wall_s: f64,
    /// The deterministic outputs.
    pub out: Outcome,
}

/// Serve-layer outputs of a stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeCounters {
    /// High-water mark of concurrently live submissions.
    pub peak_active_apps: u64,
    /// High-water mark of the block-slot arena.
    pub peak_arena_slots: u64,
    /// High-water mark of memory-resident bytes.
    pub peak_resident_bytes: u64,
    /// Structural templates planned by interned admission.
    pub distinct_templates: u64,
    /// Victims chosen from another tenant's blocks.
    pub cross_evictions: u64,
    /// Victims chosen from the evicting tenant's own blocks.
    pub self_evictions: u64,
    /// Nearest-rank p99 admission-queue delay, simulated seconds.
    pub queue_p99_s: f64,
    /// App-level retries.
    pub app_retries: u64,
    /// Submissions admitted with caching bypassed.
    pub degraded: u64,
}

/// What one rep produced, reduced to deterministic quantities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a of the `Debug` form of every report.
    pub digest: u64,
    /// Simulated JCT, seconds, of each completed application or cell.
    pub jcts_s: Vec<f64>,
    /// Applications (cells, submissions) submitted.
    pub submitted: u64,
    /// Of those, completed.
    pub completed: u64,
    /// Aborted after all retries.
    pub aborted: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Completed within the deadline (all completed when none is set).
    pub met_slo: u64,
    /// Cache statistics over every application.
    pub stats: CacheStats,
    /// Fault accounting over every application.
    pub faults: FaultStats,
    /// Task placements over every application.
    pub sched: SchedStats,
    /// Tasks executed.
    pub tasks: u64,
    /// Serve-layer outputs (serve workloads only).
    pub serve: Option<ServeCounters>,
    /// Geometric mean of MRD JCT / LRU JCT over paired grid points
    /// (paper sweep only).
    pub mrd_vs_lru_jct: Option<f64>,
    /// Submissions that are not exactly one of completed, aborted or shed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Fold per-application reports.
    fn add_reports<'r>(&mut self, reports: impl IntoIterator<Item = &'r RunReport>) {
        for r in reports {
            self.stats.merge(&r.stats);
            self.faults.merge(&r.faults);
            self.sched.home_placements += r.sched.home_placements;
            self.sched.remote_placements += r.sched.remote_placements;
            self.tasks += r.tasks;
        }
    }

    fn from_sweep(cells: &[CellResult]) -> Outcome {
        let mut o = Outcome {
            digest: digest(&cells),
            submitted: cells.len() as u64,
            ..Default::default()
        };
        for c in cells {
            if c.report.aborted.is_some() {
                o.aborted += 1;
            } else {
                o.completed += 1;
                o.jcts_s.push(c.report.jct_secs());
            }
        }
        o.met_slo = o.completed;
        o.add_reports(cells.iter().map(|c| &c.report));
        // Policies at one grid point share their simulation seed, so MRD and
        // LRU there are paired runs, as in the paper's normalized JCT.
        let key = |c: &CellResult| {
            (
                c.cell.workload.short_name(),
                c.cell.capacity_frac.to_bits(),
                c.cell.seed,
            )
        };
        let lru: HashMap<_, f64> = cells
            .iter()
            .filter(|c| c.cell.policy == PolicySpec::Lru)
            .map(|c| (key(c), c.report.jct_secs()))
            .collect();
        let logs: Vec<f64> = cells
            .iter()
            .filter(|c| c.cell.policy == PolicySpec::MrdFull)
            .filter_map(|c| Some((c.report.jct_secs() / lru.get(&key(c))?).ln()))
            .collect();
        if !logs.is_empty() {
            o.mrd_vs_lru_jct = Some((logs.iter().sum::<f64>() / logs.len() as f64).exp());
        }
        o
    }

    fn from_solo(report: &RunReport) -> Outcome {
        let done = report.aborted.is_none();
        let mut o = Outcome {
            digest: digest(report),
            jcts_s: if done {
                vec![report.jct_secs()]
            } else {
                vec![]
            },
            submitted: 1,
            completed: done as u64,
            aborted: !done as u64,
            met_slo: done as u64,
            ..Default::default()
        };
        o.add_reports([report]);
        o
    }

    fn from_serve(report: &ServeReport) -> Outcome {
        let res = report.resilience.as_ref();
        let mut o = Outcome {
            digest: digest(report),
            submitted: report.reports.len() as u64,
            ..Default::default()
        };
        // Classify every submission independently, then check that the
        // classes partition the stream.
        for (i, r) in report.reports.iter().enumerate() {
            let shed = res.is_some_and(|res| res.shed[i]);
            let aborted = r.aborted.is_some();
            let completed = !shed && !aborted && r.app_attempts >= 1;
            if shed as u8 + aborted as u8 + completed as u8 != 1 {
                o.problems.push(format!(
                    "submission {i}: shed={shed} aborted={aborted} completed={completed}"
                ));
            }
            o.shed += shed as u64;
            o.aborted += aborted as u64;
            o.completed += completed as u64;
            if completed {
                o.jcts_s.push(r.jct_secs());
                let met = res
                    .and_then(|res| res.met_deadline(i, report.arrivals[i], report.completions[i]));
                o.met_slo += met.unwrap_or(true) as u64;
            }
        }
        o.add_reports(&report.reports);
        let (mut cross, mut own) = (0, 0);
        for (i, row) in report.cross_evictions.iter().enumerate() {
            for (j, &n) in row.iter().enumerate() {
                if i == j {
                    own += n;
                } else {
                    cross += n;
                }
            }
        }
        let mut delays: Vec<f64> = res.map_or_else(Vec::new, |res| {
            (0..res.shed.len())
                .filter(|&i| !res.shed[i])
                .map(|i| res.queue_delay_us[i] as f64 / 1e6)
                .collect()
        });
        delays.sort_by(f64::total_cmp);
        o.serve = Some(ServeCounters {
            peak_active_apps: report.peak_active_apps,
            peak_arena_slots: report.peak_arena_slots,
            peak_resident_bytes: report.peak_resident_bytes,
            distinct_templates: report.distinct_templates as u64,
            cross_evictions: cross,
            self_evictions: own,
            queue_p99_s: if delays.is_empty() {
                0.0
            } else {
                crate::stats::nearest_rank(&delays, 0.99)
            },
            app_retries: res.map_or(0, |r| r.total_retries()),
            degraded: res.map_or(0, |r| r.degraded_count()),
        });
        o
    }

    /// Σhits / Σaccesses.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// (shed + aborted after all retries) / submitted.
    pub fn failed_share(&self) -> f64 {
        (self.shed + self.aborted) as f64 / self.submitted.max(1) as f64
    }

    /// Met deadline / submitted, shed counted as missed.
    pub fn slo_attainment(&self) -> f64 {
        self.met_slo as f64 / self.submitted.max(1) as f64
    }
}

/// State of the traced rep: spans, the hook sink, and the allocation
/// counts of the `run` span.
#[derive(Debug, Default)]
pub struct Probe {
    /// Spans recorded so far.
    pub tracer: Tracer,
    /// Where wrapped policies deposit their hook counts.
    pub sink: Sink,
    /// Every hook count drained from the sink.
    pub hooks: LayerHooks,
    /// Allocations made inside the `run` span.
    pub run_allocs: u64,
    /// Peak heap growth inside the `run` span, bytes.
    pub run_heap_peak: u64,
}

impl Probe {
    /// Drain the sink into the totals and attach the drained counts to
    /// span `id` as `count / total_ns / max_ns` arguments.
    fn collect_hooks(&mut self, id: usize) {
        let got = drain(&self.sink);
        for (key, json) in got.span_args() {
            self.tracer.arg(id, key, json);
        }
        self.hooks.merge(&got);
    }
}

/// Time `f` as a span named `name` when tracing.
fn step<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// The probe's tracer, when tracing.
fn tracer<'a>(probe: &'a mut Option<&mut Probe>) -> Option<&'a mut Tracer> {
    probe.as_deref_mut().map(|p| &mut p.tracer)
}

/// A workload's run-independent artifacts, built as `run_sweep` builds them
/// for each workload of its grid.
struct Artifacts {
    spec: AppSpec,
    plan: AppPlan,
    profiler: Arc<AppProfiler>,
    arena: Arc<BlockSlots>,
}

impl Artifacts {
    /// Build `app`'s artifacts, one span per layer call when tracing.
    fn build(app: App, params: &WorkloadParams, mut tr: Option<&mut Tracer>) -> Artifacts {
        let spec = step(tr.as_deref_mut(), "workloads.build", || app.build(params));
        let plan = step(tr.as_deref_mut(), "dag.plan", || AppPlan::build(&spec));
        let profiler = step(tr.as_deref_mut(), "core.profile", || {
            Arc::new(AppProfiler::new(&spec, &plan, ProfileMode::Recurring))
        });
        let arena = step(tr, "dag.slots", || Arc::new(BlockSlots::new(&spec)));
        Artifacts {
            spec,
            plan,
            profiler,
            arena,
        }
    }

    /// A simulation sharing these artifacts.
    fn simulation(&self, cfg: SimConfig) -> Simulation<'_> {
        Simulation::with_artifacts(
            &self.spec,
            &self.plan,
            Arc::clone(&self.profiler),
            Arc::clone(&self.arena),
            cfg,
        )
    }
}

/// `spec`'s policy, wrapped when tracing.
fn policy(spec: PolicySpec, sink: Option<&Sink>) -> Box<dyn CachePolicy> {
    match sink {
        Some(s) => Box::new(TracedPolicy::new(spec, s)),
        None => spec.build(None),
    }
}

/// A workload at one seed and size.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Master seed: sweep master and replicate seeds, simulation seed and
    /// arrival seed all derive from it.
    pub seed: u64,
    /// Toy sizes for a quick end-to-end check.
    pub smoke: bool,
}

impl Bench {
    /// One untraced rep; `threads` sets the paper sweep's worker threads,
    /// the other workloads are single-threaded.
    pub fn rep(&self, threads: usize) -> Rep {
        match self.workload {
            Workload::PaperSweep => self.sweep_rep(threads),
            Workload::ScaleOut => self.solo_rep(None, true),
            Workload::ServeMix | Workload::ServeChurn => self.serve_rep(None, true),
        }
    }

    /// Host seconds of one set-up alone (inputs built, then dropped).
    pub fn setup_sample(&self) -> f64 {
        match self.workload {
            // `run_sweep` builds every workload's artifacts itself, inside
            // the timed region; this times the same builds on their own.
            Workload::PaperSweep => {
                let t = Instant::now();
                let (ctx, grid) = self.sweep_inputs();
                let built: Vec<Artifacts> = grid
                    .workloads
                    .iter()
                    .map(|&w| Artifacts::build(w, &ctx.params, None))
                    .collect();
                let s = t.elapsed().as_secs_f64();
                drop(black_box(built));
                s
            }
            Workload::ScaleOut => self.solo_rep(None, false).setup_s,
            Workload::ServeMix | Workload::ServeChurn => self.serve_rep(None, false).setup_s,
        }
    }

    /// One traced rep: every policy wrapped, spans around every layer call,
    /// allocation counting on. The paper sweep runs its cells sequentially,
    /// one span each.
    pub fn traced_rep(&self, probe: &mut Probe) -> Rep {
        mem::set_counting(true);
        let root = probe.tracer.begin(self.workload.name());
        let rep = match self.workload {
            Workload::PaperSweep => self.sweep_traced(probe),
            Workload::ScaleOut => self.solo_rep(Some(probe), true),
            Workload::ServeMix | Workload::ServeChurn => self.serve_rep(Some(probe), true),
        };
        probe.tracer.arg(root, "seed", self.seed.to_string());
        probe.tracer.arg(
            root,
            "digest",
            json_str(&format!("{:016x}", rep.out.digest)),
        );
        probe.tracer.end(root);
        mem::set_counting(false);
        rep
    }

    /// Run the timed region `f` as the `run` span, counting its allocations
    /// when tracing.
    fn run<T>(probe: &mut Option<&mut Probe>, f: impl FnOnce(Option<&mut Tracer>) -> T) -> T {
        let Some(p) = probe else { return f(None) };
        let id = p.tracer.begin("run");
        let (a0, live0) = (mem::allocs(), mem::live_bytes());
        mem::reset_heap_peak();
        let r = f(Some(&mut p.tracer));
        p.run_allocs = mem::allocs() - a0;
        p.run_heap_peak = mem::heap_peak_above(live0);
        p.tracer.end(id);
        p.collect_hooks(id);
        r
    }

    fn sweep_inputs(&self) -> (ExpContext, SweepGrid) {
        let mut ctx = ExpContext::main();
        ctx.seed = self.seed;
        let seeds = [0, 1, 2].map(|i| self.seed.wrapping_add(i));
        let policies = vec![PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull];
        let grid = if self.smoke {
            ctx = ctx.quick();
            ctx.params.partitions = 8;
            ctx.params.scale = 0.05;
            ctx.cluster.nodes = 4;
            SweepGrid::new(
                vec![App::KMeans, App::PageRank, App::ConnectedComponents],
                policies,
            )
            .fractions(&[0.25, 0.8])
            .seeds(&seeds[..2])
        } else {
            SweepGrid::new(App::sparkbench().to_vec(), policies).seeds(&seeds)
        };
        (ctx, grid)
    }

    fn sweep_rep(&self, threads: usize) -> Rep {
        let t = Instant::now();
        let (ctx, grid) = self.sweep_inputs();
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(threads));
        black_box(res.csv());
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            setup_s,
            wall_s,
            out: Outcome::from_sweep(&res.cells),
        }
    }

    /// The paper sweep cell by cell, mirroring `run_sweep`: artifacts built
    /// once per workload inside the run span (as `run_sweep` builds them
    /// inside the untraced wall), each cell's simulation seed derived from
    /// its grid key, engine buffers recycled across cells.
    fn sweep_traced(&self, p: &mut Probe) -> Rep {
        let t = Instant::now();
        let (ctx, grid) = p.tracer.span("setup", |_| self.sweep_inputs());
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let shared = Arc::clone(&p.sink);
        let mut probe = Some(p);
        let cells = Self::run(&mut probe, |mut tr| {
            let built: HashMap<_, _> = grid
                .workloads
                .iter()
                .map(|&w| {
                    let a = Artifacts::build(w, &ctx.params, tr.as_deref_mut());
                    (w.short_name(), a)
                })
                .collect();
            let tr = tr.expect("tracing");
            let mut scratch = EngineScratch::default();
            let mut cells = Vec::new();
            for cell in grid.cells() {
                // `run_sweep` also runs chaos and serve cells, which this
                // loop does not; the grid has neither axis.
                assert!(
                    cell.chaos == 0.0 && cell.serve.is_none(),
                    "the traced sweep runs plain batch cells only"
                );
                let id = tr.begin("bench.sweep.cell");
                let a = &built[cell.workload.short_name()];
                let cache_bytes =
                    cache_for_fraction(&a.spec, &ctx.cluster, cell.capacity_frac).max(1);
                let mut cfg = SimConfig::new(ctx.cluster.with_cache(cache_bytes))
                    .with_seed(cell.sim_seed(ctx.seed));
                cfg.faults = ctx.faults.clone();
                // A private sink per cell gives each cell span its own hook
                // counts; they are then folded into the run span's sink.
                let sink = Sink::default();
                let report = a
                    .simulation(cfg)
                    .run_with_scratch(&mut *policy(cell.policy, Some(&sink)), &mut scratch);
                tr.end(id);
                tr.arg(id, "key", json_str(&cell.key()));
                let hooks = drain(&sink);
                for (key, json) in hooks.span_args() {
                    tr.arg(id, key, json);
                }
                shared.lock().expect("no wrapper panicked").merge(&hooks);
                cells.push(CellResult {
                    cell,
                    cache_bytes,
                    report,
                    serve_peaks: None,
                    serve_slo: None,
                });
            }
            cells
        });
        let res = SweepResults {
            cells,
            wall: t.elapsed(),
        };
        black_box(step(tracer(&mut probe), "metrics.render", || res.csv()));
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            setup_s,
            wall_s,
            out: Outcome::from_sweep(&res.cells),
        }
    }

    /// The scale-out rep; with `full` false it stops after set-up.
    fn solo_rep(&self, mut probe: Option<&mut Probe>, full: bool) -> Rep {
        let (nodes, partitions) = if self.smoke { (16, 256) } else { (512, 8192) };
        let t = Instant::now();
        let setup = probe.as_deref_mut().map(|p| p.tracer.begin("setup"));
        let params = WorkloadParams {
            partitions,
            ..Default::default()
        };
        let a = Artifacts::build(App::PageRank, &params, tracer(&mut probe));
        let mut cluster = ExpContext::main().cluster;
        cluster.nodes = nodes;
        let cache = cache_for_fraction(&a.spec, &cluster, 0.5).max(1);
        let cfg = SimConfig::new(cluster.with_cache(cache)).with_seed(self.seed);
        let sim = a.simulation(cfg);
        let sink = probe.as_ref().map(|p| Arc::clone(&p.sink));
        let mut pol = policy(PolicySpec::Lru, sink.as_ref());
        if let (Some(p), Some(id)) = (probe.as_deref_mut(), setup) {
            p.tracer.end(id);
        }
        let setup_s = t.elapsed().as_secs_f64();
        if !full {
            return Rep {
                setup_s,
                wall_s: 0.0,
                out: Outcome::default(),
            };
        }

        let t = Instant::now();
        let report = Self::run(&mut probe, |_| {
            let r = sim.run_with_scratch(&mut *pol, &mut EngineScratch::default());
            drop(pol);
            r
        });
        black_box(step(tracer(&mut probe), "metrics.render", || {
            report.summary()
        }));
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            setup_s,
            wall_s,
            out: Outcome::from_solo(&report),
        }
    }

    fn serve_config(&self, cluster: ClusterConfig) -> ServeConfig {
        let mut sim = SimConfig::new(cluster).with_seed(self.seed);
        let churn = self.workload == Workload::ServeChurn;
        if churn {
            sim.faults.node_churn(600_000_000, 60_000_000);
            sim.faults.task_failure_p = 0.02;
            sim.faults.max_task_attempts = 2;
        }
        let mut cfg = ServeConfig::passthrough(sim);
        cfg.sched = ServeSched::FairShare;
        if churn {
            cfg.arrivals = ArrivalProcess::Poisson {
                mean_gap_us: 12_000_000,
            };
            cfg.quota = QuotaKind::EqualShare;
            cfg.resilience = ResilienceConfig {
                max_app_attempts: 3,
                admission: AdmissionPolicy::Shed,
                max_active_apps: Some(16),
                deadline_us: Some(300_000_000),
                ..Default::default()
            };
        } else {
            cfg.arrivals = ArrivalProcess::Poisson {
                mean_gap_us: 30_000_000,
            };
            cfg.quota = QuotaKind::Unlimited;
        }
        cfg
    }

    /// A serve-stream rep; with `full` false it stops after set-up.
    fn serve_rep(&self, mut probe: Option<&mut Probe>, full: bool) -> Rep {
        let submissions = if self.smoke { 120 } else { 6000 };
        let t = Instant::now();
        let setup = probe.as_deref_mut().map(|p| p.tracer.begin("setup"));
        let params = WorkloadParams {
            partitions: 16,
            scale: 0.05,
            ..Default::default()
        };
        let specs: Vec<AppSpec> = step(tracer(&mut probe), "workloads.build", || {
            SERVE_MIX.iter().map(|w| w.build(&params)).collect()
        });
        let mut cluster = ExpContext::main().cluster;
        cluster.nodes = 4;
        // Sized against the largest template, as `refdist serve --mix` does.
        let footprint = specs.iter().map(cached_footprint).max().unwrap_or(0);
        let cache = ((footprint as f64 * 0.3 / cluster.nodes as f64) as u64).max(1);
        let cfg = self.serve_config(cluster.with_cache(cache));
        let subs: Vec<(&AppSpec, u32)> = (0..submissions)
            .map(|i| (&specs[i % specs.len()], (i % SERVE_TENANTS) as u32))
            .collect();
        let sim = step(tracer(&mut probe), "cluster.serve.new", || {
            ServeSim::new(&subs, cfg)
        });
        let sink = probe.as_ref().map(|p| Arc::clone(&p.sink));
        if let (Some(p), Some(id)) = (probe.as_deref_mut(), setup) {
            p.tracer.end(id);
        }
        let setup_s = t.elapsed().as_secs_f64();
        if !full {
            return Rep {
                setup_s,
                wall_s: 0.0,
                out: Outcome::default(),
            };
        }

        let t = Instant::now();
        let report = Self::run(&mut probe, |_| {
            sim.run_with(|_| policy(PolicySpec::MrdFull, sink.as_ref()))
        });
        black_box(step(tracer(&mut probe), "metrics.render", || {
            report.summary()
        }));
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            setup_s,
            wall_s,
            out: Outcome::from_serve(&report),
        }
    }
}
