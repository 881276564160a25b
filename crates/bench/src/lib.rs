//! Experiment harness for the MRD paper reproduction.
//!
//! Every table and figure in the paper's evaluation is a function in
//! [`experiments`], listed once in [`experiments::EXPERIMENTS`] with its
//! cluster preset; `refdist exp <name>` prints one entry. The shared
//! harness here is policy construction ([`PolicySpec`]), cache sizes set
//! against a workload's cached footprint, one run over a workload's prepared
//! artifacts ([`run_one`]), and the [`sweep`](mod@sweep) engine, which runs
//! independent cells of a grid on a bounded worker pool.

pub mod experiments;
pub mod sweep;

pub use refdist_cluster::EngineScratch;
pub use sweep::{
    run_sweep, CellResult, ServeAxis, ServePeaks, SweepCell, SweepGrid, SweepOptions, SweepResults,
};

use refdist_cluster::{
    ArrivalProcess, ClusterConfig, FaultPlan, RunReport, ServeConfig, ServeReport, ServeSim,
    SimConfig, Simulation,
};
use refdist_core::{AppProfiler, DistanceMetric, MrdConfig, MrdMode, MrdPolicy, ProfileMode};
use refdist_dag::{AppPlan, AppSpec, BlockSlots};
use refdist_policies::{BeladyMinPolicy, CachePolicy, PolicyKind};
use refdist_workloads::{Workload, WorkloadParams};
use std::sync::Arc;

/// Every policy configuration the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Spark's default LRU (the baseline all figures normalize against).
    Lru,
    /// FIFO ablation baseline.
    Fifo,
    /// Random ablation baseline.
    Random,
    /// Least Reference Count (Fig. 5 comparator).
    Lrc,
    /// MemTune (Fig. 6 comparator).
    MemTune,
    /// MRD eviction only (Fig. 4 ablation).
    MrdEvict,
    /// MRD prefetch only over LRU eviction (Fig. 4 ablation).
    MrdPrefetch,
    /// Full MRD with stage distances (the headline policy).
    MrdFull,
    /// Full MRD with *job* distances (Fig. 8 ablation).
    MrdJobMetric,
    /// Belady's MIN oracle (extension; needs a recorded trace).
    Belady,
}

impl PolicySpec {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Lru => "LRU",
            PolicySpec::Fifo => "FIFO",
            PolicySpec::Random => "Random",
            PolicySpec::Lrc => "LRC",
            PolicySpec::MemTune => "MemTune",
            PolicySpec::MrdEvict => "MRD-evict",
            PolicySpec::MrdPrefetch => "MRD-prefetch",
            PolicySpec::MrdFull => "MRD",
            PolicySpec::MrdJobMetric => "MRD-jobdist",
            PolicySpec::Belady => "Belady-MIN",
        }
    }

    /// Parse a CLI policy name (`lru`, `mrd`, `mrd-evict`, ...). Returns
    /// `None` for unknown names.
    pub fn from_cli_name(name: &str) -> Option<PolicySpec> {
        Some(match name.to_ascii_lowercase().as_str() {
            "lru" => PolicySpec::Lru,
            "fifo" => PolicySpec::Fifo,
            "random" => PolicySpec::Random,
            "lrc" => PolicySpec::Lrc,
            "memtune" => PolicySpec::MemTune,
            "mrd" => PolicySpec::MrdFull,
            "mrd-evict" => PolicySpec::MrdEvict,
            "mrd-prefetch" => PolicySpec::MrdPrefetch,
            "mrd-job" => PolicySpec::MrdJobMetric,
            "belady" => PolicySpec::Belady,
            _ => return None,
        })
    }

    /// `self`, unless it is [`PolicySpec::Belady`]: its oracle replays a
    /// recorded whole-run trace, which only single-app sweep cells record.
    /// The one error every caller that cannot run Belady reports.
    pub fn traceless(self) -> Result<PolicySpec, String> {
        if self == PolicySpec::Belady {
            return Err(
                "belady needs a recorded whole-run trace, which only single-app \
                        sweep and chaos cells record"
                    .into(),
            );
        }
        Ok(self)
    }

    /// Instantiate the policy. `trace` is required for [`PolicySpec::Belady`].
    pub fn build(self, trace: Option<&[refdist_dag::BlockId]>) -> Box<dyn CachePolicy> {
        match self {
            PolicySpec::Lru => PolicyKind::Lru.build(),
            PolicySpec::Fifo => PolicyKind::Fifo.build(),
            PolicySpec::Random => PolicyKind::Random.build(),
            PolicySpec::Lrc => PolicyKind::Lrc.build(),
            PolicySpec::MemTune => PolicyKind::MemTune.build(),
            PolicySpec::MrdEvict => Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::EvictOnly,
                metric: DistanceMetric::Stage,
                ..Default::default()
            })),
            PolicySpec::MrdPrefetch => Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::PrefetchOnly,
                metric: DistanceMetric::Stage,
                ..Default::default()
            })),
            PolicySpec::MrdFull => Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::Full,
                metric: DistanceMetric::Stage,
                ..Default::default()
            })),
            PolicySpec::MrdJobMetric => Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::Full,
                metric: DistanceMetric::Job,
                ..Default::default()
            })),
            PolicySpec::Belady => Box::new(BeladyMinPolicy::from_trace(
                trace.expect("Belady needs a recorded trace"),
            )),
        }
    }
}

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// The simulated cluster (one of the Table 4 presets).
    pub cluster: ClusterConfig,
    /// Workload generation knobs.
    pub params: WorkloadParams,
    /// Master seed.
    pub seed: u64,
    /// Fault-injection plan applied to every run. The default (empty) plan
    /// is byte-invisible: runs are identical to a context without it.
    pub faults: FaultPlan,
}

impl ExpContext {
    /// Default context: the paper's Main cluster, paper-scale workloads.
    pub fn main() -> Self {
        ExpContext {
            cluster: ClusterConfig::main_cluster(),
            params: WorkloadParams::default(),
            seed: 42,
            faults: FaultPlan::default(),
        }
    }

    /// Context on the LRC-comparison cluster.
    pub fn lrc() -> Self {
        ExpContext {
            cluster: ClusterConfig::lrc_cluster(),
            ..Self::main()
        }
    }

    /// Context on the MemTune-comparison cluster.
    pub fn memtune() -> Self {
        ExpContext {
            cluster: ClusterConfig::memtune_cluster(),
            ..Self::main()
        }
    }

    /// Fast, reduced-scale context: 64 partitions at a quarter of the input
    /// scale, on 8 nodes.
    pub fn quick(mut self) -> Self {
        self.params.partitions = 64;
        self.params.scale = 0.25;
        self.cluster.nodes = 8;
        self
    }
}

/// Total bytes of all cached RDDs in an application (every generation).
pub fn cached_footprint(spec: &AppSpec) -> u64 {
    spec.cached_rdds().map(|r| r.total_size()).sum()
}

/// Per-node cache capacity equal to `fraction` of the workload's cached
/// footprint divided across the cluster.
pub fn cache_for_fraction(spec: &AppSpec, cluster: &ClusterConfig, fraction: f64) -> u64 {
    ((cached_footprint(spec) as f64 * fraction) / cluster.nodes as f64) as u64
}

/// Reject a cache fraction that cannot size a cache: NaN, infinite or
/// negative (`0` is allowed and sizes the one-byte minimum cache).
pub fn check_fraction(fraction: f64) -> Result<(), String> {
    if fraction.is_finite() && fraction >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "cache fraction must be finite and non-negative, got {fraction}"
        ))
    }
}

/// Per-node cache (at least one byte) holding `fraction` of the largest
/// cached footprint among `templates`, so a fraction keeps its meaning on
/// a heterogeneous mix.
pub fn cache_for_largest(
    templates: &[AppSpec],
    cluster: &ClusterConfig,
    fraction: f64,
) -> Result<u64, String> {
    check_fraction(fraction)?;
    let largest = templates
        .iter()
        .map(|t| cache_for_fraction(t, cluster, fraction));
    Ok(largest.max().unwrap_or(0).max(1))
}

/// One multi-tenant serve stream, the way every serve caller (the CLI, the
/// sweep's serve cells, the serve-grid experiment) builds it:
/// `apps` submissions cycle round-robin through `templates` and over the
/// tenants, arrive as a Poisson stream, and run on one shared cluster
/// under the streaming, template-interned driver.
#[derive(Debug, Clone)]
pub struct ServeScenario<'a> {
    /// Application templates; submission `i` runs `templates[i % k]`.
    pub templates: &'a [AppSpec],
    /// Total submissions; submission `i` belongs to tenant `i % tenants`.
    pub apps: u32,
    /// The shared cluster (cache sized), master seed, fault plan (node
    /// churn included) and jitter.
    pub sim: SimConfig,
    /// Tenants, mean arrival gap, scheduler, quota and resilience knobs.
    pub axis: ServeAxis,
}

impl<'a> ServeScenario<'a> {
    /// Size the per-node cache to `fraction` of the largest template's
    /// cached footprint ([`cache_for_largest`]).
    pub fn fit_cache(mut self, fraction: f64) -> Result<Self, String> {
        self.sim.cluster.cache_bytes =
            cache_for_largest(self.templates, &self.sim.cluster, fraction)?;
        Ok(self)
    }

    /// The `(template, tenant)` submission list, in submission order.
    pub fn submissions(&self) -> Vec<(&'a AppSpec, u32)> {
        let k = self.templates.len();
        (0..self.apps)
            .map(|i| (&self.templates[i as usize % k], i % self.axis.tenants))
            .collect()
    }

    /// The stream's serve configuration.
    pub fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::passthrough(self.sim.clone());
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_gap_us: self.axis.mean_gap_us,
        };
        cfg.sched = self.axis.sched;
        cfg.quota = self.axis.quota;
        cfg.resilience = self.axis.resilience;
        cfg
    }

    /// Check the stream's shape, then the config ([`ServeConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.axis.tenants == 0 {
            return Err("a serve stream needs at least one tenant".into());
        }
        if self.templates.is_empty() || self.apps == 0 {
            return Err("a serve stream needs at least one submission".into());
        }
        self.config().validate()
    }

    /// Serve the stream with a fresh `policy` instance per admission.
    pub fn run(&self, policy: PolicySpec) -> Result<ServeReport, String> {
        let policy = policy.traceless()?;
        self.validate()?;
        Ok(ServeSim::new(&self.submissions(), self.config()).run_with(|_| policy.build(None)))
    }
}

/// A workload's run-independent artifacts, built once per sweep and shared
/// read-only by every cell of that workload: the generated spec and plan,
/// the [`AppProfiler`] (a function of `(spec, plan, mode)`), and the dense
/// [`BlockSlots`] arena (a function of `spec`). A W×P×F×S grid previously
/// re-profiled the DAG and rebuilt the arena in every one of its
/// P×F×S cells per workload; sharing builds each exactly once.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The workload these artifacts were generated from.
    pub workload: Workload,
    /// The generated application.
    pub spec: AppSpec,
    /// Its execution plan.
    pub plan: AppPlan,
    /// Profile-visibility mode the profiler was built with.
    pub mode: ProfileMode,
    profiler: Arc<AppProfiler>,
    arena: Arc<BlockSlots>,
}

impl PreparedWorkload {
    /// Generate `workload` and build its shared artifacts.
    pub fn new(workload: Workload, params: &WorkloadParams, mode: ProfileMode) -> Self {
        let spec = workload.build(params);
        let plan = AppPlan::build(&spec);
        let profiler = Arc::new(AppProfiler::new(&spec, &plan, mode));
        let arena = Arc::new(BlockSlots::new(&spec));
        PreparedWorkload {
            workload,
            spec,
            plan,
            mode,
            profiler,
            arena,
        }
    }

    /// A simulation of this workload under `cfg`, sharing the prepared
    /// artifacts instead of rebuilding them.
    pub fn simulation(&self, cfg: SimConfig) -> Simulation<'_> {
        Simulation::with_artifacts(
            &self.spec,
            &self.plan,
            Arc::clone(&self.profiler),
            Arc::clone(&self.arena),
            cfg,
        )
    }
}

/// One simulated run of a prepared workload: the prepared artifacts are
/// shared and `scratch`'s engine buffers recycled across calls. The
/// simulation seed is `ctx.seed`; the sweep engine derives that per cell
/// (see [`sweep::SweepCell::sim_seed`]). Belady first records the run's
/// access trace.
pub fn run_one(
    prep: &PreparedWorkload,
    ctx: &ExpContext,
    cache_bytes: u64,
    policy: PolicySpec,
    scratch: &mut EngineScratch,
) -> RunReport {
    let mut cfg = SimConfig::new(ctx.cluster.with_cache(cache_bytes)).with_seed(ctx.seed);
    cfg.faults = ctx.faults.clone();
    let trace = if policy == PolicySpec::Belady {
        Some(refdist_cluster::collect_trace(&prep.spec, &prep.plan, &cfg))
    } else {
        None
    };
    let mut p = policy.build(trace.as_deref());
    prep.simulation(cfg).run_with_scratch(&mut *p, scratch)
}

/// Standard cache fractions used by the sweeps (chosen so the smallest
/// point forces heavy eviction and the largest nearly fits everything).
pub const SWEEP_FRACTIONS: &[f64] = &[0.15, 0.25, 0.4, 0.6, 0.8, 1.1, 1.4];

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
    fn policy_specs_build() {
        for p in [
            PolicySpec::Lru,
            PolicySpec::Fifo,
            PolicySpec::Random,
            PolicySpec::Lrc,
            PolicySpec::MemTune,
            PolicySpec::MrdEvict,
            PolicySpec::MrdPrefetch,
            PolicySpec::MrdFull,
            PolicySpec::MrdJobMetric,
        ] {
            assert!(!p.build(None).name().is_empty());
        }
    }

    #[test]
    fn footprint_positive_for_cached_workloads() {
        let ctx = tiny_ctx();
        let spec = Workload::KMeans.build(&ctx.params);
        assert!(cached_footprint(&spec) > 0);
        let c = cache_for_fraction(&spec, &ctx.cluster, 0.5);
        assert!(c > 0);
    }

    #[test]
    fn best_normalized_not_worse_than_one_for_mrd() {
        let ctx = tiny_ctx();
        let w = Workload::ConnectedComponents;
        let grid = SweepGrid::new([w], [PolicySpec::Lru, PolicySpec::MrdFull])
            .fractions(&[0.3, 0.6])
            .seeds(&[ctx.seed]);
        let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(2));
        let (norm, _, _) = res
            .best_normalized(w, PolicySpec::Lru, PolicySpec::MrdFull)
            .unwrap();
        assert!(norm <= 1.05, "MRD should not lose badly to LRU: {norm}");
    }

    #[test]
    fn run_one_matches_a_fresh_simulation() {
        // Shared artifacts + recycled scratch must be invisible in results,
        // including for Belady (trace collection) across repeated cells.
        let ctx = tiny_ctx();
        let prep =
            PreparedWorkload::new(Workload::ShortestPaths, &ctx.params, ProfileMode::Recurring);
        let mut scratch = EngineScratch::default();
        for frac in [0.3, 0.9] {
            let cache = cache_for_fraction(&prep.spec, &ctx.cluster, frac).max(1);
            for policy in [PolicySpec::Lru, PolicySpec::MrdFull, PolicySpec::Belady] {
                let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
                let trace = (policy == PolicySpec::Belady)
                    .then(|| refdist_cluster::collect_trace(&prep.spec, &prep.plan, &cfg));
                let fresh = Simulation::new(&prep.spec, &prep.plan, ProfileMode::Recurring, cfg)
                    .run(&mut *policy.build(trace.as_deref()));
                let prepared = run_one(&prep, &ctx, cache, policy, &mut scratch);
                assert_eq!(
                    format!("{fresh:?}"),
                    format!("{prepared:?}"),
                    "{policy:?} at f{frac}"
                );
                if policy == PolicySpec::Belady {
                    assert_eq!(prepared.policy, "Belady-MIN");
                }
            }
        }
    }
}
