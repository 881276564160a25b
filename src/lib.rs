//! # refdist — Reference-distance cache management for DAG frameworks
//!
//! A from-scratch Rust reproduction of *"Reference-distance Eviction and
//! Prefetching for Cache Management in Spark"* (Perez, Zhou, Cheng —
//! ICPP 2018): the **MRD** (Most Reference Distance) cache policy, the
//! Spark-like DAG execution substrate it needs, the baseline policies it is
//! compared against (LRU, LRC, MemTune, Belady-MIN), and the SparkBench /
//! HiBench workload models used in the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API. See the
//! individual crates for details:
//!
//! * [`dag`] — RDD lineage, DAGScheduler-style stage construction, DAG
//!   reference analysis (paper §3).
//! * [`core`] — the MRD policy: reference distances, `AppProfiler`,
//!   `MrdManager`, `CacheMonitor` (paper §4).
//! * [`policies`] — LRU / FIFO / Random / LRC / MemTune / Belady baselines.
//! * [`store`] — per-node memory stores and the cluster block master.
//! * [`cluster`] — the deterministic stage-barrier cluster simulator and
//!   the Table-4 cluster presets.
//! * [`workloads`] — the 14 SparkBench + 6 HiBench workload DAG generators.
//! * [`metrics`] — summaries, OLS regression, table/CSV formatting.
//! * [`simcore`] — virtual time and FIFO bandwidth resources.

pub mod cli;

pub use refdist_bench as bench;
pub use refdist_cluster as cluster;
pub use refdist_core as core;
pub use refdist_dag as dag;
pub use refdist_metrics as metrics;
pub use refdist_policies as policies;
pub use refdist_simcore as simcore;
pub use refdist_store as store;
pub use refdist_workloads as workloads;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use refdist_cluster::{ClusterConfig, RunReport, SimConfig, Simulation};
    pub use refdist_core::{
        AppProfiler, DistanceMetric, MrdConfig, MrdMode, MrdPolicy, ProfileMode, ProfileStore,
    };
    pub use refdist_dag::{AppBuilder, AppPlan, AppSpec, RefAnalyzer, StorageLevel};
    pub use refdist_policies::{CachePolicy, PolicyKind};
    pub use refdist_workloads::{Workload, WorkloadParams};
}
