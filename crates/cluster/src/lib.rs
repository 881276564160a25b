//! Deterministic cluster simulator for DAG data-parallel applications.
//!
//! Replaces the paper's physical testbed (Table 4): a cluster of worker
//! nodes, each with a fixed number of task slots (vCPUs), a byte-capacity
//! memory cache, a FIFO-bandwidth local disk and a FIFO-bandwidth NIC. An
//! application ([`refdist_dag::AppSpec`]) executes job by job, stage by
//! stage; each task pays for its input acquisition (memory hit, local disk,
//! remote fetch, shuffle read, or recompute-from-lineage), its pipelined
//! compute, and its shuffle write. The cache policy under test decides what
//! stays in memory, and — for MRD — what gets prefetched in the background
//! while earlier stages compute.
//!
//! Everything is deterministic given the [`SimConfig`] seed, so experiments
//! are reproducible and policies are compared on identical workloads.
//!
//! ## Modelling decisions (see also DESIGN.md)
//!
//! * Stages execute sequentially in stage-ID order. This matches the
//!   paper's reference-distance clock (a single "current stage" pointer) and
//!   the synchronous stage barrier Spark's shuffle imposes.
//! * Resources are FIFO bandwidth queues; prefetch I/O is enqueued *after*
//!   the stage's task I/O, modelling background transfers that use leftover
//!   bandwidth but still contend with subsequent demand.
//! * Blocks carry sizes, not data; compute costs are per-partition
//!   microsecond figures from the workload generators, with a seeded ±jitter.

//! # Example
//!
//! ```
//! use refdist_cluster::{ClusterConfig, SimConfig, Simulation};
//! use refdist_core::{MrdPolicy, ProfileMode};
//! use refdist_dag::{AppBuilder, AppPlan, StorageLevel};
//!
//! let mut b = AppBuilder::new("demo");
//! let input = b.input("in", 8, 1 << 20, 5_000);
//! let data = b.narrow("data", input, 1 << 20, 10_000);
//! b.persist(data, StorageLevel::MemoryAndDisk);
//! for i in 0..3 {
//!     let agg = b.shuffle(format!("agg{i}"), &[data], 8, 1 << 12, 1_000);
//!     b.action(format!("job{i}"), agg);
//! }
//! let spec = b.build();
//! let plan = AppPlan::build(&spec);
//!
//! let cfg = SimConfig::new(ClusterConfig::tiny(2, 4 << 20));
//! let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);
//! let mut mrd = MrdPolicy::full();
//! let report = sim.run(&mut mrd);
//! assert!(report.jct.micros() > 0);
//! assert_eq!(report.stats.accesses(), report.stats.hits + report.stats.misses);
//! ```

pub mod config;
pub mod faults;
pub mod report;
pub mod runtime;
mod sched;
pub mod serve;

pub use config::{ClusterConfig, SimConfig};
pub use faults::{
    ChurnProcess, CrashEvent, FaultPlan, FaultStats, Slowdown, StageAbort, TimedCrash,
    TimedSlowdown,
};
pub use report::{RunReport, SchedStats};
pub use runtime::{collect_trace, EngineScratch, Simulation, WorkCounts};
pub use serve::{
    percentile, AdmissionPolicy, ArrivalProcess, QuotaKind, ResilienceConfig, ResilienceReport,
    ServeConfig, ServeReport, ServeSched, ServeSim, TenantMux, TenantSummary,
};
