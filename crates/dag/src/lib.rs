//! Spark-like RDD lineage and DAG scheduling model.
//!
//! This crate rebuilds, in miniature, the part of Apache Spark the MRD paper
//! depends on: RDDs with narrow and shuffle (wide) dependencies, actions that
//! split a program into jobs, and the DAGScheduler algorithm that splits jobs
//! into stages at shuffle boundaries with sequentially increasing stage IDs.
//!
//! On top of the structural model it provides [`analyze::RefAnalyzer`], which
//! walks the planned application and extracts, for every cached RDD, the
//! ordered list of stages and jobs that reference it — the raw material for
//! reference-distance policies (MRD), reference-count policies (LRC), and
//! the workload characterizations in the paper's Tables 1 and 3.
//!
//! # Example
//!
//! ```
//! use refdist_dag::{AppBuilder, AppPlan, RefAnalyzer};
//!
//! // A two-job program: a cached dataset aggregated twice.
//! let mut b = AppBuilder::new("demo");
//! let input = b.input("hdfs", 4, 1 << 20, 1_000);
//! let data = b.narrow("data", input, 1 << 20, 2_000);
//! b.cache(data);
//! for i in 0..2 {
//!     let agg = b.shuffle(format!("agg{i}"), &[data], 4, 1 << 10, 500);
//!     b.action(format!("job{i}"), agg);
//! }
//! let spec = b.build();
//!
//! let plan = AppPlan::build(&spec);
//! assert_eq!(plan.jobs.len(), 2);
//! assert_eq!(plan.active_stage_count(), 4); // map+result per job
//!
//! let profile = RefAnalyzer::new(&spec, &plan).profile();
//! // `data` is created in job 0's map stage and re-read in job 1's.
//! assert_eq!(profile.refs(data).unwrap().count(), 2);
//! ```

pub mod analyze;
pub mod app;
pub mod capacity;
pub mod dot;
pub mod hash;
pub mod ids;
pub mod plan;
pub mod rdd;
pub mod slots;
pub mod template;
pub mod tenant;

pub use analyze::{
    AppProfile, DistanceStats, RddRefs, RefAnalyzer, StageTouches, WorkloadCharacteristics,
};
pub use app::{Action, AppBuilder, AppSpec};
pub use capacity::LiveSetProfile;
pub use ids::{BlockId, JobId, RddId, StageId};
pub use plan::{AppPlan, JobPlan, Stage, StageKind};
pub use rdd::{Dependency, Rdd, StorageLevel};
pub use slots::{BlockSlots, SlotArena, SlotMap, SlotSet};
pub use template::{PlannedTemplate, TemplateCache};
pub use tenant::{remap_plan, remap_profile, shift_rdd, TenantMap};
