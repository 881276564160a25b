//! Frozen planner and analyzer output: `tests/golden/plans.txt`.
//!
//! One line per SparkBench workload at `WorkloadParams::default()`, plus
//! PageRank at 240 iterations (the longest lineage the experiments build).
//! Each line gives the stage count, the job count, the summed size of every
//! stage's pipelined RDD set, and FNV-1a digests of the `Debug` form of the
//! `AppPlan` and of the `RefAnalyzer` profile. The digests cover every stage
//! field (pipelined sets in discovery order, parents, kinds), every job's
//! stage list and every reference list, so a planner or analyzer change
//! that moves anything shows here by workload. A deliberate change
//! regenerates the file with `UPDATE_GOLDEN=1 cargo test --test plans`.

mod common;

use common::{check_golden, fnv1a};
use refdist_dag::{AppPlan, RefAnalyzer};
use refdist_workloads::{Workload, WorkloadParams};
use std::fmt::Write as _;

/// The golden line of one workload at `params`, labelled `name`.
fn plan_line(out: &mut String, name: &str, workload: Workload, params: &WorkloadParams) {
    let spec = workload.build(params);
    let plan = AppPlan::build(&spec);
    let profile = RefAnalyzer::new(&spec, &plan).profile();
    let pipelined: usize = plan.stages.iter().map(|s| s.rdds.len()).sum();
    writeln!(
        out,
        "{name} stages {} jobs {} stage_rdds {pipelined} plan {:016x} profile {:016x}",
        plan.stages.len(),
        plan.jobs.len(),
        fnv1a(format!("{plan:?}").as_bytes()),
        fnv1a(format!("{profile:?}").as_bytes()),
    )
    .expect("writing to a String");
}

#[test]
fn plans_match_golden() {
    let mut out = String::new();
    let params = WorkloadParams::default();
    for &w in Workload::sparkbench() {
        plan_line(&mut out, w.short_name(), w, &params);
    }
    let long = WorkloadParams {
        iterations: Some(240),
        ..Default::default()
    };
    plan_line(&mut out, "PR_240", Workload::PageRank, &long);
    check_golden("plans.txt", &out, "UPDATE_GOLDEN=1 cargo test --test plans");
}
