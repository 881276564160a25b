//! Property tests on DAG planning primitives over randomly shaped lineages.

use proptest::prelude::*;
use refdist_dag::{
    plan, AppBuilder, AppPlan, AppSpec, Dependency, RddId, RefAnalyzer, StorageLevel,
};
use std::collections::BTreeSet;

/// Build a random but valid lineage: each new RDD picks existing parents
/// and a transformation kind. Every RDD has 4 partitions, so any two can be
/// joined narrowly. The kinds cover the shapes the planner's walk must get
/// right: narrow diamonds (a narrow join of two RDDs that share lineage, so
/// the walk reaches a common ancestor twice), shuffles of two parents, a
/// child shuffling the same parent twice (one edge, one map stage), and
/// joins mixing a narrow and a shuffle dependency.
fn random_spec(choices: &[(u8, u8, bool)]) -> AppSpec {
    let mut b = AppBuilder::new("random");
    let mut rdds = vec![b.input("in", 4, 1024, 100)];
    for (i, &(kind, parent, cache)) in choices.iter().enumerate() {
        let p = rdds[parent as usize % rdds.len()];
        let q = rdds[(parent as usize / 2) % rdds.len()];
        let r = match kind % 6 {
            0 => b.narrow(format!("n{i}"), p, 1024, 100),
            1 => b.shuffle(format!("s{i}"), &[p], 4, 512, 100),
            2 => b.shuffle(format!("j{i}"), &[p, q], 4, 512, 100),
            3 => b.narrow_multi(format!("d{i}"), &[p, q], 1024, 100),
            4 => b.shuffle(format!("t{i}"), &[p, p], 4, 512, 100),
            _ => b.shuffle_join(format!("m{i}"), p, q, 1024, 100),
        };
        if cache {
            b.persist(r, StorageLevel::MemoryAndDisk);
        }
        rdds.push(r);
    }
    let last = *rdds.last().unwrap();
    b.action("final", last);
    // A second action earlier in the lineage exercises stage sharing.
    let mid = rdds[rdds.len() / 2];
    b.action("mid", mid);
    b.build()
}

/// The pipelined set of `from` by plain recursion: preorder, first-declared
/// narrow parent first, each RDD once. An oracle independent of the
/// planner's iterative walk.
fn recursive_narrow_set(spec: &AppSpec, from: RddId) -> Vec<RddId> {
    fn visit(spec: &AppSpec, v: RddId, seen: &mut BTreeSet<RddId>, out: &mut Vec<RddId>) {
        if !seen.insert(v) {
            return;
        }
        out.push(v);
        for d in &spec.rdd(v).deps {
            if let Dependency::Narrow(p) = *d {
                visit(spec, p, seen, out);
            }
        }
    }
    let mut out = Vec::new();
    visit(spec, from, &mut BTreeSet::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn narrow_sets_never_cross_shuffles(choices in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..30)) {
        let spec = random_spec(&choices);
        let p = AppPlan::build(&spec);
        for stage in &p.stages {
            // The stage pipelines exactly the final RDD's narrow set, in
            // discovery order: recomputing it, or walking it recursively,
            // must agree.
            prop_assert_eq!(&stage.rdds, &plan::narrow_set(&spec, stage.final_rdd));
            prop_assert_eq!(&stage.rdds, &recursive_narrow_set(&spec, stage.final_rdd));
            // The frontier's edges, in discovery order, are the stage's
            // parents: one map stage per distinct shuffle edge.
            let frontier: Vec<_> = plan::shuffle_frontier(&spec, stage.final_rdd)
                .iter()
                .map(|e| {
                    p.stages
                        .iter()
                        .find(|s| s.final_rdd == e.0 && matches!(s.kind, plan::StageKind::ShuffleMap { child } if child == e.1))
                        .map(|s| s.id)
                        .expect("frontier edge has a stage")
                })
                .collect();
            prop_assert_eq!(&*stage.parents, &frontier[..]);
            let distinct: BTreeSet<_> = stage.parents.iter().collect();
            prop_assert_eq!(distinct.len(), stage.parents.len(), "a parent stage repeats");
        }
        // Each job's DAG is its result stage plus the transitive closure of
        // stage parents, ascending.
        for job in p.jobs.iter() {
            let mut closure = BTreeSet::new();
            let mut stack = vec![job.result_stage];
            while let Some(s) = stack.pop() {
                if closure.insert(s) {
                    stack.extend(p.stage(s).parents.iter().copied());
                }
            }
            prop_assert_eq!(&job.stages, &closure.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn execution_order_equals_id_order(choices in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..30)) {
        let spec = random_spec(&choices);
        let p = AppPlan::build(&spec);
        // Stage ids grouped by creating job, non-decreasing.
        let jobs: Vec<u32> = p.stages.iter().map(|s| s.job.0).collect();
        let mut sorted = jobs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(jobs, sorted);
        // Skipped stages of a job were always created by an earlier job.
        for job in p.jobs.iter() {
            for s in p.skipped_stages_of_job(job.id) {
                prop_assert!(p.stage(s).job < job.id);
            }
        }
    }

    #[test]
    fn analyzer_profile_consistent_with_plan(choices in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..30)) {
        let spec = random_spec(&choices);
        let p = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &p).profile();
        prop_assert_eq!(profile.per_stage.len(), p.stages.len());
        // A stage's recorded reads/creates all appear in its pipelined set.
        for (i, touches) in profile.per_stage.iter().enumerate() {
            let stage = &p.stages[i];
            for r in touches.reads.iter().chain(&touches.creates) {
                prop_assert!(stage.rdds.contains(r));
            }
        }
        // Each cached RDD is created exactly once across all stages.
        let mut created = std::collections::HashSet::new();
        for t in &profile.per_stage {
            for r in &t.creates {
                prop_assert!(created.insert(*r), "rdd created twice");
            }
        }
        // Total refs = creates + reads.
        let touches: usize = profile
            .per_stage
            .iter()
            .map(|t| t.reads.len() + t.creates.len())
            .sum();
        prop_assert_eq!(touches, profile.total_references());
    }

    #[test]
    fn dot_exports_are_balanced(choices in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..20)) {
        let spec = random_spec(&choices);
        let p = AppPlan::build(&spec);
        for text in [
            refdist_dag::dot::lineage_dot(&spec),
            refdist_dag::dot::stage_dot(&spec, &p),
        ] {
            prop_assert_eq!(text.matches('{').count(), text.matches('}').count());
            prop_assert!(text.starts_with("digraph"));
        }
    }
}
