//! DAGScheduler-style job and stage construction.
//!
//! Reproduces the part of Spark's `DAGScheduler` the MRD paper builds on:
//! each action submits a job; walking the lineage backwards from the action's
//! RDD, the job is split into stages at shuffle dependencies; stage IDs are
//! assigned in creation order with parents created before children, so stage
//! IDs increase monotonically across the application — the "sequentially
//! numbered StageID" property reference distances are measured against
//! (paper §3.2).
//!
//! Shuffle-map stages are shared across jobs (keyed by their shuffle edge),
//! exactly like Spark's `shuffleIdToMapStage`: a later job that re-uses a
//! shuffle sees the stage in its DAG but skips executing it, because the
//! shuffle files already exist. Consequently every stage *executes* at most
//! once, in the first job that contains it, and the execution order of active
//! stages is exactly stage-ID order (IDs are assigned parents-first within a
//! job and jobs run in submission order).

use crate::app::AppSpec;
use crate::hash::{HashMap, HashSet};
use crate::ids::{JobId, RddId, StageId};
use std::sync::Arc;

/// What a stage produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Map side of a shuffle: computes `final_rdd` and writes shuffle files
    /// for `child` to read.
    ShuffleMap {
        /// The shuffle child RDD that consumes this stage's output.
        child: RddId,
    },
    /// Final stage of a job: computes the action's target RDD.
    Result,
}

/// A planned stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage ID (creation order; also execution order).
    pub id: StageId,
    /// The job that created (and will execute) this stage.
    pub job: JobId,
    /// The last RDD of the stage's pipelined narrow chain.
    pub final_rdd: RddId,
    /// Map side of a shuffle, or a job's result stage.
    pub kind: StageKind,
    /// All RDDs reachable from `final_rdd` through narrow dependencies
    /// (the pipelined set), in deterministic discovery order.
    pub rdds: Vec<RddId>,
    /// Parent shuffle-map stages this stage reads from. Shared (`Arc`) so
    /// tenant remapping can rebase a stage without cloning the parent list —
    /// stage IDs are app-local and never shift.
    pub parents: Arc<[StageId]>,
    /// One task per partition of `final_rdd`.
    pub num_tasks: u32,
}

/// A planned job: the stage sub-DAG one action produced.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Job ID (submission order).
    pub id: JobId,
    /// Action name, for reports.
    pub action: String,
    /// Every stage appearing in this job's DAG, in stage-ID order. Includes
    /// stages created by earlier jobs (those will be *skipped* at runtime).
    pub stages: Vec<StageId>,
    /// The job's result stage.
    pub result_stage: StageId,
}

/// The full application plan: all jobs and all distinct stages.
#[derive(Debug, Clone)]
pub struct AppPlan {
    /// Distinct stages, indexed by `StageId`. Stage-ID order is a valid
    /// execution order (parents first, jobs in submission order).
    pub stages: Vec<Stage>,
    /// Jobs in submission order. Shared (`Arc`): job plans hold only
    /// stage/job IDs and action names, none of which shift under tenant
    /// remapping, so every rebased copy of a template points at one list.
    pub jobs: Arc<[JobPlan]>,
}

impl AppPlan {
    /// Build the plan for an application.
    pub fn build(spec: &AppSpec) -> AppPlan {
        Planner::new(spec).plan()
    }

    /// Look up a stage.
    #[inline]
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// Stages of a job that appear in its DAG but were created by an earlier
    /// job — shown as "skipped" in the Spark UI.
    pub fn skipped_stages_of_job(&self, job: JobId) -> Vec<StageId> {
        let jp = &self.jobs[job.index()];
        jp.stages
            .iter()
            .copied()
            .filter(|&s| self.stage(s).job != job)
            .collect()
    }

    /// Total stage appearances across all job DAGs (the paper's Table 3
    /// "Stages" column).
    pub fn total_stage_appearances(&self) -> usize {
        self.jobs.iter().map(|j| j.stages.len()).sum()
    }

    /// Number of distinct stages that execute (Table 3 "Active Stages").
    pub fn active_stage_count(&self) -> usize {
        self.stages.len()
    }
}

/// Collect all RDDs reachable from `from` through narrow dependencies, in
/// deterministic DFS discovery order (the stage's pipelined set).
pub fn narrow_set(spec: &AppSpec, from: RddId) -> Vec<RddId> {
    let mut out = Vec::new();
    let mut seen = HashSet::default();
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        out.push(v);
        // Reverse so the first-declared parent is visited first.
        for p in spec
            .rdd(v)
            .narrow_parents()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            stack.push(p);
        }
    }
    out
}

/// Collect the shuffle edges `(map_side_parent, shuffle_child)` at the narrow
/// frontier of `from`, in deterministic discovery order.
pub fn shuffle_frontier(spec: &AppSpec, from: RddId) -> Vec<(RddId, RddId)> {
    let mut edges = Vec::new();
    let mut edge_seen = HashSet::default();
    for v in narrow_set(spec, from) {
        for d in &spec.rdd(v).deps {
            if d.is_shuffle() {
                let e = (d.parent(), v);
                if edge_seen.insert(e) {
                    edges.push(e);
                }
            }
        }
    }
    edges
}

struct Planner<'a> {
    spec: &'a AppSpec,
    stages: Vec<Stage>,
    /// Shuffle-map stage registry keyed by shuffle edge (parent, child) —
    /// the analogue of Spark's `shuffleIdToMapStage`.
    shuffle_stages: HashMap<(RddId, RddId), StageId>,
}

impl<'a> Planner<'a> {
    fn new(spec: &'a AppSpec) -> Self {
        Planner {
            spec,
            stages: Vec::new(),
            shuffle_stages: HashMap::default(),
        }
    }

    fn plan(mut self) -> AppPlan {
        let mut jobs = Vec::with_capacity(self.spec.actions.len());
        for (ji, action) in self.spec.actions.iter().enumerate() {
            let job = JobId(ji as u32);
            let parents = self.parent_stages(action.target, job);
            let result_stage = self.create_stage(job, action.target, StageKind::Result, parents);
            // The job's DAG: the result stage plus everything reachable
            // through stage parents (shared stages included).
            let mut in_job = HashSet::default();
            let mut stack = vec![result_stage];
            while let Some(s) = stack.pop() {
                if !in_job.insert(s) {
                    continue;
                }
                stack.extend(self.stages[s.index()].parents.iter().copied());
            }
            let mut stage_list: Vec<StageId> = in_job.into_iter().collect();
            stage_list.sort_unstable();
            jobs.push(JobPlan {
                id: job,
                action: action.name.clone(),
                stages: stage_list,
                result_stage,
            });
        }
        AppPlan {
            stages: self.stages,
            jobs: jobs.into(),
        }
    }

    /// Get-or-create the parent shuffle-map stages of `rdd` (Spark's
    /// `getOrCreateParentStages`). Recursion creates ancestors first, so
    /// parents always receive lower stage IDs.
    fn parent_stages(&mut self, rdd: RddId, job: JobId) -> Vec<StageId> {
        let mut parents = Vec::new();
        for edge in shuffle_frontier(self.spec, rdd) {
            let sid = self.shuffle_stage_for(edge, job);
            if !parents.contains(&sid) {
                parents.push(sid);
            }
        }
        parents
    }

    fn shuffle_stage_for(&mut self, edge: (RddId, RddId), job: JobId) -> StageId {
        if let Some(&sid) = self.shuffle_stages.get(&edge) {
            return sid;
        }
        let (map_rdd, child) = edge;
        let grand = self.parent_stages(map_rdd, job);
        let sid = self.create_stage(job, map_rdd, StageKind::ShuffleMap { child }, grand);
        self.shuffle_stages.insert(edge, sid);
        sid
    }

    fn create_stage(
        &mut self,
        job: JobId,
        final_rdd: RddId,
        kind: StageKind,
        parents: Vec<StageId>,
    ) -> StageId {
        let id = StageId(self.stages.len() as u32);
        let rdds = narrow_set(self.spec, final_rdd);
        let num_tasks = self.spec.rdd(final_rdd).num_partitions;
        self.stages.push(Stage {
            id,
            job,
            final_rdd,
            kind,
            rdds,
            parents: parents.into(),
            num_tasks,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;

    /// in -> m1 -> s1(shuffle) -> m2 -> s2(shuffle); actions on s1 then s2.
    fn two_job_chain() -> AppSpec {
        let mut b = AppBuilder::new("chain");
        let input = b.input("in", 4, 100, 10);
        let m1 = b.narrow("m1", input, 100, 10);
        let s1 = b.shuffle("s1", &[m1], 4, 100, 10);
        b.cache(s1);
        b.action("count-s1", s1);
        let m2 = b.narrow("m2", s1, 100, 10);
        let s2 = b.shuffle("s2", &[m2], 4, 100, 10);
        b.action("count-s2", s2);
        b.build()
    }

    #[test]
    fn single_job_splits_at_shuffles() {
        let mut b = AppBuilder::new("one");
        let input = b.input("in", 4, 100, 10);
        let m = b.narrow("m", input, 100, 10);
        let s = b.shuffle("s", &[m], 8, 100, 10);
        let t = b.narrow("t", s, 100, 10);
        b.action("collect", t);
        let plan = AppPlan::build(&b.build());

        assert_eq!(plan.stages.len(), 2);
        let map = plan.stage(StageId(0));
        let result = plan.stage(StageId(1));
        assert!(matches!(map.kind, StageKind::ShuffleMap { .. }));
        assert_eq!(map.final_rdd, RddId(1)); // m
        assert_eq!(map.num_tasks, 4);
        assert_eq!(result.kind, StageKind::Result);
        assert_eq!(result.final_rdd, RddId(3)); // t
        assert_eq!(result.num_tasks, 8);
        assert_eq!(&*result.parents, &[StageId(0)]);
    }

    #[test]
    fn parents_get_lower_ids() {
        let plan = AppPlan::build(&two_job_chain());
        for s in &plan.stages {
            for &p in s.parents.iter() {
                assert!(p < s.id, "parent {p} should precede {}", s.id);
            }
        }
    }

    #[test]
    fn shuffle_stages_shared_across_jobs() {
        let plan = AppPlan::build(&two_job_chain());
        // Job 0: map(m1) + result(s1). Job 1: reuses map(m1) shuffle? No —
        // job 1's DAG is: map(m1)->s1 ... wait: job 1 shuffles m2 (which
        // narrow-reads s1). s1 is a shuffle child, so job 1's map stage for
        // the s2 shuffle has final rdd m2, whose narrow set reaches s1 and
        // stops at s1's shuffle dep, whose map stage (m1) already exists.
        // So: stages = [map(m1), result(s1), map(m2), result(s2)].
        assert_eq!(plan.stages.len(), 4);
        let job1 = &plan.jobs[1];
        // Job 1's DAG contains the shared map(m1) stage...
        assert!(job1.stages.contains(&StageId(0)));
        // ...but it is skipped (created by job 0).
        assert_eq!(plan.skipped_stages_of_job(JobId(1)), vec![StageId(0)]);
    }

    #[test]
    fn stage_appearance_vs_active_counts() {
        let plan = AppPlan::build(&two_job_chain());
        // Job 0 DAG: 2 stages. Job 1 DAG: map(m1)+map(m2)+result = 3.
        assert_eq!(plan.total_stage_appearances(), 5);
        assert_eq!(plan.active_stage_count(), 4);
    }

    #[test]
    fn narrow_set_stops_at_shuffle() {
        let spec = two_job_chain();
        // m2 narrow-reaches s1 but not below (s1's dep is a shuffle).
        let set = narrow_set(&spec, RddId(3)); // m2
        assert_eq!(set, vec![RddId(3), RddId(2)]);
    }

    #[test]
    fn shuffle_frontier_finds_edges() {
        let spec = two_job_chain();
        let edges = shuffle_frontier(&spec, RddId(3)); // from m2
        assert_eq!(edges, vec![(RddId(1), RddId(2))]); // m1 -> s1
    }

    #[test]
    fn diamond_creates_two_map_stages() {
        // in -> a -> c ; in -> b -> c where c shuffles both a and b.
        let mut b = AppBuilder::new("diamond");
        let input = b.input("in", 4, 100, 10);
        let a = b.narrow("a", input, 100, 10);
        let bb = b.narrow("b", input, 100, 10);
        let c = b.shuffle("c", &[a, bb], 4, 100, 10);
        b.action("count", c);
        let plan = AppPlan::build(&b.build());
        assert_eq!(plan.stages.len(), 3);
        let result = plan.stage(StageId(2));
        assert_eq!(result.parents.len(), 2);
        // Both map stages pipeline the shared input.
        assert!(plan.stage(StageId(0)).rdds.contains(&input));
        assert!(plan.stage(StageId(1)).rdds.contains(&input));
    }

    #[test]
    fn active_execution_order_is_id_order() {
        let plan = AppPlan::build(&two_job_chain());
        // Stage ids grouped by job, ascending: job of each stage must be
        // non-decreasing in id order.
        let jobs: Vec<u32> = plan.stages.iter().map(|s| s.job.0).collect();
        let mut sorted = jobs.clone();
        sorted.sort_unstable();
        assert_eq!(jobs, sorted);
    }

    #[test]
    fn job_stage_lists_are_sorted_and_contain_result() {
        let plan = AppPlan::build(&two_job_chain());
        for j in plan.jobs.iter() {
            assert!(j.stages.windows(2).all(|w| w[0] < w[1]));
            assert!(j.stages.contains(&j.result_stage));
        }
    }

    #[test]
    fn same_shuffle_twice_in_one_job_is_single_stage() {
        // c and d both shuffle the same parent m via *different* edges;
        // each edge gets its own map stage, matching Spark's one shuffle
        // dependency per (parent, consumer) pair.
        let mut b = AppBuilder::new("fanout");
        let input = b.input("in", 4, 100, 10);
        let m = b.narrow("m", input, 100, 10);
        let c = b.shuffle("c", &[m], 4, 100, 10);
        let d = b.shuffle("d", &[m], 4, 100, 10);
        let joined = b.narrow_multi("z", &[c, d], 100, 10);
        b.action("count", joined);
        let plan = AppPlan::build(&b.build());
        // map(m->c), map(m->d), result
        assert_eq!(plan.stages.len(), 3);
    }

    #[test]
    fn multi_partition_counts_flow_to_tasks() {
        let mut b = AppBuilder::new("parts");
        let input = b.input("in", 6, 100, 10);
        let s = b.shuffle("s", &[input], 12, 100, 10);
        b.action("count", s);
        let plan = AppPlan::build(&b.build());
        assert_eq!(plan.stage(StageId(0)).num_tasks, 6);
        assert_eq!(plan.stage(StageId(1)).num_tasks, 12);
    }
}
