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
//!
//! Every lineage traversal here and in the reference analyzer
//! ([`crate::analyze`]) runs on one reusable depth-first walker: per-RDD
//! epoch marks in a dense table instead of a hash set per walk, and one
//! stack reused across walks. The planner walks each stage's narrow set
//! once and reads its shuffle frontier off that set; the map-stage registry
//! is a dense table over shuffle dependencies, and each job's stage list
//! is closed with per-stage marks. No planning step hashes.

use crate::app::AppSpec;
use crate::ids::{JobId, RddId, StageId};
use crate::rdd::Dependency;
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
    LineageWalk::new(spec).narrow_set(spec, from)
}

/// Collect the shuffle edges `(map_side_parent, shuffle_child)` at the narrow
/// frontier of `from`, in deterministic discovery order.
pub fn shuffle_frontier(spec: &AppSpec, from: RddId) -> Vec<(RddId, RddId)> {
    shuffle_deps(spec, &narrow_set(spec, from))
        .map(|(parent, child, _)| (parent, child))
        .collect()
}

/// The distinct shuffle edges out of a pipelined set, in order: each RDD's
/// shuffle dependencies in declaration order, a parent the RDD shuffles
/// twice yielded once. An edge `(parent, child)` can only repeat inside
/// its child's own `deps`, since each RDD appears once in the set. Each
/// edge comes with the position of its dependency in the child's `deps`.
fn shuffle_deps<'s>(
    spec: &'s AppSpec,
    rdds: &'s [RddId],
) -> impl Iterator<Item = (RddId, RddId, usize)> + 's {
    rdds.iter().flat_map(move |&child| {
        let deps = &spec.rdd(child).deps;
        deps.iter().enumerate().filter_map(move |(k, &d)| match d {
            Dependency::Shuffle(parent) if !deps[..k].contains(&d) => Some((parent, child, k)),
            _ => None,
        })
    })
}

/// A reusable depth-first walk over narrow lineage: the one traversal the
/// planner and the reference analyzer share.
///
/// Each RDD carries the epoch of the last walk that visited it, so a new
/// walk needs no clearing and no hashing. An RDD is marked when it is
/// popped, and its narrow parents are pushed last-declared first, so the
/// first-declared parent is visited first: the discovery order of a plain
/// recursive DFS.
pub(crate) struct LineageWalk {
    /// Epoch of the walk that last visited each RDD, indexed by `RddId`.
    marks: Vec<u32>,
    epoch: u32,
    stack: Vec<RddId>,
    /// Scratch for [`LineageWalk::narrow_set`].
    found: Vec<RddId>,
}

impl LineageWalk {
    /// A walker over `spec`'s RDDs.
    pub(crate) fn new(spec: &AppSpec) -> Self {
        LineageWalk {
            marks: vec![0; spec.rdds.len()],
            epoch: 0,
            stack: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Begin a new walk from `from`: every RDD is unvisited again.
    pub(crate) fn start(&mut self, from: RddId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(from);
    }

    /// The next RDD this walk has not visited yet, marked visited.
    pub(crate) fn next(&mut self) -> Option<RddId> {
        while let Some(v) = self.stack.pop() {
            let mark = &mut self.marks[v.index()];
            if *mark != self.epoch {
                *mark = self.epoch;
                return Some(v);
            }
        }
        None
    }

    /// Walk on below `v`: queue its unvisited narrow parents.
    pub(crate) fn descend(&mut self, spec: &AppSpec, v: RddId) {
        for d in spec.rdd(v).deps.iter().rev() {
            if let Dependency::Narrow(p) = *d {
                if self.marks[p.index()] != self.epoch {
                    self.stack.push(p);
                }
            }
        }
    }

    /// `from`'s pipelined set in discovery order, allocated at its size.
    pub(crate) fn narrow_set(&mut self, spec: &AppSpec, from: RddId) -> Vec<RddId> {
        self.start(from);
        while let Some(v) = self.next() {
            self.found.push(v);
            self.descend(spec, v);
        }
        let set = self.found.to_vec();
        self.found.clear();
        set
    }
}

struct Planner<'a> {
    spec: &'a AppSpec,
    walk: LineageWalk,
    stages: Vec<Stage>,
    /// Shuffle-map stage registry — the analogue of Spark's
    /// `shuffleIdToMapStage` — indexed by shuffle dependency: the `k`-th
    /// dependency of RDD `r` sits at `dep_base[r] + k`.
    map_stages: Vec<Option<StageId>>,
    dep_base: Vec<u32>,
    /// Per stage, the last job (index + 1) whose DAG contains it.
    in_job: Vec<u32>,
}

impl<'a> Planner<'a> {
    fn new(spec: &'a AppSpec) -> Self {
        let mut deps = 0;
        let dep_base = spec
            .rdds
            .iter()
            .map(|r| {
                let base = deps;
                deps += r.deps.len() as u32;
                base
            })
            .collect();
        Planner {
            spec,
            walk: LineageWalk::new(spec),
            stages: Vec::new(),
            map_stages: vec![None; deps as usize],
            dep_base,
            in_job: Vec::new(),
        }
    }

    fn plan(mut self) -> AppPlan {
        let spec = self.spec;
        let jobs = spec
            .actions
            .iter()
            .enumerate()
            .map(|(ji, action)| {
                let job = JobId(ji as u32);
                let result_stage = self.create_stage(job, action.target, StageKind::Result);
                JobPlan {
                    id: job,
                    action: action.name.clone(),
                    stages: self.job_stages(job, result_stage),
                    result_stage,
                }
            })
            .collect();
        AppPlan {
            stages: self.stages,
            jobs,
        }
    }

    /// The job's DAG: the result stage plus everything reachable through
    /// stage parents (shared stages included), ascending. Parents have
    /// lower IDs than their children, so one downward scan from the result
    /// stage closes the set.
    fn job_stages(&mut self, job: JobId, result: StageId) -> Vec<StageId> {
        let mark = job.0 + 1;
        let in_job = &mut self.in_job;
        in_job.resize(self.stages.len(), 0);
        in_job[result.index()] = mark;
        let mut count = 0;
        for s in self.stages[..=result.index()].iter().rev() {
            if in_job[s.id.index()] == mark {
                count += 1;
                for p in s.parents.iter() {
                    in_job[p.index()] = mark;
                }
            }
        }
        let mut stages = Vec::with_capacity(count);
        stages.extend(
            self.stages[..=result.index()]
                .iter()
                .map(|s| s.id)
                .filter(|s| in_job[s.index()] == mark),
        );
        stages
    }

    /// Create the stage ending at `final_rdd`, getting or creating its
    /// parent shuffle-map stages first (Spark's `getOrCreateParentStages`):
    /// recursion creates ancestors first, so parents always receive lower
    /// stage IDs.
    fn create_stage(&mut self, job: JobId, final_rdd: RddId, kind: StageKind) -> StageId {
        let spec = self.spec;
        let rdds = self.walk.narrow_set(spec, final_rdd);
        // Distinct edges have distinct map stages, so `parents` holds no
        // stage twice.
        let mut parents = Vec::new();
        for (map_rdd, child, k) in shuffle_deps(spec, &rdds) {
            let slot = self.dep_base[child.index()] as usize + k;
            let sid = match self.map_stages[slot] {
                Some(sid) => sid,
                None => {
                    let sid = self.create_stage(job, map_rdd, StageKind::ShuffleMap { child });
                    self.map_stages[slot] = Some(sid);
                    sid
                }
            };
            parents.push(sid);
        }
        let id = StageId(self.stages.len() as u32);
        self.stages.push(Stage {
            id,
            job,
            final_rdd,
            kind,
            rdds,
            parents: parents.into(),
            num_tasks: spec.rdd(final_rdd).num_partitions,
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
