//! DAG reference analysis.
//!
//! Walks the planned application in execution order and records, for every
//! cached RDD, the ordered list of (stage, job) points at which the running
//! application will touch its blocks — its *reference profile*. This is the
//! information the paper's `AppProfiler` extracts by parsing the DAG (§4.2,
//! `parseDAG`), and from which:
//!
//! * MRD derives reference *distances* (gap to the next reference),
//! * LRC derives reference *counts*,
//! * Table 1 derives per-workload average/maximum stage and job distances,
//! * Table 3 derives the workload characteristics columns.
//!
//! A stage "references" a cached RDD when its pipelined traversal reads it:
//! traversal starts at the stage's final RDD, descends through narrow
//! dependencies, stops at shuffle boundaries (those are read from shuffle
//! files, not the cache), and stops below cached RDDs that already exist —
//! the stage reads them from the cache instead of recomputing their lineage.
//! Creating a cached RDD counts as its first reference.
//!
//! The traversal is the planner's lineage walker (epoch marks, one reused
//! stack), run once per stage. References accumulate in a table indexed by
//! RDD id, an RDD's first entry marking it created, and are frozen into the
//! shared per-RDD lists at the end.

use crate::app::AppSpec;
use crate::ids::{JobId, RddId, StageId};
use crate::plan::{AppPlan, LineageWalk, StageKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Reference profile of one cached RDD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RddRefs {
    /// The cached RDD.
    pub rdd: RddId,
    /// Stages that reference it, ascending (first entry is its creation).
    /// Shared (`Arc`): stage IDs are app-local, so tenant remapping rebases
    /// the `rdd` key without cloning the reference lists.
    pub stages: Arc<[StageId]>,
    /// Jobs of those stages (parallel to `stages`, non-decreasing).
    pub jobs: Arc<[JobId]>,
}

impl RddRefs {
    /// Number of references (creation included).
    pub fn count(&self) -> usize {
        self.stages.len()
    }

    /// Consecutive stage-distance gaps between references.
    pub fn stage_gaps(&self) -> impl Iterator<Item = u32> + '_ {
        self.stages.windows(2).map(|w| w[1].0 - w[0].0)
    }

    /// Consecutive job-distance gaps between references.
    pub fn job_gaps(&self) -> impl Iterator<Item = u32> + '_ {
        self.jobs.windows(2).map(|w| w[1].0 - w[0].0)
    }

    /// The next reference at or after `stage`, if any.
    pub fn next_ref_at_or_after(&self, stage: StageId) -> Option<StageId> {
        let i = self.stages.partition_point(|&s| s < stage);
        self.stages.get(i).copied()
    }
}

/// Per-stage view: which cached RDDs a stage reads and creates.
#[derive(Debug, Clone, Default)]
pub struct StageTouches {
    /// Cached RDDs read from the cache by this stage.
    pub reads: Vec<RddId>,
    /// Cached RDDs materialized (computed and inserted) by this stage.
    pub creates: Vec<RddId>,
}

/// The whole-application reference profile.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Per cached RDD, its ordered reference points.
    pub per_rdd: BTreeMap<RddId, RddRefs>,
    /// Per stage (indexed by `StageId`), the cached RDDs it touches.
    pub per_stage: Vec<StageTouches>,
    /// Job of each stage, indexed by `StageId`. Shared (`Arc`): neither
    /// stage nor job IDs shift under tenant remapping.
    pub stage_job: Arc<[JobId]>,
    /// Number of jobs in the application.
    pub num_jobs: usize,
}

impl AppProfile {
    /// Reference points of one RDD, if it is cached.
    pub fn refs(&self, rdd: RddId) -> Option<&RddRefs> {
        self.per_rdd.get(&rdd)
    }

    /// Total reference count across all cached RDDs.
    pub fn total_references(&self) -> usize {
        self.per_rdd.values().map(|r| r.count()).sum()
    }

    /// Restrict the profile to stages whose job is `<= job` — what an ad-hoc
    /// (non-recurring) run knows after that job's DAG has been submitted
    /// (paper §4.1, second modus operandi).
    pub fn visible_up_to_job(&self, job: JobId) -> AppProfile {
        let per_rdd = self
            .per_rdd
            .iter()
            .filter_map(|(&rdd, r)| {
                let keep: Vec<usize> = (0..r.stages.len()).filter(|&i| r.jobs[i] <= job).collect();
                if keep.is_empty() {
                    return None;
                }
                Some((
                    rdd,
                    RddRefs {
                        rdd,
                        stages: keep.iter().map(|&i| r.stages[i]).collect(),
                        jobs: keep.iter().map(|&i| r.jobs[i]).collect(),
                    },
                ))
            })
            .collect();
        let visible_stages = self
            .stage_job
            .iter()
            .position(|&j| j > job)
            .unwrap_or(self.stage_job.len());
        AppProfile {
            per_rdd,
            per_stage: self.per_stage[..visible_stages].to_vec(),
            stage_job: Arc::from(&self.stage_job[..visible_stages]),
            num_jobs: (job.0 as usize + 1).min(self.num_jobs),
        }
    }
}

/// Reference-distance statistics over a profile (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceStats {
    /// Mean of job-distance gaps between consecutive references.
    pub avg_job: f64,
    /// Maximum job-distance gap.
    pub max_job: u32,
    /// Mean of stage-distance gaps between consecutive references.
    pub avg_stage: f64,
    /// Maximum stage-distance gap.
    pub max_stage: u32,
    /// Number of gaps the averages are taken over.
    pub num_gaps: usize,
}

/// Workload characteristics (paper Table 3 columns derivable from the DAG).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCharacteristics {
    /// Number of jobs.
    pub jobs: usize,
    /// Total stage appearances across job DAGs ("Stages").
    pub stages: usize,
    /// Distinct stages that execute ("Active Stages").
    pub active_stages: usize,
    /// Number of RDDs in the lineage graph.
    pub rdds: usize,
    /// Mean references per cached RDD.
    pub refs_per_rdd: f64,
    /// Total references divided by active stages.
    pub refs_per_stage: f64,
    /// Bytes read from external storage ("Data Input Size").
    pub input_bytes: u64,
    /// Approximate bytes read by all active stages ("Total Stage Inputs").
    pub stage_input_bytes: u64,
    /// Approximate shuffle bytes written (= read) across the run.
    pub shuffle_bytes: u64,
}

/// Extracts reference profiles and workload statistics from a planned app.
pub struct RefAnalyzer<'a> {
    spec: &'a AppSpec,
    plan: &'a AppPlan,
}

impl<'a> RefAnalyzer<'a> {
    /// Create an analyzer over a spec and its plan.
    pub fn new(spec: &'a AppSpec, plan: &'a AppPlan) -> Self {
        RefAnalyzer { spec, plan }
    }

    /// Compute the whole-application reference profile.
    pub fn profile(&self) -> AppProfile {
        let spec = self.spec;
        let stage_job: Arc<[JobId]> = self.plan.stages.iter().map(|s| s.job).collect();
        // Per RDD, the stages referencing it so far; a cached RDD exists
        // once its list is non-empty (its first reference created it).
        let mut refs: Vec<Vec<StageId>> = vec![Vec::new(); spec.rdds.len()];
        let mut walk = LineageWalk::new(spec);
        // Stage-ID order is execution order (see plan.rs module docs).
        let per_stage = self
            .plan
            .stages
            .iter()
            .map(|stage| {
                let mut touches = StageTouches::default();
                walk.start(stage.final_rdd);
                while let Some(v) = walk.next() {
                    if spec.rdd(v).is_cached() {
                        let seen = &mut refs[v.index()];
                        seen.push(stage.id);
                        if seen.len() > 1 {
                            // Cache hit at plan level: do not descend further.
                            touches.reads.push(v);
                            continue;
                        }
                        touches.creates.push(v);
                        // Fall through: the stage must compute it this time.
                    }
                    walk.descend(spec, v);
                }
                touches
            })
            .collect();
        // Freeze each referenced RDD's list into the shared slices.
        let per_rdd = refs
            .iter()
            .enumerate()
            .filter(|(_, stages)| !stages.is_empty())
            .map(|(i, stages)| {
                let rdd = RddId(i as u32);
                let jobs = stages.iter().map(|s| stage_job[s.index()]).collect();
                let stages = Arc::from(&stages[..]);
                (rdd, RddRefs { rdd, stages, jobs })
            })
            .collect();
        AppProfile {
            per_rdd,
            per_stage,
            stage_job,
            num_jobs: self.plan.jobs.len(),
        }
    }

    /// Table 1 statistics for a profile.
    pub fn distance_stats(profile: &AppProfile) -> DistanceStats {
        let mut sum_job = 0u64;
        let mut sum_stage = 0u64;
        let mut max_job = 0u32;
        let mut max_stage = 0u32;
        let mut n = 0usize;
        for refs in profile.per_rdd.values() {
            for g in refs.job_gaps() {
                sum_job += g as u64;
                max_job = max_job.max(g);
                n += 1;
            }
            for g in refs.stage_gaps() {
                sum_stage += g as u64;
                max_stage = max_stage.max(g);
            }
        }
        let denom = if n == 0 { 1.0 } else { n as f64 };
        DistanceStats {
            avg_job: sum_job as f64 / denom,
            max_job,
            avg_stage: sum_stage as f64 / denom,
            max_stage,
            num_gaps: n,
        }
    }

    /// Table 3 characteristics.
    pub fn characteristics(&self, profile: &AppProfile) -> WorkloadCharacteristics {
        let cached = self.spec.cached_rdds().count().max(1);
        let total_refs = profile.total_references();
        let active = self.plan.active_stage_count().max(1);

        let mut stage_input = 0u64;
        let mut shuffle = 0u64;
        for stage in &self.plan.stages {
            // Bytes this stage reads: external inputs and cached reads in its
            // pipelined set, plus shuffle reads from its parents.
            for &r in &stage.rdds {
                let rdd = self.spec.rdd(r);
                if rdd.is_input() {
                    stage_input += rdd.total_size();
                }
            }
            for &r in &profile.per_stage[stage.id.index()].reads {
                stage_input += self.spec.rdd(r).total_size();
            }
            for &p in stage.parents.iter() {
                let map_rdd = self.plan.stage(p).final_rdd;
                stage_input += self.spec.rdd(map_rdd).total_size();
            }
            if let StageKind::ShuffleMap { .. } = stage.kind {
                shuffle += self.spec.rdd(stage.final_rdd).total_size();
            }
        }
        WorkloadCharacteristics {
            jobs: self.plan.jobs.len(),
            stages: self.plan.total_stage_appearances(),
            active_stages: self.plan.active_stage_count(),
            rdds: self.spec.rdds.len(),
            refs_per_rdd: total_refs as f64 / cached as f64,
            refs_per_stage: total_refs as f64 / active as f64,
            input_bytes: self.spec.input_bytes(),
            stage_input_bytes: stage_input,
            shuffle_bytes: shuffle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;

    /// Iterative pattern: cached `data` referenced by each of 3 jobs.
    fn iterative() -> (AppSpec, AppPlan) {
        let mut b = AppBuilder::new("iter");
        let input = b.input("in", 4, 100, 10);
        let data = b.narrow("data", input, 100, 10);
        b.cache(data);
        for i in 0..3 {
            let work = b.shuffle(format!("agg{i}"), &[data], 4, 50, 10);
            b.action(format!("job{i}"), work);
        }
        let spec = b.build();
        let plan = AppPlan::build(&spec);
        (spec, plan)
    }

    #[test]
    fn iterative_profile_has_one_ref_per_job() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let data = RddId(1);
        let refs = profile.refs(data).unwrap();
        // Created in job 0's map stage, then read by job 1 and job 2's map
        // stages (job 1/2's result stages read shuffle files, not the cache).
        assert_eq!(refs.count(), 3);
        assert_eq!(&*refs.jobs, &[JobId(0), JobId(1), JobId(2)]);
        // Stage ids: job0 = [0 map, 1 result], job1 = [2 map, 3 result], ...
        assert_eq!(&*refs.stages, &[StageId(0), StageId(2), StageId(4)]);
    }

    #[test]
    fn distance_stats_from_gaps() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let stats = RefAnalyzer::distance_stats(&profile);
        assert_eq!(stats.num_gaps, 2);
        assert!((stats.avg_stage - 2.0).abs() < 1e-9);
        assert_eq!(stats.max_stage, 2);
        assert!((stats.avg_job - 1.0).abs() < 1e-9);
        assert_eq!(stats.max_job, 1);
    }

    #[test]
    fn uncached_rdds_have_no_profile() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        assert!(profile.refs(RddId(0)).is_none()); // input not cached
        assert_eq!(profile.per_rdd.len(), 1);
    }

    #[test]
    fn creation_recorded_once_then_reads() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let creates: Vec<_> = profile
            .per_stage
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.creates.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(creates, vec![0]);
        let reads: Vec<_> = profile
            .per_stage
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.reads.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reads, vec![2, 4]);
    }

    #[test]
    fn cached_child_truncates_ancestor_reference() {
        // input -> a(cached) -> b(cached) -> shuffles in 2 jobs.
        // After b exists, later stages read b and must NOT reference a.
        let mut bld = AppBuilder::new("trunc");
        let input = bld.input("in", 2, 100, 10);
        let a = bld.narrow("a", input, 100, 10);
        bld.cache(a);
        let b = bld.narrow("b", a, 100, 10);
        bld.cache(b);
        for i in 0..2 {
            let s = bld.shuffle(format!("s{i}"), &[b], 2, 10, 1);
            bld.action(format!("j{i}"), s);
        }
        let spec = bld.build();
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        // a referenced only at creation (stage 0); b at creation + job 1.
        assert_eq!(profile.refs(a).unwrap().count(), 1);
        assert_eq!(profile.refs(b).unwrap().count(), 2);
    }

    #[test]
    fn visible_up_to_job_truncates_future() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let v0 = profile.visible_up_to_job(JobId(0));
        assert_eq!(v0.refs(RddId(1)).unwrap().count(), 1);
        assert_eq!(v0.stage_job.len(), 2); // only job 0's stages visible
        let v1 = profile.visible_up_to_job(JobId(1));
        assert_eq!(v1.refs(RddId(1)).unwrap().count(), 2);
        // Full visibility reproduces the original.
        let v2 = profile.visible_up_to_job(JobId(2));
        assert_eq!(v2.refs(RddId(1)), profile.refs(RddId(1)));
    }

    #[test]
    fn next_ref_lookup() {
        let refs = RddRefs {
            rdd: RddId(0),
            stages: vec![StageId(2), StageId(5), StageId(9)].into(),
            jobs: vec![JobId(0), JobId(1), JobId(2)].into(),
        };
        assert_eq!(refs.next_ref_at_or_after(StageId(0)), Some(StageId(2)));
        assert_eq!(refs.next_ref_at_or_after(StageId(2)), Some(StageId(2)));
        assert_eq!(refs.next_ref_at_or_after(StageId(3)), Some(StageId(5)));
        assert_eq!(refs.next_ref_at_or_after(StageId(10)), None);
    }

    #[test]
    fn characteristics_counts() {
        let (spec, plan) = iterative();
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let ch = RefAnalyzer::new(&spec, &plan).characteristics(&profile);
        assert_eq!(ch.jobs, 3);
        assert_eq!(ch.active_stages, 6);
        assert_eq!(ch.rdds, 5);
        assert_eq!(ch.input_bytes, 400);
        assert!((ch.refs_per_rdd - 3.0).abs() < 1e-9); // 3 refs / 1 cached
        assert!((ch.refs_per_stage - 0.5).abs() < 1e-9); // 3 refs / 6 stages
                                                         // 3 map stages each write their map-side output (`data`, 400 bytes).
        assert_eq!(ch.shuffle_bytes, 1200);
    }

    #[test]
    fn empty_gap_stats_are_zero() {
        // Single job, cached RDD referenced once: no gaps.
        let mut b = AppBuilder::new("single");
        let input = b.input("in", 2, 100, 10);
        let d = b.narrow("d", input, 100, 10);
        b.cache(d);
        b.action("count", d);
        let spec = b.build();
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let stats = RefAnalyzer::distance_stats(&profile);
        assert_eq!(stats.num_gaps, 0);
        assert_eq!(stats.avg_stage, 0.0);
        assert_eq!(stats.max_stage, 0);
    }
}
