//! Multi-tenant RDD id spaces.
//!
//! The serve mode (crates/cluster) runs a *stream* of applications on one
//! shared cluster. Rather than teaching every layer of the stack about
//! multiple RDD namespaces, each submission's RDD ids are offset past the
//! previous submissions', so block ids stay globally unique and the stores,
//! block master and slot arena work unchanged. This module owns that
//! translation:
//!
//! * [`shift_rdd`] moves one RDD (id and lineage) to its global id;
//! * [`remap_plan`] / [`remap_profile`] shift a submission's *locally*
//!   built plan and reference profile into the global RDD space, so
//!   reference-distance policies see exactly the profile they would have
//!   seen running the app alone;
//! * [`TenantMap`] records each submission's id range and tenant — the
//!   primitive quota accounting and tenant-aware eviction are built on.

use crate::analyze::{AppProfile, RddRefs, StageTouches};
use crate::ids::RddId;
use crate::plan::{AppPlan, Stage, StageKind};
use crate::rdd::{Dependency, Rdd};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Ownership map for a serve stream: each submission's contiguous,
/// ascending range of global RDD ids, and the tenant each submission
/// belongs to. Per-submission lookups are one index; a block's owning
/// submission is read off its slot arena snapshot
/// ([`crate::BlockSlots::owner`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMap {
    /// `starts[i]` is the first global RddId of submission `i`.
    starts: Vec<u32>,
    /// `tenants[i]` is the tenant that owns submission `i`.
    tenants: Vec<u32>,
    /// One past the last RddId of the last submission.
    total: u32,
}

impl TenantMap {
    /// Build a map from per-submission RDD counts and tenant ids.
    pub fn new(rdd_counts: &[u32], tenants: &[u32]) -> TenantMap {
        assert_eq!(rdd_counts.len(), tenants.len());
        assert!(!rdd_counts.is_empty(), "at least one submission");
        let mut starts = Vec::with_capacity(rdd_counts.len());
        let mut at = 0u32;
        for &n in rdd_counts {
            starts.push(at);
            at += n;
        }
        TenantMap {
            starts,
            tenants: tenants.to_vec(),
            total: at,
        }
    }

    /// Number of submissions.
    #[inline]
    pub fn num_apps(&self) -> usize {
        self.starts.len()
    }

    /// Number of distinct tenants (`max tenant id + 1`).
    pub fn num_tenants(&self) -> usize {
        self.tenants.iter().copied().max().unwrap_or(0) as usize + 1
    }

    /// The tenant of submission `app`.
    #[inline]
    pub fn tenant_of_app(&self, app: usize) -> u32 {
        self.tenants[app]
    }

    /// The RDD-id offset of submission `app` in the global id space.
    #[inline]
    pub fn offset(&self, app: usize) -> u32 {
        self.starts[app]
    }

    /// The global RddId range of submission `app`.
    pub fn rdd_range(&self, app: usize) -> std::ops::Range<u32> {
        let end = self.starts.get(app + 1).copied().unwrap_or(self.total);
        self.starts[app]..end
    }
}

#[inline]
fn shift(r: RddId, offset: u32) -> RddId {
    RddId(r.0 + offset)
}

fn shift_dep(d: Dependency, offset: u32) -> Dependency {
    match d {
        Dependency::Narrow(p) => Dependency::Narrow(shift(p, offset)),
        Dependency::Shuffle(p) => Dependency::Shuffle(shift(p, offset)),
    }
}

/// Clone `r` with its id and lineage shifted into the global RDD space.
/// Admission uses this to splice one submission's RDDs into the engine's
/// live registry.
pub fn shift_rdd(r: &Rdd, offset: u32) -> Rdd {
    Rdd {
        id: shift(r.id, offset),
        name: r.name.clone(),
        num_partitions: r.num_partitions,
        block_size: r.block_size,
        compute_us: r.compute_us,
        storage: r.storage,
        deps: r.deps.iter().map(|&d| shift_dep(d, offset)).collect(),
    }
}

/// Shift a submission's locally built plan into the global RDD space.
/// Only RDD ids move; stage and job ids stay local to the submission (the
/// serve driver runs each submission's stages through its own plan).
///
/// Copy-on-rebase: the parts that never shift — the whole job list and each
/// stage's parent list — are shared with the source plan (`Arc` bump), so a
/// rebase copies only the per-stage RDD sets. At offset 0 the entire plan is
/// shared, making single-submission serve and submission 0 free.
pub fn remap_plan(plan: &Arc<AppPlan>, offset: u32) -> Arc<AppPlan> {
    if offset == 0 {
        return Arc::clone(plan);
    }
    Arc::new(AppPlan {
        stages: plan
            .stages
            .iter()
            .map(|s| Stage {
                id: s.id,
                job: s.job,
                final_rdd: shift(s.final_rdd, offset),
                kind: match s.kind {
                    StageKind::ShuffleMap { child } => StageKind::ShuffleMap {
                        child: shift(child, offset),
                    },
                    StageKind::Result => StageKind::Result,
                },
                rdds: s.rdds.iter().map(|&r| shift(r, offset)).collect(),
                parents: Arc::clone(&s.parents),
                num_tasks: s.num_tasks,
            })
            .collect(),
        jobs: Arc::clone(&plan.jobs),
    })
}

/// Shift a submission's locally built reference profile into the global
/// RDD space. Stage and job ids stay local, matching [`remap_plan`]; the
/// policies driven by this profile therefore see exactly the reference
/// distances the app would have alone.
///
/// Copy-on-rebase, like [`remap_plan`]: the per-RDD stage/job reference
/// lists and the stage→job table are shared with the source profile (`Arc`
/// bump — stage and job ids never shift); only the map keys and the
/// per-stage touch sets, which hold RDD ids, are rebuilt. Offset 0 shares
/// the whole profile.
pub fn remap_profile(profile: &Arc<AppProfile>, offset: u32) -> Arc<AppProfile> {
    if offset == 0 {
        return Arc::clone(profile);
    }
    let per_rdd: BTreeMap<RddId, RddRefs> = profile
        .per_rdd
        .iter()
        .map(|(&r, refs)| {
            (
                shift(r, offset),
                RddRefs {
                    rdd: shift(refs.rdd, offset),
                    stages: Arc::clone(&refs.stages),
                    jobs: Arc::clone(&refs.jobs),
                },
            )
        })
        .collect();
    Arc::new(AppProfile {
        per_rdd,
        per_stage: profile
            .per_stage
            .iter()
            .map(|t| StageTouches {
                reads: t.reads.iter().map(|&r| shift(r, offset)).collect(),
                creates: t.creates.iter().map(|&r| shift(r, offset)).collect(),
            })
            .collect(),
        stage_job: Arc::clone(&profile.stage_job),
        num_jobs: profile.num_jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::RefAnalyzer;
    use crate::app::{AppBuilder, AppSpec};

    fn little_app(name: &str, iters: usize) -> AppSpec {
        let mut b = AppBuilder::new(name);
        let input = b.input("hdfs", 4, 1 << 20, 1_000);
        let data = b.narrow("data", input, 1 << 20, 2_000);
        b.cache(data);
        for i in 0..iters {
            let agg = b.shuffle(format!("agg{i}"), &[data], 4, 1 << 10, 500);
            b.action(format!("job{i}"), agg);
        }
        b.build()
    }

    #[test]
    fn zero_offset_remap_is_identity() {
        let a = little_app("solo", 2);
        let plan = Arc::new(AppPlan::build(&a));
        assert_eq!(format!("{plan:?}"), format!("{:?}", remap_plan(&plan, 0)));
        let profile = Arc::new(RefAnalyzer::new(&a, &plan).profile());
        assert_eq!(
            format!("{profile:?}"),
            format!("{:?}", remap_profile(&profile, 0))
        );
        // Zero offset does not copy: the remapped artifacts are the same
        // allocations, not equal clones.
        assert!(Arc::ptr_eq(&plan, &remap_plan(&plan, 0)));
        assert!(Arc::ptr_eq(&profile, &remap_profile(&profile, 0)));
    }

    #[test]
    fn tenant_map_partitions_the_rdd_space() {
        let m = TenantMap::new(&[4, 6, 2], &[0, 1, 0]);
        assert_eq!(m.num_apps(), 3);
        assert_eq!(m.num_tenants(), 2);
        assert_eq!(m.offset(0), 0);
        assert_eq!(m.offset(1), 4);
        assert_eq!(m.offset(2), 10);
        assert_eq!(m.rdd_range(0), 0..4);
        assert_eq!(m.rdd_range(1), 4..10);
        assert_eq!(m.rdd_range(2), 10..12);
        assert_eq!(m.tenant_of_app(0), 0);
        assert_eq!(m.tenant_of_app(1), 1);
        assert_eq!(m.tenant_of_app(2), 0);
    }

    #[test]
    fn shift_rdd_offsets_id_and_lineage() {
        let a = little_app("a", 1);
        let agg = &a.rdds[2];
        let s = shift_rdd(agg, 10);
        assert_eq!(s.id.0, agg.id.0 + 10);
        assert_eq!(s.name, agg.name);
        for (d0, d1) in agg.deps.iter().zip(&s.deps) {
            assert_eq!(d1.parent().0, d0.parent().0 + 10);
            assert_eq!(d1.is_shuffle(), d0.is_shuffle());
        }
        // Offset 0 is the identity.
        assert_eq!(format!("{:?}", shift_rdd(agg, 0)), format!("{agg:?}"));
    }

    #[test]
    fn remapped_profile_matches_local_references() {
        let b = little_app("b", 2);
        let plan = AppPlan::build(&b);
        let local = Arc::new(RefAnalyzer::new(&b, &plan).profile());
        let off = 7u32;
        let shifted = remap_profile(&local, off);
        assert_eq!(shifted.num_jobs, local.num_jobs);
        assert_eq!(shifted.stage_job, local.stage_job);
        for (r, refs) in &local.per_rdd {
            let s = &shifted.per_rdd[&RddId(r.0 + off)];
            assert_eq!(s.rdd.0, r.0 + off);
            assert_eq!(s.stages, refs.stages);
            assert_eq!(s.jobs, refs.jobs);
            // The reference lists are shared, not copied.
            assert!(Arc::ptr_eq(&s.stages, &refs.stages));
            assert!(Arc::ptr_eq(&s.jobs, &refs.jobs));
        }
        for (t0, t1) in local.per_stage.iter().zip(&shifted.per_stage) {
            assert_eq!(
                t1.reads.iter().map(|r| r.0).collect::<Vec<_>>(),
                t0.reads.iter().map(|r| r.0 + off).collect::<Vec<_>>()
            );
            assert_eq!(
                t1.creates.iter().map(|r| r.0).collect::<Vec<_>>(),
                t0.creates.iter().map(|r| r.0 + off).collect::<Vec<_>>()
            );
        }
    }
}
