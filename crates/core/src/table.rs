//! The MRD table: per-RDD future reference points and current distances.
//!
//! Algorithm 1's `MRD_Table`. For every cached RDD it keeps the ascending
//! list of *future* reference points (stage IDs or job IDs, per the chosen
//! [`DistanceMetric`]). As execution advances past a point, consumed
//! references are dropped ("as the application execution moves beyond a
//! point where there is a reference, that value is deleted, and the next
//! lowest one is used", §4.1). An RDD with no remaining references has
//! infinite distance and is the first eviction candidate.
//!
//! References are tracked per RDD rather than per block because all blocks
//! of an RDD share the same workflow reference pattern; the per-block view
//! required by the eviction interface maps a block to its RDD's distance.

use crate::distance::{DistanceMetric, RefDistance};
use refdist_dag::{AppProfile, RddId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The reference-distance table maintained by the MRDmanager and replicated
/// to each CacheMonitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrdTable {
    metric: DistanceMetric,
    /// Future reference points per RDD, ascending.
    refs: BTreeMap<RddId, VecDeque<u32>>,
    /// The front (lowest) reference point of every non-empty queue, so an
    /// advance pops only the queues that actually consumed a point instead
    /// of scanning all of them.
    fronts: BTreeSet<(u32, RddId)>,
    /// Current execution point (stage or job ID per `metric`).
    current: u32,
    /// Monotone version; bumped only on mutations that change observable
    /// distances, so monitors can detect staleness cheaply and identical
    /// profile re-merges (recurring runs) cost no re-broadcast.
    version: u64,
}

impl MrdTable {
    /// Empty table at execution point 0.
    pub fn new(metric: DistanceMetric) -> Self {
        MrdTable {
            metric,
            refs: BTreeMap::new(),
            fronts: BTreeSet::new(),
            current: 0,
            version: 0,
        }
    }

    /// Build a table from a reference profile (`parseDAG`).
    pub fn from_profile(metric: DistanceMetric, profile: &AppProfile) -> Self {
        let mut t = MrdTable::new(metric);
        t.merge_profile(profile);
        t
    }

    /// The metric this table measures in.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Current execution point.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Table version (bumped on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of RDDs with recorded future references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether no references are recorded.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Total reference points currently stored (the paper reports the
    /// largest observed table held < 300, §4.4).
    pub fn total_refs(&self) -> usize {
        self.refs.values().map(|q| q.len()).sum()
    }

    /// Merge (replace) reference points from a profile. Points already in
    /// the past relative to the current execution point are discarded.
    /// Used both at startup and when an ad-hoc run reveals a new job's DAG
    /// (`updateReferenceDistance`).
    ///
    /// RDDs whose surviving points are already stored verbatim are skipped
    /// without allocating, and the version is bumped only when something
    /// changed — a recurring run re-submitting the same whole-application
    /// profile every job costs no queue rebuilds and no monitor
    /// re-broadcasts.
    pub fn merge_profile(&mut self, profile: &AppProfile) {
        let mut changed = false;
        match self.metric {
            DistanceMetric::Stage => {
                for (&rdd, r) in &profile.per_rdd {
                    changed |= self.merge_rdd(rdd, r.stages.iter().map(|s| s.0));
                }
            }
            DistanceMetric::Job => {
                for (&rdd, r) in &profile.per_rdd {
                    changed |= self.merge_rdd(rdd, r.jobs.iter().map(|j| j.0));
                }
            }
        }
        if changed {
            self.version += 1;
        }
    }

    /// Replace one RDD's reference points with the still-future subset of
    /// `pts`, keeping the `fronts` index consistent. Returns whether the
    /// stored queue changed (the comparison runs without allocating).
    fn merge_rdd(&mut self, rdd: RddId, pts: impl Iterator<Item = u32> + Clone) -> bool {
        let current = self.current;
        let future = pts.filter(|&p| p >= current);
        if let Some(q) = self.refs.get(&rdd) {
            if q.iter().copied().eq(future.clone()) {
                return false;
            }
            if let Some(&f) = q.front() {
                self.fronts.remove(&(f, rdd));
            }
        }
        let future: VecDeque<u32> = future.collect();
        if let Some(&f) = future.front() {
            self.fronts.insert((f, rdd));
        }
        self.refs.insert(rdd, future);
        true
    }

    /// Advance execution to `point` (`newReferenceDistance`): consume all
    /// reference points strictly before it. Only queues whose front is
    /// behind `point` are touched, via the `fronts` index.
    pub fn advance_to(&mut self, point: u32) {
        if point <= self.current {
            return; // never move backwards; same point is a no-op
        }
        self.current = point;
        while let Some(&(f, rdd)) = self.fronts.first() {
            if f >= point {
                break;
            }
            self.fronts.remove(&(f, rdd));
            let q = self
                .refs
                .get_mut(&rdd)
                .expect("fronts entry without a queue");
            while q.front().is_some_and(|&p| p < point) {
                q.pop_front();
            }
            if let Some(&nf) = q.front() {
                self.fronts.insert((nf, rdd));
            }
        }
        self.version += 1;
    }

    /// Consume one pending reference of `rdd` at the current point, if its
    /// next reference is exactly now. Called when a block of the RDD is
    /// actually read, so a second read in the same stage does not consume
    /// the following reference point.
    pub fn note_reference(&mut self, rdd: RddId) {
        if let Some(q) = self.refs.get_mut(&rdd) {
            if q.front() == Some(&self.current) {
                q.pop_front();
                self.fronts.remove(&(self.current, rdd));
                if let Some(&nf) = q.front() {
                    self.fronts.insert((nf, rdd));
                }
                self.version += 1;
            }
        }
    }

    /// The reference distance of `rdd` from the current execution point.
    ///
    /// The comparison value is always the *lowest* remaining reference
    /// point (§4.1: "it will only use the lowest one").
    pub fn distance(&self, rdd: RddId) -> RefDistance {
        self.distance_of(self.refs.get(&rdd))
    }

    /// The distance of a stored queue (`None`: the RDD is not tracked).
    fn distance_of(&self, queue: Option<&VecDeque<u32>>) -> RefDistance {
        match queue.and_then(|q| q.front()) {
            Some(&p) => RefDistance::Finite(p - self.current),
            None => RefDistance::Infinite,
        }
    }

    /// RDDs whose distance is infinite (no future references) — the targets
    /// of the cluster-wide purge order.
    pub fn infinite_rdds(&self) -> impl Iterator<Item = RddId> + '_ {
        self.refs
            .iter()
            .filter(|(_, q)| q.is_empty())
            .map(|(&r, _)| r)
    }

    /// All (rdd, distance) pairs in RDD order, one pass over the table:
    /// what each monitor's replica is rebuilt from, and Figure 2 style dumps.
    pub fn distances(&self) -> impl Iterator<Item = (RddId, RefDistance)> + '_ {
        self.refs
            .iter()
            .map(move |(&r, q)| (r, self.distance_of(Some(q))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::{JobId, RddRefs, StageId};
    use std::collections::BTreeMap as Map;

    /// Profile stub: (rdd, stage refs, job refs).
    fn profile(entries: &[(u32, &[u32], &[u32])]) -> AppProfile {
        let mut per_rdd = Map::new();
        for &(r, stages, jobs) in entries {
            per_rdd.insert(
                RddId(r),
                RddRefs {
                    rdd: RddId(r),
                    stages: stages.iter().map(|&s| StageId(s)).collect(),
                    jobs: jobs.iter().map(|&j| JobId(j)).collect(),
                },
            );
        }
        AppProfile {
            per_rdd,
            per_stage: vec![],
            stage_job: Vec::new().into(),
            num_jobs: 0,
        }
    }

    #[test]
    fn distances_from_profile() {
        let t = MrdTable::from_profile(
            DistanceMetric::Stage,
            &profile(&[(0, &[1, 10], &[0, 5]), (1, &[3], &[1])]),
        );
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(1));
        assert_eq!(t.distance(RddId(1)), RefDistance::Finite(3));
        assert_eq!(t.distance(RddId(9)), RefDistance::Infinite);
        assert_eq!(t.total_refs(), 3);
    }

    #[test]
    fn job_metric_uses_job_points() {
        let t = MrdTable::from_profile(DistanceMetric::Job, &profile(&[(0, &[1, 10], &[0, 5])]));
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(0));
    }

    #[test]
    fn advance_consumes_past_refs() {
        let mut t =
            MrdTable::from_profile(DistanceMetric::Stage, &profile(&[(0, &[1, 10], &[0, 0])]));
        t.advance_to(2);
        // The stage-1 reference is behind us; lowest is now 10.
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(8));
        t.advance_to(11);
        assert_eq!(t.distance(RddId(0)), RefDistance::Infinite);
    }

    #[test]
    fn advance_is_monotone() {
        let mut t = MrdTable::from_profile(DistanceMetric::Stage, &profile(&[(0, &[5], &[0])]));
        t.advance_to(4);
        t.advance_to(2); // ignored
        assert_eq!(t.current(), 4);
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(1));
    }

    #[test]
    fn reference_at_current_point_survives_until_passed() {
        let mut t =
            MrdTable::from_profile(DistanceMetric::Stage, &profile(&[(0, &[3, 7], &[0, 0])]));
        t.advance_to(3);
        // Being referenced *now*: distance 0, not consumed yet.
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(0));
        t.advance_to(4);
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(3));
    }

    #[test]
    fn note_reference_consumes_current_only() {
        let mut t =
            MrdTable::from_profile(DistanceMetric::Stage, &profile(&[(0, &[3, 7], &[0, 0])]));
        t.advance_to(3);
        t.note_reference(RddId(0));
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(4));
        // A second read in the same stage must not consume the stage-7 ref.
        t.note_reference(RddId(0));
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(4));
    }

    #[test]
    fn infinite_rdds_listed_for_purge() {
        let mut t = MrdTable::from_profile(
            DistanceMetric::Stage,
            &profile(&[(0, &[1], &[0]), (1, &[5], &[0])]),
        );
        t.advance_to(2);
        let inf: Vec<_> = t.infinite_rdds().collect();
        assert_eq!(inf, vec![RddId(0)]);
    }

    #[test]
    fn merge_profile_discards_past_points() {
        let mut t = MrdTable::new(DistanceMetric::Stage);
        t.advance_to(5);
        t.merge_profile(&profile(&[(0, &[1, 4, 9], &[0, 0, 0])]));
        assert_eq!(t.distance(RddId(0)), RefDistance::Finite(4));
        assert_eq!(t.total_refs(), 1);
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut t = MrdTable::new(DistanceMetric::Stage);
        let v0 = t.version();
        t.merge_profile(&profile(&[(0, &[1], &[0])]));
        let v1 = t.version();
        assert!(v1 > v0);
        t.advance_to(1);
        assert!(t.version() > v1);
    }

    #[test]
    fn distances_iterates_all_tracked() {
        let t = MrdTable::from_profile(
            DistanceMetric::Stage,
            &profile(&[(0, &[2], &[0]), (1, &[4], &[0])]),
        );
        let d: Vec<_> = t.distances().collect();
        assert_eq!(
            d,
            vec![
                (RddId(0), RefDistance::Finite(2)),
                (RddId(1), RefDistance::Finite(4))
            ]
        );
    }
}
