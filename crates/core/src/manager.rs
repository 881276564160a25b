//! MRDmanager: the centralized component owning the MRD table (paper §4.2).
//!
//! Receives reference-distance profiles from the [`crate::AppProfiler`]
//! (`updateReferenceDistance`), advances the table as execution proceeds
//! from stage to stage (`newReferenceDistance`), issues the cluster-wide
//! purge order for RDDs whose distance has gone infinite, and replicates the
//! table to each node's [`crate::CacheMonitor`] (`sendReferenceDistance`),
//! counting the broadcast messages so the communication overhead of §4.4 can
//! be measured.

use crate::distance::DistanceMetric;
use crate::monitor::CacheMonitor;
use crate::table::MrdTable;
use refdist_dag::{AppProfile, JobId, RddId, StageId};

/// The centralized MRD manager.
#[derive(Debug, Clone)]
pub struct MrdManager {
    table: MrdTable,
    metric: DistanceMetric,
    /// RDDs already purged, so repeated purge orders are not re-issued.
    purged: Vec<RddId>,
    /// Number of table replications sent to monitors.
    broadcasts: u64,
}

impl MrdManager {
    /// New manager measuring distances with `metric`.
    pub fn new(metric: DistanceMetric) -> Self {
        MrdManager {
            table: MrdTable::new(metric),
            metric,
            purged: Vec::new(),
            broadcasts: 0,
        }
    }

    /// The distance metric in use.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Read access to the MRD table.
    pub fn table(&self) -> &MrdTable {
        &self.table
    }

    /// Total table replications sent to monitors so far.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// A job's DAG became visible: fold its references into the table
    /// (`updateReferenceDistance`) and, under the job metric, advance the
    /// execution point to this job.
    pub fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        self.table.merge_profile(visible);
        if self.metric == DistanceMetric::Job {
            self.table.advance_to(job.0);
        }
    }

    /// Execution advanced to `stage`: decrement all distances accordingly
    /// (`newReferenceDistance`). Under the job metric stage starts do not
    /// move the execution point.
    pub fn on_stage_start(&mut self, stage: StageId) {
        if self.metric == DistanceMetric::Stage {
            self.table.advance_to(stage.0);
        }
    }

    /// RDDs whose reference distance is infinite and that have not been
    /// purged yet — the targets of the next cluster-wide purge order
    /// (Algorithm 1 lines 13–17). Marks them purged.
    pub fn take_purge_order(&mut self) -> Vec<RddId> {
        let fresh: Vec<RddId> = self
            .table
            .infinite_rdds()
            .filter(|r| !self.purged.contains(r))
            .collect();
        self.purged.extend(&fresh);
        fresh
    }

    /// RDDs currently known to be dead (purged or infinite).
    pub fn is_dead(&self, rdd: RddId) -> bool {
        self.purged.contains(&rdd) || !self.table.distance(rdd).is_finite()
    }

    /// Synchronize a monitor's replica if it is stale
    /// (`sendReferenceDistance` / `getReferenceDistance`). Returns whether a
    /// message was sent. The one table is shared with every monitor — no
    /// per-node copy of its reference queues.
    pub fn sync_monitor(&mut self, monitor: &mut CacheMonitor) -> bool {
        if monitor.table_version() == Some(self.table.version()) {
            return false;
        }
        monitor.receive_table(&self.table);
        self.broadcasts += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::RefDistance;
    use refdist_dag::RddRefs;
    use refdist_store::NodeId;
    use std::collections::BTreeMap;

    fn profile(entries: &[(u32, &[u32], &[u32])]) -> AppProfile {
        let mut per_rdd = BTreeMap::new();
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
    fn stage_metric_advances_on_stages() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        m.on_job_submit(JobId(0), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(2));
        m.on_stage_start(StageId(3));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(3));
    }

    #[test]
    fn job_metric_advances_on_jobs() {
        let mut m = MrdManager::new(DistanceMetric::Job);
        m.on_job_submit(JobId(0), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
        m.on_stage_start(StageId(5)); // ignored under job metric
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
        m.on_job_submit(JobId(1), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
    }

    #[test]
    fn purge_order_fires_once_per_rdd() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        m.on_job_submit(JobId(0), &profile(&[(0, &[1], &[0]), (1, &[5], &[0])]));
        m.on_stage_start(StageId(2));
        assert_eq!(m.take_purge_order(), vec![RddId(0)]);
        assert!(m.take_purge_order().is_empty());
        assert!(m.is_dead(RddId(0)));
        assert!(!m.is_dead(RddId(1)));
        m.on_stage_start(StageId(6));
        assert_eq!(m.take_purge_order(), vec![RddId(1)]);
    }

    #[test]
    fn monitor_sync_counts_broadcasts() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        let mut mon = CacheMonitor::new(NodeId(0));
        m.on_job_submit(JobId(0), &profile(&[(0, &[3], &[0])]));
        assert!(m.sync_monitor(&mut mon));
        assert!(!m.sync_monitor(&mut mon)); // already fresh
        assert_eq!(m.broadcasts(), 1);
        m.on_stage_start(StageId(1));
        assert!(m.sync_monitor(&mut mon));
        assert_eq!(m.broadcasts(), 2);
    }
}
