//! Simulation run reports.

use crate::faults::{FaultStats, StageAbort};
use refdist_dag::{BlockId, StageId};
use refdist_simcore::{SimDuration, SimTime};
use refdist_store::CacheStats;

/// Task-placement counters for one run: where the scheduler put tasks
/// relative to their data's home node. Remote placements only happen under
/// delay scheduling ([`crate::SimConfig::delay_scheduling_us`]) — a task
/// migrates off its home node only when the home queue keeps it waiting past
/// the delay bound, so a migration target is never the home node itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Tasks that ran on their partition's home node.
    pub home_placements: u64,
    /// Tasks delay-scheduled onto another node (paying remote reads).
    pub remote_placements: u64,
}

impl SchedStats {
    /// Sum another run's counters into this aggregate (serve mode folds the
    /// per-application placement counters into one cluster-level view).
    pub fn merge(&mut self, other: &SchedStats) {
        self.home_placements += other.home_placements;
        self.remote_placements += other.remote_placements;
    }
}

/// Everything the evaluation harness needs from one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Policy name (from [`refdist_policies::CachePolicy::name`]).
    pub policy: String,
    /// Job completion time of the whole application (makespan).
    pub jct: SimDuration,
    /// Cluster-aggregated cache statistics.
    pub stats: CacheStats,
    /// Task-placement counters (home vs delay-scheduled remote).
    pub sched: SchedStats,
    /// Per-node cache statistics: the application's counters on each node
    /// (`stats` is their sum).
    pub per_node: Vec<CacheStats>,
    /// Total task time spent waiting on input I/O.
    pub io_time: SimDuration,
    /// Total task compute time.
    pub compute_time: SimDuration,
    /// Per executed stage: (stage, start, end).
    pub stage_times: Vec<(StageId, SimTime, SimTime)>,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Fault accounting: retries, backoff time, fault-forced recomputes,
    /// crashes/rejoins, speculative wins/losses. All-zero when the run's
    /// [`crate::FaultPlan`] never fired.
    pub faults: FaultStats,
    /// Admissions this application consumed: always 1 for single-app runs
    /// and passive serve runs; >1 when serve-mode app-level retry
    /// re-admitted it; 0 for the placeholder report of a shed submission.
    pub app_attempts: u32,
    /// Set when some task exhausted its retry budget and the run stopped at
    /// that stage; later stages never executed and the report covers only
    /// the completed prefix.
    pub aborted: Option<StageAbort>,
    /// Global cached-block access trace, when requested
    /// ([`crate::SimConfig::collect_trace`]).
    pub trace: Option<Vec<BlockId>>,
    /// Per-task `(node, slot, start)` placements in execution order, when
    /// requested ([`crate::SimConfig::collect_placements`]).
    pub placements: Option<Vec<(u32, u32, SimTime)>>,
}

impl RunReport {
    /// Cluster-wide memory hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// JCT in seconds (for plots).
    pub fn jct_secs(&self) -> f64 {
        self.jct.as_secs_f64()
    }

    /// This run's JCT normalized against a baseline run (the paper reports
    /// everything as a fraction of LRU's JCT).
    pub fn normalized_jct(&self, baseline: &RunReport) -> f64 {
        let base = baseline.jct.micros();
        if base == 0 {
            1.0
        } else {
            self.jct.micros() as f64 / base as f64
        }
    }

    /// The stage timeline as CSV (`stage,job,start_s,end_s,duration_s`),
    /// ready for plotting.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("stage,start_s,end_s,duration_s\n");
        for (sid, start, end) in &self.stage_times {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                sid.0,
                start.as_secs_f64(),
                end.as_secs_f64(),
                (*end - *start).as_secs_f64()
            ));
        }
        out
    }

    /// Fraction of total task time spent waiting on input I/O.
    pub fn io_share(&self) -> f64 {
        let total = self.io_time.micros() + self.compute_time.micros();
        if total == 0 {
            0.0
        } else {
            self.io_time.micros() as f64 / total as f64
        }
    }

    /// One-line human-readable summary. Delay-scheduled remote placements
    /// (when any happened) and a nonzero bad-victim count (the policy
    /// selected non-resident victims; see [`CacheStats::bad_victims`]) are
    /// appended so scheduling behaviour and divergences are visible even in
    /// release builds.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} under {}: JCT {:.3}s, hit ratio {:.1}%, {} hits / {} misses, {} evictions, {} prefetches",
            self.app,
            self.policy,
            self.jct.as_secs_f64(),
            self.hit_ratio() * 100.0,
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions + self.stats.purges,
            self.stats.prefetches,
        );
        if self.sched.remote_placements > 0 {
            s.push_str(&format!(
                ", {} of {} tasks delay-scheduled remotely",
                self.sched.remote_placements,
                self.sched.home_placements + self.sched.remote_placements
            ));
        }
        if self.stats.bad_victims > 0 {
            s.push_str(&format!(
                ", {} BAD victim selections",
                self.stats.bad_victims
            ));
        }
        if !self.faults.is_empty() {
            let f = &self.faults;
            s.push_str(&format!(
                ", faults: {} task failures / {} retries, {} fetch + {} disk read failures, {} fault recomputes, {} crashes / {} rejoins, {} speculative ({} won)",
                f.task_failures,
                f.retries,
                f.fetch_failures,
                f.disk_failures,
                f.fault_recomputes,
                f.crashes,
                f.rejoins,
                f.spec_launched,
                f.spec_wins,
            ));
        }
        if let Some(a) = &self.aborted {
            s.push_str(&format!(
                " — ABORTED at stage {} (app {}, task {} failed {} attempts)",
                a.stage.0, a.app, a.task, a.attempts
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(jct_us: u64) -> RunReport {
        RunReport {
            app: "test".into(),
            policy: "LRU".into(),
            jct: SimDuration(jct_us),
            stats: CacheStats {
                hits: 9,
                misses: 1,
                ..Default::default()
            },
            sched: SchedStats::default(),
            per_node: vec![],
            io_time: SimDuration(0),
            compute_time: SimDuration(0),
            stage_times: vec![],
            tasks: 0,
            faults: FaultStats::default(),
            app_attempts: 1,
            aborted: None,
            trace: None,
            placements: None,
        }
    }

    #[test]
    fn normalized_jct() {
        let base = report(1_000_000);
        let half = report(500_000);
        assert!((half.normalized_jct(&base) - 0.5).abs() < 1e-12);
        assert_eq!(half.normalized_jct(&report(0)), 1.0);
    }

    #[test]
    fn hit_ratio_passthrough() {
        assert!((report(1).hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = report(2_000_000).summary();
        assert!(s.contains("2.000s"));
        assert!(s.contains("90.0%"));
        assert!(!s.contains("BAD"));
        assert!(!s.contains("delay-scheduled"));
    }

    #[test]
    fn summary_surfaces_remote_placements() {
        let mut r = report(1);
        r.sched.home_placements = 7;
        r.sched.remote_placements = 3;
        assert!(r
            .summary()
            .contains("3 of 10 tasks delay-scheduled remotely"));
    }

    #[test]
    fn sched_stats_merge_adds_fieldwise() {
        let mut acc = SchedStats {
            home_placements: 7,
            remote_placements: 3,
        };
        acc.merge(&SchedStats {
            home_placements: 2,
            remote_placements: 5,
        });
        assert_eq!((acc.home_placements, acc.remote_placements), (9, 8));
    }

    #[test]
    fn summary_surfaces_bad_victims() {
        let mut r = report(1);
        r.stats.bad_victims = 2;
        assert!(r.summary().contains("2 BAD victim selections"));
    }

    #[test]
    fn summary_stays_clean_without_faults() {
        let s = report(1).summary();
        assert!(!s.contains("faults:"));
        assert!(!s.contains("ABORTED"));
    }

    #[test]
    fn summary_surfaces_faults_and_aborts() {
        let mut r = report(1);
        r.faults.task_failures = 3;
        r.faults.retries = 2;
        r.faults.crashes = 1;
        r.aborted = Some(StageAbort {
            stage: StageId(4),
            app: 2,
            task: 7,
            attempts: 4,
        });
        let s = r.summary();
        assert!(s.contains("3 task failures / 2 retries"));
        assert!(s.contains("1 crashes / 0 rejoins"));
        assert!(s.contains("ABORTED at stage 4 (app 2, task 7 failed 4 attempts)"));
    }

    #[test]
    fn timeline_csv_format() {
        let mut r = report(10);
        r.stage_times = vec![
            (StageId(0), SimTime(0), SimTime(1_000_000)),
            (StageId(1), SimTime(1_000_000), SimTime(2_500_000)),
        ];
        let csv = r.timeline_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "stage,start_s,end_s,duration_s");
        assert_eq!(lines[1], "0,0.000000,1.000000,1.000000");
        assert_eq!(lines[2], "1,1.000000,2.500000,1.500000");
    }

    #[test]
    fn io_share_bounds() {
        let mut r = report(10);
        assert_eq!(r.io_share(), 0.0);
        r.io_time = SimDuration(300);
        r.compute_time = SimDuration(700);
        assert!((r.io_share() - 0.3).abs() < 1e-12);
    }
}
