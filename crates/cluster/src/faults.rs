//! Fault injection: scripted crash/slowdown events plus seeded stochastic
//! failure processes, and the per-run fault accounting.
//!
//! A [`FaultPlan`] rides on [`crate::SimConfig`] and describes everything
//! that can go wrong in a run:
//!
//! * **scripted crashes** ([`CrashEvent`]) — a node loses its memory cache
//!   and local disk at the start of a stage. With `rejoin_after: None` the
//!   executor is replaced immediately (the legacy `node_failure` shape);
//!   with `Some(k)` the node is *down* for `k` stages — its task slots are
//!   unavailable, tasks homed there run on the cluster-wide earliest slot —
//!   and then rejoins with cold caches, at which point the policy's
//!   [`refdist_policies::CachePolicy::on_node_join`] hook fires (for MRD:
//!   the manager re-issues the distance-table replica, paper §4.4);
//! * **slowdown windows** ([`Slowdown`]) — a node's compute runs `factor`×
//!   slower for a stage interval (transient noisy-neighbour effects);
//! * **wall-clock events** ([`TimedCrash`], [`TimedSlowdown`]) — the same
//!   two shapes indexed by simulated *time* instead of stage id. Stage ids
//!   are per-application, which makes stage-indexed events meaningless
//!   across a serve stream (each submission replays stages `0..n`, so a
//!   stage-indexed crash fires once per matching stage of *every* app);
//!   timed events fire against the cluster-wide clock high-water mark and
//!   hit whichever app happens to be running;
//! * **churn** ([`ChurnProcess`]) — a stochastic membership process: each
//!   node alternates exponentially distributed up (MTBF) and down (MTTR)
//!   intervals, drawn from a dedicated salted RNG stream (the fault-seed
//!   pattern) so churn timing is independent of every other random stream
//!   and of which applications the stream happens to contain;
//! * **stochastic processes** — per-task-attempt failure probability
//!   (failed attempts retry with capped exponential backoff up to
//!   [`FaultPlan::max_task_attempts`], then the run aborts), and per-fetch /
//!   per-disk-read failure probabilities (failed reads fall back to lineage
//!   recomputation, the paper's §4.4 recovery path);
//! * **speculative execution** — when [`FaultPlan::speculation_quantile`] is
//!   set, the slowest tail of each stage's tasks is re-launched on the
//!   cluster-wide earliest free slots and the first finisher wins.
//!
//! All stochastic draws come from a dedicated stream derived from the run's
//! master seed, separate from the compute-jitter stream, so (a) runs stay
//! byte-deterministic at any sweep thread count and (b) an empty plan leaves
//! the fault-free run byte-identical to a build without fault injection.

use refdist_dag::StageId;

/// One scripted executor loss.
///
/// **Serve-mode indexing:** stage ids are *per application* — every
/// submission in a serve stream replays local stages `0..n`. A
/// stage-indexed crash therefore fires at the first stage start whose local
/// id reaches `at_stage` (fire-once, tracked cluster-wide), i.e. against the
/// merged stream's stage numbering, not against any one submission. Which
/// submission that is depends only on arrival order and per-app stage
/// counts, both fixed by the seed — so a chaos seed replays the same fault
/// sequence (pinned by `chaos_fault_sequence_replays_from_the_seed` in
/// `differential_serve.rs` and the `pressure chaos` row of
/// `tests/golden/serve_equivalence.txt`).
/// For events that must not depend on stream composition at all, use
/// [`TimedCrash`]/[`ChurnProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Node that crashes.
    pub node: u32,
    /// Stage (by id) at whose start the crash happens.
    pub at_stage: u32,
    /// `None`: the executor is replaced immediately (storage wiped, slots
    /// keep running — the legacy `node_failure` shape). `Some(k)`: the node
    /// is down for `k` stages, then rejoins with cold caches.
    pub rejoin_after: Option<u32>,
}

/// A transient compute slowdown on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Affected node.
    pub node: u32,
    /// Compute-time multiplier (values below 1 are clamped to 1).
    pub factor: f64,
    /// First stage (by id) the slowdown applies to.
    pub from_stage: u32,
    /// Stage at which the slowdown ends (exclusive); `None` = permanent.
    pub until_stage: Option<u32>,
}

impl Slowdown {
    /// Whether the window covers `stage`.
    pub fn active_at(&self, stage: u32) -> bool {
        stage >= self.from_stage && self.until_stage.is_none_or(|u| stage < u)
    }
}

/// One scripted executor loss indexed by simulated wall-clock time instead
/// of stage id. In serve mode stage ids belong to whichever application is
/// running, so [`CrashEvent`] timing depends on stream composition; a
/// `TimedCrash` fires once, when the cluster clock's high-water mark first
/// reaches `at_time_us`, regardless of what is running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedCrash {
    /// Node that crashes.
    pub node: u32,
    /// Simulated time (microseconds) at which the crash fires. The engine
    /// checks at stage starts, so the effective firing point is the first
    /// stage boundary at or after this instant.
    pub at_time_us: u64,
    /// `None`: storage wiped, executor replaced immediately. `Some(d)`: the
    /// node is down for `d` microseconds of simulated time, then rejoins
    /// with cold caches.
    pub rejoin_after_us: Option<u64>,
}

/// A transient compute slowdown on one node over a wall-clock window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedSlowdown {
    /// Affected node.
    pub node: u32,
    /// Compute-time multiplier (values below 1 are clamped to 1).
    pub factor: f64,
    /// Start of the window, simulated microseconds.
    pub from_time_us: u64,
    /// End of the window (exclusive); `None` = permanent.
    pub until_time_us: Option<u64>,
}

impl TimedSlowdown {
    /// Whether the window covers the instant `t` (microseconds).
    pub fn active_at_time(&self, t: u64) -> bool {
        t >= self.from_time_us && self.until_time_us.is_none_or(|u| t < u)
    }
}

/// Continuous stochastic membership churn: every node alternates
/// exponentially distributed up intervals (mean [`ChurnProcess::mtbf_us`])
/// and down intervals (mean [`ChurnProcess::mttr_us`]). Failures wipe the
/// node's storage exactly like a scripted downtime crash; repairs rejoin it
/// cold. All draws come from a dedicated salted stream of the master seed,
/// so a given seed produces one fixed fault timeline no matter which
/// applications the run contains or which serve driver executes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    /// Mean time between failures per node, simulated microseconds.
    pub mtbf_us: u64,
    /// Mean time to repair per node, simulated microseconds.
    pub mttr_us: u64,
}

/// Everything that can go wrong in one run. `FaultPlan::default()` is the
/// empty plan: no events, zero probabilities, speculation off — runs are
/// byte-identical to a fault-free build (the differential tests prove it).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scripted executor losses, in any order.
    pub crashes: Vec<CrashEvent>,
    /// Transient compute slowdowns.
    pub slowdowns: Vec<Slowdown>,
    /// Wall-clock-indexed executor losses.
    pub timed_crashes: Vec<TimedCrash>,
    /// Wall-clock-indexed compute slowdowns.
    pub timed_slowdowns: Vec<TimedSlowdown>,
    /// Stochastic membership churn; `None` = nodes never churn.
    pub churn: Option<ChurnProcess>,
    /// Probability that a task attempt fails after doing its work.
    pub task_failure_p: f64,
    /// Probability that a remote-memory fetch fails mid-flight (the reader
    /// falls back to lineage recomputation).
    pub fetch_failure_p: f64,
    /// Probability that a disk read fails (ditto).
    pub disk_failure_p: f64,
    /// Attempts per task before the stage aborts (Spark's
    /// `spark.task.maxFailures`; minimum 1).
    pub max_task_attempts: u32,
    /// Base retry backoff in simulated microseconds; doubles per failure.
    pub retry_backoff_us: u64,
    /// Cap on the exponential backoff.
    pub max_backoff_us: u64,
    /// Speculative execution: fraction of a stage's tasks that must finish
    /// before copies of the still-running tail are launched on free slots
    /// (0 = off). The first finisher wins; the loser's slot time is still
    /// paid (the kill is not instantaneous).
    pub speculation_quantile: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            timed_crashes: Vec::new(),
            timed_slowdowns: Vec::new(),
            churn: None,
            task_failure_p: 0.0,
            fetch_failure_p: 0.0,
            disk_failure_p: 0.0,
            max_task_attempts: 4,
            retry_backoff_us: 250_000,
            max_backoff_us: 4_000_000,
            speculation_quantile: 0.0,
        }
    }
}

impl FaultPlan {
    /// No fault can occur under this plan (knob values are irrelevant when
    /// nothing triggers them).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.slowdowns.is_empty()
            && self.timed_crashes.is_empty()
            && self.timed_slowdowns.is_empty()
            && self.churn.is_none()
            && self.task_failure_p == 0.0
            && self.fetch_failure_p == 0.0
            && self.disk_failure_p == 0.0
            && self.speculation_quantile == 0.0
    }

    /// Sugar for the legacy `SimConfig::node_failure` shape: `node`'s
    /// storage is wiped at the start of stage `at_stage`, the executor is
    /// replaced immediately.
    pub fn node_failure(&mut self, node: u32, at_stage: u32) -> &mut Self {
        self.crashes.push(CrashEvent {
            node,
            at_stage,
            rejoin_after: None,
        });
        self
    }

    /// A crash at stage `at_stage` with the node down for `down_stages`
    /// stages before rejoining cold.
    pub fn crash_with_rejoin(&mut self, node: u32, at_stage: u32, down_stages: u32) -> &mut Self {
        self.crashes.push(CrashEvent {
            node,
            at_stage,
            rejoin_after: Some(down_stages),
        });
        self
    }

    /// A wall-clock crash at `at_time_us` with the node down for
    /// `down_us` microseconds before rejoining cold; `down_us = None` is
    /// the instant-replacement shape.
    pub fn timed_crash(&mut self, node: u32, at_time_us: u64, down_us: Option<u64>) -> &mut Self {
        self.timed_crashes.push(TimedCrash {
            node,
            at_time_us,
            rejoin_after_us: down_us,
        });
        self
    }

    /// A wall-clock slowdown window on `node`.
    pub fn timed_slowdown(
        &mut self,
        node: u32,
        factor: f64,
        from_time_us: u64,
        until_time_us: Option<u64>,
    ) -> &mut Self {
        self.timed_slowdowns.push(TimedSlowdown {
            node,
            factor,
            from_time_us,
            until_time_us,
        });
        self
    }

    /// Enable continuous membership churn with the given per-node mean
    /// up/down times (microseconds).
    pub fn node_churn(&mut self, mtbf_us: u64, mttr_us: u64) -> &mut Self {
        self.churn = Some(ChurnProcess { mtbf_us, mttr_us });
        self
    }

    /// Sugar for the legacy `SimConfig::slow_node` shape: a permanent
    /// straggler from stage 0.
    pub fn slow_node(&mut self, node: u32, factor: f64) -> &mut Self {
        self.slowdowns.push(Slowdown {
            node,
            factor,
            from_stage: 0,
            until_stage: None,
        });
        self
    }

    /// A purely stochastic plan for chaos sweeps: task attempts and fetches
    /// fail with probability `rate`, disk reads at half that, with the
    /// default retry budget. `rate = 0` gives an empty plan.
    pub fn chaos(rate: f64) -> Self {
        FaultPlan {
            task_failure_p: rate,
            fetch_failure_p: rate,
            disk_failure_p: rate / 2.0,
            ..Default::default()
        }
    }

    /// Combined compute-slowdown factor for `node` at `stage` — the product
    /// of every active window's (clamped) factor.
    pub fn slow_factor(&self, node: u32, stage: u32) -> f64 {
        let mut f = 1.0;
        for s in &self.slowdowns {
            if s.node == node && s.active_at(stage) {
                f *= s.factor.max(1.0);
            }
        }
        f
    }

    /// Combined wall-clock slowdown factor for `node` at instant `t`
    /// (microseconds) — the product of every active timed window's
    /// (clamped) factor.
    pub fn slow_factor_at_time(&self, node: u32, t: u64) -> f64 {
        let mut f = 1.0;
        for s in &self.timed_slowdowns {
            if s.node == node && s.active_at_time(t) {
                f *= s.factor.max(1.0);
            }
        }
        f
    }

    /// Backoff before retry number `failures` (1-based), capped.
    pub fn backoff_us(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(20);
        self.retry_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }

    /// Whether the engine must track the cluster-wide slot order: downtime
    /// crashes redirect homed tasks and speculation launches copies, both on
    /// the globally earliest slot.
    pub fn needs_global_slots(&self) -> bool {
        self.speculation_quantile > 0.0
            || self.crashes.iter().any(|c| c.rejoin_after.is_some())
            || self
                .timed_crashes
                .iter()
                .any(|c| c.rejoin_after_us.is_some())
            || self.churn.is_some()
    }

    /// Sanity-check the plan's knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("task_failure_p", self.task_failure_p),
            ("fetch_failure_p", self.fetch_failure_p),
            ("disk_failure_p", self.disk_failure_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if !(0.0..1.0).contains(&self.speculation_quantile) {
            return Err(format!(
                "speculation_quantile must be in [0, 1), got {}",
                self.speculation_quantile
            ));
        }
        if self.max_task_attempts == 0 {
            return Err("max_task_attempts must be at least 1".into());
        }
        if let Some(ch) = self.churn {
            if ch.mtbf_us == 0 || ch.mttr_us == 0 {
                return Err(format!(
                    "churn MTBF/MTTR must be nonzero, got {}/{}",
                    ch.mtbf_us, ch.mttr_us
                ));
            }
        }
        for s in &self.slowdowns {
            if !s.factor.is_finite() {
                return Err(format!("slowdown factor must be finite, got {}", s.factor));
            }
        }
        for s in &self.timed_slowdowns {
            if !s.factor.is_finite() {
                return Err(format!(
                    "timed slowdown factor must be finite, got {}",
                    s.factor
                ));
            }
        }
        Ok(())
    }
}

/// Fault accounting for one run, carried on
/// [`RunReport::faults`](crate::RunReport::faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Task attempts that failed (stochastic task failures).
    pub task_failures: u64,
    /// Failed attempts that were retried (failures minus any abort).
    pub retries: u64,
    /// Total simulated time spent in retry backoff, microseconds.
    pub backoff_us: u64,
    /// Remote-memory fetches that failed mid-flight.
    pub fetch_failures: u64,
    /// Disk reads that failed.
    pub disk_failures: u64,
    /// Lineage recomputations forced by failed fetches/disk reads (subset of
    /// `CacheStats::recomputes`).
    pub fault_recomputes: u64,
    /// Scripted crashes that fired.
    pub crashes: u64,
    /// Downed nodes that rejoined with cold caches.
    pub rejoins: u64,
    /// Speculative task copies launched.
    pub spec_launched: u64,
    /// Copies that beat the original attempt.
    pub spec_wins: u64,
    /// Copies that lost to the original attempt.
    pub spec_losses: u64,
    /// Stage aborts (a task exhausted its retry budget). At most 1 in a
    /// single-app run; in serve mode each application can abort once.
    pub aborts: u64,
}

impl FaultStats {
    /// True when no fault machinery fired at all.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Sum another run's counters into this aggregate (serve mode folds the
    /// per-application fault accounting into one cluster-level view).
    pub fn merge(&mut self, other: &FaultStats) {
        self.task_failures += other.task_failures;
        self.retries += other.retries;
        self.backoff_us += other.backoff_us;
        self.fetch_failures += other.fetch_failures;
        self.disk_failures += other.disk_failures;
        self.fault_recomputes += other.fault_recomputes;
        self.crashes += other.crashes;
        self.rejoins += other.rejoins;
        self.spec_launched += other.spec_launched;
        self.spec_wins += other.spec_wins;
        self.spec_losses += other.spec_losses;
        self.aborts += other.aborts;
    }
}

/// A stage abort: some task exhausted its retry budget. Carried on
/// [`RunReport::aborted`](crate::RunReport::aborted); the stages after the
/// failing one never ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageAbort {
    /// The stage that aborted.
    pub stage: StageId,
    /// The application (submission index) the stage belonged to. The
    /// engine records 0, which a solo run keeps; the serve driver stamps
    /// the submission index after the aborting stage, so the survivors'
    /// reports stay attributable.
    pub app: u32,
    /// The failing task's partition index.
    pub task: u32,
    /// Attempts consumed (== `max_task_attempts`).
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(!p.needs_global_slots());
        p.validate().unwrap();
        assert_eq!(p.slow_factor(0, 0), 1.0);
    }

    #[test]
    fn sugar_builds_equivalent_events() {
        let mut p = FaultPlan::default();
        p.node_failure(1, 4).slow_node(0, 8.0);
        assert_eq!(
            p.crashes,
            vec![CrashEvent {
                node: 1,
                at_stage: 4,
                rejoin_after: None
            }]
        );
        assert!(!p.is_empty());
        // Instant-replacement crashes never need the global slot order.
        assert!(!p.needs_global_slots());
        assert_eq!(p.slow_factor(0, 0), 8.0);
        assert_eq!(p.slow_factor(0, 99), 8.0);
        assert_eq!(p.slow_factor(1, 0), 1.0);
    }

    #[test]
    fn downtime_and_speculation_need_global_slots() {
        let mut p = FaultPlan::default();
        p.crash_with_rejoin(0, 2, 3);
        assert!(p.needs_global_slots());
        let spec = FaultPlan {
            speculation_quantile: 0.75,
            ..Default::default()
        };
        assert!(spec.needs_global_slots());
    }

    #[test]
    fn timed_events_and_churn_extend_the_plan() {
        let mut p = FaultPlan::default();
        p.timed_crash(0, 1_000_000, None);
        assert!(!p.is_empty());
        // Instant-replacement timed crashes never need the global slot order.
        assert!(!p.needs_global_slots());
        p.timed_crash(1, 2_000_000, Some(500_000));
        assert!(p.needs_global_slots());
        p.validate().unwrap();

        let mut c = FaultPlan::default();
        c.node_churn(10_000_000, 1_000_000);
        assert!(!c.is_empty());
        assert!(c.needs_global_slots());
        c.validate().unwrap();
    }

    #[test]
    fn timed_slowdown_windows_bound_correctly() {
        let mut p = FaultPlan::default();
        p.timed_slowdown(0, 3.0, 2_000, Some(5_000));
        assert_eq!(p.slow_factor_at_time(0, 1_999), 1.0);
        assert_eq!(p.slow_factor_at_time(0, 2_000), 3.0);
        assert_eq!(p.slow_factor_at_time(0, 4_999), 3.0);
        assert_eq!(p.slow_factor_at_time(0, 5_000), 1.0);
        assert_eq!(p.slow_factor_at_time(1, 3_000), 1.0);
        // Permanent window + sub-unity clamping.
        p.timed_slowdown(1, 0.5, 0, None);
        assert_eq!(p.slow_factor_at_time(1, 9_999_999), 1.0);
        assert!(!p.is_empty());
        assert!(!p.needs_global_slots());
    }

    #[test]
    fn validate_rejects_zero_churn_means() {
        let mut p = FaultPlan::default();
        p.node_churn(0, 1_000);
        assert!(p.validate().is_err());
        let mut p = FaultPlan::default();
        p.node_churn(1_000, 0);
        assert!(p.validate().is_err());
        let mut p = FaultPlan::default();
        p.timed_slowdown(0, f64::INFINITY, 0, None);
        assert!(p.validate().is_err());
    }

    #[test]
    fn slowdown_windows_bound_correctly() {
        let s = Slowdown {
            node: 0,
            factor: 3.0,
            from_stage: 2,
            until_stage: Some(5),
        };
        assert!(!s.active_at(1));
        assert!(s.active_at(2));
        assert!(s.active_at(4));
        assert!(!s.active_at(5));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = FaultPlan {
            retry_backoff_us: 1_000,
            max_backoff_us: 6_000,
            ..Default::default()
        };
        assert_eq!(p.backoff_us(1), 1_000);
        assert_eq!(p.backoff_us(2), 2_000);
        assert_eq!(p.backoff_us(3), 4_000);
        assert_eq!(p.backoff_us(4), 6_000);
        assert_eq!(p.backoff_us(40), 6_000);
    }

    #[test]
    fn chaos_scales_with_rate() {
        assert!(FaultPlan::chaos(0.0).is_empty());
        let p = FaultPlan::chaos(0.1);
        assert!(!p.is_empty());
        assert_eq!(p.task_failure_p, 0.1);
        assert_eq!(p.disk_failure_p, 0.05);
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let p = FaultPlan {
            task_failure_p: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            speculation_quantile: 1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            max_task_attempts: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        for factor in [f64::INFINITY, f64::NAN] {
            let mut p = FaultPlan::default();
            p.slow_node(0, factor);
            let e = p.validate().unwrap_err();
            assert!(e.starts_with("slowdown factor"), "{e}");
            let mut p = FaultPlan::default();
            p.timed_slowdown(0, factor, 0, None);
            let e = p.validate().unwrap_err();
            assert!(e.starts_with("timed slowdown factor"), "{e}");
        }
    }
}
