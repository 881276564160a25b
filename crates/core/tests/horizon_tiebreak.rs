//! Edge-case coverage for [`MrdConfig::prefetch_horizon`] and [`TieBreak`]
//! ordering, exercised through the public crate API (ISSUE satellite):
//!
//! * horizon `0` means *unlimited* — every finite-distance block is ranked;
//! * a horizon smaller than a block's stage distance excludes that block,
//!   while `distance == horizon` is still inside the window;
//! * `TieBreak::Mru` and `TieBreak::Lru` pick opposite victims among
//!   equal-distance blocks, and fall back to the lowest block id when
//!   recency also ties.

use refdist_core::{
    CacheMonitor, DistanceMetric, MrdConfig, MrdMode, MrdPolicy, MrdTable, RefDistance, TieBreak,
};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

const N: NodeId = NodeId(0);

fn blk(r: u32, p: u32) -> BlockId {
    BlockId::new(RddId(r), p)
}

/// An [`AppProfile`] where RDD `r` is referenced at the given stage numbers.
/// With the current stage at 0, an RDD referenced at stage `s` has stage
/// distance exactly `s`.
fn profile(entries: &[(u32, &[u32])]) -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    for &(r, stages) in entries {
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                stages: stages.iter().map(|&s| StageId(s)).collect(),
                jobs: stages.iter().map(|_| JobId(0)).collect(),
            },
        );
    }
    AppProfile {
        per_rdd,
        per_stage: vec![],
        stage_job: Vec::new().into(),
        num_jobs: 1,
    }
}

/// An MRD policy attached to a slot arena over rdds 0..3 x 1 partition,
/// as the drivers attach one before any other hook.
fn policy_with(cfg: MrdConfig, entries: &[(u32, &[u32])]) -> MrdPolicy {
    let mut p = MrdPolicy::new(cfg);
    p.attach_slots(&Arc::new(BlockSlots::from_counts((0..3).map(|r| (RddId(r), 1)))));
    p.on_job_submit(JobId(0), &profile(entries));
    p
}

fn monitor(entries: &[(u32, &[u32])]) -> CacheMonitor {
    let mut t = MrdTable::from_profile(DistanceMetric::Stage, &profile(entries));
    t.advance_to(0);
    let mut m = CacheMonitor::new(N);
    m.receive_table(&t);
    m
}

// ---------------------------------------------------------------------------
// prefetch_horizon
// ---------------------------------------------------------------------------

#[test]
fn default_config_has_bounded_horizon() {
    let cfg = MrdConfig::default();
    assert_eq!(cfg.prefetch_horizon, 6);
    assert_eq!(cfg.tie_break, TieBreak::Mru);
}

#[test]
fn horizon_zero_is_unlimited() {
    let cfg = MrdConfig {
        prefetch_horizon: 0,
        ..Default::default()
    };
    // Distances 3, 900, and infinity: an unlimited horizon ranks every
    // finite block (nearest first) and still never touches the infinite one.
    let mut p = policy_with(cfg, &[(0, &[900]), (1, &[3]), (2, &[])]);
    let order = p.prefetch_order(N, &[blk(0, 0), blk(1, 0), blk(2, 0)]);
    assert_eq!(order, vec![blk(1, 0), blk(0, 0)]);
}

#[test]
fn horizon_smaller_than_stage_distance_excludes_block() {
    // The block's stage distance is 7; a horizon of 6 must not prefetch it.
    let cfg = MrdConfig {
        prefetch_horizon: 6,
        ..Default::default()
    };
    let mut p = policy_with(cfg, &[(0, &[7])]);
    assert!(p.prefetch_order(N, &[blk(0, 0)]).is_empty());
}

#[test]
fn horizon_boundary_is_inclusive() {
    // distance == horizon is still inside the window (`d <= horizon`).
    let cfg = MrdConfig {
        prefetch_horizon: 6,
        ..Default::default()
    };
    let mut p = policy_with(cfg, &[(0, &[6])]);
    assert_eq!(p.prefetch_order(N, &[blk(0, 0)]), vec![blk(0, 0)]);
}

#[test]
fn horizon_one_keeps_only_imminent_blocks() {
    let cfg = MrdConfig {
        prefetch_horizon: 1,
        ..Default::default()
    };
    let mut p = policy_with(cfg, &[(0, &[1]), (1, &[2]), (2, &[5])]);
    let order = p.prefetch_order(N, &[blk(0, 0), blk(1, 0), blk(2, 0)]);
    assert_eq!(order, vec![blk(0, 0)]);
}

#[test]
fn monitor_applies_horizon_per_call() {
    // The same monitor state filtered at different horizons: the window is a
    // pure function of the argument, not cached state.
    let mut m = monitor(&[(0, &[2]), (1, &[4]), (2, &[8])]);
    let all = [blk(0, 0), blk(1, 0), blk(2, 0)];
    assert_eq!(m.prefetch_order(&all, 0), vec![blk(0, 0), blk(1, 0), blk(2, 0)]);
    assert_eq!(m.prefetch_order(&all, 4), vec![blk(0, 0), blk(1, 0)]);
    assert_eq!(m.prefetch_order(&all, 1), Vec::<BlockId>::new());
}

#[test]
fn horizon_window_tracks_stage_progress() {
    // A block outside the horizon drifts into it as stages complete and its
    // distance shrinks.
    let entries: &[(u32, &[u32])] = &[(0, &[8])];
    let mut t = MrdTable::from_profile(DistanceMetric::Stage, &profile(entries));
    t.advance_to(0);
    let mut m = CacheMonitor::new(N);
    m.receive_table(&t);
    assert_eq!(m.distance(blk(0, 0)), RefDistance::Finite(8));
    assert!(m.prefetch_order(&[blk(0, 0)], 6).is_empty());

    t.advance_to(4);
    m.receive_table(&t);
    assert_eq!(m.distance(blk(0, 0)), RefDistance::Finite(4));
    assert_eq!(m.prefetch_order(&[blk(0, 0)], 6), vec![blk(0, 0)]);
}

// ---------------------------------------------------------------------------
// TieBreak ordering
// ---------------------------------------------------------------------------

/// A monitor holding two equal-distance blocks where `blk(0,0)` was touched
/// first and `blk(1,0)` most recently.
fn tied_monitor() -> CacheMonitor {
    let mut m = monitor(&[(0, &[5]), (1, &[5])]);
    m.touch(blk(0, 0));
    m.touch(blk(1, 0));
    m
}

#[test]
fn mru_and_lru_pick_opposite_victims_on_ties() {
    let m = tied_monitor();
    let cands = [blk(0, 0), blk(1, 0)];
    // MRU evicts the most recently touched block, LRU the least recent.
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Mru), Some(blk(1, 0)));
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Lru), Some(blk(0, 0)));
}

#[test]
fn tiebreak_is_irrelevant_when_distances_differ() {
    let mut m = monitor(&[(0, &[3]), (1, &[9])]);
    m.touch(blk(0, 0));
    m.touch(blk(1, 0));
    let cands = [blk(0, 0), blk(1, 0)];
    // The farther block loses under either rule; recency never enters.
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Mru), Some(blk(1, 0)));
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Lru), Some(blk(1, 0)));
}

#[test]
fn equal_recency_falls_back_to_lowest_id() {
    // No touches at all: distance and recency both tie, so the victim is the
    // lowest block id under both rules — fully deterministic.
    let m = monitor(&[(0, &[5]), (1, &[5])]);
    let cands = [blk(1, 0), blk(0, 0)];
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Mru), Some(blk(0, 0)));
    assert_eq!(m.pick_victim_with(&cands, TieBreak::Lru), Some(blk(0, 0)));
}

#[test]
fn policy_routes_configured_tiebreak_to_monitor() {
    // The same insert sequence under the two configs: MrdPolicy must forward
    // its configured rule, so the victims come out opposite.
    for (tie, expect) in [(TieBreak::Mru, blk(1, 0)), (TieBreak::Lru, blk(0, 0))] {
        let cfg = MrdConfig {
            mode: MrdMode::EvictOnly,
            tie_break: tie,
            ..Default::default()
        };
        let mut p = policy_with(cfg, &[(0, &[5]), (1, &[5])]);
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        assert_eq!(p.pick_victim(N, &[blk(0, 0), blk(1, 0)]), Some(expect), "{tie:?}");
    }
}
