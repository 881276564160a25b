//! Property tests shared by every cache policy: whatever event sequence a
//! policy observes, victim selection must stay sound.

use proptest::prelude::*;
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId};
use refdist_policies::{
    BeladyMinPolicy, CachePolicy, FifoPolicy, LrcPolicy, LruPolicy, MemTunePolicy, RandomPolicy,
};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

const NODE: NodeId = NodeId(0);

#[derive(Debug, Clone)]
enum Ev {
    Insert(u8),
    Access(u8),
    Remove(u8),
    Stage(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        any::<u8>().prop_map(Ev::Insert),
        any::<u8>().prop_map(Ev::Access),
        any::<u8>().prop_map(Ev::Remove),
        (0u8..32).prop_map(Ev::Stage),
    ]
}

fn blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32 % 12), b as u32 / 12)
}

/// The arena of every block `blk` can name: 12 RDDs x 22 partitions.
fn arena() -> Arc<BlockSlots> {
    Arc::new(BlockSlots::from_counts((0..12).map(|r| (RddId(r), 22))))
}

/// A profile where rdd r is referenced at stages r, r+3, r+6.
fn profile() -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    for r in 0..12u32 {
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                stages: vec![StageId(r), StageId(r + 3), StageId(r + 6)].into(),
                jobs: vec![
                    JobId(r / 4),
                    JobId((r + 3).div_ceil(4)),
                    JobId((r + 6).div_ceil(4)),
                ]
                .into(),
            },
        );
    }
    AppProfile {
        per_rdd,
        per_stage: vec![Default::default(); 40],
        stage_job: (0..40).map(|s| JobId(s / 4)).collect(),
        num_jobs: 10,
    }
}

fn drive(policy: &mut dyn CachePolicy, events: &[Ev], candidates: &[BlockId]) {
    let prof = profile();
    policy.attach_slots(&arena());
    policy.on_job_submit(JobId(0), &prof);
    let mut stage = 0u8;
    for ev in events {
        match ev {
            Ev::Insert(b) => policy.on_insert(NODE, blk(*b)),
            Ev::Access(b) => policy.on_access(NODE, blk(*b)),
            Ev::Remove(b) => policy.on_remove(NODE, blk(*b)),
            Ev::Stage(s) => {
                stage = stage.max(*s); // stages only move forward
                policy.on_stage_start(StageId(stage as u32), &prof);
            }
        }
        // After every event the policy must pick only from the candidates,
        // and must pick *something* when candidates exist.
        let v = policy.pick_victim(NODE, candidates);
        if candidates.is_empty() {
            assert!(v.is_none());
        } else {
            assert!(candidates.contains(&v.expect("victim from non-empty candidates")));
        }
        // Purge and prefetch suggestions also stay within their inputs.
        for b in policy.purge_candidates(candidates) {
            assert!(candidates.contains(&b));
        }
        for b in policy.prefetch_order(NODE, candidates) {
            assert!(candidates.contains(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_policies_pick_only_candidates(
        events in prop::collection::vec(ev_strategy(), 0..80),
        cands in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let candidates: Vec<BlockId> = {
            let mut v: Vec<BlockId> = cands.iter().map(|&b| blk(b)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let trace: Vec<BlockId> = (0..64u8).map(blk).collect();
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(LruPolicy::new()),
            Box::new(FifoPolicy::new()),
            Box::new(RandomPolicy::new(7)),
            Box::new(LrcPolicy::new()),
            Box::new(MemTunePolicy::new()),
            Box::new(BeladyMinPolicy::from_trace(&trace)),
        ];
        for p in &mut policies {
            drive(&mut **p, &events, &candidates);
        }
    }

    #[test]
    fn lrc_remaining_counts_never_underflow(
        events in prop::collection::vec(ev_strategy(), 0..120),
    ) {
        let mut p = LrcPolicy::new();
        p.attach_slots(&arena());
        p.on_job_submit(JobId(0), &profile());
        for ev in &events {
            match ev {
                Ev::Insert(b) => p.on_insert(NODE, blk(*b)),
                Ev::Access(b) => p.on_access(NODE, blk(*b)),
                Ev::Remove(b) => p.on_remove(NODE, blk(*b)),
                Ev::Stage(_) => {}
            }
        }
        // Saturation, never wraparound: all remaining counts <= 3 (the
        // profile's per-RDD total).
        for b in 0..=255u8 {
            assert!(p.remaining(blk(b)) <= 3);
        }
    }

    #[test]
    fn belady_is_stable_under_replay(
        accesses in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Replaying the exact trace leaves the oracle with nothing left.
        let trace: Vec<BlockId> = accesses.iter().map(|&b| blk(b)).collect();
        let mut p = BeladyMinPolicy::from_trace(&trace);
        for &b in &trace {
            p.on_access(NODE, b);
        }
        for &b in &trace {
            assert_eq!(p.next_use(b), None);
        }
    }
}
