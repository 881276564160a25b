//! Differential property test for MRD: the monitor's ordered victim index
//! (with its lazy rebuild on table-version bumps) must reproduce the naive
//! `pick_victim_with` scan byte-for-byte — across all three operating
//! modes, both tie-break rules, and both distance metrics, under randomized
//! traces that interleave table advances (stage/job events) with inserts,
//! accesses, removals, and evictions on two nodes.
//!
//! Both sides get a slot arena over every block the traces touch, attached
//! before any other hook, as the drivers attach one.

use proptest::prelude::*;
use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy, TieBreak};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId, StageTouches};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

const NODES: u32 = 2;

#[derive(Debug, Clone)]
enum Ev {
    Insert(u8, u8),
    Access(u8, u8),
    Remove(u8, u8),
    Evict(u8, u8),
    Stage(u8),
    Job(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Insert(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Insert(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Access(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Remove(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, n)| Ev::Evict(s, n)),
        (0u8..20).prop_map(Ev::Stage),
        (0u8..5).prop_map(Ev::Job),
    ]
}

fn blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32 % 8), (b as u32 / 8) % 4)
}

fn node(n: u8) -> NodeId {
    NodeId(n as u32 % NODES)
}

fn size_of(b: BlockId) -> u64 {
    u64::from(b.rdd.0 + b.partition) % 3 + 1
}

/// RDD r referenced at stages r, r+2, r+5; some RDDs go infinite early so
/// both finite and infinite distances appear in the index.
fn profile() -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    let mut per_stage = vec![StageTouches::default(); 28];
    for r in 0..8u32 {
        let stages = [r, r + 2, r + 5];
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                stages: stages.iter().map(|&s| StageId(s)).collect(),
                jobs: stages.iter().map(|&s| JobId(s / 4)).collect(),
            },
        );
        for &s in &stages {
            per_stage[s as usize].reads.push(RddId(r));
        }
    }
    AppProfile {
        per_rdd,
        per_stage,
        stage_job: (0..28).map(|s| JobId(s / 4)).collect(),
        num_jobs: 7,
    }
}

/// The old protocol: sorted-scan pick, on_remove, repeat.
fn naive_select(
    policy: &mut MrdPolicy,
    n: NodeId,
    shortfall: u64,
    resident: &mut BTreeMap<BlockId, u64>,
) -> Vec<BlockId> {
    let mut victims = Vec::new();
    let mut freed = 0u64;
    while freed < shortfall {
        let cands: Vec<BlockId> = resident.keys().copied().collect();
        if cands.is_empty() {
            break;
        }
        let Some(v) = policy.pick_victim(n, &cands) else {
            break;
        };
        let size = resident.remove(&v).expect("victim must be a candidate");
        policy.on_remove(n, v);
        freed += size;
        victims.push(v);
    }
    victims
}

fn batched_select(
    policy: &mut MrdPolicy,
    n: NodeId,
    shortfall: u64,
    resident: &mut BTreeMap<BlockId, u64>,
) -> Vec<BlockId> {
    let victims = policy.select_victims(n, shortfall, resident);
    for &v in &victims {
        assert!(
            resident.remove(&v).is_some(),
            "selected non-resident victim {v}"
        );
        policy.on_remove(n, v);
    }
    victims
}

/// Drive a naive and a batched MRD policy of `cfg`, both attached to
/// `slots`, through `events`.
fn assert_equivalent(cfg: MrdConfig, slots: &Arc<BlockSlots>, events: &[Ev]) {
    let prof = profile();
    let mut reference = MrdPolicy::new(cfg);
    let mut indexed = MrdPolicy::new(cfg);
    reference.attach_slots(slots);
    indexed.attach_slots(slots);
    let mut ra: Vec<BTreeMap<BlockId, u64>> = (0..NODES).map(|_| BTreeMap::new()).collect();
    let mut rb = ra.clone();
    reference.on_job_submit(JobId(0), &prof);
    indexed.on_job_submit(JobId(0), &prof);
    let mut stage = 0u8;
    for ev in events {
        match *ev {
            Ev::Insert(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                ra[n.0 as usize].insert(b, size_of(b));
                rb[n.0 as usize].insert(b, size_of(b));
                reference.on_insert(n, b);
                indexed.on_insert(n, b);
            }
            Ev::Access(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                reference.on_access(n, b);
                indexed.on_access(n, b);
            }
            Ev::Remove(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                if ra[n.0 as usize].remove(&b).is_some() {
                    rb[n.0 as usize].remove(&b).expect("mirrors agree");
                    reference.on_remove(n, b);
                    indexed.on_remove(n, b);
                }
            }
            Ev::Evict(s, nn) => {
                let n = node(nn);
                let shortfall = u64::from(s) % 9 + 1;
                let va = naive_select(&mut reference, n, shortfall, &mut ra[n.0 as usize]);
                let vb = batched_select(&mut indexed, n, shortfall, &mut rb[n.0 as usize]);
                assert_eq!(
                    va,
                    vb,
                    "victim sequences diverged ({}, tie {:?}, node {n:?}, shortfall {shortfall})",
                    reference.name(),
                    cfg.tie_break,
                );
            }
            Ev::Stage(s) => {
                stage = stage.max(s);
                reference.on_stage_start(StageId(stage as u32), &prof);
                indexed.on_stage_start(StageId(stage as u32), &prof);
            }
            Ev::Job(j) => {
                reference.on_job_submit(JobId(j as u32), &prof);
                indexed.on_job_submit(JobId(j as u32), &prof);
            }
        }
        assert_eq!(ra, rb, "resident mirrors diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_mrd_matches_naive_scan(
        events in prop::collection::vec(ev_strategy(), 0..100),
    ) {
        // 8 RDDs x 4 partitions: every block `blk` can name.
        let slots = Arc::new(BlockSlots::from_counts((0..8).map(|r| (RddId(r), 4))));
        for mode in [MrdMode::Full, MrdMode::EvictOnly, MrdMode::PrefetchOnly] {
            for tie in [TieBreak::Mru, TieBreak::Lru] {
                for metric in [DistanceMetric::Stage, DistanceMetric::Job] {
                    let cfg = MrdConfig { mode, metric, tie_break: tie, ..Default::default() };
                    assert_equivalent(cfg, &slots, &events);
                }
            }
        }
    }
}
