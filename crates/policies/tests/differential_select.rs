//! Differential property test: for every policy, the indexed
//! `select_victims` batch must produce the *identical* victim sequence as
//! the pre-index protocol — a naive sorted-scan `pick_victim` per victim
//! with `on_remove` notifications in between, exactly as the old
//! `Engine::evict_one` loop drove it. Randomized multi-node traces including
//! cross-node block copies (the orphan-rekey edge case) must not produce a
//! single divergent victim.
//!
//! Both sides get a slot arena over every block the traces touch, attached
//! before any other hook, as the drivers attach one.

use proptest::prelude::*;
use refdist_dag::{
    AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId, StageTouches,
};
use refdist_policies::{
    BeladyMinPolicy, CachePolicy, FifoPolicy, LrcPolicy, LruPolicy, MemTunePolicy, RandomPolicy,
};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

const NODES: u32 = 2;

#[derive(Debug, Clone)]
enum Ev {
    /// Insert block b on node n (size derived from b).
    Insert(u8, u8),
    /// Access block b on node n.
    Access(u8, u8),
    /// Remove block b from node n (if resident there).
    Remove(u8, u8),
    /// Evict until `shortfall` bytes are freed on node n.
    Evict(u8, u8),
    /// Advance to a stage (monotone).
    Stage(u8),
    /// Submit a job, revealing the profile again (LRC rekey-all path).
    Job(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Insert(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Insert(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Access(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(b, n)| Ev::Remove(b, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, n)| Ev::Evict(s, n)),
        (0u8..24).prop_map(Ev::Stage),
        (0u8..6).prop_map(Ev::Job),
    ]
}

fn blk(b: u8) -> BlockId {
    // 8 RDDs x 4 partitions: small enough that traces collide on blocks and
    // cross-node copies actually happen.
    BlockId::new(RddId(b as u32 % 8), (b as u32 / 8) % 4)
}

fn node(n: u8) -> NodeId {
    NodeId(n as u32 % NODES)
}

fn size_of(b: BlockId) -> u64 {
    // Deterministic, uneven sizes so shortfall accumulation is exercised.
    u64::from(b.rdd.0 + b.partition) % 3 + 1
}

/// A profile where rdd r is referenced at stages r, r+2, r+5 (and a stage
/// window for MemTune); `Job` events re-submit it, which is LRC's rekey-all
/// path and MRD's broadcast path.
fn profile() -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    let mut per_stage = vec![StageTouches::default(); 32];
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
        stage_job: (0..32).map(|s| JobId(s / 4)).collect(),
        num_jobs: 8,
    }
}

/// Per-node resident sets, mirrored for one policy instance.
struct Cluster {
    resident: Vec<BTreeMap<BlockId, u64>>,
}

impl Cluster {
    fn new() -> Self {
        Cluster {
            resident: (0..NODES).map(|_| BTreeMap::new()).collect(),
        }
    }

    fn at(&mut self, n: NodeId) -> &mut BTreeMap<BlockId, u64> {
        &mut self.resident[n.0 as usize]
    }
}

/// The pre-index eviction protocol, verbatim: re-collect sorted candidates,
/// ask for ONE victim, notify `on_remove`, repeat until the shortfall is
/// covered or the policy gives up.
fn naive_select(
    policy: &mut dyn CachePolicy,
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

/// The batched protocol the runtime uses now.
fn batched_select(
    policy: &mut dyn CachePolicy,
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

/// Drive `reference` through the naive protocol and `indexed` through the
/// batched one with an identical event stream; every eviction must produce
/// the same victim sequence.
fn assert_equivalent(
    mut reference: Box<dyn CachePolicy>,
    mut indexed: Box<dyn CachePolicy>,
    events: &[Ev],
) {
    let prof = profile();
    let mut ca = Cluster::new();
    let mut cb = Cluster::new();
    reference.on_job_submit(JobId(0), &prof);
    indexed.on_job_submit(JobId(0), &prof);
    let mut stage = 0u8;
    for ev in events {
        match *ev {
            Ev::Insert(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                for (p, c) in [(&mut reference, &mut ca), (&mut indexed, &mut cb)] {
                    c.at(n).insert(b, size_of(b));
                    p.on_insert(n, b);
                }
            }
            Ev::Access(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                reference.on_access(n, b);
                indexed.on_access(n, b);
            }
            Ev::Remove(b, nn) => {
                let (b, n) = (blk(b), node(nn));
                // Only resident blocks can leave memory (a store-level fact
                // both mirrors share).
                if ca.at(n).remove(&b).is_some() {
                    cb.at(n).remove(&b).expect("mirrors agree on residency");
                    reference.on_remove(n, b);
                    indexed.on_remove(n, b);
                }
            }
            Ev::Evict(s, nn) => {
                let n = node(nn);
                let shortfall = u64::from(s) % 9 + 1;
                let va = naive_select(reference.as_mut(), n, shortfall, ca.at(n));
                let vb = batched_select(indexed.as_mut(), n, shortfall, cb.at(n));
                assert_eq!(
                    va, vb,
                    "victim sequences diverged (policy {}, node {n:?}, shortfall {shortfall})",
                    reference.name(),
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
        assert_eq!(ca.resident, cb.resident, "resident mirrors diverged");
    }
}

/// The arena of every block `blk` can name: 8 RDDs x 4 partitions.
fn arena() -> Arc<BlockSlots> {
    Arc::new(BlockSlots::from_counts((0..8).map(|r| (RddId(r), 4))))
}

/// Two identical policies of `kind`, both attached to `slots`.
fn fresh_pair(kind: &str, slots: &Arc<BlockSlots>) -> (Box<dyn CachePolicy>, Box<dyn CachePolicy>) {
    let build = |kind: &str| -> Box<dyn CachePolicy> {
        let trace: Vec<BlockId> = (0..96u8).map(blk).collect();
        let mut policy: Box<dyn CachePolicy> = match kind {
            "lru" => Box::new(LruPolicy::new()),
            "fifo" => Box::new(FifoPolicy::new()),
            "lrc" => Box::new(LrcPolicy::new()),
            "memtune" => Box::new(MemTunePolicy::new()),
            // Same seed on both sides: the default select_victims must
            // consume the RNG exactly like repeated pick_victim calls did.
            "random" => Box::new(RandomPolicy::new(0xfeed)),
            "belady" => Box::new(BeladyMinPolicy::from_trace(&trace)),
            _ => unreachable!(),
        };
        policy.attach_slots(slots);
        policy
    };
    (build(kind), build(kind))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_select_matches_naive_scan(
        events in prop::collection::vec(ev_strategy(), 0..120),
    ) {
        let slots = arena();
        for kind in ["lru", "fifo", "lrc", "memtune", "random", "belady"] {
            let (reference, indexed) = fresh_pair(kind, &slots);
            assert_equivalent(reference, indexed, &events);
        }
    }
}
