//! Cache hot-path benchmark harness, shared by the `victim_selection`
//! criterion bench, the `bench_cache` binary and the churn determinism test
//! in `tests/determinism.rs`: [`Churn`] is a steady-state eviction churn
//! driver — a full cache of `n` unit-size blocks where every step inserts
//! one block and must evict one first. Step cost is dominated by victim
//! selection, so `ns/step` measures a policy's victim index directly.

use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId, StageTouches};
use refdist_policies::{CachePolicy, PolicyKind};
use refdist_store::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The single node the churn driver runs on.
pub const NODE: NodeId = NodeId(0);

/// Number of distinct RDDs the churn block universe is spread over.
const RDDS: u32 = 64;

/// How often the driver advances the stage clock (exercises the MRD table
/// broadcast / lazy-rebuild path without dominating the churn cost).
const STAGE_PERIOD: u64 = 2048;

/// Constructor for one benched policy instance.
pub type PolicyBuilder = fn() -> Box<dyn CachePolicy>;

/// Policies the cache benches compare, by display name.
pub fn bench_policies() -> Vec<(&'static str, PolicyBuilder)> {
    vec![
        ("LRU", || PolicyKind::Lru.build()),
        ("FIFO", || PolicyKind::Fifo.build()),
        ("LRC", || PolicyKind::Lrc.build()),
        ("MemTune", || PolicyKind::MemTune.build()),
        ("MRD", || {
            Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::Full,
                metric: DistanceMetric::Stage,
                ..Default::default()
            }))
        }),
    ]
}

/// A profile covering the churn block universe: RDD r is referenced at three
/// stages derived from r, so MRD sees a mix of finite and infinite
/// distances, LRC sees varied reference counts, and MemTune sees a rolling
/// needed-window.
fn churn_profile() -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    let mut per_stage = vec![StageTouches::default(); 40];
    for r in 0..RDDS {
        let base = r % 16;
        let stages = [base, base + 3, base + 9];
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                stages: stages.iter().map(|&s| StageId(s)).collect(),
                jobs: stages.iter().map(|&s| JobId(s / 5)).collect(),
            },
        );
        for &s in &stages {
            per_stage[s as usize].reads.push(RddId(r));
        }
    }
    AppProfile {
        per_rdd,
        per_stage,
        stage_job: (0..40).map(|s| JobId(s / 5)).collect(),
        num_jobs: 8,
    }
}

/// Steady-state eviction churn driver for one policy instance.
///
/// The cache starts full with `n` unit-size blocks; every [`Churn::step`]
/// touches one recently inserted block, then inserts the oldest evicted
/// block back, which forces exactly one eviction through
/// [`CachePolicy::select_victims`]. Residency stays at `n` forever, so each
/// step is one complete insert-under-pressure event — the hot path the
/// runtime's `free_up` drives.
pub struct Churn {
    policy: Box<dyn CachePolicy>,
    resident: BTreeMap<BlockId, u64>,
    spare: VecDeque<BlockId>,
    recent: Vec<BlockId>,
    profile: AppProfile,
    steps: u64,
    stage: u32,
    rng: u64,
}

impl Churn {
    /// A churn driver over `n` resident blocks (plus an `n/4` spare pool).
    /// The policy is offered a [`BlockSlots`] arena covering the whole
    /// churn universe before any other hook, exactly as the runtime does.
    pub fn new(build: fn() -> Box<dyn CachePolicy>, n: usize) -> Self {
        let mut policy = build();
        let universe = n + (n / 4).max(1);
        let parts = universe.div_ceil(RDDS as usize) as u32;
        let arena = Arc::new(BlockSlots::from_counts((0..RDDS).map(|r| (RddId(r), parts))));
        policy.attach_slots(&arena);
        let profile = churn_profile();
        policy.on_job_submit(JobId(0), &profile);
        policy.on_stage_start(StageId(0), &profile);
        let mut resident = BTreeMap::new();
        let mut spare = VecDeque::new();
        for i in 0..universe {
            let b = BlockId::new(RddId(i as u32 % RDDS), (i / RDDS as usize) as u32);
            if i < n {
                resident.insert(b, 1);
                policy.on_insert(NODE, b);
            } else {
                spare.push_back(b);
            }
        }
        Churn {
            policy,
            resident,
            spare,
            recent: Vec::with_capacity(64),
            profile,
            steps: 0,
            stage: 0,
            rng: 0x9e3779b97f4a7c15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64: deterministic, cheap, state in one word.
        self.rng = self.rng.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// One churn step: occasional stage advance, one access, one
    /// insert-under-pressure (evicting exactly one block). Returns the
    /// victim so callers can check protocol equivalence.
    pub fn step(&mut self) -> BlockId {
        self.steps += 1;
        if self.steps.is_multiple_of(STAGE_PERIOD) && self.stage < 39 {
            self.stage += 1;
            self.policy.on_stage_start(StageId(self.stage), &self.profile);
        }
        if !self.recent.is_empty() {
            let idx = self.next_rand() as usize % self.recent.len();
            let touched = self.recent[idx];
            if self.resident.contains_key(&touched) {
                self.policy.on_access(NODE, touched);
            }
        }
        let incoming = self.spare.pop_front().expect("spare pool never empties");
        let victims = self.policy.select_victims(NODE, 1, &self.resident);
        let &victim = victims.first().expect("a full cache always has a victim");
        for &v in &victims {
            assert!(self.resident.remove(&v).is_some(), "non-resident victim");
            self.policy.on_remove(NODE, v);
            self.spare.push_back(v);
        }
        self.resident.insert(incoming, 1);
        self.policy.on_insert(NODE, incoming);
        if self.recent.len() < 64 {
            self.recent.push(incoming);
        } else {
            self.recent[(self.steps % 64) as usize] = incoming;
        }
        victim
    }

    /// Number of resident blocks (constant across steps).
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty (never, after construction with n > 0).
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_residency_constant() {
        let (_, build) = bench_policies()[0];
        let mut c = Churn::new(build, 100);
        for _ in 0..300 {
            c.step();
        }
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
    }
}
