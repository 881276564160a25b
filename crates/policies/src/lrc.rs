//! Least Reference Count (LRC) — Yu et al., INFOCOM 2017.
//!
//! Traverses the DAG and counts the references to each data block; as the
//! application runs, each access decrements the block's remaining count, and
//! eviction removes the block with the lowest count. Blocks with zero
//! remaining references are dead and evict first.
//!
//! The paper (§2, §3.3) points out LRC's weakness that MRD fixes: a block
//! with many references *far in the future* keeps a high count and squats in
//! the cache, while a block with a single *imminent* reference is evicted.
//! This implementation follows the LRC paper's mechanism so that weakness is
//! faithfully reproduced (see `lrc_keeps_far_future_block` below).

use crate::index::VictimIndex;
use crate::CachePolicy;
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, SlotMap, StageId};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// LRC's eviction rank: lowest remaining count, then least recent, then id.
type LrcKey = (u32, u64);

/// Total DAG references per RDD over the span of every profile seen so far
/// (`base..base + refs.len()`); 0 outside it.
#[derive(Debug, Default)]
struct RefTotals {
    base: u32,
    refs: Vec<u32>,
}

impl RefTotals {
    fn get(&self, rdd: RddId) -> u32 {
        rdd.0
            .checked_sub(self.base)
            .and_then(|i| self.refs.get(i as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Take `visible`'s counts; RDDs it does not list keep theirs.
    fn update(&mut self, visible: &AppProfile) {
        let (Some((lo, _)), Some((hi, _))) = (
            visible.per_rdd.first_key_value(),
            visible.per_rdd.last_key_value(),
        ) else {
            return;
        };
        if self.refs.is_empty() {
            self.base = lo.0;
        } else if lo.0 < self.base {
            let grow = (self.base - lo.0) as usize;
            self.refs.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = lo.0;
        }
        let end = (hi.0 - self.base) as usize + 1;
        if end > self.refs.len() {
            self.refs.resize(end, 0);
        }
        for (rdd, refs) in &visible.per_rdd {
            self.refs[(rdd.0 - self.base) as usize] = refs.count() as u32;
        }
    }
}

/// Least Reference Count eviction.
///
/// A resident block's last touch is the second half of its
/// [`VictimIndex`] key, so the index holds the only copy.
#[derive(Debug, Default)]
pub struct LrcPolicy {
    /// Total references per RDD, from the DAG profile.
    total_refs: RefTotals,
    /// References already consumed, per block. Outlives residency: a block
    /// recomputed later has still spent its past references.
    consumed: SlotMap<u32>,
    /// Logical clock for LRU tie-breaking among equal counts.
    clock: u64,
    index: VictimIndex<LrcKey>,
}

/// `total - consumed`, saturating: over-consumption reads as dead.
fn remaining(totals: &RefTotals, consumed: &SlotMap<u32>, block: BlockId) -> u32 {
    let used = consumed.get(block).copied().unwrap_or(0);
    totals.get(block.rdd).saturating_sub(used)
}

impl LrcPolicy {
    /// New LRC policy; reference counts arrive via `on_job_submit`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remaining reference count of a block.
    pub fn remaining(&self, block: BlockId) -> u32 {
        remaining(&self.total_refs, &self.consumed, block)
    }

    /// Consume one of `block`'s references and touch it: its new key.
    fn consume(&mut self, block: BlockId) -> LrcKey {
        match self.consumed.get_mut(block) {
            Some(used) => *used += 1,
            None => {
                self.consumed.insert(block, 1);
            }
        }
        self.clock += 1;
        (self.remaining(block), self.clock)
    }
}

impl CachePolicy for LrcPolicy {
    fn name(&self) -> String {
        "LRC".into()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        debug_assert!(self.consumed.is_empty(), "slot arena attached after a consume");
        self.consumed = SlotMap::new(Arc::clone(slots));
        self.index.attach_slots(slots);
    }

    fn on_job_submit(&mut self, _job: JobId, visible: &AppProfile) {
        // Counts are refreshed from the currently visible profile; consumed
        // references stay, so remaining = visible total - consumed.
        self.total_refs.update(visible);
        // A profile refresh can change every block's remaining count at once.
        let (totals, consumed) = (&self.total_refs, &self.consumed);
        self.index
            .rekey_all(|b, (_, touch)| (remaining(totals, consumed, b), touch));
    }

    fn on_stage_start(&mut self, _stage: StageId, _visible: &AppProfile) {}

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        // Creation is the block's first reference; it is consumed by the act
        // of computing the block. Consuming a reference changes the rank of
        // every copy of the block, which `insert` re-keys.
        let key = self.consume(block);
        self.index.insert(node, block, key);
    }

    fn on_access(&mut self, _node: NodeId, block: BlockId) {
        let key = self.consume(block);
        self.index.rekey(block, key);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        // A surviving copy keeps its remaining count but loses recency.
        let orphan = (self.remaining(block), 0);
        self.index.remove(node, block, orphan);
    }

    fn pick_victim(&mut self, _node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        candidates.iter().copied().min_by_key(|&b| {
            let touch = self.index.key(b).map_or(0, |(_, t)| t);
            (self.remaining(b), touch, b)
        })
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        self.index.select(node, shortfall, resident)
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        // Zero remaining references = dead data; LRC drops it eagerly.
        in_memory
            .iter()
            .copied()
            .filter(|&b| self.remaining(b) == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::attached;
    use refdist_dag::RddRefs;
    use std::collections::BTreeMap;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    const N: NodeId = NodeId(0);

    /// Profile stub: rdd -> reference stages.
    fn profile(entries: &[(u32, &[u32])]) -> AppProfile {
        let mut per_rdd = BTreeMap::new();
        let mut max_stage = 0;
        for &(r, stages) in entries {
            per_rdd.insert(
                RddId(r),
                RddRefs {
                    rdd: RddId(r),
                    stages: stages.iter().map(|&s| StageId(s)).collect(),
                    jobs: stages.iter().map(|_| JobId(0)).collect(),
                },
            );
            max_stage = max_stage.max(stages.iter().copied().max().unwrap_or(0));
        }
        AppProfile {
            per_rdd,
            per_stage: vec![Default::default(); max_stage as usize + 1],
            stage_job: vec![JobId(0); max_stage as usize + 1].into(),
            num_jobs: 1,
        }
    }

    #[test]
    fn counts_initialize_from_profile() {
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0, 2, 4]), (1, &[1])]));
        assert_eq!(p.remaining(blk(0, 0)), 3);
        assert_eq!(p.remaining(blk(1, 0)), 1);
        assert_eq!(p.remaining(blk(9, 0)), 0); // unknown rdd
    }

    #[test]
    fn insert_and_access_consume_references() {
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0, 2, 4])]));
        p.on_insert(N, blk(0, 0));
        assert_eq!(p.remaining(blk(0, 0)), 2);
        p.on_access(N, blk(0, 0));
        assert_eq!(p.remaining(blk(0, 0)), 1);
        p.on_access(N, blk(0, 0));
        assert_eq!(p.remaining(blk(0, 0)), 0);
        p.on_access(N, blk(0, 0)); // over-consumption saturates
        assert_eq!(p.remaining(blk(0, 0)), 0);
    }

    #[test]
    fn evicts_lowest_count() {
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0, 2, 4, 6]), (1, &[1, 3])]));
        p.on_insert(N, blk(0, 0)); // remaining 3
        p.on_insert(N, blk(1, 0)); // remaining 1
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }

    #[test]
    fn lrc_keeps_far_future_block() {
        // The pathology MRD fixes (paper §3.3, RDD22 example): a block with
        // many far-future references beats a block with one imminent
        // reference under LRC.
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0, 90, 95, 99]), (1, &[1, 2])]));
        p.on_insert(N, blk(0, 0)); // 3 remaining, all far away
        p.on_insert(N, blk(1, 0)); // 1 remaining, imminent (stage 2)
                                   // LRC evicts the imminent single-reference block.
        assert_eq!(p.pick_victim(N, &[blk(0, 0), blk(1, 0)]), Some(blk(1, 0)));
    }

    #[test]
    fn dead_blocks_purge() {
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0]), (1, &[1, 5])]));
        p.on_insert(N, blk(0, 0)); // consumed its only ref
        p.on_insert(N, blk(1, 0)); // one ref left
        let purge = p.purge_candidates(&[blk(0, 0), blk(1, 0)]);
        assert_eq!(purge, vec![blk(0, 0)]);
    }

    #[test]
    fn ties_break_by_recency() {
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0, 2]), (1, &[1, 3])]));
        p.on_insert(N, blk(0, 0)); // remaining 1
        p.on_insert(N, blk(1, 0)); // remaining 1, touched later
        assert_eq!(p.pick_victim(N, &[blk(0, 0), blk(1, 0)]), Some(blk(0, 0)));
    }

    #[test]
    fn profile_update_extends_counts() {
        // Ad-hoc mode: a later job reveals more references.
        let mut p = attached(LrcPolicy::new());
        p.on_job_submit(JobId(0), &profile(&[(0, &[0])]));
        p.on_insert(N, blk(0, 0));
        assert_eq!(p.remaining(blk(0, 0)), 0);
        p.on_job_submit(JobId(1), &profile(&[(0, &[0, 5, 7])]));
        assert_eq!(p.remaining(blk(0, 0)), 2);
    }

    #[test]
    fn no_prefetching() {
        let p = LrcPolicy::new();
        assert!(!p.wants_prefetch());
    }
}
