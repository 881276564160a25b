//! Least Recently Used — Spark's default cache policy.
//!
//! DAG-oblivious: tracks a logical access clock per block and evicts the
//! block idle the longest. This is the baseline every figure in the paper
//! normalizes against.

use crate::index::RecencyIndex;
use crate::CachePolicy;
use refdist_dag::{BlockId, BlockSlots};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// LRU eviction.
///
/// The recency clock is global (one logical clock across nodes, matching how
/// `pick_victim` ranks any candidate list it is handed). The
/// [`RecencyIndex`] owns it and holds each block's last touch as its key,
/// so every hook is O(1) and batched selection walks each node's list.
#[derive(Debug, Default)]
pub struct LruPolicy {
    index: RecencyIndex,
}

impl LruPolicy {
    /// New LRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for LruPolicy {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.index.attach_slots(slots);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        // The recency clock is global: a copy on another node re-ranks too.
        self.index.insert(node, block);
    }

    fn on_access(&mut self, _node: NodeId, block: BlockId) {
        self.index.touch(block);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        // A surviving copy on another node loses its recency (the clock is
        // global), so it re-ranks as untracked: key 0.
        self.index.remove(node, block);
    }

    fn pick_victim(&mut self, _node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        candidates
            .iter()
            .copied()
            .min_by_key(|&b| (self.index.key(b).unwrap_or(0), b))
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        self.index.select(node, shortfall, resident)
    }

    fn wants_purge(&self) -> bool {
        false // recency-only: never purges proactively
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::attached;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    const N: NodeId = NodeId(0);

    #[test]
    fn evicts_least_recently_touched() {
        let mut p = attached(LruPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        p.on_insert(N, blk(2, 0));
        p.on_access(N, blk(0, 0)); // 0 is now most recent
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0), blk(2, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }

    #[test]
    fn access_resets_recency() {
        let mut p = attached(LruPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        p.on_access(N, blk(0, 0));
        p.on_access(N, blk(1, 0));
        p.on_access(N, blk(0, 0));
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }

    #[test]
    fn untracked_blocks_evict_first() {
        let mut p = attached(LruPolicy::new());
        p.on_insert(N, blk(0, 0));
        // blk(1,0) never seen by the policy: treated as oldest.
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut p = attached(LruPolicy::new());
        assert_eq!(p.pick_victim(N, &[]), None);
    }

    #[test]
    fn remove_forgets_state() {
        let mut p = attached(LruPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_remove(N, blk(0, 0));
        assert!(!p.index.is_tracked(blk(0, 0)));
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut p = attached(LruPolicy::new());
        // Neither candidate tracked: ties broken by block id.
        let v = p.pick_victim(N, &[blk(2, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }
}
