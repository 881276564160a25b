//! First-In First-Out eviction: evicts the oldest-inserted block.
//!
//! Not in the paper's comparison set; included as an ablation baseline that
//! isolates how much of LRU's benefit comes from recency tracking at all.

use crate::index::VictimIndex;
use crate::CachePolicy;
use refdist_dag::{BlockId, BlockSlots};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// FIFO eviction.
///
/// A block's insertion time is global and is its [`VictimIndex`] key, so
/// the index holds the only copy. The clock starts at 1, which keeps the
/// one distinction the key must carry: a copy orphaned by a removal on
/// another node ranks 0 while its insertion time is *absent*, and a later
/// re-insert stamps it afresh instead of keeping the original time.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    clock: u64,
    index: VictimIndex<u64>,
}

impl FifoPolicy {
    /// New FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insertion time of a resident block; `None` when it is untracked or
    /// its time was dropped with a copy on another node.
    fn inserted_at(&self, block: BlockId) -> Option<u64> {
        self.index.key(block).filter(|&t| t != 0)
    }
}

impl CachePolicy for FifoPolicy {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.index.attach_slots(slots);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        self.clock += 1;
        // Keep the original insertion time on re-insert. The time is
        // global: if a removal elsewhere dropped it, surviving copies
        // re-rank to the new time.
        let key = self.inserted_at(block).unwrap_or(self.clock);
        self.index.insert(node, block, key);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        // Surviving copies lose the global insertion time: rank as key 0.
        self.index.remove(node, block, 0);
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
        false // insertion-order only: never purges proactively
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
    fn evicts_oldest_insert_regardless_of_access() {
        let mut p = attached(FifoPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        p.on_access(N, blk(0, 0)); // access must not matter
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(0, 0)));
    }

    #[test]
    fn reinsert_keeps_original_position() {
        let mut p = attached(FifoPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        p.on_insert(N, blk(0, 0)); // re-insert
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(0, 0)));
    }

    #[test]
    fn remove_then_insert_moves_to_back() {
        let mut p = attached(FifoPolicy::new());
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        p.on_remove(N, blk(0, 0));
        p.on_insert(N, blk(0, 0));
        let v = p.pick_victim(N, &[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }
}
