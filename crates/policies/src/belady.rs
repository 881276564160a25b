//! Belady's MIN — the clairvoyant optimal eviction oracle.
//!
//! The paper (§3.1) notes that DAG information only *approximates* Belady's
//! MIN because the exact task execution order is unknown ahead of time. To
//! quantify that gap we provide the real oracle: given the block access
//! trace recorded from a previous run of the same application (collected
//! with an unbounded cache so the trace is policy-independent), MIN evicts
//! the block whose next use lies furthest in the future.
//!
//! The oracle is deliberately forgiving about divergence: if the live run
//! touches blocks in a slightly different order than the trace (e.g. due to
//! recomputation after a miss), each access simply consumes that block's
//! next recorded use. Blocks with no remaining uses are infinitely far away
//! and evict first.

use crate::CachePolicy;
use refdist_dag::hash::HashMap;
use refdist_dag::BlockId;
use refdist_store::NodeId;
use std::collections::VecDeque;

/// Belady MIN eviction over a recorded access trace.
#[derive(Debug)]
pub struct BeladyMinPolicy {
    /// Remaining use positions per block, ascending.
    future: HashMap<BlockId, VecDeque<u64>>,
}

impl BeladyMinPolicy {
    /// Build the oracle from an access trace (the order blocks are inserted
    /// or read over the whole run).
    pub fn from_trace(trace: &[BlockId]) -> Self {
        let mut future: HashMap<BlockId, VecDeque<u64>> = HashMap::default();
        for (i, &b) in trace.iter().enumerate() {
            future.entry(b).or_default().push_back(i as u64);
        }
        BeladyMinPolicy { future }
    }

    /// Position of the block's next use; `None` if never used again.
    pub fn next_use(&self, block: BlockId) -> Option<u64> {
        self.future.get(&block).and_then(|q| q.front().copied())
    }

    fn consume(&mut self, block: BlockId) {
        if let Some(q) = self.future.get_mut(&block) {
            q.pop_front();
            if q.is_empty() {
                self.future.remove(&block);
            }
        }
    }
}

impl CachePolicy for BeladyMinPolicy {
    fn name(&self) -> String {
        "Belady-MIN".into()
    }

    fn on_insert(&mut self, _node: NodeId, block: BlockId) {
        self.consume(block);
    }

    fn on_access(&mut self, _node: NodeId, block: BlockId) {
        self.consume(block);
    }

    fn pick_victim(&mut self, _node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        // Furthest next use evicts; never-used-again (None) is furthest of
        // all. Tie-break on block id for determinism.
        candidates
            .iter()
            .copied()
            .max_by_key(|b| (self.next_use(*b).map_or(u64::MAX, |p| p), *b))
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        in_memory
            .iter()
            .copied()
            .filter(|&b| self.next_use(b).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32) -> BlockId {
        BlockId::new(RddId(r), 0)
    }

    const N: NodeId = NodeId(0);

    #[test]
    fn evicts_furthest_next_use() {
        // Trace: a b a c b ... after consuming the first a and b,
        // next uses: a@2, b@4, c@3.
        let mut p = BeladyMinPolicy::from_trace(&[blk(0), blk(1), blk(0), blk(2), blk(1)]);
        p.on_insert(N, blk(0)); // consumes a@0
        p.on_insert(N, blk(1)); // consumes b@1
        let v = p.pick_victim(N, &[blk(0), blk(1)]);
        assert_eq!(v, Some(blk(1))); // b next used at 4 > a at 2
    }

    #[test]
    fn dead_blocks_evict_first() {
        let mut p = BeladyMinPolicy::from_trace(&[blk(0), blk(1), blk(0)]);
        p.on_insert(N, blk(0));
        p.on_insert(N, blk(1)); // b never used again
        assert_eq!(p.pick_victim(N, &[blk(0), blk(1)]), Some(blk(1)));
        assert_eq!(p.purge_candidates(&[blk(0), blk(1)]), vec![blk(1)]);
    }

    #[test]
    fn consume_advances_through_uses() {
        let mut p = BeladyMinPolicy::from_trace(&[blk(0), blk(0), blk(0)]);
        assert_eq!(p.next_use(blk(0)), Some(0));
        p.on_insert(N, blk(0));
        assert_eq!(p.next_use(blk(0)), Some(1));
        p.on_access(N, blk(0));
        p.on_access(N, blk(0));
        assert_eq!(p.next_use(blk(0)), None);
    }

    #[test]
    fn untraced_blocks_are_dead() {
        let mut p = BeladyMinPolicy::from_trace(&[blk(0)]);
        assert_eq!(p.next_use(blk(9)), None);
        assert_eq!(p.pick_victim(N, &[blk(0), blk(9)]), Some(blk(9)));
    }

    #[test]
    fn tolerates_extra_accesses() {
        let mut p = BeladyMinPolicy::from_trace(&[blk(0)]);
        p.on_access(N, blk(0));
        p.on_access(N, blk(0)); // beyond the trace: harmless
        assert_eq!(p.next_use(blk(0)), None);
    }
}
