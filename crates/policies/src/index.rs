//! Ordered victim indexes: the data structure behind O(log n) batched
//! victim selection ([`crate::CachePolicy::select_victims`]).
//!
//! Every policy in this workspace ranks eviction candidates by a per-block
//! *rank key* and evicts the `(key, BlockId)`-minimal block (ties always
//! break toward the lowest block id, which is why the id is the final tuple
//! element). The naive `pick_victim` implementations recompute that minimum
//! with a linear scan per eviction; the structures here maintain the ranking
//! incrementally in a `BTreeSet<(K, BlockId)>` so a batch of victims pops in
//! O(log n) per block instead.
//!
//! Determinism contract: as long as the key stored for a block equals the
//! key the naive scan would compute for it, iterating the set in ascending
//! order visits blocks in *exactly* the order repeated naive scans would
//! pick them (removing a block never changes another block's key in any of
//! the workspace policies). The differential property tests in
//! `tests/differential_select.rs` pin this equivalence down for randomized
//! traces.
//!
//! [`VictimIndex`] adds the per-node bookkeeping the [`crate::CachePolicy`]
//! hook protocol needs: a block can be resident on several nodes at once
//! (disk promotes re-insert a block on the reading node while another node
//! still caches it), yet most policies keep *global* recency state that is
//! dropped when the block leaves **any** node. The index mirrors that
//! semantics: removing a block from one node re-keys the surviving copies
//! with the caller-provided "orphan" key — the same key the naive scan's
//! `unwrap_or(0)` fallback produces once the global state is gone.

use refdist_dag::hash::HashMap;
use refdist_dag::BlockId;
use refdist_store::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A single ordered index: blocks ranked ascending by `(K, BlockId)`.
#[derive(Debug, Clone)]
pub struct OrderedIndex<K: Ord + Copy> {
    keys: HashMap<BlockId, K>,
    order: BTreeSet<(K, BlockId)>,
}

impl<K: Ord + Copy> Default for OrderedIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> OrderedIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        OrderedIndex {
            keys: HashMap::default(),
            order: BTreeSet::new(),
        }
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `block` is indexed.
    pub fn contains(&self, block: BlockId) -> bool {
        self.keys.contains_key(&block)
    }

    /// Insert `block` with `key`, or update its key in place. O(log n).
    pub fn upsert(&mut self, block: BlockId, key: K) {
        if let Some(old) = self.keys.insert(block, key) {
            if old == key {
                return;
            }
            self.order.remove(&(old, block));
        }
        self.order.insert((key, block));
    }

    /// Drop `block` from the index (no-op if absent). O(log n).
    pub fn remove(&mut self, block: BlockId) {
        if let Some(old) = self.keys.remove(&block) {
            self.order.remove(&(old, block));
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.order.clear();
    }

    /// Blocks in eviction order (ascending `(key, id)`).
    pub fn iter_ordered(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.order.iter().map(|&(_, b)| b)
    }

    /// Select victims in eviction order until at least `shortfall` bytes of
    /// `resident` blocks are covered, skipping indexed blocks that are not
    /// in `resident` (copies on other nodes). Returns all
    /// eligible blocks when the shortfall cannot be met — exactly what the
    /// naive scan does when it runs out of candidates.
    pub fn select_until(&self, shortfall: u64, resident: &BTreeMap<BlockId, u64>) -> Vec<BlockId> {
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for &(_, b) in &self.order {
            if freed >= shortfall {
                break;
            }
            if let Some(&size) = resident.get(&b) {
                victims.push(b);
                freed += size;
            }
        }
        victims
    }
}

/// Per-node ordered victim indexes plus the block→nodes residency map that
/// keeps *global* policy state (recency clocks, reference counts) consistent
/// with per-node candidate lists.
#[derive(Debug, Clone)]
pub struct VictimIndex<K: Ord + Copy> {
    nodes: HashMap<NodeId, OrderedIndex<K>>,
    /// Nodes each block is currently resident on (usually exactly one).
    homes: HashMap<BlockId, Vec<NodeId>>,
}

impl<K: Ord + Copy> Default for VictimIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> VictimIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        VictimIndex {
            nodes: HashMap::default(),
            homes: HashMap::default(),
        }
    }

    /// Whether `block` is resident on at least one node.
    pub fn is_tracked(&self, block: BlockId) -> bool {
        self.homes.contains_key(&block)
    }

    /// Record `block` resident on `node` with rank `key` (re-inserts update
    /// the key in place).
    pub fn insert(&mut self, node: NodeId, block: BlockId, key: K) {
        let homes = self.homes.entry(block).or_default();
        if !homes.contains(&node) {
            homes.push(node);
        }
        self.nodes.entry(node).or_default().upsert(block, key);
    }

    /// Update `block`'s rank on every node it is resident on (global state
    /// like a recency clock changed).
    pub fn rekey(&mut self, block: BlockId, key: K) {
        if let Some(homes) = self.homes.get(&block) {
            for node in homes {
                if let Some(idx) = self.nodes.get_mut(node) {
                    idx.upsert(block, key);
                }
            }
        }
    }

    /// Re-rank every indexed block via `key_of` (a global input to the rank,
    /// e.g. LRC's total reference counts, changed for all blocks at once).
    pub fn rekey_all(&mut self, mut key_of: impl FnMut(BlockId) -> K) {
        for idx in self.nodes.values_mut() {
            let blocks: Vec<BlockId> = idx.keys.keys().copied().collect();
            for b in blocks {
                idx.upsert(b, key_of(b));
            }
        }
    }

    /// `block` left `node`'s memory. Surviving copies on other nodes are
    /// re-ranked with `orphan_key` — the rank the naive scan assigns once
    /// the block's global state is dropped. Returns whether the block is now
    /// gone from every node.
    pub fn remove(&mut self, node: NodeId, block: BlockId, orphan_key: K) -> bool {
        if let Some(idx) = self.nodes.get_mut(&node) {
            idx.remove(block);
        }
        let Some(homes) = self.homes.get_mut(&block) else {
            return true;
        };
        homes.retain(|&n| n != node);
        if homes.is_empty() {
            self.homes.remove(&block);
            return true;
        }
        for n in self.homes[&block].clone() {
            if let Some(idx) = self.nodes.get_mut(&n) {
                idx.upsert(block, orphan_key);
            }
        }
        false
    }

    /// Batched victim selection on `node`: see [`OrderedIndex::select_until`].
    pub fn select(
        &self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        match self.nodes.get(&node) {
            Some(idx) => idx.select_until(shortfall, resident),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    fn resident(blocks: &[(BlockId, u64)]) -> BTreeMap<BlockId, u64> {
        blocks.iter().copied().collect()
    }

    #[test]
    fn ordered_index_pops_in_key_then_id_order() {
        let mut idx = OrderedIndex::new();
        idx.upsert(blk(2, 0), 5u64);
        idx.upsert(blk(0, 0), 7);
        idx.upsert(blk(1, 0), 5);
        let order: Vec<_> = idx.iter_ordered().collect();
        assert_eq!(order, vec![blk(1, 0), blk(2, 0), blk(0, 0)]);
    }

    #[test]
    fn upsert_replaces_key() {
        let mut idx = OrderedIndex::new();
        idx.upsert(blk(0, 0), 1u64);
        idx.upsert(blk(0, 0), 9);
        assert_eq!(idx.len(), 1);
        let order: Vec<_> = idx.iter_ordered().collect();
        assert_eq!(order, vec![blk(0, 0)]);
    }

    #[test]
    fn select_until_accumulates_sizes_and_skips_non_resident() {
        let mut idx = OrderedIndex::new();
        idx.upsert(blk(0, 0), 1u64); // not in the resident set
        idx.upsert(blk(1, 0), 2);
        idx.upsert(blk(2, 0), 3);
        let r = resident(&[(blk(1, 0), 4), (blk(2, 0), 4)]);
        assert_eq!(idx.select_until(5, &r), vec![blk(1, 0), blk(2, 0)]);
        assert_eq!(idx.select_until(4, &r), vec![blk(1, 0)]);
        // Shortfall unmeetable: every eligible block is returned.
        assert_eq!(idx.select_until(100, &r), vec![blk(1, 0), blk(2, 0)]);
    }

    #[test]
    fn victim_index_is_per_node() {
        let mut idx = VictimIndex::new();
        idx.insert(A, blk(0, 0), 1u64);
        idx.insert(B, blk(1, 0), 1);
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 1, &r), vec![blk(0, 0)]);
        assert_eq!(idx.select(B, 1, &r), vec![blk(1, 0)]);
        assert!(idx.select(NodeId(9), 1, &r).is_empty());
    }

    #[test]
    fn cross_node_removal_rekeys_survivors_to_orphan_key() {
        let mut idx = VictimIndex::new();
        // Same block resident on both nodes with a high (recent) key.
        idx.insert(A, blk(0, 0), 10u64);
        idx.insert(B, blk(0, 0), 10);
        idx.insert(B, blk(1, 0), 5);
        // Evicted from A: global recency is dropped, so on B the survivor
        // must now rank as key 0 — ahead of blk(1,0).
        assert!(!idx.remove(A, blk(0, 0), 0));
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(B, 1, &r), vec![blk(0, 0)]);
        // Gone from the last node: fully untracked.
        assert!(idx.remove(B, blk(0, 0), 0));
        assert!(!idx.is_tracked(blk(0, 0)));
    }

    #[test]
    fn rekey_all_recomputes_every_rank() {
        let mut idx = VictimIndex::new();
        idx.insert(A, blk(0, 0), 1u64);
        idx.insert(A, blk(1, 0), 2);
        idx.rekey_all(|b| if b == blk(0, 0) { 9 } else { 2 });
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 2, &r), vec![blk(1, 0), blk(0, 0)]);
    }

    #[test]
    fn remove_unknown_block_is_noop() {
        let mut idx: VictimIndex<u64> = VictimIndex::new();
        assert!(idx.remove(A, blk(7, 7), 0));
    }
}
