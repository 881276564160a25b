//! Victim indexes: the data structure behind O(log n) batched victim
//! selection ([`crate::CachePolicy::select_victims`]).
//!
//! Every policy in this workspace ranks eviction candidates by a per-block
//! *rank key* and evicts the `(key, BlockId)`-minimal block (ties always
//! break toward the lowest block id, which is why the id is the final tuple
//! element). The naive `pick_victim` implementations recompute that minimum
//! with a linear scan per eviction; an ordered `BTreeSet<(K, BlockId)>` per
//! node maintains the ranking incrementally, so a batch of victims pops in
//! O(log n) per block instead ([`select_until`]).
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
//! hook protocol needs. Its layout:
//!
//! * **One per-block table** for the whole index, keyed by the runtime's
//!   slot arena, which [`VictimIndex::attach_slots`] installs before the
//!   first insert. An entry holds the block's rank key and the nodes it is
//!   resident on. A block can be resident on several nodes at once (disk
//!   promotes re-insert a block on the reading node while another node
//!   still caches it), yet every policy keys it by *global* state — a
//!   recency clock, a reference count — so all copies share one key, stored
//!   once. The first home is stored inline: the common single-copy block
//!   allocates nothing.
//! * **One ordered set per node**, in a `Vec` indexed by node id.
//!
//! The index therefore costs O(resident blocks + nodes). A dense table *per
//! node* would not: with round-robin homing each node's blocks span the
//! whole arena, so it would cost O(nodes × arena).
//!
//! Global state is dropped when a block leaves **any** node. The index
//! mirrors that: removing a block from one node re-keys the surviving copies
//! with the caller-provided "orphan" key — the same key the naive scan's
//! `unwrap_or(0)` fallback produces once the global state is gone.

use refdist_dag::{BlockId, BlockSlots, SlotMap};
use refdist_store::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Select victims from `order` in eviction order until at least `shortfall`
/// bytes of `resident` blocks are covered, skipping blocks that are not in
/// `resident`. Returns all eligible blocks when the shortfall cannot be met
/// — exactly what the naive scan does when it runs out of candidates.
pub fn select_until<K: Ord>(
    order: &BTreeSet<(K, BlockId)>,
    shortfall: u64,
    resident: &BTreeMap<BlockId, u64>,
) -> Vec<BlockId> {
    let mut victims = Vec::new();
    let mut freed = 0u64;
    for (_, b) in order {
        if freed >= shortfall {
            break;
        }
        if let Some(&size) = resident.get(b) {
            victims.push(*b);
            freed += size;
        }
    }
    victims
}

/// A block's row in the per-block table.
#[derive(Debug, Clone)]
struct Entry<K> {
    /// Rank key, shared by every copy.
    key: K,
    /// First node the block is resident on.
    home: NodeId,
    /// Further nodes holding a copy; empty (and unallocated) for most blocks.
    more: Vec<NodeId>,
}

impl<K: Ord + Copy> Entry<K> {
    fn homes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.home).chain(self.more.iter().copied())
    }

    /// Re-rank every copy of `block` to `key` in the per-node sets.
    fn rekey(&mut self, nodes: &mut [BTreeSet<(K, BlockId)>], block: BlockId, key: K) {
        if self.key == key {
            return;
        }
        for n in self.homes() {
            let set = &mut nodes[n.index()];
            set.remove(&(self.key, block));
            set.insert((key, block));
        }
        self.key = key;
    }
}

/// Per-node ordered victim indexes over one per-block table of rank keys
/// and homes (see the module docs for the layout). A [`Default`] index
/// has no arena: it reads as empty, and [`insert`](Self::insert) panics
/// until [`attach_slots`](Self::attach_slots) runs.
#[derive(Debug, Clone, Default)]
pub struct VictimIndex<K: Ord + Copy> {
    blocks: SlotMap<Entry<K>>,
    /// Per node id: the node's resident blocks in eviction order.
    nodes: Vec<BTreeSet<(K, BlockId)>>,
}

impl<K: Ord + Copy> VictimIndex<K> {
    /// Key the per-block table by `slots` (the runtime's arena). Called
    /// once, on an empty index.
    pub fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        debug_assert!(self.blocks.is_empty(), "slot arena attached to a non-empty index");
        self.blocks = SlotMap::new(Arc::clone(slots));
    }

    /// Whether `block` is resident on at least one node.
    pub fn is_tracked(&self, block: BlockId) -> bool {
        self.blocks.contains(block)
    }

    /// `block`'s rank key, while it is resident anywhere.
    pub fn key(&self, block: BlockId) -> Option<K> {
        self.blocks.get(block).map(|e| e.key)
    }

    /// Record `block` resident on `node` with rank `key`. The key is the
    /// block's, so copies on other nodes re-rank to it too.
    pub fn insert(&mut self, node: NodeId, block: BlockId, key: K) {
        if self.nodes.len() <= node.index() {
            self.nodes.resize_with(node.index() + 1, BTreeSet::new);
        }
        match self.blocks.get_mut(block) {
            Some(e) => {
                e.rekey(&mut self.nodes, block, key);
                if !e.homes().any(|n| n == node) {
                    e.more.push(node);
                    self.nodes[node.index()].insert((key, block));
                }
            }
            None => {
                let entry = Entry {
                    key,
                    home: node,
                    more: Vec::new(),
                };
                self.blocks.insert(block, entry);
                self.nodes[node.index()].insert((key, block));
            }
        }
    }

    /// Update `block`'s rank on every node it is resident on (global state
    /// like a recency clock changed). No-op for an untracked block.
    pub fn rekey(&mut self, block: BlockId, key: K) {
        if let Some(e) = self.blocks.get_mut(block) {
            e.rekey(&mut self.nodes, block, key);
        }
    }

    /// Re-rank every indexed block via `key_of(block, old_key)` (a global
    /// input to the rank, e.g. LRC's total reference counts, changed for all
    /// blocks at once).
    pub fn rekey_all(&mut self, mut key_of: impl FnMut(BlockId, K) -> K) {
        for (b, e) in self.blocks.iter_mut() {
            let key = key_of(b, e.key);
            e.rekey(&mut self.nodes, b, key);
        }
    }

    /// `block` left `node`'s memory. Surviving copies on other nodes are
    /// re-ranked with `orphan_key` — the rank the naive scan assigns once
    /// the block's global state is dropped. Returns whether the block is now
    /// gone from every node. A no-op returning `false` when the block is
    /// tracked but `node` holds no copy: the copies elsewhere keep their
    /// state.
    pub fn remove(&mut self, node: NodeId, block: BlockId, orphan_key: K) -> bool {
        let Some(e) = self.blocks.get_mut(block) else {
            return true;
        };
        if e.home == node {
            let Some(next) = e.more.pop() else {
                self.nodes[node.index()].remove(&(e.key, block));
                self.blocks.remove(block);
                return true;
            };
            e.home = next;
        } else if let Some(i) = e.more.iter().position(|&n| n == node) {
            e.more.swap_remove(i);
        } else {
            return false;
        }
        self.nodes[node.index()].remove(&(e.key, block));
        e.rekey(&mut self.nodes, block, orphan_key);
        false
    }

    /// Batched victim selection on `node`: see [`select_until`].
    pub fn select(
        &self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        match self.nodes.get(node.index()) {
            Some(order) => select_until(order, shortfall, resident),
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

    /// An index attached to a slot arena over rdds 0..10 x 4 partitions.
    fn attached() -> VictimIndex<u64> {
        let mut idx = VictimIndex::default();
        idx.attach_slots(&Arc::new(BlockSlots::from_counts(
            (0..10).map(|r| (RddId(r), 4)),
        )));
        idx
    }

    #[test]
    fn select_until_pops_in_key_then_id_order() {
        let order: BTreeSet<(u64, BlockId)> =
            [(5, blk(2, 0)), (7, blk(0, 0)), (5, blk(1, 0))].into();
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1), (blk(2, 0), 1)]);
        assert_eq!(select_until(&order, 3, &r), vec![blk(1, 0), blk(2, 0), blk(0, 0)]);
    }

    #[test]
    fn select_until_accumulates_sizes_and_skips_non_resident() {
        // blk(0,0) is not in the resident set.
        let order: BTreeSet<(u64, BlockId)> =
            [(1, blk(0, 0)), (2, blk(1, 0)), (3, blk(2, 0))].into();
        let r = resident(&[(blk(1, 0), 4), (blk(2, 0), 4)]);
        assert_eq!(select_until(&order, 5, &r), vec![blk(1, 0), blk(2, 0)]);
        assert_eq!(select_until(&order, 4, &r), vec![blk(1, 0)]);
        // Shortfall unmeetable: every eligible block is returned.
        assert_eq!(select_until(&order, 100, &r), vec![blk(1, 0), blk(2, 0)]);
    }

    #[test]
    fn insert_replaces_key() {
        let mut idx = attached();
        idx.insert(A, blk(0, 0), 1);
        idx.insert(A, blk(1, 0), 5);
        idx.insert(A, blk(0, 0), 9);
        assert_eq!(idx.key(blk(0, 0)), Some(9));
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 2, &r), vec![blk(1, 0), blk(0, 0)]);
    }

    #[test]
    fn victim_index_is_per_node() {
        let mut idx = attached();
        idx.insert(A, blk(0, 0), 1);
        idx.insert(B, blk(1, 0), 1);
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 1, &r), vec![blk(0, 0)]);
        assert_eq!(idx.select(B, 1, &r), vec![blk(1, 0)]);
        assert!(idx.select(NodeId(9), 1, &r).is_empty());
    }

    #[test]
    fn cross_node_removal_rekeys_survivors_to_orphan_key() {
        let mut idx = attached();
        // Same block resident on both nodes with a high (recent) key.
        idx.insert(A, blk(0, 0), 10);
        idx.insert(B, blk(0, 0), 10);
        idx.insert(B, blk(1, 0), 5);
        // Evicted from A: global recency is dropped, so on B the
        // survivor must now rank as key 0 — ahead of blk(1,0).
        assert!(!idx.remove(A, blk(0, 0), 0));
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(B, 1, &r), vec![blk(0, 0)]);
        assert!(idx.select(A, 1, &r).is_empty());
        // Gone from the last node: fully untracked.
        assert!(idx.remove(B, blk(0, 0), 0));
        assert!(!idx.is_tracked(blk(0, 0)));
    }

    #[test]
    fn removing_the_first_home_keeps_the_others() {
        let mut idx = attached();
        let c = NodeId(2);
        for n in [A, B, c] {
            idx.insert(n, blk(0, 0), 10);
        }
        assert!(!idx.remove(A, blk(0, 0), 3));
        idx.rekey(blk(0, 0), 7);
        let r = resident(&[(blk(0, 0), 1)]);
        assert!(idx.select(A, 1, &r).is_empty());
        assert_eq!(idx.select(B, 1, &r), vec![blk(0, 0)]);
        assert!(!idx.remove(c, blk(0, 0), 0));
        assert!(idx.remove(B, blk(0, 0), 0));
        assert!(!idx.is_tracked(blk(0, 0)));
    }

    #[test]
    fn removal_from_a_node_without_a_copy_is_a_noop() {
        let mut idx = attached();
        idx.insert(A, blk(0, 0), 10);
        idx.insert(A, blk(1, 0), 5);
        // B never held blk(0,0): its copy on A keeps its key.
        assert!(!idx.remove(B, blk(0, 0), 0));
        assert_eq!(idx.key(blk(0, 0)), Some(10));
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 1, &r), vec![blk(1, 0)]);
    }

    #[test]
    fn rekey_all_recomputes_every_rank() {
        let mut idx = attached();
        idx.insert(A, blk(0, 0), 1);
        idx.insert(A, blk(1, 0), 2);
        idx.insert(B, blk(0, 0), 1);
        idx.rekey_all(|b, old| if b == blk(0, 0) { 9 } else { old });
        let r = resident(&[(blk(0, 0), 1), (blk(1, 0), 1)]);
        assert_eq!(idx.select(A, 2, &r), vec![blk(1, 0), blk(0, 0)]);
        assert_eq!(idx.key(blk(0, 0)), Some(9));
    }

    #[test]
    fn remove_unknown_block_is_noop() {
        let mut idx = attached();
        assert!(idx.remove(A, blk(7, 3), 0));
    }

    #[test]
    fn index_reads_as_empty_until_attached() {
        let mut idx: VictimIndex<u64> = VictimIndex::default();
        let r = resident(&[(blk(0, 0), 1)]);
        assert_eq!(idx.key(blk(0, 0)), None);
        assert!(!idx.is_tracked(blk(0, 0)));
        assert!(idx.select(A, 1, &r).is_empty());
        idx.attach_slots(&Arc::new(BlockSlots::from_counts([(RddId(0), 1)])));
        idx.insert(A, blk(0, 0), 3);
        assert_eq!(idx.key(blk(0, 0)), Some(3));
        assert_eq!(idx.select(A, 1, &r), vec![blk(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "no slot arena attached")]
    fn unattached_index_rejects_inserts() {
        VictimIndex::default().insert(A, blk(0, 0), 1u64);
    }
}
