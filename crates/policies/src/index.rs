//! Victim indexes: the data structures behind batched victim selection
//! ([`crate::CachePolicy::select_victims`]).
//!
//! Every policy in this workspace ranks eviction candidates by a per-block
//! *rank key* and evicts the `(key, BlockId)`-minimal block (ties always
//! break toward the lowest block id, which is why the id is the final tuple
//! element). The naive `pick_victim` implementations recompute that minimum
//! with a linear scan per eviction; an index maintains each node's ranking
//! incrementally, so a batch of victims pops in one ordered walk instead
//! ([`select_until`]).
//!
//! Determinism contract: as long as the key stored for a block equals the
//! key the naive scan would compute for it, walking a node's order visits
//! blocks in *exactly* the order repeated naive scans would pick them
//! (removing a block never changes another block's key in any of the
//! workspace policies). The differential property tests in
//! `tests/differential_select.rs` pin this equivalence down for randomized
//! traces.
//!
//! Two indexes share the hook protocol and the layout below:
//!
//! * [`RecencyIndex`] serves LRU ([`crate::LruPolicy`] and MRD's
//!   prefetch-only mode, whose eviction is stock Spark's). Its key is a
//!   touch clock the index owns, so every insert or touch makes a block the
//!   newest on every node holding it. Each node's order is then a doubly
//!   linked list threaded through the per-block table — O(1) per hook, no
//!   allocation — plus a small set of orphans (below).
//! * [`VictimIndex`] serves FIFO, LRC and MemTune with a
//!   `BTreeSet<(K, BlockId)>` per node, O(log n) per hook. Their keys are
//!   not append-only: FIFO re-inserts a copy with the block's *original*
//!   insertion time when another node still holds it, and LRC's and
//!   MemTune's keys follow reference counts and runnable stages, not a
//!   clock. A list would need a search to place every such key.
//!
//! Layout, common to both:
//!
//! * **One per-block table** for the whole index, keyed by the runtime's
//!   slot arena, which `attach_slots` installs before the first insert. An
//!   entry holds the block's rank key and the nodes it is resident on. A
//!   block can be resident on several nodes at once (disk promotes
//!   re-insert a block on the reading node while another node still caches
//!   it), yet every policy keys it by *global* state — a recency clock, a
//!   reference count — so all copies share one key, stored once. The first
//!   copy is stored inline: the common single-copy block allocates nothing.
//! * **Per-node order** in a `Vec` indexed by node id.
//!
//! An index therefore costs O(resident blocks + nodes). A dense table *per
//! node* would not: with round-robin homing each node's blocks span the
//! whole arena, so it would cost O(nodes × arena).
//!
//! Global state is dropped when a block leaves **any** node. The indexes
//! mirror that: removing a block from one node re-keys the surviving copies
//! with the "orphan" key — the same key the naive scan's `unwrap_or(0)`
//! fallback produces once the global state is gone. Orphans tie at that key
//! and so rank by block id, ahead of every touched block in
//! [`RecencyIndex`]'s order.

use refdist_dag::{BlockId, BlockSlots, SlotMap};
use refdist_store::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Select victims from `order` (a node's blocks in eviction order) until at
/// least `shortfall` bytes of `resident` blocks are covered, skipping blocks
/// that are not in `resident`. Returns all eligible blocks when the
/// shortfall cannot be met — exactly what the naive scan does when it runs
/// out of candidates.
pub fn select_until(
    order: impl IntoIterator<Item = BlockId>,
    shortfall: u64,
    resident: &BTreeMap<BlockId, u64>,
) -> Vec<BlockId> {
    let mut victims = Vec::new();
    let mut freed = 0u64;
    for b in order {
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
        debug_assert!(
            self.blocks.is_empty(),
            "slot arena attached to a non-empty index"
        );
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
            Some(order) => select_until(order.iter().map(|&(_, b)| b), shortfall, resident),
            None => Vec::new(),
        }
    }
}

/// No neighbour: the end of a node's list, or a copy in no list.
const NIL: u32 = u32::MAX;

/// One copy of a block in a [`RecencyIndex`]: its node and its neighbours
/// in that node's list, as arena slots ([`NIL`] at the ends, and in both
/// links while the block is an orphan).
#[derive(Debug, Clone, Copy)]
struct Link {
    node: NodeId,
    older: u32,
    newer: u32,
}

impl Link {
    fn detached(node: NodeId) -> Self {
        Link {
            node,
            older: NIL,
            newer: NIL,
        }
    }
}

/// A block's row in a [`RecencyIndex`]: its last touch and its copies, the
/// first inline and the rest in an overflow only multi-copy blocks allocate.
#[derive(Debug, Clone)]
struct Touched {
    /// The clock at the block's last insert or touch; 0 once orphaned.
    touch: u64,
    first: Link,
    #[allow(
        clippy::box_collection,
        reason = "a bare Vec would grow every slot's entry from 40 B to 48 B"
    )]
    rest: Option<Box<Vec<Link>>>,
}

impl Touched {
    fn copies(&self) -> usize {
        1 + self.rest.as_ref().map_or(0, |r| r.len())
    }

    fn nth(&mut self, i: usize) -> &mut Link {
        match i {
            0 => &mut self.first,
            _ => &mut self.rest.as_mut().expect("copy index in range")[i - 1],
        }
    }

    fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        std::iter::once(&self.first).chain(self.rest.iter().flat_map(|r| r.iter()))
    }

    fn position(&self, node: NodeId) -> Option<usize> {
        self.links().position(|l| l.node == node)
    }

    fn link(&self, node: NodeId) -> &Link {
        self.links()
            .find(|l| l.node == node)
            .expect("list neighbour has a copy on the node")
    }

    /// Drop copy `i` of an entry holding at least two.
    fn remove_nth(&mut self, i: usize) -> Link {
        let rest = self.rest.as_mut().expect("a second copy");
        let removed = match i {
            0 => std::mem::replace(&mut self.first, rest.swap_remove(0)),
            _ => rest.swap_remove(i - 1),
        };
        if rest.is_empty() {
            self.rest = None;
        }
        removed
    }
}

/// A node's order in a [`RecencyIndex`]: its orphans by block id, then its
/// list from the oldest touch to the newest.
#[derive(Debug, Clone)]
struct NodeOrder {
    oldest: u32,
    newest: u32,
    orphans: BTreeSet<BlockId>,
}

impl Default for NodeOrder {
    fn default() -> Self {
        NodeOrder {
            oldest: NIL,
            newest: NIL,
            orphans: BTreeSet::new(),
        }
    }
}

/// Per-node recency order for LRU, in O(1) per hook (see the module docs).
///
/// The index owns the touch clock: [`insert`](Self::insert) and
/// [`touch`](Self::touch) stamp the block with the next tick, which is
/// newer than every key in the index, so each of its copies moves to the
/// newest end of its node's list. A removal on one node orphans the copies
/// on the others (key 0): they leave their lists for their nodes' orphan
/// sets until the block is touched again. A node's order — orphans by block
/// id, then the list oldest first — is therefore exactly its copies sorted
/// by `(key, BlockId)`.
///
/// A [`Default`] index has no arena: it reads as empty, and
/// [`insert`](Self::insert) panics until
/// [`attach_slots`](Self::attach_slots) runs.
#[derive(Debug, Clone, Default)]
pub struct RecencyIndex {
    clock: u64,
    blocks: SlotMap<Touched>,
    /// Per node id.
    nodes: Vec<NodeOrder>,
}

impl RecencyIndex {
    /// Key the per-block table by `slots` (the runtime's arena). Called
    /// once, on an empty index.
    pub fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        debug_assert!(
            self.blocks.is_empty(),
            "slot arena attached to a non-empty index"
        );
        self.blocks = SlotMap::new(Arc::clone(slots));
    }

    /// Whether `block` is resident on at least one node.
    pub fn is_tracked(&self, block: BlockId) -> bool {
        self.blocks.contains(block)
    }

    /// `block`'s last touch while it is resident anywhere: 0 for an orphan.
    pub fn key(&self, block: BlockId) -> Option<u64> {
        self.blocks.get(block).map(|e| e.touch)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Record `block` resident on `node` and touch it: the block becomes
    /// the newest on every node holding it.
    pub fn insert(&mut self, node: NodeId, block: BlockId) {
        if self.nodes.len() <= node.index() {
            self.nodes.resize_with(node.index() + 1, NodeOrder::default);
        }
        let touch = self.tick();
        let slot = self.blocks.slot_of(block);
        let Some(e) = self.blocks.get_at_mut(slot) else {
            let first = self.push_newest(node, slot);
            self.blocks.insert(
                block,
                Touched {
                    touch,
                    first,
                    rest: None,
                },
            );
            return;
        };
        if e.position(node).is_none() {
            e.rest
                .get_or_insert_with(Box::default)
                .push(Link::detached(node));
            // A new copy ranks with the block's others: an orphan set
            // entry while they are orphans, re-ranked with them below.
            if e.touch == 0 {
                self.nodes[node.index()].orphans.insert(block);
            } else {
                let i = e.copies() - 1;
                let link = self.push_newest(node, slot);
                *self.entry_at(slot).nth(i) = link;
            }
        }
        self.promote(slot, touch);
    }

    /// Touch `block`: it becomes the newest on every node holding it.
    /// Untracked blocks are ignored (the clock still ticks).
    pub fn touch(&mut self, block: BlockId) {
        let touch = self.tick();
        if self.blocks.contains(block) {
            self.promote(self.blocks.slot_of(block), touch);
        }
    }

    /// `block` left `node`'s memory. Surviving copies on other nodes become
    /// orphans, ranked ahead of every touched block — the rank the naive
    /// scan assigns once the block's recency is dropped. Returns whether
    /// the block is now gone from every node. A no-op returning `false`
    /// when the block is tracked but `node` holds no copy: the copies
    /// elsewhere keep their recency.
    pub fn remove(&mut self, node: NodeId, block: BlockId) -> bool {
        if !self.blocks.contains(block) {
            return true;
        }
        let slot = self.blocks.slot_of(block);
        let e = self.entry_at(slot);
        let Some(i) = e.position(node) else {
            return false;
        };
        let touch = e.touch;
        if e.copies() == 1 {
            let link = e.first;
            self.detach(block, touch, link);
            self.blocks.remove(block);
            return true;
        }
        let link = e.remove_nth(i);
        self.detach(block, touch, link);
        if touch != 0 {
            for i in 0..self.entry_at(slot).copies() {
                let link = *self.entry_at(slot).nth(i);
                self.unlink(link);
                self.nodes[link.node.index()].orphans.insert(block);
                *self.entry_at(slot).nth(i) = Link::detached(link.node);
            }
            self.entry_at(slot).touch = 0;
        }
        false
    }

    /// `node`'s resident blocks in eviction order: orphans by block id,
    /// then the least recently touched first.
    pub fn order(&self, node: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        let ends = self.nodes.get(node.index());
        let orphans = ends.into_iter().flat_map(|e| e.orphans.iter().copied());
        // The slot last yielded (`NIL` once the list ran out): a link is
        // followed only when the caller asks for the next block, and a
        // selection usually stops at the first.
        let mut at = None;
        let list = std::iter::from_fn(move || {
            let slot = match at {
                None => ends.map_or(NIL, |e| e.oldest),
                Some(NIL) => return None,
                Some(s) => {
                    let e = self.blocks.get_at(s).expect("listed slots hold an entry");
                    e.link(node).newer
                }
            };
            at = Some(slot);
            (slot != NIL).then(|| self.blocks.block_at(slot))
        });
        orphans.chain(list)
    }

    /// Batched victim selection on `node`: see [`select_until`].
    pub fn select(
        &self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        select_until(self.order(node), shortfall, resident)
    }

    fn entry_at(&mut self, slot: u32) -> &mut Touched {
        self.blocks.get_at_mut(slot).expect("slot holds an entry")
    }

    /// Stamp the block in `slot` with `touch` and move each of its copies
    /// to the newest end of its node's list.
    fn promote(&mut self, slot: u32, touch: u64) {
        let e = self.entry_at(slot);
        let orphaned = e.touch == 0;
        e.touch = touch;
        for i in 0..e.copies() {
            let link = *self.entry_at(slot).nth(i);
            if orphaned {
                let block = self.blocks.block_at(slot);
                self.nodes[link.node.index()].orphans.remove(&block);
            } else if link.newer == NIL {
                continue; // already the newest
            } else {
                self.unlink(link);
            }
            let link = self.push_newest(link.node, slot);
            *self.entry_at(slot).nth(i) = link;
        }
    }

    /// Take a copy out of its node's order: the orphan set while the block
    /// is orphaned (`touch` 0), the list otherwise.
    fn detach(&mut self, block: BlockId, touch: u64, link: Link) {
        if touch == 0 {
            self.nodes[link.node.index()].orphans.remove(&block);
        } else {
            self.unlink(link);
        }
    }

    /// Splice a listed copy out of its node's list.
    fn unlink(&mut self, link: Link) {
        let Link { node, older, newer } = link;
        match older {
            NIL => self.nodes[node.index()].oldest = newer,
            _ => self.link_at(older, node).newer = newer,
        }
        match newer {
            NIL => self.nodes[node.index()].newest = older,
            _ => self.link_at(newer, node).older = older,
        }
    }

    /// Append the copy on `node` of the block in `slot` as the node's
    /// newest, returning the copy's links for the caller to store.
    fn push_newest(&mut self, node: NodeId, slot: u32) -> Link {
        let ends = &mut self.nodes[node.index()];
        let older = std::mem::replace(&mut ends.newest, slot);
        match older {
            NIL => ends.oldest = slot,
            _ => self.link_at(older, node).newer = slot,
        }
        Link {
            node,
            older,
            newer: NIL,
        }
    }

    /// The copy on `node` of the block in `slot`, a list neighbour.
    fn link_at(&mut self, slot: u32, node: NodeId) -> &mut Link {
        let e = self.entry_at(slot);
        let i = e
            .position(node)
            .expect("list neighbour has a copy on the node");
        e.nth(i)
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
        assert_eq!(
            select_until(order.iter().map(|&(_, b)| b), 3, &r),
            vec![blk(1, 0), blk(2, 0), blk(0, 0)]
        );
    }

    #[test]
    fn select_until_accumulates_sizes_and_skips_non_resident() {
        // blk(0,0) is not in the resident set.
        let order: BTreeSet<(u64, BlockId)> =
            [(1, blk(0, 0)), (2, blk(1, 0)), (3, blk(2, 0))].into();
        let r = resident(&[(blk(1, 0), 4), (blk(2, 0), 4)]);
        let ids = || order.iter().map(|&(_, b)| b);
        assert_eq!(select_until(ids(), 5, &r), vec![blk(1, 0), blk(2, 0)]);
        assert_eq!(select_until(ids(), 4, &r), vec![blk(1, 0)]);
        // Shortfall unmeetable: every eligible block is returned.
        assert_eq!(select_until(ids(), 100, &r), vec![blk(1, 0), blk(2, 0)]);
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
    fn recency() -> RecencyIndex {
        let mut idx = RecencyIndex::default();
        idx.attach_slots(&Arc::new(BlockSlots::from_counts(
            (0..10).map(|r| (RddId(r), 4)),
        )));
        idx
    }

    fn order(idx: &RecencyIndex, node: NodeId) -> Vec<BlockId> {
        idx.order(node).collect()
    }

    #[test]
    fn recency_lists_run_oldest_touch_first() {
        let mut idx = recency();
        idx.insert(A, blk(2, 0));
        idx.insert(A, blk(0, 0));
        idx.insert(A, blk(1, 0));
        idx.insert(B, blk(3, 0));
        idx.touch(blk(2, 0));
        idx.touch(blk(9, 0)); // untracked: ignored
        assert_eq!(order(&idx, A), vec![blk(0, 0), blk(1, 0), blk(2, 0)]);
        assert_eq!(order(&idx, B), vec![blk(3, 0)]);
        assert_eq!(idx.key(blk(2, 0)), Some(5));
        // Touching the newest keeps the list; removing the middle splices.
        idx.touch(blk(2, 0));
        assert!(idx.remove(A, blk(1, 0)));
        assert_eq!(order(&idx, A), vec![blk(0, 0), blk(2, 0)]);
        let r = resident(&[(blk(0, 0), 4), (blk(2, 0), 4)]);
        assert_eq!(idx.select(A, 5, &r), vec![blk(0, 0), blk(2, 0)]);
        assert_eq!(idx.select(A, 4, &r), vec![blk(0, 0)]);
        assert!(idx.select(NodeId(9), 1, &r).is_empty());
    }

    #[test]
    fn recency_orphans_rank_first_by_block_id_until_touched() {
        let mut idx = recency();
        let c = NodeId(2);
        idx.insert(B, blk(5, 0));
        for n in [A, B, c] {
            idx.insert(n, blk(4, 0));
            idx.insert(n, blk(1, 0));
        }
        // Removal from A orphans the copies on B and C: key 0, ahead of
        // every touched block, by block id among themselves.
        assert!(!idx.remove(A, blk(4, 0)));
        assert!(!idx.remove(A, blk(1, 0)));
        assert_eq!(idx.key(blk(4, 0)), Some(0));
        assert_eq!(order(&idx, B), vec![blk(1, 0), blk(4, 0), blk(5, 0)]);
        assert_eq!(order(&idx, c), vec![blk(1, 0), blk(4, 0)]);
        assert!(order(&idx, A).is_empty());
        // A new copy of an orphan re-keys every copy to the newest.
        idx.insert(A, blk(4, 0));
        assert_eq!(order(&idx, B), vec![blk(1, 0), blk(5, 0), blk(4, 0)]);
        assert_eq!(order(&idx, A), vec![blk(4, 0)]);
        // So does a touch.
        idx.touch(blk(1, 0));
        assert_eq!(order(&idx, c), vec![blk(4, 0), blk(1, 0)]);
        // A node without a copy: a no-op that keeps the recency.
        assert!(!idx.remove(A, blk(5, 0)));
        assert_eq!(order(&idx, B), vec![blk(5, 0), blk(4, 0), blk(1, 0)]);
        assert!(!idx.remove(B, blk(1, 0)));
        assert!(idx.remove(c, blk(1, 0)));
        assert!(!idx.is_tracked(blk(1, 0)));
        assert!(idx.remove(A, blk(7, 0)), "untracked blocks are gone");
    }

    #[test]
    fn recency_entries_are_no_larger_than_victim_entries() {
        assert!(
            std::mem::size_of::<Option<Touched>>() <= std::mem::size_of::<Option<Entry<u64>>>()
        );
    }

    #[test]
    #[should_panic(expected = "no slot arena attached")]
    fn unattached_recency_index_rejects_inserts() {
        RecencyIndex::default().insert(A, blk(0, 0));
    }
}
