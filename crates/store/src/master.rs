//! Cluster-wide block location registry (Spark's `BlockManagerMaster`).
//!
//! Nodes report block placement changes here; tasks resolving a remote read
//! and the MRD prefetcher resolving a source copy query it. The master's
//! memory entry for a block is the one place that holds every per-copy
//! fact: the holder, the copy's in-flight arrival time and its
//! unused-prefetch mark ([`MemCopy`]). A node's own tables keep nothing per
//! slot, so the engine's per-access residency test, pending lookup and
//! prefetch mark are one read of one record.
//!
//! Each entry lists its copies in ascending node order (the lowest node id
//! wins a remote-source tie): the lowest copy inline, the others in an
//! overflow allocated only for a block with more than one copy, so a
//! single-copy block allocates nothing. The disk table has the same shape
//! over bare [`NodeId`]s, and is the only record of a spilled copy: nodes
//! keep no disk table of their own. Both tables are dense [`SlotMap`]s
//! over a [`BlockSlots`] arena.

use crate::NodeId;
use refdist_dag::{BlockId, BlockSlots, SlotMap};
use std::sync::Arc;

/// One in-memory copy of a block, as the master records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCopy {
    /// The node holding the copy.
    pub node: NodeId,
    /// When the copy's bytes arrive, in simulated microseconds; 0 once the
    /// copy has settled. A reader waits until `max(now, avail)`.
    pub avail: u64,
    /// The copy was prefetched and no task has read it yet.
    pub prefetched: bool,
}

impl MemCopy {
    /// A settled, demand-cached copy on `node`.
    pub fn settled(node: NodeId) -> Self {
        MemCopy {
            node,
            avail: 0,
            prefetched: false,
        }
    }
}

/// A copy record, keyed by its holder.
trait Holder: Copy {
    fn node(&self) -> NodeId;
}

impl Holder for NodeId {
    fn node(&self) -> NodeId {
        *self
    }
}

impl Holder for MemCopy {
    fn node(&self) -> NodeId {
        self.node
    }
}

/// A block's copies in ascending node order: the lowest inline, the rest
/// (never empty when present) in an overflow boxed so the entry stays as
/// small as one `Vec`.
#[derive(Debug, Clone)]
struct Copies<T> {
    first: T,
    #[allow(
        clippy::box_collection,
        reason = "a bare Vec would grow every slot's entry from 24 B to 40 B"
    )]
    rest: Option<Box<Vec<T>>>,
}

impl<T: Holder> Copies<T> {
    fn one(copy: T) -> Self {
        Copies {
            first: copy,
            rest: None,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        std::iter::once(&self.first).chain(self.rest.iter().flat_map(|r| r.iter()))
    }

    fn is_single(&self) -> bool {
        self.rest.is_none()
    }

    /// Position of `node` in the overflow, or where it would go.
    fn search_rest(rest: &[T], node: NodeId) -> Result<usize, usize> {
        rest.binary_search_by_key(&node, |c| c.node())
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        if self.first.node() == node {
            return Some(&mut self.first);
        }
        if node < self.first.node() {
            return None;
        }
        let rest = self.rest.as_deref_mut()?;
        let pos = Self::search_rest(rest, node).ok()?;
        Some(&mut rest[pos])
    }

    fn get(&self, node: NodeId) -> Option<&T> {
        if self.first.node() == node {
            return Some(&self.first);
        }
        if node < self.first.node() {
            return None;
        }
        let rest = self.rest.as_deref()?;
        Some(&rest[Self::search_rest(rest, node).ok()?])
    }

    /// Add `copy` on a node holding none yet.
    fn insert_new(&mut self, copy: T) {
        let rest = self.rest.get_or_insert_with(Box::default);
        if copy.node() < self.first.node() {
            rest.insert(0, std::mem::replace(&mut self.first, copy));
        } else {
            let pos = Self::search_rest(rest, copy.node()).unwrap_err();
            rest.insert(pos, copy);
        }
    }

    /// Remove `node`'s copy from an entry holding at least one other; the
    /// next-lowest copy moves inline when the inline one goes.
    fn remove_from_many(&mut self, node: NodeId) -> Option<T> {
        let rest = self.rest.as_deref_mut()?;
        let removed = if self.first.node() == node {
            Some(std::mem::replace(&mut self.first, rest.remove(0)))
        } else {
            Self::search_rest(rest, node)
                .ok()
                .map(|pos| rest.remove(pos))
        };
        if rest.is_empty() {
            self.rest = None;
        }
        removed
    }
}

/// Remove `node`'s copy of `block` from `table`, dropping the entry with
/// its last copy.
fn unregister<T: Holder>(
    table: &mut SlotMap<Copies<T>>,
    block: BlockId,
    node: NodeId,
) -> Option<T> {
    let copies = table.get_mut(block)?;
    if !copies.is_single() {
        return copies.remove_from_many(node);
    }
    if copies.first.node() != node {
        return None;
    }
    table.remove(block).map(|c| c.first)
}

/// Tracks which nodes hold each block in memory and on disk, and the
/// per-copy marks of each memory copy.
#[derive(Debug, Clone)]
pub struct BlockMaster {
    memory: SlotMap<Copies<MemCopy>>,
    disk: SlotMap<Copies<NodeId>>,
    /// Memory copies registered across every block and node.
    memory_copies: usize,
}

impl BlockMaster {
    /// Empty registry with dense per-slot tables over `slots`.
    pub fn with_slots(slots: Arc<BlockSlots>) -> Self {
        BlockMaster {
            memory: SlotMap::full(Arc::clone(&slots)),
            disk: SlotMap::full(slots),
            memory_copies: 0,
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission); see
    /// [`SlotMap::adopt`].
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.memory.adopt(Arc::clone(slots));
        self.disk.adopt(Arc::clone(slots));
    }

    /// Record `copy` of `block` in memory. Re-registering a node that
    /// already holds the block replaces the copy's arrival time and keeps
    /// its unused-prefetch mark (a prefetched copy that no task read stays
    /// unread).
    pub fn register_memory(&mut self, block: BlockId, copy: MemCopy) {
        match self.memory.get_mut(block) {
            None => {
                self.memory.insert(block, Copies::one(copy));
            }
            Some(copies) => match copies.get_mut(copy.node) {
                Some(old) => {
                    old.avail = copy.avail;
                    old.prefetched |= copy.prefetched;
                    return;
                }
                None => copies.insert_new(copy),
            },
        }
        self.memory_copies += 1;
    }

    /// Record that `node` holds `block` on disk.
    pub fn register_disk(&mut self, block: BlockId, node: NodeId) {
        match self.disk.get_mut(block) {
            None => {
                self.disk.insert(block, Copies::one(node));
            }
            Some(copies) => {
                if copies.get(node).is_none() {
                    copies.insert_new(node);
                }
            }
        }
    }

    /// Record that `node` no longer holds `block` in memory, returning the
    /// removed copy with its marks.
    pub fn unregister_memory(&mut self, block: BlockId, node: NodeId) -> Option<MemCopy> {
        let removed = unregister(&mut self.memory, block, node);
        self.memory_copies -= removed.is_some() as usize;
        removed
    }

    /// Record that `node` no longer holds `block` on disk.
    pub fn unregister_disk(&mut self, block: BlockId, node: NodeId) {
        unregister(&mut self.disk, block, node);
    }

    /// Nodes holding `block` in memory, ascending.
    pub fn memory_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.memory
            .get(block)
            .into_iter()
            .flat_map(Copies::iter)
            .map(|c| c.node)
    }

    /// Nodes holding `block` on disk, ascending.
    pub fn disk_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.disk
            .get(block)
            .into_iter()
            .flat_map(Copies::iter)
            .copied()
    }

    /// `node`'s memory copy of `block`, if it holds one.
    pub fn memory_copy(&self, block: BlockId, node: NodeId) -> Option<&MemCopy> {
        self.memory.get(block)?.get(node)
    }

    /// Mutable access to `node`'s memory copy of `block`, to read its
    /// arrival time and take its unused-prefetch mark in one lookup.
    pub fn memory_copy_mut(&mut self, block: BlockId, node: NodeId) -> Option<&mut MemCopy> {
        self.memory.get_mut(block)?.get_mut(node)
    }

    /// Whether `node` holds `block` in memory.
    pub fn in_memory_on(&self, block: BlockId, node: NodeId) -> bool {
        self.memory_copy(block, node).is_some()
    }

    /// Memory copies registered across all blocks and nodes: one per
    /// resident block per node that holds it.
    pub fn memory_copy_count(&self) -> usize {
        self.memory_copies
    }

    /// The lowest node holding `block` in memory or on disk. A caller that
    /// de-registers each holder it visits walks them all in ascending order.
    pub fn first_holder(&self, block: BlockId) -> Option<NodeId> {
        let mem = self.memory.get(block).map(|c| c.first.node);
        let disk = self.disk.get(block).map(|c| c.first);
        mem.into_iter().chain(disk).min()
    }

    /// Whether any node holds `block` in memory.
    pub fn in_memory_anywhere(&self, block: BlockId) -> bool {
        self.memory.contains(block)
    }

    /// Every block resident in at least one node's memory whose slot lies
    /// in `run`, one entry per block, ascending by slot — one application's
    /// share of the registry, collected in O(run), not O(arena).
    pub fn memory_resident_in(
        &self,
        run: std::ops::Range<u32>,
    ) -> impl Iterator<Item = BlockId> + '_ {
        self.memory.iter_run(run).map(|(b, _)| b)
    }

    /// Every block `node` holds on disk, ascending by slot. The disk table
    /// is the only record of a spilled copy, so this walks all of it: a
    /// node crash's sweep, never a hot path.
    pub fn disk_blocks_on(&self, node: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        self.disk
            .iter()
            .filter(move |(_, c)| c.get(node).is_some())
            .map(|(b, _)| b)
    }

    /// Whether any node holds `block` at all.
    pub fn anywhere(&self, block: BlockId) -> bool {
        self.memory.contains(block) || self.disk.contains(block)
    }

    /// Best source to read `block` from, from `reader`'s point of view:
    /// local memory, then local disk, then remote memory, then remote disk.
    /// Returns the chosen node and whether that copy is in memory.
    pub fn best_source(&self, block: BlockId, reader: NodeId) -> Option<(NodeId, bool)> {
        let mem = self.memory.get(block);
        if mem.is_some_and(|c| c.get(reader).is_some()) {
            return Some((reader, true));
        }
        let disk = self.disk.get(block);
        if disk.is_some_and(|c| c.get(reader).is_some()) {
            return Some((reader, false));
        }
        if let Some(c) = mem {
            return Some((c.first.node, true));
        }
        disk.map(|c| (c.first, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    /// A registry whose arena covers rdd 0 × partitions 0..4.
    fn master() -> BlockMaster {
        BlockMaster::with_slots(Arc::new(BlockSlots::from_counts([(RddId(0), 4)])))
    }

    #[test]
    fn register_and_lookup() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        m.register_disk(blk(0, 0), NodeId(2));
        assert_eq!(
            m.memory_locations(blk(0, 0)).collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        assert_eq!(
            m.disk_locations(blk(0, 0)).collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        assert!(m.in_memory_anywhere(blk(0, 0)));
        assert!(m.anywhere(blk(0, 0)));
    }

    #[test]
    fn unregister_cleans_up() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        m.unregister_memory(blk(0, 0), NodeId(1));
        assert!(!m.in_memory_anywhere(blk(0, 0)));
        assert!(!m.anywhere(blk(0, 0)));
        // Unregistering again is harmless.
        m.unregister_memory(blk(0, 0), NodeId(1));
    }

    #[test]
    fn double_register_keeps_one_entry() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        assert_eq!(m.memory_locations(blk(0, 0)).count(), 1);
        m.unregister_memory(blk(0, 0), NodeId(1));
        assert!(!m.in_memory_anywhere(blk(0, 0)));
    }

    #[test]
    fn best_source_prefers_local_memory() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(0)));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        assert_eq!(m.best_source(blk(0, 0), NodeId(1)), Some((NodeId(1), true)));
    }

    #[test]
    fn best_source_prefers_local_disk_over_remote_memory() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(2)));
        m.register_disk(blk(0, 0), NodeId(1));
        assert_eq!(
            m.best_source(blk(0, 0), NodeId(1)),
            Some((NodeId(1), false))
        );
    }

    #[test]
    fn best_source_falls_back_to_remote() {
        let mut m = master();
        m.register_disk(blk(0, 0), NodeId(3));
        assert_eq!(
            m.best_source(blk(0, 0), NodeId(0)),
            Some((NodeId(3), false))
        );
        assert_eq!(m.best_source(blk(0, 3), NodeId(0)), None);
    }

    #[test]
    fn remote_memory_beats_remote_disk() {
        let mut m = master();
        m.register_disk(blk(0, 0), NodeId(1));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(2)));
        assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(2), true)));
    }

    #[test]
    fn memory_resident_is_deduped_across_nodes() {
        let mut m = master();
        m.register_memory(blk(0, 1), MemCopy::settled(NodeId(0)));
        m.register_memory(blk(0, 1), MemCopy::settled(NodeId(1)));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        m.register_memory(blk(0, 3), MemCopy::settled(NodeId(0)));
        m.register_disk(blk(0, 2), NodeId(0)); // disk-only: not resident
        let got: Vec<BlockId> = m.memory_resident_in(0..u32::MAX).collect();
        assert_eq!(got, vec![blk(0, 0), blk(0, 1), blk(0, 3)]);
        // A slot run restricts the scan.
        let got: Vec<BlockId> = m.memory_resident_in(1..3).collect();
        assert_eq!(got, vec![blk(0, 1)]);
        m.unregister_memory(blk(0, 0), NodeId(1));
        assert_eq!(m.memory_resident_in(0..4).count(), 2);
    }

    #[test]
    fn per_block_unregister_clears_exactly_one_node() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        m.register_memory(blk(0, 1), MemCopy::settled(NodeId(1)));
        m.register_memory(blk(0, 1), MemCopy::settled(NodeId(2)));
        m.register_disk(blk(0, 1), NodeId(1));
        m.register_disk(blk(0, 2), NodeId(1));
        m.register_disk(blk(0, 3), NodeId(2));
        // Executor loss: de-register each copy node 1 held.
        for b in [blk(0, 0), blk(0, 1)] {
            m.unregister_memory(b, NodeId(1));
        }
        for b in [blk(0, 1), blk(0, 2)] {
            m.unregister_disk(b, NodeId(1));
        }
        assert!(!m.anywhere(blk(0, 0)));
        assert!(!m.anywhere(blk(0, 2)));
        // Copies on surviving nodes are untouched.
        assert_eq!(
            m.memory_locations(blk(0, 1)).collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        assert_eq!(m.disk_locations(blk(0, 1)).count(), 0);
        assert_eq!(
            m.disk_locations(blk(0, 3)).collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        // Re-registration after a rejoin works as usual.
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        assert!(m.in_memory_anywhere(blk(0, 0)));
    }

    #[test]
    fn disk_blocks_on_sweeps_one_node() {
        let mut m = master();
        m.register_disk(blk(0, 3), NodeId(1));
        m.register_disk(blk(0, 1), NodeId(2));
        m.register_disk(blk(0, 1), NodeId(1));
        m.register_disk(blk(0, 2), NodeId(2));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(1)));
        let on = |m: &BlockMaster, n| m.disk_blocks_on(NodeId(n)).collect::<Vec<_>>();
        assert_eq!(on(&m, 1), vec![blk(0, 1), blk(0, 3)]);
        assert_eq!(on(&m, 2), vec![blk(0, 1), blk(0, 2)]);
        assert!(on(&m, 0).is_empty());
    }

    #[test]
    fn first_holder_merges_memory_and_disk() {
        let mut m = master();
        assert_eq!(m.first_holder(blk(0, 0)), None);
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(3)));
        m.register_disk(blk(0, 0), NodeId(2));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(5)));
        let mut order = Vec::new();
        while let Some(n) = m.first_holder(blk(0, 0)) {
            order.push(n);
            m.unregister_memory(blk(0, 0), n);
            m.unregister_disk(blk(0, 0), n);
        }
        assert_eq!(order, vec![NodeId(2), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn deterministic_remote_choice() {
        let mut m = master();
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(5)));
        m.register_memory(blk(0, 0), MemCopy::settled(NodeId(3)));
        // Sorted holder list: the lowest node id wins.
        assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(3), true)));
    }

    #[test]
    fn entries_are_no_larger_than_a_vec() {
        let vec = std::mem::size_of::<Option<Vec<NodeId>>>();
        assert!(std::mem::size_of::<Option<Copies<MemCopy>>>() <= vec);
        assert!(std::mem::size_of::<Option<Copies<NodeId>>>() <= vec);
    }

    #[test]
    fn copies_keep_their_marks_across_reordering() {
        let mut m = master();
        let copy = |n, avail, prefetched| MemCopy {
            node: NodeId(n),
            avail,
            prefetched,
        };
        m.register_memory(blk(0, 0), copy(4, 70, true));
        // A lower node moves the inline copy into the overflow.
        m.register_memory(blk(0, 0), copy(2, 0, false));
        m.register_memory(blk(0, 0), copy(6, 90, false));
        assert_eq!(m.memory_copy_count(), 3);
        assert_eq!(
            m.memory_locations(blk(0, 0)).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(4), NodeId(6)]
        );
        assert_eq!(
            m.memory_copy(blk(0, 0), NodeId(4)),
            Some(&copy(4, 70, true))
        );
        // Removing the inline copy moves the next-lowest one inline.
        assert_eq!(
            m.unregister_memory(blk(0, 0), NodeId(2)),
            Some(copy(2, 0, false))
        );
        assert_eq!(m.first_holder(blk(0, 0)), Some(NodeId(4)));
        assert_eq!(
            m.memory_copy(blk(0, 0), NodeId(6)),
            Some(&copy(6, 90, false))
        );
        // Re-registering replaces the arrival time and keeps the mark.
        m.register_memory(blk(0, 0), copy(4, 0, false));
        assert_eq!(m.memory_copy(blk(0, 0), NodeId(4)), Some(&copy(4, 0, true)));
        assert_eq!(m.memory_copy_count(), 2);
        assert_eq!(m.unregister_memory(blk(0, 0), NodeId(5)), None);
        assert_eq!(
            m.unregister_memory(blk(0, 0), NodeId(6)),
            Some(copy(6, 90, false))
        );
        assert_eq!(
            m.unregister_memory(blk(0, 0), NodeId(4)),
            Some(copy(4, 0, true))
        );
        assert!(!m.in_memory_anywhere(blk(0, 0)));
        assert_eq!(m.memory_copy_count(), 0);
    }
}
