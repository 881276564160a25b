//! Cluster-wide block location registry (Spark's `BlockManagerMaster`).
//!
//! Nodes report block placement changes here; tasks resolving a remote read
//! and the MRD prefetcher resolving a source copy query it. Each block's
//! holders are a small sorted `Vec<NodeId>` so lookups are deterministic
//! (lowest node id wins a remote-source tie, exactly as the previous
//! `BTreeSet` representation ordered them); the per-block tables are
//! [`SlotMap`]s — dense vectors when built over a [`BlockSlots`] arena
//! ([`BlockMaster::with_slots`]), hash maps otherwise.

use crate::NodeId;
use refdist_dag::{BlockId, BlockSlots, SlotMap};
use std::sync::Arc;

/// A block's holders: ascending node ids, no duplicates.
type NodeVec = Vec<NodeId>;

fn insert_node(set: &mut NodeVec, node: NodeId) {
    if let Err(pos) = set.binary_search(&node) {
        set.insert(pos, node);
    }
}

/// Tracks which nodes hold each block in memory and on disk.
#[derive(Debug, Clone)]
pub struct BlockMaster {
    memory: SlotMap<NodeVec>,
    disk: SlotMap<NodeVec>,
}

impl Default for BlockMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockMaster {
    /// Empty hash-backed registry.
    pub fn new() -> Self {
        BlockMaster {
            memory: SlotMap::hashed(),
            disk: SlotMap::hashed(),
        }
    }

    /// Empty registry with dense per-slot tables over `slots`.
    pub fn with_slots(slots: Arc<BlockSlots>) -> Self {
        BlockMaster {
            memory: SlotMap::dense_full(Arc::clone(&slots)),
            disk: SlotMap::dense_full(slots),
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission); see
    /// [`SlotMap::adopt`].
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.memory.adopt(Arc::clone(slots));
        self.disk.adopt(Arc::clone(slots));
    }

    fn register(table: &mut SlotMap<NodeVec>, block: BlockId, node: NodeId) {
        match table.get_mut(block) {
            Some(set) => insert_node(set, node),
            None => {
                table.insert(block, vec![node]);
            }
        }
    }

    fn unregister(table: &mut SlotMap<NodeVec>, block: BlockId, node: NodeId) {
        if let Some(set) = table.get_mut(block) {
            if let Ok(pos) = set.binary_search(&node) {
                set.remove(pos);
            }
            if set.is_empty() {
                table.remove(block);
            }
        }
    }

    /// Record that `node` holds `block` in memory.
    pub fn register_memory(&mut self, block: BlockId, node: NodeId) {
        Self::register(&mut self.memory, block, node);
    }

    /// Record that `node` holds `block` on disk.
    pub fn register_disk(&mut self, block: BlockId, node: NodeId) {
        Self::register(&mut self.disk, block, node);
    }

    /// Record that `node` no longer holds `block` in memory.
    pub fn unregister_memory(&mut self, block: BlockId, node: NodeId) {
        Self::unregister(&mut self.memory, block, node);
    }

    /// Record that `node` no longer holds `block` on disk.
    pub fn unregister_disk(&mut self, block: BlockId, node: NodeId) {
        Self::unregister(&mut self.disk, block, node);
    }

    /// Nodes holding `block` in memory, ascending.
    pub fn memory_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.memory.get(block).into_iter().flatten().copied()
    }

    /// Nodes holding `block` on disk, ascending.
    pub fn disk_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.disk.get(block).into_iter().flatten().copied()
    }

    /// The lowest node holding `block` in memory or on disk. A caller that
    /// de-registers each holder it visits walks them all in ascending order.
    pub fn first_holder(&self, block: BlockId) -> Option<NodeId> {
        let mem = self.memory_locations(block).next();
        mem.into_iter()
            .chain(self.disk_locations(block).next())
            .min()
    }

    /// Whether any node holds `block` in memory.
    pub fn in_memory_anywhere(&self, block: BlockId) -> bool {
        self.memory.contains(block)
    }

    /// Every block resident in at least one node's memory whose slot lies
    /// in `run`, one entry per block, ascending by slot — one application's
    /// share of a dense registry, collected in O(run), not O(arena).
    ///
    /// # Panics
    /// Panics on a hash-backed registry, which has no slot order.
    pub fn memory_resident_in(&self, run: std::ops::Range<u32>) -> impl Iterator<Item = BlockId> + '_ {
        self.memory.iter_run(run).map(|(b, _)| b)
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
        if let Some(set) = mem {
            if set.binary_search(&reader).is_ok() {
                return Some((reader, true));
            }
        }
        let disk = self.disk.get(block);
        if let Some(set) = disk {
            if set.binary_search(&reader).is_ok() {
                return Some((reader, false));
            }
        }
        if let Some(&n) = mem.and_then(|set| set.first()) {
            return Some((n, true));
        }
        if let Some(&n) = disk.and_then(|set| set.first()) {
            return Some((n, false));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    /// Run a test body against both backings; the dense arena covers rdds
    /// 0..1 × partitions 0..4.
    fn both(f: impl Fn(BlockMaster)) {
        f(BlockMaster::new());
        let slots = Arc::new(BlockSlots::from_counts([(RddId(0), 4)]));
        f(BlockMaster::with_slots(slots));
    }

    #[test]
    fn register_and_lookup() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
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
        });
    }

    #[test]
    fn unregister_cleans_up() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.unregister_memory(blk(0, 0), NodeId(1));
            assert!(!m.in_memory_anywhere(blk(0, 0)));
            assert!(!m.anywhere(blk(0, 0)));
            // Unregistering again is harmless.
            m.unregister_memory(blk(0, 0), NodeId(1));
        });
    }

    #[test]
    fn double_register_keeps_one_entry() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 0), NodeId(1));
            assert_eq!(m.memory_locations(blk(0, 0)).count(), 1);
            m.unregister_memory(blk(0, 0), NodeId(1));
            assert!(!m.in_memory_anywhere(blk(0, 0)));
        });
    }

    #[test]
    fn best_source_prefers_local_memory() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(0));
            m.register_memory(blk(0, 0), NodeId(1));
            assert_eq!(m.best_source(blk(0, 0), NodeId(1)), Some((NodeId(1), true)));
        });
    }

    #[test]
    fn best_source_prefers_local_disk_over_remote_memory() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(2));
            m.register_disk(blk(0, 0), NodeId(1));
            assert_eq!(
                m.best_source(blk(0, 0), NodeId(1)),
                Some((NodeId(1), false))
            );
        });
    }

    #[test]
    fn best_source_falls_back_to_remote() {
        both(|mut m| {
            m.register_disk(blk(0, 0), NodeId(3));
            assert_eq!(
                m.best_source(blk(0, 0), NodeId(0)),
                Some((NodeId(3), false))
            );
            assert_eq!(m.best_source(blk(0, 3), NodeId(0)), None);
        });
    }

    #[test]
    fn remote_memory_beats_remote_disk() {
        both(|mut m| {
            m.register_disk(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 0), NodeId(2));
            assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(2), true)));
        });
    }

    #[test]
    fn memory_resident_is_deduped_across_nodes() {
        let slots = Arc::new(BlockSlots::from_counts([(RddId(0), 4)]));
        let mut m = BlockMaster::with_slots(slots);
        m.register_memory(blk(0, 1), NodeId(0));
        m.register_memory(blk(0, 1), NodeId(1));
        m.register_memory(blk(0, 0), NodeId(1));
        m.register_memory(blk(0, 3), NodeId(0));
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
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 1), NodeId(1));
            m.register_memory(blk(0, 1), NodeId(2));
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
            m.register_memory(blk(0, 0), NodeId(1));
            assert!(m.in_memory_anywhere(blk(0, 0)));
        });
    }

    #[test]
    fn first_holder_merges_memory_and_disk() {
        both(|mut m| {
            assert_eq!(m.first_holder(blk(0, 0)), None);
            m.register_memory(blk(0, 0), NodeId(3));
            m.register_disk(blk(0, 0), NodeId(2));
            m.register_memory(blk(0, 0), NodeId(5));
            let mut order = Vec::new();
            while let Some(n) = m.first_holder(blk(0, 0)) {
                order.push(n);
                m.unregister_memory(blk(0, 0), n);
                m.unregister_disk(blk(0, 0), n);
            }
            assert_eq!(order, vec![NodeId(2), NodeId(3), NodeId(5)]);
        });
    }

    #[test]
    fn deterministic_remote_choice() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(5));
            m.register_memory(blk(0, 0), NodeId(3));
            // Sorted holder list: the lowest node id wins.
            assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(3), true)));
        });
    }
}
