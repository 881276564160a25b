//! Per-node block manager: memory cache + local disk.

use crate::disk::DiskStore;
use crate::memory::{InsertError, MemoryStore};
use refdist_dag::{BlockId, BlockSlots};
use std::sync::Arc;

/// A worker node's block manager, combining the memory cache and local disk.
#[derive(Debug, Clone)]
pub struct BlockManager {
    /// The bounded memory cache.
    pub memory: MemoryStore,
    /// Local disk (spills, shuffle output).
    pub disk: DiskStore,
}

impl BlockManager {
    /// Create a manager with `memory_capacity` bytes of cache over the
    /// blocks of `slots`.
    pub fn with_slots(memory_capacity: u64, slots: Arc<BlockSlots>) -> Self {
        BlockManager {
            memory: MemoryStore::with_slots(memory_capacity, slots),
            disk: DiskStore::new(),
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission): the memory
    /// store resolves the owners of newly admitted blocks through it. Neither
    /// store keeps anything per slot, so nothing grows.
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.memory.adopt(slots);
    }

    /// Try to cache a block in memory. On `NeedsEviction` the caller runs the
    /// policy's victim selection and calls [`BlockManager::evict`], then
    /// retries.
    pub fn put_memory(&mut self, block: BlockId, size: u64) -> Result<(), InsertError> {
        self.memory.insert(block, size)
    }

    /// Evict one block from memory. When `spill` is set (MEMORY_AND_DISK),
    /// the block moves to local disk; otherwise it is dropped.
    ///
    /// Returns the evicted size.
    pub fn evict(&mut self, block: BlockId, spill: bool) -> Option<u64> {
        let size = self.memory.remove(block)?;
        if spill {
            self.disk.insert(block, size);
        }
        Some(size)
    }

    /// Remove a block everywhere on this node (purge order). Returns the
    /// size freed from memory, if the block was resident there.
    pub fn purge(&mut self, block: BlockId) -> Option<u64> {
        let freed = self.memory.remove(block);
        self.disk.remove(block);
        freed
    }

    /// Fraction of the memory cache currently free, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        if self.memory.capacity() == 0 {
            0.0
        } else {
            self.memory.free() as f64 / self.memory.capacity() as f64
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

    /// A manager over rdd 0 × partitions 0..4.
    fn mgr_with(capacity: u64) -> BlockManager {
        let slots = BlockSlots::from_counts([(RddId(0), 4)]);
        BlockManager::with_slots(capacity, Arc::new(slots))
    }

    fn mgr() -> BlockManager {
        mgr_with(100)
    }

    #[test]
    fn evict_with_spill_moves_to_disk() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        assert_eq!(m.evict(blk(0, 0), true), Some(10));
        assert!(!m.memory.contains(blk(0, 0)));
        assert!(m.disk.contains(blk(0, 0)));
    }

    #[test]
    fn evict_without_spill_drops() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        assert_eq!(m.evict(blk(0, 0), false), Some(10));
        assert!(!m.memory.contains(blk(0, 0)));
        assert!(!m.disk.contains(blk(0, 0)));
    }

    #[test]
    fn evict_missing_is_none() {
        let mut m = mgr();
        assert_eq!(m.evict(blk(0, 0), true), None);
    }

    #[test]
    fn purge_clears_memory_and_disk() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        m.disk.insert(blk(0, 0), 10);
        assert_eq!(m.purge(blk(0, 0)), Some(10));
        assert!(!m.memory.contains(blk(0, 0)));
        assert!(!m.disk.contains(blk(0, 0)));
        m.disk.insert(blk(0, 1), 10);
        assert_eq!(m.purge(blk(0, 1)), None, "a disk-only copy frees no memory");
        assert!(!m.disk.contains(blk(0, 1)));
    }

    #[test]
    fn free_fraction() {
        let mut m = mgr();
        assert_eq!(m.free_fraction(), 1.0);
        m.put_memory(blk(0, 0), 25).unwrap();
        assert!((m.free_fraction() - 0.75).abs() < 1e-12);
        let z = mgr_with(0);
        assert_eq!(z.free_fraction(), 0.0);
    }
}
