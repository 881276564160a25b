//! Per-node block manager: the memory cache. A node's spilled copies are
//! recorded once, in the [`BlockMaster`](crate::BlockMaster)'s disk table.

use crate::memory::{InsertError, MemoryStore};
use refdist_dag::{BlockId, BlockSlots};
use std::sync::Arc;

/// A worker node's block manager.
#[derive(Debug, Clone)]
pub struct BlockManager {
    /// The bounded memory cache.
    pub memory: MemoryStore,
}

impl BlockManager {
    /// Create a manager with `memory_capacity` bytes of cache over the
    /// blocks of `slots`.
    pub fn with_slots(memory_capacity: u64, slots: Arc<BlockSlots>) -> Self {
        BlockManager {
            memory: MemoryStore::with_slots(memory_capacity, slots),
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission): the memory
    /// store resolves the owners of newly admitted blocks through it. It
    /// keeps nothing per slot, so nothing grows.
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.memory.adopt(slots);
    }

    /// Try to cache a block in memory. On `NeedsEviction` the caller runs the
    /// policy's victim selection and calls [`BlockManager::evict`], then
    /// retries.
    pub fn put_memory(&mut self, block: BlockId, size: u64) -> Result<(), InsertError> {
        self.memory.insert(block, size)
    }

    /// Drop one block from memory (an eviction or a purge), returning the
    /// size freed. A spill to disk (MEMORY_AND_DISK) is the caller's
    /// [`BlockMaster::register_disk`](crate::BlockMaster::register_disk).
    pub fn evict(&mut self, block: BlockId) -> Option<u64> {
        self.memory.remove(block)
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
    fn evict_drops_from_memory() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        assert_eq!(m.evict(blk(0, 0)), Some(10));
        assert!(!m.memory.contains(blk(0, 0)));
        assert_eq!(m.memory.used(), 0);
    }

    #[test]
    fn evict_missing_is_none() {
        let mut m = mgr();
        assert_eq!(m.evict(blk(0, 0)), None);
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
