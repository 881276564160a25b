//! Per-node block manager: memory + disk + statistics.

use crate::disk::DiskStore;
use crate::memory::{InsertError, MemoryStore};
use crate::stats::CacheStats;
use crate::NodeId;
use refdist_dag::BlockId;

/// Where a block lookup found the block on this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockWhere {
    /// Resident in the memory cache.
    Memory,
    /// On local disk only.
    Disk,
    /// Not present on this node.
    Missing,
}

/// A worker node's block manager, combining the memory cache and local disk.
#[derive(Debug, Clone)]
pub struct BlockManager {
    /// Owning node.
    pub node: NodeId,
    /// The bounded memory cache.
    pub memory: MemoryStore,
    /// Local disk (spills, shuffle output).
    pub disk: DiskStore,
    /// Per-node cache statistics.
    pub stats: CacheStats,
}

impl BlockManager {
    /// Create a manager for `node` with `memory_capacity` bytes of cache
    /// over the blocks of `slots`.
    pub fn with_slots(
        node: NodeId,
        memory_capacity: u64,
        slots: std::sync::Arc<refdist_dag::BlockSlots>,
    ) -> Self {
        BlockManager {
            node,
            memory: MemoryStore::with_slots(memory_capacity, slots),
            disk: DiskStore::new(),
            stats: CacheStats::new(),
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission): the memory
    /// store resolves the owners of newly admitted blocks through it. Neither
    /// store keeps anything per slot, so nothing grows.
    pub fn adopt(&mut self, slots: &std::sync::Arc<refdist_dag::BlockSlots>) {
        self.memory.adopt(slots);
    }

    /// Locate a block on this node (memory preferred).
    pub fn locate(&self, block: BlockId) -> BlockWhere {
        if self.memory.contains(block) {
            BlockWhere::Memory
        } else if self.disk.contains(block) {
            BlockWhere::Disk
        } else {
            BlockWhere::Missing
        }
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
        self.stats.evictions += 1;
        self.stats.bytes_evicted += size;
        Some(size)
    }

    /// Remove a block everywhere on this node (purge order), counting it as
    /// a purge rather than a pressure eviction.
    pub fn purge(&mut self, block: BlockId) -> u64 {
        let mut freed = 0;
        if let Some(s) = self.memory.remove(block) {
            freed += s;
            self.stats.purges += 1;
            self.stats.bytes_evicted += s;
        }
        if let Some(s) = self.disk.remove(block) {
            freed += s;
        }
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
    use refdist_dag::{BlockSlots, RddId};
    use std::sync::Arc;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    /// A manager over rdd 0 × partitions 0..4.
    fn mgr_with(node: u32, capacity: u64) -> BlockManager {
        let slots = BlockSlots::from_counts([(RddId(0), 4)]);
        BlockManager::with_slots(NodeId(node), capacity, Arc::new(slots))
    }

    fn mgr() -> BlockManager {
        mgr_with(0, 100)
    }

    #[test]
    fn locate_prefers_memory() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        m.disk.insert(blk(0, 0), 10);
        assert_eq!(m.locate(blk(0, 0)), BlockWhere::Memory);
        assert_eq!(m.locate(blk(0, 1)), BlockWhere::Missing);
    }

    #[test]
    fn evict_with_spill_moves_to_disk() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        assert_eq!(m.evict(blk(0, 0), true), Some(10));
        assert_eq!(m.locate(blk(0, 0)), BlockWhere::Disk);
        assert_eq!(m.stats.evictions, 1);
        assert_eq!(m.stats.bytes_evicted, 10);
    }

    #[test]
    fn evict_without_spill_drops() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        assert_eq!(m.evict(blk(0, 0), false), Some(10));
        assert_eq!(m.locate(blk(0, 0)), BlockWhere::Missing);
    }

    #[test]
    fn evict_missing_is_none() {
        let mut m = mgr();
        assert_eq!(m.evict(blk(0, 0), true), None);
        assert_eq!(m.stats.evictions, 0);
    }

    #[test]
    fn purge_clears_memory_and_disk() {
        let mut m = mgr();
        m.put_memory(blk(0, 0), 10).unwrap();
        m.disk.insert(blk(0, 0), 10);
        assert_eq!(m.purge(blk(0, 0)), 20);
        assert_eq!(m.locate(blk(0, 0)), BlockWhere::Missing);
        assert_eq!(m.stats.purges, 1);
    }

    #[test]
    fn free_fraction() {
        let mut m = mgr();
        assert_eq!(m.free_fraction(), 1.0);
        m.put_memory(blk(0, 0), 25).unwrap();
        assert!((m.free_fraction() - 0.75).abs() < 1e-12);
        let z = mgr_with(1, 0);
        assert_eq!(z.free_fraction(), 0.0);
    }
}
