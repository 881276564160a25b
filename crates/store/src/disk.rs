//! Unbounded local disk store.
//!
//! Holds spilled cache blocks (`MEMORY_AND_DISK` evictions) and materialized
//! shuffle output markers. Capacity is not modelled — the paper's testbed
//! gives each node 200 GB of disk against 8 GB of RAM, so disk space is never
//! the binding constraint; disk *bandwidth* is, and that lives in the
//! cluster simulator's FIFO resources.

use refdist_dag::hash::HashMap;
use refdist_dag::BlockId;

/// Set of blocks present on a node's local disk, with sizes.
#[derive(Debug, Clone, Default)]
pub struct DiskStore {
    blocks: HashMap<BlockId, u64>,
    bytes: u64,
}

impl DiskStore {
    /// Empty disk store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `block` is on disk.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains_key(&block)
    }

    /// Size of a stored block.
    #[inline]
    pub fn size_of(&self, block: BlockId) -> Option<u64> {
        self.blocks.get(&block).copied()
    }

    /// Store a block (idempotent).
    pub fn insert(&mut self, block: BlockId, size: u64) {
        if self.blocks.insert(block, size).is_none() {
            self.bytes += size;
        }
    }

    /// Remove a block, returning its size.
    pub fn remove(&mut self, block: BlockId) -> Option<u64> {
        let size = self.blocks.remove(&block);
        if let Some(s) = size {
            self.bytes -= s;
        }
        size
    }

    /// Remove every stored block (node failure), returning them sorted.
    pub fn drain(&mut self) -> Vec<(BlockId, u64)> {
        let mut all: Vec<(BlockId, u64)> = self.blocks.drain().collect();
        all.sort_unstable();
        self.bytes = 0;
        all
    }

    /// Number of stored blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes stored.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut d = DiskStore::new();
        d.insert(blk(1, 0), 64);
        assert!(d.contains(blk(1, 0)));
        assert_eq!(d.size_of(blk(1, 0)), Some(64));
        assert_eq!(d.bytes(), 64);
        assert_eq!(d.remove(blk(1, 0)), Some(64));
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut d = DiskStore::new();
        d.insert(blk(1, 0), 64);
        d.insert(blk(1, 0), 64);
        assert_eq!(d.len(), 1);
        assert_eq!(d.bytes(), 64);
    }

    #[test]
    fn drain_empties_disk() {
        let mut d = DiskStore::new();
        d.insert(blk(2, 0), 5);
        d.insert(blk(1, 0), 7);
        assert_eq!(d.drain(), vec![(blk(1, 0), 7), (blk(2, 0), 5)]);
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut d = DiskStore::new();
        assert_eq!(d.remove(blk(9, 9)), None);
    }
}
