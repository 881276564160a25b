//! Block storage substrate: the analogue of Spark's `BlockManager` stack.
//!
//! Each worker node owns a [`BlockManager`] combining a capacity-bounded
//! [`MemoryStore`] (the cache the policies manage) and an unbounded
//! [`DiskStore`] (local spill / shuffle territory). A cluster-wide
//! [`BlockMaster`] tracks which nodes hold which blocks — the
//! `BlockManagerMaster` role in the paper's Figure 3 — so tasks and the MRD
//! prefetcher can resolve remote locations. [`CacheStats`] accounts hits,
//! misses, evictions and prefetches for the evaluation reports.
//!
//! Blocks carry no payload, only sizes: the simulator needs byte accounting,
//! not data.

pub mod disk;
pub mod manager;
pub mod master;
pub mod memory;
pub mod stats;

pub use disk::DiskStore;
pub use manager::{BlockManager, BlockWhere};
pub use master::{BlockMaster, MemCopy};
pub use memory::{InsertError, MemoryStore};
pub use stats::CacheStats;

use std::fmt;

/// Identifier of a worker node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}
