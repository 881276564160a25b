//! Block storage substrate: the analogue of Spark's `BlockManager` stack.
//!
//! Each worker node owns a capacity-bounded [`MemoryStore`] (the cache the
//! policies manage), the node-local half of Spark's `BlockManager`. A
//! cluster-wide [`BlockMaster`] tracks which nodes hold which blocks in
//! memory and on disk — the `BlockManagerMaster` role in the paper's
//! Figure 3 — so tasks
//! and the MRD prefetcher can resolve remote locations. The master's disk
//! table is the only record of a spilled copy: local disk is unbounded (the
//! paper's testbed gives each node 200 GB of disk against 8 GB of RAM), so
//! a node needs no table of its own to account for it, and disk bandwidth
//! lives in the cluster simulator's FIFO resources. [`CacheStats`] is the row of
//! hits, misses, evictions and prefetches the engine counts per application
//! and node for the evaluation reports; the stores themselves count nothing.
//!
//! Blocks carry no payload, only sizes: the simulator needs byte accounting,
//! not data.

pub mod master;
pub mod memory;
pub mod stats;

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
