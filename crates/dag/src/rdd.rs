//! RDDs and their dependencies.

use crate::ids::RddId;

/// How an RDD depends on a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dependency {
    /// Narrow dependency: each child partition reads a bounded set of parent
    /// partitions (modelled as one-to-one). Narrow chains pipeline inside a
    /// single stage.
    Narrow(RddId),
    /// Wide (shuffle) dependency: every child partition reads from all parent
    /// partitions. Forces a stage boundary.
    Shuffle(RddId),
}

impl Dependency {
    /// The parent RDD this dependency points at.
    #[inline]
    pub fn parent(self) -> RddId {
        match self {
            Dependency::Narrow(p) | Dependency::Shuffle(p) => p,
        }
    }

    /// Whether this is a shuffle (wide) dependency.
    #[inline]
    pub fn is_shuffle(self) -> bool {
        matches!(self, Dependency::Shuffle(_))
    }
}

/// Persistence level for a cached RDD, mirroring Spark's `StorageLevel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageLevel {
    /// Not persisted: recomputed on every use.
    #[default]
    None,
    /// Cached in memory only; evicted blocks are dropped and recomputed on
    /// the next miss (Spark's `MEMORY_ONLY`, the `.cache()` default).
    MemoryOnly,
    /// Cached in memory, spilled to local disk on eviction
    /// (Spark's `MEMORY_AND_DISK`).
    MemoryAndDisk,
}

impl StorageLevel {
    /// Whether the RDD participates in the block cache at all.
    #[inline]
    pub fn is_cached(self) -> bool {
        !matches!(self, StorageLevel::None)
    }

    /// Whether evicted blocks survive on local disk.
    #[inline]
    pub fn spills_to_disk(self) -> bool {
        matches!(self, StorageLevel::MemoryAndDisk)
    }
}

/// One RDD: a named, partitioned dataset plus the lineage to rebuild it.
#[derive(Debug, Clone)]
pub struct Rdd {
    /// Identifier (index into [`crate::AppSpec::rdds`]).
    pub id: RddId,
    /// Human-readable name (e.g. `"ranks_iter3"`).
    pub name: String,
    /// Number of partitions; each partition is one block.
    pub num_partitions: u32,
    /// Size of each partition block, in bytes.
    pub block_size: u64,
    /// Compute cost to produce one partition from its (already available)
    /// inputs, in microseconds.
    pub compute_us: u64,
    /// Persistence level (set by the program's `.cache()`/`.persist()`).
    pub storage: StorageLevel,
    /// Dependencies on parent RDDs. Empty for input RDDs, which are read
    /// from external storage (HDFS in the paper's testbed).
    pub deps: Vec<Dependency>,
}

impl Rdd {
    /// Whether this RDD is read directly from external storage.
    #[inline]
    pub fn is_input(&self) -> bool {
        self.deps.is_empty()
    }

    /// Whether the program asked for this RDD to be cached.
    #[inline]
    pub fn is_cached(&self) -> bool {
        self.storage.is_cached()
    }

    /// Total dataset size across partitions, in bytes.
    #[inline]
    pub fn total_size(&self) -> u64 {
        self.block_size * self.num_partitions as u64
    }

    /// Parent RDDs reached through shuffle dependencies.
    pub fn shuffle_parents(&self) -> impl Iterator<Item = RddId> + '_ {
        self.deps
            .iter()
            .filter(|d| d.is_shuffle())
            .map(|d| d.parent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rdd {
        Rdd {
            id: RddId(2),
            name: "joined".into(),
            num_partitions: 4,
            block_size: 100,
            compute_us: 10,
            storage: StorageLevel::MemoryOnly,
            deps: vec![Dependency::Narrow(RddId(0)), Dependency::Shuffle(RddId(1))],
        }
    }

    #[test]
    fn dependency_accessors() {
        let d = Dependency::Shuffle(RddId(9));
        assert!(d.is_shuffle());
        assert_eq!(d.parent(), RddId(9));
        assert!(!Dependency::Narrow(RddId(1)).is_shuffle());
    }

    #[test]
    fn storage_level_flags() {
        assert!(!StorageLevel::None.is_cached());
        assert!(StorageLevel::MemoryOnly.is_cached());
        assert!(!StorageLevel::MemoryOnly.spills_to_disk());
        assert!(StorageLevel::MemoryAndDisk.spills_to_disk());
    }

    #[test]
    fn rdd_parent_partitions() {
        let r = sample();
        assert!(!r.is_input());
        assert!(r.is_cached());
        assert_eq!(r.total_size(), 400);
        assert_eq!(r.shuffle_parents().collect::<Vec<_>>(), vec![RddId(1)]);
    }

    #[test]
    fn input_rdd_has_no_deps() {
        let mut r = sample();
        r.deps.clear();
        assert!(r.is_input());
    }
}
