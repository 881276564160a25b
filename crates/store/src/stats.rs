//! Cache statistics: one row per node of an application, and aggregated.

/// Counters a `CacheMonitor` reports to the manager (`reportCacheStatus` in
/// the paper's Table 2) and the evaluation reads out at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served from memory.
    pub hits: u64,
    /// Of those hits, how many were served from a *remote* node's memory.
    pub remote_hits: u64,
    /// Of those hits, how many were satisfied by a prefetched block.
    pub prefetch_hits: u64,
    /// Accesses that missed memory.
    pub misses: u64,
    /// Of the misses, how many found the block on local disk.
    pub disk_hits: u64,
    /// Of the misses, how many had to recompute from lineage.
    pub recomputes: u64,
    /// Blocks evicted under memory pressure.
    pub evictions: u64,
    /// Blocks evicted by cluster-wide purge orders (infinite distance).
    pub purges: u64,
    /// Bytes evicted (pressure + purge).
    pub bytes_evicted: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Prefetched blocks that were evicted before ever being used.
    pub wasted_prefetches: u64,
    /// Blocks lost to injected node failures.
    pub lost_blocks: u64,
    /// Eviction victims selected by the policy that were not actually
    /// evictable (not resident). Each one aborts the insert that
    /// triggered the pressure event; a nonzero count means the policy's
    /// bookkeeping diverged from the store and is surfaced in the run
    /// report so the failure is diagnosable in release builds.
    pub bad_victims: u64,
}

impl CacheStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses to cached-RDD blocks.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Memory hit ratio in `[0, 1]`; 1.0 when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            1.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Merge another row's counters into this aggregate.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.remote_hits += other.remote_hits;
        self.prefetch_hits += other.prefetch_hits;
        self.misses += other.misses;
        self.disk_hits += other.disk_hits;
        self.recomputes += other.recomputes;
        self.evictions += other.evictions;
        self.purges += other.purges;
        self.bytes_evicted += other.bytes_evicted;
        self.prefetches += other.prefetches;
        self.wasted_prefetches += other.wasted_prefetches;
        self.lost_blocks += other.lost_blocks;
        self.bad_victims += other.bad_victims;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_basics() {
        let mut s = CacheStats::new();
        assert_eq!(s.hit_ratio(), 1.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = CacheStats {
            hits: 1,
            remote_hits: 1,
            prefetch_hits: 1,
            misses: 2,
            disk_hits: 1,
            recomputes: 1,
            evictions: 3,
            purges: 1,
            bytes_evicted: 100,
            prefetches: 4,
            wasted_prefetches: 1,
            lost_blocks: 2,
            bad_victims: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 4);
        assert_eq!(a.bytes_evicted, 200);
        assert_eq!(a.wasted_prefetches, 2);
        assert_eq!(a.lost_blocks, 4);
        assert_eq!(a.bad_victims, 2);
    }
}
