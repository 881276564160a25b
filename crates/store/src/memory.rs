//! Capacity-bounded in-memory block store.
//!
//! The cache the eviction policies fight over. The store itself is
//! policy-free: it tracks sizes and capacity, and refuses inserts that do
//! not fit — choosing *what* to evict to make space is the policy's job,
//! driven by the cluster runtime.
//!
//! Like Spark's `MemoryStore`, the store keeps an entry only for each block
//! *resident* on its node: one sorted map of resident blocks to sizes, and
//! nothing per slot of the [`BlockSlots`] arena. The simulator's per-access
//! residency test asks the cluster-wide `BlockMaster`, whose record of each
//! copy also carries its in-flight and prefetch marks.

use refdist_dag::{BlockId, BlockSlots, TenantMap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why an insert was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Not enough free space; the caller must evict first.
    NeedsEviction {
        /// Bytes that must be freed before the insert can succeed.
        shortfall: u64,
    },
    /// The block is larger than the whole store (or its tenant's quota)
    /// and can never fit.
    TooLarge,
}

/// Per-tenant quota accounting, present only when the store serves a
/// multi-tenant combined application (see `refdist_dag::tenant`).
#[derive(Debug, Clone)]
struct Tenancy {
    map: Arc<TenantMap>,
    /// Per-tenant byte quota on this store. A tenant whose resident bytes
    /// would exceed it must evict its *own* blocks to get back under.
    quota: u64,
    /// Resident bytes per tenant.
    used: Vec<u64>,
}

impl Tenancy {
    /// The tenant owning `block`: the owning submission is one read off the
    /// arena snapshot.
    #[inline]
    fn tenant(&self, block: BlockId, slots: &BlockSlots) -> usize {
        let app = slots
            .owner(block.rdd)
            .unwrap_or_else(|| panic!("block {block} has no owning submission"));
        self.map.tenant_of_app(app) as usize
    }
}

/// In-memory block store with byte capacity.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    capacity: u64,
    used: u64,
    /// Bytes reserved by execution memory (Spark's unified memory manager:
    /// shuffles borrow from the storage region for the duration of a stage).
    reserved: u64,
    /// Resident blocks with sizes, sorted by id — the single residency
    /// table, and the candidate map handed to `CachePolicy::select_victims`
    /// with no per-pressure-event collect + sort.
    resident: BTreeMap<BlockId, u64>,
    /// The slot arena, whose owner table names each block's tenant.
    slots: Arc<BlockSlots>,
    /// Per-tenant quota accounting; `None` (the default and the entire
    /// single-app path) is byte-invisible.
    tenancy: Option<Tenancy>,
}

impl MemoryStore {
    /// A store with the given byte capacity over the blocks of `slots`.
    pub fn with_slots(capacity: u64, slots: Arc<BlockSlots>) -> Self {
        MemoryStore {
            capacity,
            used: 0,
            reserved: 0,
            resident: BTreeMap::new(),
            slots,
            tenancy: None,
        }
    }

    /// Enforce a per-tenant byte `quota` over the submissions of `map`,
    /// whose blocks' owners the arena snapshots record (a serve arena).
    /// Must be called while the store is empty; inserts that would push a
    /// tenant over its quota then report the extra bytes as part of the
    /// eviction shortfall (the cluster layer evicts that tenant's own
    /// blocks first), or [`InsertError::TooLarge`] when the block alone
    /// exceeds the quota.
    pub fn enable_tenancy(&mut self, map: Arc<TenantMap>, quota: u64) {
        assert!(self.is_empty(), "tenancy must be enabled on an empty store");
        let n = map.num_tenants();
        self.tenancy = Some(Tenancy {
            map,
            quota,
            used: vec![0; n],
        });
    }

    /// Adopt a newer slot-arena snapshot (streaming admission), so the
    /// owners of newly admitted blocks resolve.
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.slots = Arc::clone(slots);
    }

    /// Resident bytes of one tenant (0 when tenancy is disabled).
    pub fn tenant_used(&self, tenant: u32) -> u64 {
        self.tenancy
            .as_ref()
            .and_then(|t| t.used.get(tenant as usize).copied())
            .unwrap_or(0)
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied by blocks.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently reserved by execution memory.
    #[inline]
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Reserve `bytes` for execution memory (0 releases the reservation).
    /// The caller is responsible for evicting first if blocks currently
    /// occupy the reserved span; until then `free()` saturates at zero.
    pub fn set_reserved(&mut self, bytes: u64) {
        self.reserved = bytes.min(self.capacity);
    }

    /// Bytes currently free for block storage.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used + self.reserved)
    }

    /// Number of resident blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the store holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether `block` is resident.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.resident.contains_key(&block)
    }

    /// Size of a resident block.
    #[inline]
    pub fn size_of(&self, block: BlockId) -> Option<u64> {
        self.resident.get(&block).copied()
    }

    /// Insert a block. Re-inserting a resident block is a no-op (Spark keeps
    /// the existing entry).
    ///
    /// With tenancy enabled, bytes the owning tenant is over its quota by
    /// are folded into the reported shortfall; since the cluster layer
    /// evicts the over-quota tenant's own blocks first, and every resident
    /// byte is evictable, freeing the shortfall always restores the quota.
    pub fn insert(&mut self, block: BlockId, size: u64) -> Result<(), InsertError> {
        if self.contains(block) {
            return Ok(());
        }
        if size > self.capacity {
            return Err(InsertError::TooLarge);
        }
        let global_shortfall = size.saturating_sub(self.free());
        let tenant = self.tenancy.as_ref().map(|t| t.tenant(block, &self.slots));
        if let (Some(t), Some(tid)) = (&self.tenancy, tenant) {
            if size > t.quota {
                return Err(InsertError::TooLarge);
            }
            let tenant_over = (t.used[tid] + size).saturating_sub(t.quota);
            let shortfall = global_shortfall.max(tenant_over);
            if shortfall > 0 {
                return Err(InsertError::NeedsEviction { shortfall });
            }
        } else if global_shortfall > 0 {
            return Err(InsertError::NeedsEviction {
                shortfall: global_shortfall,
            });
        }
        if let (Some(t), Some(tid)) = (&mut self.tenancy, tenant) {
            t.used[tid] += size;
        }
        self.resident.insert(block, size);
        self.used += size;
        Ok(())
    }

    /// Remove a block, returning its size if it was resident.
    pub fn remove(&mut self, block: BlockId) -> Option<u64> {
        let size = self.resident.remove(&block)?;
        self.used -= size;
        if let Some(t) = &mut self.tenancy {
            let tid = t.tenant(block, &self.slots);
            t.used[tid] -= size;
        }
        Some(size)
    }

    /// Remove every resident block (node failure), returning them sorted by
    /// id for deterministic downstream processing.
    pub fn drain(&mut self) -> Vec<(BlockId, u64)> {
        let all: Vec<(BlockId, u64)> = std::mem::take(&mut self.resident).into_iter().collect();
        self.used = 0;
        if let Some(t) = &mut self.tenancy {
            t.used.fill(0);
        }
        all
    }

    /// The resident blocks with their sizes, ascending by id — every one
    /// evictable, and the candidate map handed to
    /// `CachePolicy::select_victims` with no per-call allocation.
    pub fn resident(&self) -> &BTreeMap<BlockId, u64> {
        &self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::{RddId, SlotArena};

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    /// A store whose arena covers rdds 0..4 × partitions 0..4 (every block
    /// the tests touch).
    fn store(capacity: u64) -> MemoryStore {
        let slots = BlockSlots::from_counts((0..4).map(|r| (RddId(r), 4)));
        MemoryStore::with_slots(capacity, Arc::new(slots))
    }

    #[test]
    fn insert_and_accounting() {
        let mut m = store(100);
        m.insert(blk(0, 0), 40).unwrap();
        m.insert(blk(0, 1), 30).unwrap();
        assert_eq!(m.used(), 70);
        assert_eq!(m.free(), 30);
        assert_eq!(m.len(), 2);
        assert!(m.contains(blk(0, 0)));
        assert_eq!(m.size_of(blk(0, 1)), Some(30));
    }

    #[test]
    fn insert_reports_shortfall() {
        let mut m = store(100);
        m.insert(blk(0, 0), 80).unwrap();
        assert_eq!(
            m.insert(blk(0, 1), 50),
            Err(InsertError::NeedsEviction { shortfall: 30 })
        );
        // Store unchanged on failure.
        assert_eq!(m.used(), 80);
        assert!(!m.contains(blk(0, 1)));
    }

    #[test]
    fn oversized_block_is_too_large() {
        let mut m = store(100);
        assert_eq!(m.insert(blk(0, 0), 101), Err(InsertError::TooLarge));
    }

    #[test]
    fn reinsert_is_noop() {
        let mut m = store(100);
        m.insert(blk(0, 0), 40).unwrap();
        m.insert(blk(0, 0), 40).unwrap();
        assert_eq!(m.used(), 40);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_returns_size() {
        let mut m = store(100);
        m.insert(blk(0, 0), 40).unwrap();
        assert_eq!(m.remove(blk(0, 0)), Some(40));
        assert_eq!(m.remove(blk(0, 0)), None);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn resident_map_tracks_inserts_and_removals() {
        let mut m = store(100);
        m.insert(blk(1, 0), 30).unwrap();
        m.insert(blk(0, 0), 20).unwrap();
        // Sorted by id, with sizes.
        let set: Vec<_> = m.resident().iter().map(|(&b, &s)| (b, s)).collect();
        assert_eq!(set, vec![(blk(0, 0), 20), (blk(1, 0), 30)]);
        // Removal and drain clear entries and residency alike.
        m.remove(blk(1, 0));
        assert!(!m.resident().contains_key(&blk(1, 0)));
        assert!(!m.contains(blk(1, 0)));
        m.drain();
        assert!(m.resident().is_empty());
        assert!(!m.contains(blk(0, 0)));
    }

    #[test]
    fn adopt_keeps_residency_across_arena_growth() {
        let slots = Arc::new(BlockSlots::from_counts([(RddId(0), 2)]));
        let mut m = MemoryStore::with_slots(100, slots);
        m.insert(blk(0, 1), 10).unwrap();
        m.adopt(&Arc::new(BlockSlots::from_counts([
            (RddId(0), 2),
            (RddId(1), 100),
        ])));
        assert!(m.contains(blk(0, 1)));
        m.insert(blk(1, 99), 10).unwrap();
        assert!(m.contains(blk(1, 99)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut m = store(100);
        m.insert(blk(0, 0), 100).unwrap();
        assert_eq!(m.free(), 0);
    }

    #[test]
    fn drain_empties_the_store() {
        let mut m = store(100);
        m.insert(blk(1, 0), 30).unwrap();
        m.insert(blk(0, 1), 20).unwrap();
        let drained = m.drain();
        assert_eq!(drained, vec![(blk(0, 1), 20), (blk(1, 0), 30)]);
        assert_eq!(m.used(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn reservation_shrinks_free_space() {
        let mut m = store(100);
        m.insert(blk(0, 0), 40).unwrap();
        m.set_reserved(30);
        assert_eq!(m.free(), 30);
        assert_eq!(
            m.insert(blk(0, 1), 50),
            Err(InsertError::NeedsEviction { shortfall: 20 })
        );
        m.set_reserved(0);
        assert!(m.insert(blk(0, 1), 50).is_ok());
    }

    #[test]
    fn over_reservation_saturates_free() {
        let mut m = store(100);
        m.insert(blk(0, 0), 80).unwrap();
        m.set_reserved(90); // blocks still occupy the span; free saturates
        assert_eq!(m.free(), 0);
        assert_eq!(m.reserved(), 90);
        // Reservations are capped at capacity.
        m.set_reserved(500);
        assert_eq!(m.reserved(), 100);
    }

    /// Two tenants: rdds 0..2 belong to tenant 0, rdds 2..4 to tenant 1,
    /// each rdd with 4 partitions, in a serve arena that records owners.
    fn tenant_store(capacity: u64, quota: u64) -> MemoryStore {
        let mut arena = SlotArena::new();
        for app in 0..2 {
            arena.admit(app, &[(RddId(2 * app), 4), (RddId(2 * app + 1), 4)]);
        }
        let mut m = MemoryStore::with_slots(capacity, Arc::new(arena.snapshot()));
        m.enable_tenancy(Arc::new(TenantMap::new(&[2, 2], &[0, 1])), quota);
        m
    }

    #[test]
    fn quota_counts_per_tenant() {
        let mut m = tenant_store(100, 60);
        m.insert(blk(0, 0), 40).unwrap();
        m.insert(blk(2, 0), 40).unwrap();
        assert_eq!(m.tenant_used(0), 40);
        assert_eq!(m.tenant_used(1), 40);
        m.remove(blk(0, 0));
        assert_eq!(m.tenant_used(0), 0);
    }

    #[test]
    fn over_quota_insert_demands_own_eviction() {
        let mut m = tenant_store(200, 60);
        m.insert(blk(0, 0), 40).unwrap();
        // 40 + 30 = 70 > 60 although the store has plenty of global room:
        // the shortfall is exactly the over-quota amount.
        assert_eq!(
            m.insert(blk(0, 1), 30),
            Err(InsertError::NeedsEviction { shortfall: 10 })
        );
        // Evicting the tenant's own block clears the way.
        m.remove(blk(0, 0));
        m.insert(blk(0, 1), 30).unwrap();
        // The other tenant is unaffected throughout.
        m.insert(blk(2, 0), 60).unwrap();
    }

    #[test]
    fn quota_shortfall_combines_with_global_pressure() {
        let mut m = tenant_store(100, 90);
        m.insert(blk(0, 0), 60).unwrap();
        m.insert(blk(2, 0), 30).unwrap();
        // Global shortfall 30, tenant-over 10: the larger wins.
        assert_eq!(
            m.insert(blk(0, 1), 40),
            Err(InsertError::NeedsEviction { shortfall: 30 })
        );
    }

    #[test]
    fn unmeetable_quota_is_too_large() {
        let mut m = tenant_store(200, 60);
        // Larger than the quota can never fit.
        assert_eq!(m.insert(blk(0, 0), 61), Err(InsertError::TooLarge));
        // Over quota with resident bytes of its own: every one of them is
        // evictable, so the tenant is asked to shrink itself.
        m.insert(blk(0, 0), 50).unwrap();
        assert_eq!(
            m.insert(blk(0, 1), 20),
            Err(InsertError::NeedsEviction { shortfall: 10 })
        );
    }

    #[test]
    fn tenancy_accounting_survives_drain() {
        let mut m = tenant_store(100, 100);
        m.insert(blk(0, 0), 30).unwrap();
        m.insert(blk(2, 0), 20).unwrap();
        assert_eq!(m.tenant_used(0), 30);
        assert_eq!(m.tenant_used(1), 20);
        m.drain();
        assert_eq!(m.tenant_used(0), 0);
        assert_eq!(m.tenant_used(1), 0);
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn tenancy_on_nonempty_store_panics() {
        let mut m = store(100);
        m.insert(blk(0, 0), 10).unwrap();
        m.enable_tenancy(Arc::new(TenantMap::new(&[4], &[0])), 50);
    }

    #[test]
    fn zero_capacity_store_rejects_everything() {
        let mut m = store(0);
        assert_eq!(m.insert(blk(0, 0), 1), Err(InsertError::TooLarge));
        assert!(m.insert(blk(0, 1), 0).is_ok()); // zero-size fits anywhere
    }
}
