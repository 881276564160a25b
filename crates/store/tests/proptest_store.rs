//! Property tests for the block-storage layer: byte accounting, the
//! reservation rule and the residency tables must survive arbitrary
//! operation sequences.

use proptest::prelude::*;
use refdist_dag::{BlockId, BlockSlots, RddId, SlotArena, TenantMap};
use refdist_store::{BlockMaster, InsertError, MemoryStore, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u64),
    Remove(u8),
    Reserve(u64),
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u64..64).prop_map(|(b, s)| Op::Insert(b, s)),
        any::<u8>().prop_map(Op::Remove),
        (0u64..256).prop_map(Op::Reserve),
        Just(Op::Drain),
    ]
}

fn blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32 % 16), b as u32 / 16)
}

/// Rdds 0..8 belong to tenant 0, rdds 8..16 to tenant 1.
fn tenant_of(b: BlockId) -> u32 {
    (b.rdd.0 >= 8) as u32
}

/// A serve arena covering every block `blk` can name: submission 0 owns
/// rdds 0..8, submission 1 rdds 8..16, each with 16 partitions.
fn universe() -> BlockSlots {
    let mut arena = SlotArena::new();
    for app in 0..2 {
        let counts: Vec<(RddId, u32)> = (8 * app..8 * app + 8).map(|r| (RddId(r), 16)).collect();
        arena.admit(app, &counts);
    }
    arena.snapshot()
}

proptest! {
    #[test]
    fn memory_store_accounting_invariants(
        capacity in 0u64..256,
        tenancy in any::<bool>(),
        quota in 0u64..256,
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let quota = tenancy.then_some(quota);
        let mut store = MemoryStore::with_slots(capacity, Arc::new(universe()));
        if let Some(q) = quota {
            store.enable_tenancy(Arc::new(TenantMap::new(&[8, 8], &[0, 1])), q);
        }
        // Shadow model: block -> size.
        let mut model: HashMap<BlockId, u64> = HashMap::new();
        let mut reserved = 0u64;

        for op in ops {
            match op {
                Op::Insert(b, size) => {
                    let b = blk(b);
                    let already = model.contains_key(&b);
                    // Must fit in the free span, which saturates when a
                    // reservation overlaps resident blocks, and in the
                    // owning tenant's quota.
                    let free = capacity.saturating_sub(model.values().sum::<u64>() + reserved);
                    let tenant_used: u64 = model
                        .iter()
                        .filter(|(&k, _)| tenant_of(k) == tenant_of(b))
                        .map(|(_, &s)| s)
                        .sum();
                    let tenant_over =
                        quota.map_or(0, |q| (tenant_used + size).saturating_sub(q));
                    match store.insert(b, size) {
                        Ok(()) => {
                            if !already {
                                prop_assert!(size <= free && tenant_over == 0);
                                model.insert(b, size);
                            }
                        }
                        Err(InsertError::TooLarge) => {
                            prop_assert!(size > capacity || quota.is_some_and(|q| size > q));
                            prop_assert!(!already);
                        }
                        Err(InsertError::NeedsEviction { shortfall }) => {
                            prop_assert!(!already);
                            prop_assert_eq!(shortfall, size.saturating_sub(free).max(tenant_over));
                        }
                    }
                }
                Op::Remove(b) => {
                    let b = blk(b);
                    prop_assert_eq!(store.remove(b), model.remove(&b));
                }
                Op::Reserve(r) => {
                    store.set_reserved(r);
                    reserved = r.min(capacity);
                }
                Op::Drain => {
                    let mut all: Vec<(BlockId, u64)> = model.drain().collect();
                    all.sort_unstable();
                    prop_assert_eq!(store.drain(), all);
                }
            }
            // Core invariants after every step.
            let used: u64 = model.values().sum();
            prop_assert_eq!(store.used(), used);
            prop_assert_eq!(store.resident().values().sum::<u64>(), used);
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.free(), capacity.saturating_sub(used + reserved));
            prop_assert!(store.used() + store.free() <= capacity);
            // The residency bitset agrees with the resident map and the
            // model on every block.
            for b in (0..=255u8).map(blk) {
                let size = model.get(&b).copied();
                prop_assert_eq!(store.contains(b), size.is_some());
                prop_assert_eq!(store.resident().get(&b).copied(), size);
                prop_assert_eq!(store.size_of(b), size);
            }
            for t in 0..2 {
                let expect = if quota.is_some() {
                    model.iter().filter(|(&k, _)| tenant_of(k) == t).map(|(_, &s)| s).sum()
                } else {
                    0
                };
                prop_assert_eq!(store.tenant_used(t), expect);
            }
        }
    }

    #[test]
    fn block_master_tracks_registrations(
        events in prop::collection::vec((any::<u8>(), 0u32..4, any::<bool>(), any::<bool>()), 0..200),
    ) {
        // (block, node, memory?, register?)
        let mut master = BlockMaster::with_slots(Arc::new(universe()));
        let mut mem: HashMap<(BlockId, NodeId), ()> = HashMap::new();
        let mut disk: HashMap<(BlockId, NodeId), ()> = HashMap::new();
        for (b, n, memory, reg) in events {
            let b = blk(b);
            let n = NodeId(n);
            match (memory, reg) {
                (true, true) => {
                    master.register_memory(b, n);
                    mem.insert((b, n), ());
                }
                (true, false) => {
                    master.unregister_memory(b, n);
                    mem.remove(&(b, n));
                }
                (false, true) => {
                    master.register_disk(b, n);
                    disk.insert((b, n), ());
                }
                (false, false) => {
                    master.unregister_disk(b, n);
                    disk.remove(&(b, n));
                }
            }
            prop_assert_eq!(
                master.in_memory_anywhere(b),
                mem.keys().any(|(bb, _)| *bb == b)
            );
            prop_assert_eq!(
                master.anywhere(b),
                mem.keys().any(|(bb, _)| *bb == b) || disk.keys().any(|(bb, _)| *bb == b)
            );
            // best_source prefers local memory > local disk > remote memory
            // > remote disk, and returns None iff the block is nowhere.
            match master.best_source(b, n) {
                None => prop_assert!(!master.anywhere(b)),
                Some((src, in_mem)) => {
                    if in_mem {
                        prop_assert!(mem.contains_key(&(b, src)));
                    } else {
                        prop_assert!(disk.contains_key(&(b, src)));
                        // If it chose disk at a remote node, there is no
                        // memory copy anywhere and no local disk copy...
                        if src != n {
                            prop_assert!(!mem.keys().any(|(bb, _)| *bb == b));
                            prop_assert!(!disk.contains_key(&(b, n)));
                        }
                    }
                    if mem.contains_key(&(b, n)) {
                        prop_assert_eq!((src, in_mem), (n, true));
                    }
                }
            }
        }
    }
}
