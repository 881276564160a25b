//! Property tests for the block-storage layer: byte accounting, the
//! reservation rule and the residency tables must survive arbitrary
//! operation sequences.

use proptest::prelude::*;
use refdist_dag::{BlockId, BlockSlots, RddId, SlotArena, TenantMap};
use refdist_store::{BlockMaster, InsertError, MemCopy, MemoryStore, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// Blocks and nodes the master ops draw from: few enough that most blocks
/// collect several copies, so the overflow path runs.
const MASTER_BLOCKS: u8 = 12;
const MASTER_NODES: u32 = 5;

#[derive(Debug, Clone)]
enum MasterOp {
    RegisterMemory(u8, u32, u64, bool),
    UnregisterMemory(u8, u32),
    RegisterDisk(u8, u32),
    UnregisterDisk(u8, u32),
    /// Take a copy's unused-prefetch mark, as a task reading it does.
    TakeMark(u8, u32),
}

fn master_op_strategy() -> impl Strategy<Value = MasterOp> {
    let b = 0..MASTER_BLOCKS;
    let n = 0..MASTER_NODES;
    prop_oneof![
        (b.clone(), n.clone(), 0u64..4, any::<bool>())
            .prop_map(|(b, n, a, p)| MasterOp::RegisterMemory(b, n, a, p)),
        (b.clone(), n.clone()).prop_map(|(b, n)| MasterOp::UnregisterMemory(b, n)),
        (b.clone(), n.clone()).prop_map(|(b, n)| MasterOp::RegisterDisk(b, n)),
        (b.clone(), n.clone()).prop_map(|(b, n)| MasterOp::UnregisterDisk(b, n)),
        (b, n).prop_map(|(b, n)| MasterOp::TakeMark(b, n)),
    ]
}

/// The `b`-th master block: rdds 0..12 partition 1, across both
/// submissions of the universe.
fn master_blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32), 1)
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
            // `contains`, the resident map and the model agree on every
            // block.
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
        ops in prop::collection::vec(master_op_strategy(), 0..200),
    ) {
        let mut master = BlockMaster::with_slots(Arc::new(universe()));
        // Shadow model: each block's memory copies with their
        // (avail, prefetched) marks, and its disk holders, by node.
        let mut mem: BTreeMap<BlockId, BTreeMap<NodeId, (u64, bool)>> = BTreeMap::new();
        let mut disk: BTreeMap<BlockId, BTreeSet<NodeId>> = BTreeMap::new();
        for op in ops {
            match op {
                MasterOp::RegisterMemory(b, n, avail, prefetched) => {
                    let (b, node) = (master_blk(b), NodeId(n));
                    master.register_memory(b, MemCopy { node, avail, prefetched });
                    // A re-registration replaces the arrival time and keeps
                    // an unused-prefetch mark.
                    let marks = mem.entry(b).or_default().entry(node).or_insert((0, false));
                    *marks = (avail, marks.1 || prefetched);
                }
                MasterOp::UnregisterMemory(b, n) => {
                    let (b, node) = (master_blk(b), NodeId(n));
                    let expect = mem.get_mut(&b).and_then(|c| c.remove(&node)).map(
                        |(avail, prefetched)| MemCopy { node, avail, prefetched },
                    );
                    mem.retain(|_, c| !c.is_empty());
                    prop_assert_eq!(master.unregister_memory(b, node), expect);
                }
                MasterOp::RegisterDisk(b, n) => {
                    let b = master_blk(b);
                    master.register_disk(b, NodeId(n));
                    disk.entry(b).or_default().insert(NodeId(n));
                }
                MasterOp::UnregisterDisk(b, n) => {
                    let b = master_blk(b);
                    master.unregister_disk(b, NodeId(n));
                    if let Some(d) = disk.get_mut(&b) {
                        d.remove(&NodeId(n));
                    }
                    disk.retain(|_, d| !d.is_empty());
                }
                MasterOp::TakeMark(b, n) => {
                    let (b, node) = (master_blk(b), NodeId(n));
                    let expect = mem
                        .get_mut(&b)
                        .and_then(|c| c.get_mut(&node))
                        .map(|m| std::mem::take(&mut m.1));
                    let got = master
                        .memory_copy_mut(b, node)
                        .map(|c| std::mem::take(&mut c.prefetched));
                    prop_assert_eq!(got, expect);
                }
            }
            // Every block of the universe, after every operation.
            for b in (0..MASTER_BLOCKS).map(master_blk) {
                let copies = mem.get(&b);
                let holders = disk.get(&b);
                let mem_nodes: Vec<NodeId> = copies.into_iter().flat_map(|c| c.keys().copied()).collect();
                let disk_nodes: Vec<NodeId> = holders.into_iter().flatten().copied().collect();
                prop_assert_eq!(master.memory_locations(b).collect::<Vec<_>>(), mem_nodes.clone());
                prop_assert_eq!(master.disk_locations(b).collect::<Vec<_>>(), disk_nodes.clone());
                prop_assert_eq!(
                    master.first_holder(b),
                    mem_nodes.first().into_iter().chain(disk_nodes.first()).min().copied()
                );
                prop_assert_eq!(master.in_memory_anywhere(b), !mem_nodes.is_empty());
                prop_assert_eq!(
                    master.anywhere(b),
                    !mem_nodes.is_empty() || !disk_nodes.is_empty()
                );
                for n in (0..MASTER_NODES).map(NodeId) {
                    let expect = copies
                        .and_then(|c| c.get(&n))
                        .map(|&(avail, prefetched)| MemCopy { node: n, avail, prefetched });
                    prop_assert_eq!(master.memory_copy(b, n).copied(), expect);
                    prop_assert_eq!(master.in_memory_on(b, n), expect.is_some());
                    // best_source prefers local memory > local disk > remote
                    // memory > remote disk (lowest node first), and returns
                    // None iff the block is nowhere.
                    let local_disk = disk_nodes.contains(&n);
                    let want = if expect.is_some() {
                        Some((n, true))
                    } else if local_disk {
                        Some((n, false))
                    } else if let Some(&m) = mem_nodes.first() {
                        Some((m, true))
                    } else {
                        disk_nodes.first().map(|&d| (d, false))
                    };
                    prop_assert_eq!(master.best_source(b, n), want);
                }
            }
            let resident: Vec<BlockId> = mem.keys().copied().collect();
            prop_assert_eq!(master.memory_resident_in(0..u32::MAX).collect::<Vec<_>>(), resident);
            prop_assert_eq!(
                master.memory_copy_count(),
                mem.values().map(|c| c.len()).sum::<usize>()
            );
        }
    }
}
