//! Property test for `RecencyIndex`: after every insert, touch (the
//! re-key to the next clock tick) and remove, each node's order must equal
//! a `BTreeSet<(key, BlockId)>` model of that node — the layout the
//! list-based index replaced — and every block's key must match.

use proptest::prelude::*;
use refdist_dag::{BlockId, BlockSlots, RddId};
use refdist_policies::RecencyIndex;
use refdist_store::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Few blocks over several nodes, so most blocks collect copies on more
/// than one node and removals orphan the survivors.
const BLOCKS: u8 = 8;
const NODES: u32 = 4;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u8),
    Touch(u8),
    Remove(u32, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NODES, 0..BLOCKS).prop_map(|(n, b)| Op::Insert(n, b)),
        (0..NODES, 0..BLOCKS).prop_map(|(n, b)| Op::Insert(n, b)),
        (0..BLOCKS).prop_map(Op::Touch),
        (0..NODES, 0..BLOCKS).prop_map(|(n, b)| Op::Remove(n, b)),
    ]
}

/// Blocks spread over two RDDs, so slot order and `BlockId` order both
/// matter.
fn blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32 % 2), b as u32 / 2)
}

/// What a run of ops exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Most nodes holding a block at once.
    max_nodes: usize,
    /// Removals that left orphaned copies behind.
    orphanings: usize,
    /// Inserts and touches of an orphaned block.
    orphan_rekeys: usize,
}

/// Apply `ops` to a fresh index and to the model, comparing after each.
fn check(ops: &[Op]) -> Coverage {
    let mut idx = RecencyIndex::default();
    idx.attach_slots(&Arc::new(BlockSlots::from_counts([
        (RddId(0), 4),
        (RddId(1), 4),
    ])));
    let mut clock = 0u64;
    let mut key: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut homes: BTreeMap<BlockId, BTreeSet<NodeId>> = BTreeMap::new();
    let mut cov = Coverage::default();
    for &op in ops {
        match op {
            Op::Insert(n, b) => {
                clock += 1;
                let b = blk(b);
                cov.orphan_rekeys += (key.get(&b) == Some(&0)) as usize;
                idx.insert(NodeId(n), b);
                key.insert(b, clock);
                homes.entry(b).or_default().insert(NodeId(n));
            }
            Op::Touch(b) => {
                clock += 1;
                let b = blk(b);
                idx.touch(b);
                if let Some(k) = key.get_mut(&b) {
                    cov.orphan_rekeys += (*k == 0) as usize;
                    *k = clock;
                }
            }
            Op::Remove(n, b) => {
                let b = blk(b);
                let gone = idx.remove(NodeId(n), b);
                let want = match homes.get_mut(&b).map(|h| (h.remove(&NodeId(n)), h.len())) {
                    None => true,
                    Some((false, _)) => false,
                    Some((true, 0)) => {
                        homes.remove(&b);
                        key.remove(&b);
                        true
                    }
                    Some((true, _)) => {
                        cov.orphanings += 1;
                        key.insert(b, 0);
                        false
                    }
                };
                assert_eq!(gone, want, "remove({n}, {b}) after {op:?}");
            }
        }
        for b in (0..BLOCKS).map(blk) {
            assert_eq!(idx.key(b), key.get(&b).copied(), "key of {b} after {op:?}");
            assert_eq!(idx.is_tracked(b), key.contains_key(&b));
        }
        for n in (0..NODES).map(NodeId) {
            let model: BTreeSet<(u64, BlockId)> = homes
                .iter()
                .filter(|(_, h)| h.contains(&n))
                .map(|(&b, _)| (key[&b], b))
                .collect();
            let want: Vec<BlockId> = model.iter().map(|&(_, b)| b).collect();
            let got: Vec<BlockId> = idx.order(n).collect();
            assert_eq!(got, want, "order on {n} after {op:?}");
        }
        let most = homes.values().map(BTreeSet::len).max().unwrap_or(0);
        cov.max_nodes = cov.max_nodes.max(most);
    }
    cov
}

#[test]
fn scripted_ops_cover_multi_copy_orphans_and_their_rekeys() {
    use Op::*;
    let cov = check(&[
        Insert(0, 0),
        Insert(1, 0),
        Insert(2, 0),
        Insert(0, 1),
        Insert(1, 2),
        Remove(1, 0), // orphans block 0 on nodes 0 and 2
        Insert(3, 0), // a new copy of an orphan, then all re-key
        Remove(0, 0), // orphans again
        Touch(0),     // re-keys the orphans
        Remove(2, 3), // an untracked block
        Remove(3, 1), // a node without a copy: no-op
        Remove(2, 0),
        Remove(3, 0),
        Remove(0, 1),
        Remove(1, 2),
    ]);
    assert!(cov.max_nodes >= 3, "{cov:?}");
    assert!(cov.orphanings >= 2, "{cov:?}");
    assert!(cov.orphan_rekeys >= 2, "{cov:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recency_index_matches_an_ordered_set_model(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        check(&ops);
    }
}
