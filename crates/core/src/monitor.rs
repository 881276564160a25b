//! CacheMonitor: the per-worker-node component of MRD (paper §4.2).
//!
//! Each worker holds a replica of the MRD table so that eviction decisions
//! under memory pressure are local — no round trip to the manager on the hot
//! path (the paper's communication-overhead argument in §4.4). The monitor
//! also tracks local block recency, used only to break ties between blocks
//! whose reference distances are equal.
//!
//! The replica itself is a flat per-RDD distance vector covering exactly
//! the RDD span of the manager's table, rebuilt from the shared table on
//! each sync (the manager never clones the table per node), so a distance
//! lookup is one array read.
//!
//! Per-block state is O(blocks resident on this node): the recency table
//! is a `BTreeMap` over those blocks and the victim index a `BTreeSet` of
//! them — no hashing on the per-touch path. A table keyed by the runtime's
//! slot arena would cost O(arena) *per node* instead, since round-robin
//! homing spreads each node's blocks over the whole arena.

use crate::distance::RefDistance;
use crate::table::MrdTable;
use refdist_dag::BlockId;
use refdist_policies::index::select_until;
use refdist_store::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// The monitor's eviction rank, ascending = eviction order: largest
/// reference distance first, then the tie-break recency encoding (see
/// [`enc`]), then lowest block id (supplied by the index).
type MrdKey = (Reverse<RefDistance>, Reverse<u64>);

/// How distance ties are broken during victim selection (ablation knob —
/// the paper does not specify; see [`CacheMonitor::pick_victim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Evict the most recently used among equals (Belady-consistent below
    /// stage granularity; the default).
    #[default]
    Mru,
    /// Evict the least recently used among equals (thrashes cyclic scans).
    Lru,
}

/// The monitor's replica of the MRD table: the current distance of every
/// RDD in the table's span, `base..base + by_rdd.len()`. RDDs outside the
/// span, or inside it without references, are infinitely far — exactly
/// [`MrdTable::distance`].
#[derive(Debug, Clone, Default)]
struct DistanceReplica {
    base: u32,
    by_rdd: Vec<RefDistance>,
}

impl DistanceReplica {
    /// Refill from `table`, reusing the buffer. O(table).
    fn refill(&mut self, table: &MrdTable) {
        self.by_rdd.clear();
        let mut rows = table.distances().peekable();
        self.base = rows.peek().map_or(0, |&(r, _)| r.0);
        for (r, d) in rows {
            let i = (r.0 - self.base) as usize;
            debug_assert!(i >= self.by_rdd.len(), "table rows ascend by RDD id");
            self.by_rdd.resize(i, RefDistance::Infinite);
            self.by_rdd.push(d);
        }
    }

    #[inline]
    fn get(&self, rdd: refdist_dag::RddId) -> RefDistance {
        rdd.0
            .checked_sub(self.base)
            .and_then(|i| self.by_rdd.get(i as usize))
            .copied()
            .unwrap_or(RefDistance::Infinite)
    }
}

/// Recency encoding for index keys: under MRU ties the *largest* touch
/// evicts first, under LRU the smallest — both expressed as "larger
/// encoding evicts first" so one `Reverse<u64>` covers both.
fn enc(tie: TieBreak, touch: u64) -> u64 {
    match tie {
        TieBreak::Mru => touch,
        TieBreak::Lru => !touch,
    }
}

/// A worker node's MRD cache monitor.
#[derive(Debug, Clone)]
pub struct CacheMonitor {
    node: NodeId,
    /// Distances per the last received table.
    dist: DistanceReplica,
    /// Version of the replica, compared against the manager's table.
    synced_version: Option<u64>,
    /// Times this monitor received a table replica.
    syncs: u64,
    clock: u64,
    /// Last local touch of each block resident on this node.
    last_touch: BTreeMap<BlockId, u64>,
    /// Tie-break rule baked into the index keys.
    tie: TieBreak,
    /// Ordered victim index over the locally tracked blocks. Its keys embed
    /// reference distances, which all shift when a new table replica arrives
    /// — so the index is only rebuilt lazily, on the first victim selection
    /// after a sync bumped `synced_version` past `index_version`. Between
    /// syncs, `touch`/`forget` maintain it incrementally in O(log n): a
    /// block's key there is [`CacheMonitor::key`] of its last touch.
    index: BTreeSet<(MrdKey, BlockId)>,
    /// Table version the index keys were computed against.
    index_version: Option<u64>,
    /// Reusable `(distance, block)` buffer for `prefetch_order`.
    scratch: Vec<(u32, BlockId)>,
}

impl CacheMonitor {
    /// New monitor for `node` with an empty (unsynced) replica and the
    /// default (MRU) tie-break.
    pub fn new(node: NodeId) -> Self {
        Self::with_tie(node, TieBreak::Mru)
    }

    /// New monitor with an explicit tie-break rule (the rule is baked into
    /// the victim index keys, so it is fixed per monitor).
    pub fn with_tie(node: NodeId, tie: TieBreak) -> Self {
        CacheMonitor {
            node,
            dist: DistanceReplica::default(),
            synced_version: None,
            syncs: 0,
            clock: 0,
            last_touch: BTreeMap::new(),
            tie,
            index: BTreeSet::new(),
            index_version: None,
            scratch: Vec::new(),
        }
    }

    /// `block`'s index key, were it last touched at `touch`.
    fn key(&self, block: BlockId, touch: u64) -> (MrdKey, BlockId) {
        let key = (Reverse(self.distance(block)), Reverse(enc(self.tie, touch)));
        (key, block)
    }

    /// Whether incremental index updates are valid (keys match the current
    /// replica). False after a sync until the next rebuild.
    fn index_fresh(&self) -> bool {
        self.index_version == self.synced_version
    }

    /// Rebuild the index from scratch against the current replica. Visits
    /// the tracked blocks only: the recency table holds exactly the blocks
    /// resident here, and a dense one spans just their slots.
    fn ensure_index(&mut self) {
        if self.index_fresh() {
            return;
        }
        let CacheMonitor {
            last_touch,
            index,
            dist,
            tie,
            ..
        } = self;
        index.clear();
        index.extend(last_touch.iter().map(|(&b, &touch)| {
            ((Reverse(dist.get(b.rdd)), Reverse(enc(*tie, touch))), b)
        }));
        self.index_version = self.synced_version;
    }

    /// The node this monitor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Version of the replica table (`None` until first sync).
    pub fn table_version(&self) -> Option<u64> {
        self.synced_version
    }

    /// Times this monitor has been sent a replica.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Install a fresh replica of the manager's `table`: the manager
    /// shares its one table with every monitor, each of which copies out
    /// only the per-RDD distances it needs.
    pub fn receive_table(&mut self, table: &MrdTable) {
        self.synced_version = Some(table.version());
        self.syncs += 1;
        self.dist.refill(table);
    }

    /// Reference distance of a block per the local replica.
    pub fn distance(&self, block: BlockId) -> RefDistance {
        self.dist.get(block.rdd)
    }

    /// Record a local insert/access (for tie-breaking recency).
    pub fn touch(&mut self, block: BlockId) {
        self.clock += 1;
        let old = self.last_touch.insert(block, self.clock);
        if self.index_fresh() {
            if let Some(t) = old {
                self.index.remove(&self.key(block, t));
            }
            self.index.insert(self.key(block, self.clock));
        }
    }

    /// Forget a block that left this node's memory.
    pub fn forget(&mut self, block: BlockId) {
        let old = self.last_touch.remove(&block);
        if let Some(t) = old.filter(|_| self.index_fresh()) {
            self.index.remove(&self.key(block, t));
        }
    }

    /// Batched victim selection on this node: pop blocks in eviction order
    /// (largest distance first, per the tie-break rule) until `shortfall`
    /// bytes of `resident` blocks are covered. Identical victim sequence to
    /// repeated [`CacheMonitor::pick_victim`] calls over a shrinking
    /// candidate list, in O(log n) per victim.
    pub fn select_victims(
        &mut self,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        self.ensure_index();
        select_until(self.index.iter().map(|&(_, b)| b), shortfall, resident)
    }

    /// Choose the eviction victim among `candidates`: the block with the
    /// **largest** reference distance (`evictBlock`); infinite-distance
    /// blocks evict first of all.
    ///
    /// Ties break toward the **most recently used** block, then lowest block
    /// id, for determinism. Stage-granular distances tie for all blocks of
    /// one RDD; when a stage cyclically scans such an RDD, the block whose
    /// *task-level* next access is furthest away is precisely the one just
    /// used — so an MRU tiebreak is what keeps MRD an approximation of
    /// Belady's MIN below stage granularity (an LRU tiebreak would thrash
    /// scans larger than the cache, the classic LRU pathology of §3.3).
    pub fn pick_victim(&self, candidates: &[BlockId]) -> Option<BlockId> {
        self.pick_victim_with(candidates, TieBreak::Mru)
    }

    /// [`CacheMonitor::pick_victim`] with an explicit tie-breaking rule
    /// (for the tie-break ablation). Scans the candidate slice directly —
    /// no per-call collection.
    pub fn pick_victim_with(&self, candidates: &[BlockId], tie: TieBreak) -> Option<BlockId> {
        candidates.iter().copied().max_by(|a, b| {
            self.distance(*a)
                .cmp(&self.distance(*b))
                .then_with(|| {
                    let ta = self.last_touch.get(a).copied().unwrap_or(0);
                    let tb = self.last_touch.get(b).copied().unwrap_or(0);
                    match tie {
                        // Newer touch wins the max: MRU evicts first.
                        TieBreak::Mru => ta.cmp(&tb),
                        // Older touch wins the max: LRU evicts first.
                        TieBreak::Lru => tb.cmp(&ta),
                    }
                })
                .then_with(|| b.cmp(a))
        })
    }

    /// Rank `missing` blocks for prefetching (`prefetchBlock`): smallest
    /// finite distance first; infinite-distance blocks are never prefetched,
    /// and blocks beyond `horizon` (when non-zero) are skipped. The
    /// `(distance, block)` sort pairs live in a reusable scratch buffer, so
    /// the only allocation is the returned order itself.
    pub fn prefetch_order(&mut self, missing: &[BlockId], horizon: u32) -> Vec<BlockId> {
        let mut finite = std::mem::take(&mut self.scratch);
        finite.clear();
        finite.extend(missing.iter().filter_map(|&b| {
            self.distance(b)
                .finite()
                .filter(|&d| horizon == 0 || d <= horizon)
                .map(|d| (d, b))
        }));
        finite.sort_unstable();
        let order = finite.iter().map(|&(_, b)| b).collect();
        self.scratch = finite;
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;
    use refdist_dag::{AppProfile, JobId, RddId, RddRefs, StageId};
    use std::collections::BTreeMap;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    fn table(entries: &[(u32, &[u32])], current: u32) -> MrdTable {
        let mut per_rdd = BTreeMap::new();
        for &(r, stages) in entries {
            per_rdd.insert(
                RddId(r),
                RddRefs {
                    rdd: RddId(r),
                    stages: stages.iter().map(|&s| StageId(s)).collect(),
                    jobs: stages.iter().map(|_| JobId(0)).collect(),
                },
            );
        }
        let profile = AppProfile {
            per_rdd,
            per_stage: vec![],
            stage_job: Vec::new().into(),
            num_jobs: 1,
        };
        let mut t = MrdTable::from_profile(DistanceMetric::Stage, &profile);
        t.advance_to(current);
        t
    }

    fn synced(entries: &[(u32, &[u32])], current: u32) -> CacheMonitor {
        let mut m = CacheMonitor::new(NodeId(0));
        m.receive_table(&table(entries, current));
        m
    }

    #[test]
    fn evicts_largest_distance() {
        let m = synced(&[(0, &[5]), (1, &[20]), (2, &[8])], 0);
        let v = m.pick_victim(&[blk(0, 0), blk(1, 0), blk(2, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
    }

    #[test]
    fn infinite_distance_evicts_first() {
        let m = synced(&[(0, &[5]), (1, &[])], 0);
        let v = m.pick_victim(&[blk(0, 0), blk(1, 0)]);
        assert_eq!(v, Some(blk(1, 0)));
        // Unknown RDDs are also infinite.
        let v2 = m.pick_victim(&[blk(0, 0), blk(9, 0)]);
        assert_eq!(v2, Some(blk(9, 0)));
    }

    #[test]
    fn equal_distance_breaks_by_mru() {
        let mut m = synced(&[(0, &[5]), (1, &[5])], 0);
        m.touch(blk(0, 0));
        m.touch(blk(1, 0));
        m.touch(blk(0, 0)); // rdd0's block now most recent: evicts on tie
        assert_eq!(m.pick_victim(&[blk(0, 0), blk(1, 0)]), Some(blk(0, 0)));
    }

    #[test]
    fn prefetch_orders_by_smallest_distance() {
        let mut m = synced(&[(0, &[9]), (1, &[3]), (2, &[])], 0);
        let order = m.prefetch_order(&[blk(0, 0), blk(1, 0), blk(2, 0)], 0);
        // Infinite (rdd2) excluded; rdd1 (3) before rdd0 (9).
        assert_eq!(order, vec![blk(1, 0), blk(0, 0)]);
        // A horizon of 5 drops the distance-9 block.
        let near = m.prefetch_order(&[blk(0, 0), blk(1, 0), blk(2, 0)], 5);
        assert_eq!(near, vec![blk(1, 0)]);
    }

    #[test]
    fn distance_tracks_replica_updates() {
        let mut m = synced(&[(0, &[5])], 0);
        assert_eq!(m.distance(blk(0, 0)), RefDistance::Finite(5));
        m.receive_table(&table(&[(0, &[5])], 4));
        assert_eq!(m.distance(blk(0, 0)), RefDistance::Finite(1));
        assert_eq!(m.syncs(), 2);
    }

    #[test]
    fn forget_clears_recency() {
        let mut m = synced(&[(0, &[5]), (1, &[5])], 0);
        m.touch(blk(0, 0));
        m.touch(blk(1, 0));
        m.forget(blk(1, 0));
        // rdd1's block lost its recency: counts as oldest, so on an MRU
        // tiebreak the still-recent rdd0 block evicts first.
        assert_eq!(m.pick_victim(&[blk(0, 0), blk(1, 0)]), Some(blk(0, 0)));
    }

    #[test]
    fn empty_candidates_none() {
        let mut m = synced(&[], 0);
        assert_eq!(m.pick_victim(&[]), None);
        assert!(m.prefetch_order(&[], 0).is_empty());
    }

    #[test]
    fn deterministic_final_tiebreak() {
        let m = synced(&[(0, &[5]), (1, &[5])], 0);
        // No touches at all: equal distance, equal recency -> lowest id.
        assert_eq!(m.pick_victim(&[blk(1, 0), blk(0, 0)]), Some(blk(0, 0)));
    }

    #[test]
    fn select_victims_follows_touches_and_resyncs() {
        // The batched pop must equal repeated naive picks, before and after
        // a re-sync makes the index rebuild.
        let entries: &[(u32, &[u32])] = &[(0, &[5]), (1, &[20]), (2, &[8]), (3, &[])];
        let mut m = synced(entries, 0);
        let blocks = [blk(0, 0), blk(1, 0), blk(2, 1), blk(3, 0), blk(2, 0)];
        for &b in &blocks {
            m.touch(b);
        }
        m.touch(blk(2, 1));
        m.forget(blk(3, 0));
        let naive = |m: &CacheMonitor, mut left: Vec<BlockId>| {
            let mut order = Vec::new();
            while let Some(v) = m.pick_victim(&left) {
                left.retain(|&b| b != v);
                order.push(v);
            }
            order
        };
        let live: Vec<BlockId> = blocks.iter().copied().filter(|&b| b != blk(3, 0)).collect();
        let resident: BTreeMap<BlockId, u64> = live.iter().map(|&b| (b, 1)).collect();
        assert_eq!(m.select_victims(4, &resident), naive(&m, live.clone()));
        m.receive_table(&table(entries, 6));
        m.touch(blk(0, 0));
        assert_eq!(m.select_victims(4, &resident), naive(&m, live));
    }
}
