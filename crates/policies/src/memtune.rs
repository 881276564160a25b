//! MemTune's cache eviction/prefetch component — Xu et al., IPDPS 2016.
//!
//! MemTune uses DAG dependency information, but (as the MRD paper notes in
//! §2) "it restricts to local dependencies on runnable tasks, and keeps
//! information of all the required RDD blocks in a series of lists that do
//! not provide the fine-grained time-locality information the DAG is able to
//! provide". We model that as a lookahead *window*: the RDDs referenced by
//! the currently running stage and the immediately next stage form the
//! "needed" list. Eviction prefers blocks outside the list (LRU within each
//! class); prefetching pulls blocks inside it. There is no notion of *how
//! far* in the future a reference is — which is exactly the coarseness MRD
//! improves on.
//!
//! MemTune's dynamic resizing of Spark's storage/execution memory regions is
//! out of scope (see DESIGN.md §"Known deviations").

use crate::index::VictimIndex;
use crate::CachePolicy;
use refdist_dag::hash::{HashMap, HashSet};
use refdist_dag::{AppProfile, BlockId, BlockSlots, RddId, StageId};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// MemTune's eviction rank: un-needed first (`false < true`), LRU within
/// each class, then id.
type MemTuneKey = (bool, u64);

/// MemTune-style list-based eviction and prefetching.
///
/// The needed/un-needed partition is *maintained* across stage starts: only
/// blocks of RDDs whose window membership actually flipped are re-ranked in
/// the victim index, instead of re-classifying the entire resident list on
/// every `pick_victim` call.
#[derive(Debug, Default)]
pub struct MemTunePolicy {
    /// RDDs needed by the runnable window (current + next stage).
    needed: HashSet<RddId>,
    /// RDDs needed by the current stage specifically (prefetched first).
    needed_now: HashSet<RddId>,
    clock: u64,
    /// A resident block's last touch is the second half of its key.
    index: VictimIndex<MemTuneKey>,
    /// Tracked blocks per RDD, so a window flip re-ranks only that RDD.
    rdd_blocks: HashMap<RddId, Vec<BlockId>>,
}

impl MemTunePolicy {
    /// New MemTune policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, block: BlockId) -> MemTuneKey {
        self.clock += 1;
        (self.needed.contains(&block.rdd), self.clock)
    }
}

impl CachePolicy for MemTunePolicy {
    fn name(&self) -> String {
        "MemTune".into()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.index.attach_slots(slots);
    }

    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        let old_needed = std::mem::take(&mut self.needed);
        self.needed_now.clear();
        // Window = this stage and the next: the "runnable tasks" horizon.
        for (off, set) in [(0usize, true), (1usize, false)] {
            if let Some(touches) = visible.per_stage.get(stage.index() + off) {
                for &r in touches.reads.iter().chain(&touches.creates) {
                    self.needed.insert(r);
                    if set {
                        self.needed_now.insert(r);
                    }
                }
            }
        }
        // Re-rank only the RDDs that entered or left the window.
        for rdd in old_needed.symmetric_difference(&self.needed) {
            let Some(blocks) = self.rdd_blocks.get(rdd) else {
                continue;
            };
            let needed = self.needed.contains(rdd);
            for &b in blocks {
                let touch = self.index.key(b).map_or(0, |(_, t)| t);
                self.index.rekey(b, (needed, touch));
            }
        }
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        let key = self.touch(block);
        if !self.index.is_tracked(block) {
            self.rdd_blocks.entry(block.rdd).or_default().push(block);
        }
        self.index.insert(node, block, key);
    }

    fn on_access(&mut self, _node: NodeId, block: BlockId) {
        let key = self.touch(block);
        self.index.rekey(block, key);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        let orphan = (self.needed.contains(&block.rdd), 0);
        if self.index.remove(node, block, orphan) {
            if let Some(blocks) = self.rdd_blocks.get_mut(&block.rdd) {
                blocks.retain(|&b| b != block);
                if blocks.is_empty() {
                    self.rdd_blocks.remove(&block.rdd);
                }
            }
        }
    }

    fn pick_victim(&mut self, _node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        // Evict un-needed blocks first (LRU among them), then needed (LRU).
        candidates.iter().copied().min_by_key(|b| {
            let needed = self.needed.contains(&b.rdd);
            (
                needed, // false < true: un-needed evict first
                self.index.key(*b).map_or(0, |(_, t)| t),
                *b,
            )
        })
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        self.index.select(node, shortfall, resident)
    }

    fn prefetch_order(&mut self, _node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        // Blocks needed by the current stage first, then by the next stage;
        // everything else is not prefetched.
        let mut order: Vec<BlockId> = missing
            .iter()
            .copied()
            .filter(|b| self.needed.contains(&b.rdd))
            .collect();
        order.sort_by_key(|b| (!self.needed_now.contains(&b.rdd), *b));
        order
    }

    fn wants_prefetch(&self) -> bool {
        true
    }

    fn wants_purge(&self) -> bool {
        false // evicts outside the need-lists only under pressure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::attached;
    use refdist_dag::{JobId, RddRefs, StageTouches};
    use std::collections::BTreeMap;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    const N: NodeId = NodeId(0);

    /// Profile where stage i reads the RDDs in `reads[i]`.
    fn profile(reads: &[&[u32]]) -> AppProfile {
        let per_stage = reads
            .iter()
            .map(|rs| StageTouches {
                reads: rs.iter().map(|&r| RddId(r)).collect(),
                creates: vec![],
            })
            .collect::<Vec<_>>();
        let mut stages_of: BTreeMap<RddId, Vec<StageId>> = BTreeMap::new();
        for (s, rs) in reads.iter().enumerate() {
            for &r in rs.iter() {
                stages_of
                    .entry(RddId(r))
                    .or_default()
                    .push(StageId(s as u32));
            }
        }
        let per_rdd = stages_of
            .into_iter()
            .map(|(rdd, stages)| {
                let jobs: Vec<JobId> = stages.iter().map(|_| JobId(0)).collect();
                (
                    rdd,
                    RddRefs {
                        rdd,
                        stages: stages.into(),
                        jobs: jobs.into(),
                    },
                )
            })
            .collect();
        AppProfile {
            stage_job: vec![JobId(0); per_stage.len()].into(),
            per_stage,
            per_rdd,
            num_jobs: 1,
        }
    }

    #[test]
    fn window_covers_current_and_next_stage() {
        let mut p = attached(MemTunePolicy::new());
        let prof = profile(&[&[0], &[1], &[2]]);
        p.on_stage_start(StageId(0), &prof);
        assert!(p.needed.contains(&RddId(0)));
        assert!(p.needed.contains(&RddId(1)));
        assert!(!p.needed.contains(&RddId(2)));
    }

    #[test]
    fn evicts_outside_window_first() {
        let mut p = attached(MemTunePolicy::new());
        let prof = profile(&[&[0], &[1], &[2]]);
        p.on_stage_start(StageId(0), &prof);
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(2, 0));
        // rdd2 is outside the window, evict it even though rdd0 is older.
        assert_eq!(p.pick_victim(N, &[blk(0, 0), blk(2, 0)]), Some(blk(2, 0)));
    }

    #[test]
    fn falls_back_to_lru_inside_window() {
        let mut p = attached(MemTunePolicy::new());
        let prof = profile(&[&[0, 1], &[]]);
        p.on_stage_start(StageId(0), &prof);
        p.on_insert(N, blk(0, 0));
        p.on_insert(N, blk(1, 0));
        assert_eq!(p.pick_victim(N, &[blk(0, 0), blk(1, 0)]), Some(blk(0, 0)));
    }

    #[test]
    fn prefetches_current_stage_rdds_first() {
        let mut p = attached(MemTunePolicy::new());
        let prof = profile(&[&[1], &[2], &[3]]);
        p.on_stage_start(StageId(0), &prof);
        let order = p.prefetch_order(N, &[blk(3, 0), blk(2, 0), blk(1, 0)]);
        // rdd3 (stage 2) outside window: dropped. rdd1 (now) before rdd2.
        assert_eq!(order, vec![blk(1, 0), blk(2, 0)]);
    }

    #[test]
    fn window_advances_with_stages() {
        let mut p = attached(MemTunePolicy::new());
        let prof = profile(&[&[0], &[1], &[2]]);
        p.on_stage_start(StageId(2), &prof);
        assert!(p.needed.contains(&RddId(2)));
        assert!(!p.needed.contains(&RddId(0)));
        // Final stage has no successor; window is just itself.
        assert_eq!(p.needed.len(), 1);
    }

    #[test]
    fn wants_prefetch() {
        assert!(MemTunePolicy::new().wants_prefetch());
    }
}
