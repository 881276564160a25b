//! Cache management policies.
//!
//! Defines the [`CachePolicy`] trait the cluster simulator drives, plus the
//! baseline policies the MRD paper evaluates against:
//!
//! * [`LruPolicy`] — Spark's default recency-based eviction (§2).
//! * [`FifoPolicy`], [`RandomPolicy`] — classic non-DAG baselines for
//!   ablations.
//! * [`LrcPolicy`] — Least Reference Count (Yu et al., INFOCOM'17): counts
//!   remaining DAG references per block, evicts the lowest.
//! * [`MemTunePolicy`] — MemTune's cache component (Xu et al., IPDPS'16):
//!   keeps lists of RDDs needed by runnable stages; evicts outside the list,
//!   prefetches inside it.
//! * [`BeladyMinPolicy`] — the clairvoyant MIN oracle over a recorded access
//!   trace, the unreachable upper bound MRD approximates (§3.1).
//!
//! The MRD policy itself lives in `refdist-core`; it implements the same
//! trait.

pub mod belady;
pub mod fifo;
pub mod index;
pub mod lrc;
pub mod lru;
pub mod memtune;
pub mod random;

pub use belady::BeladyMinPolicy;
pub use fifo::FifoPolicy;
pub use index::{RecencyIndex, VictimIndex};
pub use lrc::LrcPolicy;
pub use lru::LruPolicy;
pub use memtune::MemTunePolicy;
pub use random::RandomPolicy;

use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, StageId};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cache management policy, driven by the cluster runtime.
///
/// The runtime calls the `on_*` hooks as the simulated application executes
/// and consults `pick_victim` under memory pressure, `purge_candidates` for
/// proactive cluster-wide eviction, and `prefetch_order` when a policy does
/// prefetching. All hooks are infallible and must be cheap: the paper's §4.4
/// argues MRD's bookkeeping is comparable to LRU's, and the criterion
/// benches in `refdist-bench` verify that claim for this implementation.
///
/// `Send` is a supertrait so boxed policies can move into the worker threads
/// of the parallel sweep engine (`refdist-bench`'s `sweep` module); every
/// policy is plain owned data, so this costs implementors nothing.
pub trait CachePolicy: Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// The runtime's dense block-slot arena for the application about to
    /// run. Required: both drivers call it exactly once, before any other
    /// hook, and a policy with per-block state keys its tables by this
    /// arena (an unattached [`SlotMap`](refdist_dag::SlotMap) panics on
    /// its first write). The default no-op serves policies without
    /// per-block state.
    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        let _ = slots;
    }

    /// A job's DAG has been submitted; `visible` is the reference profile
    /// known so far (whole application for recurring runs, everything up to
    /// this job for ad-hoc runs).
    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        let _ = (job, visible);
    }

    /// Execution advanced to `stage`.
    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        let _ = (stage, visible);
    }

    /// `block` was inserted into `node`'s memory cache.
    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        let _ = (node, block);
    }

    /// `block` was read from `node`'s memory cache (a hit).
    fn on_access(&mut self, node: NodeId, block: BlockId) {
        let _ = (node, block);
    }

    /// `block` left `node`'s memory cache (eviction or purge).
    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        let _ = (node, block);
    }

    /// A replacement executor registered on `node` after downtime (fault
    /// injection with a rejoin): its caches are cold and any per-node agent
    /// state died with the old executor. The runtime reported each lost
    /// block via [`on_remove`](CachePolicy::on_remove) at crash time, so
    /// block-level bookkeeping is already clean; this hook is for per-node
    /// state re-issue (MRD re-sends the distance-table replica to the new
    /// monitor, paper §4.4). The default does nothing.
    fn on_node_join(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Under memory pressure on `node`, choose which of `candidates` (the
    /// node's resident blocks, in deterministic order) to evict.
    ///
    /// Returning `None` aborts the insert (nothing evictable is worth less
    /// than the incoming block, or the candidate list is empty).
    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId>;

    /// Batched victim selection: under memory pressure on `node`, choose
    /// victims (in eviction order) whose sizes cover at least `shortfall`
    /// bytes. `resident` maps the node's resident blocks to their sizes;
    /// every entry was previously reported via [`on_insert`] for this
    /// node. The runtime evicts the returned blocks in order and calls
    /// [`on_remove`] for each — implementations must not mutate their own
    /// bookkeeping for the victims here.
    ///
    /// A result covering less than `shortfall` means eviction alone cannot
    /// make room (the runtime aborts the pending insert after evicting what
    /// was returned, matching the one-at-a-time protocol).
    ///
    /// The default delegates to repeated [`pick_victim`] over a shrinking
    /// sorted candidate list, so existing policies keep their exact victim
    /// sequence. Policies with an incremental index override this with an
    /// O(log n)-per-victim pop; the differential property tests assert both
    /// paths produce byte-identical sequences.
    ///
    /// [`on_insert`]: CachePolicy::on_insert
    /// [`on_remove`]: CachePolicy::on_remove
    /// [`pick_victim`]: CachePolicy::pick_victim
    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let mut candidates: Vec<BlockId> = resident.keys().copied().collect();
        let mut victims = Vec::new();
        let mut freed = 0u64;
        while freed < shortfall && !candidates.is_empty() {
            let Some(victim) = self.pick_victim(node, &candidates) else {
                break;
            };
            let Ok(pos) = candidates.binary_search(&victim) else {
                break; // policy returned a non-candidate; abort like None
            };
            candidates.remove(pos);
            freed += resident[&victim];
            victims.push(victim);
        }
        victims
    }

    /// Among `in_memory` blocks cluster-wide, those that should be purged
    /// proactively (MRD's "all-out purge" of infinite-distance data, §4.2).
    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let _ = in_memory;
        Vec::new()
    }

    /// Whether [`purge_candidates`] can ever return candidates or has side
    /// effects worth triggering. Policies that keep the default (empty,
    /// side-effect-free) implementation override this to `false`, letting
    /// the runtime skip the per-stage residency collection entirely.
    ///
    /// [`purge_candidates`]: CachePolicy::purge_candidates
    fn wants_purge(&self) -> bool {
        true
    }

    /// Rank `missing` blocks (cached-RDD blocks not in `node`'s memory) in
    /// prefetch priority order, best first. Empty means "prefetch nothing".
    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        let _ = (node, missing);
        Vec::new()
    }

    /// Whether the runtime should run the prefetch engine for this policy.
    fn wants_prefetch(&self) -> bool {
        false
    }
}

/// Baseline policy selector, used by benches and examples to construct
/// policies by name. MRD is constructed separately (it carries a config);
/// see `refdist_core::MrdPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least Recently Used (Spark default).
    Lru,
    /// First-In First-Out.
    Fifo,
    /// Uniform random victim (seeded).
    Random,
    /// Least Reference Count.
    Lrc,
    /// MemTune's dependency-list policy.
    MemTune,
}

impl PolicyKind {
    /// Instantiate the baseline policy.
    pub fn build(self) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Random => Box::new(RandomPolicy::new(0x5eed)),
            PolicyKind::Lrc => Box::new(LrcPolicy::new()),
            PolicyKind::MemTune => Box::new(MemTunePolicy::new()),
        }
    }

    /// All baseline kinds, for sweeps.
    pub fn all() -> &'static [PolicyKind] {
        &[
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::Lrc,
            PolicyKind::MemTune,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `policy` with a slot arena over rdds 0..10 x 4 partitions attached,
    /// as the drivers attach one before any other hook.
    pub(crate) fn attached<P: CachePolicy>(mut policy: P) -> P {
        policy.attach_slots(&Arc::new(BlockSlots::from_counts(
            (0..10).map(|r| (refdist_dag::RddId(r), 4)),
        )));
        policy
    }

    #[test]
    fn kinds_build_named_policies() {
        for &k in PolicyKind::all() {
            let p = k.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        // A minimal policy relying on every default must still be usable.
        struct Nop;
        impl CachePolicy for Nop {
            fn name(&self) -> String {
                "nop".into()
            }
            fn pick_victim(&mut self, _: NodeId, c: &[BlockId]) -> Option<BlockId> {
                c.first().copied()
            }
        }
        let mut p = Nop;
        assert!(!p.wants_prefetch());
        assert!(p.purge_candidates(&[]).is_empty());
        assert!(p.prefetch_order(NodeId(0), &[]).is_empty());
        // Defaults conservatively assume purge_candidates matters.
        assert!(p.wants_purge());
    }

    #[test]
    fn baselines_opt_out_of_purging() {
        // These keep the default (empty) purge_candidates, so the runtime
        // may skip the per-stage residency collection for them entirely.
        for &k in PolicyKind::all() {
            let expected = k == PolicyKind::Lrc;
            assert_eq!(k.build().wants_purge(), expected, "{k:?}");
        }
    }
}
