//! Helpers shared by the cluster integration tests: the decision-recording
//! policy wrapper, the FNV-1a digest, the seeded corpus generator, and the
//! golden-file check for the frozen decision digests.

// Each test binary compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, StageId};
use refdist_policies::{CachePolicy, PolicyKind};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every victim batch and purge verdict a policy returned, in call order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decisions {
    pub victims: Vec<(NodeId, Vec<BlockId>)>,
    pub purges: Vec<Vec<BlockId>>,
}

impl Decisions {
    /// Blocks chosen as victims, and blocks purged, over the whole log.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.victims.iter().map(|(_, v)| v.len()).sum(),
            self.purges.iter().map(Vec::len).sum(),
        )
    }
}

/// A decision log shared between a test and the [`Recorder`]s writing it.
/// Serve drivers consume their policy boxes, so the log lives outside them;
/// several recorders may share one log to capture a global call order.
pub type Log = Arc<Mutex<Decisions>>;

/// Snapshot of a shared log.
pub fn snapshot(log: &Log) -> Decisions {
    log.lock().unwrap().clone()
}

/// Wraps a policy and appends every eviction batch and purge decision to a
/// shared [`Log`], passing every hook through unchanged.
pub struct Recorder {
    inner: Box<dyn CachePolicy>,
    log: Log,
}

impl Recorder {
    /// Wrap `inner` with a fresh log of its own.
    pub fn wrap(inner: Box<dyn CachePolicy>) -> (Box<dyn CachePolicy>, Log) {
        let log = Log::default();
        (Self::sharing(inner, &log), log)
    }

    /// Wrap `inner`, appending to `log`.
    pub fn sharing(inner: Box<dyn CachePolicy>, log: &Log) -> Box<dyn CachePolicy> {
        Box::new(Recorder {
            inner,
            log: Arc::clone(log),
        })
    }
}

impl CachePolicy for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.inner.attach_slots(slots);
    }
    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        self.inner.on_job_submit(job, visible);
    }
    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        self.inner.on_stage_start(stage, visible);
    }
    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_insert(node, block);
    }
    fn on_access(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_access(node, block);
    }
    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_remove(node, block);
    }
    fn on_node_join(&mut self, node: NodeId) {
        self.inner.on_node_join(node);
    }
    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        self.inner.pick_victim(node, candidates)
    }
    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let v = self.inner.select_victims(node, shortfall, resident);
        self.log.lock().unwrap().victims.push((node, v.clone()));
        v
    }
    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let p = self.inner.purge_candidates(in_memory);
        self.log.lock().unwrap().purges.push(p.clone());
        p
    }
    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        self.inner.prefetch_order(node, missing)
    }
    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
    fn wants_purge(&self) -> bool {
        self.inner.wants_purge()
    }
}

/// FNV-1a: a digest that stays the same across toolchains (the std hashers
/// promise no such thing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministic splitmix64 stream that generates a decision corpus. The
/// corpora are drawn from explicit seeds, never from the proptest runner,
/// so renaming a test or setting `PROPTEST_CASES` cannot change them.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    pub fn flip(&mut self) -> bool {
        self.below(2) == 0
    }

    /// One element of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Compare `actual` against the checked-in golden `tests/golden/{name}` at
/// the repository root, or rewrite it when `UPDATE_GOLDEN` is set. `regen`
/// is the command that regenerates it, quoted in the failure message.
pub fn check_golden(name: &str, actual: &str, regen: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("\n  actual:   {a}\n  expected: {e}"))
            .unwrap_or_default();
        panic!(
            "decisions diverged from {} (first differing line:{first}); \
             an intended change regenerates it with `{regen}`",
            path.display()
        );
    }
}

/// Builds a fresh policy instance of one family.
pub type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;

/// The five baselines plus full MRD.
pub fn core_policies() -> Vec<(&'static str, Build)> {
    let mut v = all_policies();
    v.truncate(5);
    v.push(("mrd", Box::new(|| Box::new(MrdPolicy::full()))));
    v
}

/// Every servable policy family: the five baselines plus MRD in all three
/// modes and with job-granular distances (Belady is excluded — its
/// whole-run trace has no meaning under serving). The order is part of the
/// serve corpora: submission `i` runs family `i % 9`.
pub fn all_policies() -> Vec<(&'static str, Build)> {
    let mut v: Vec<(&'static str, Build)> = vec![
        ("lru", Box::new(|| PolicyKind::Lru.build())),
        ("fifo", Box::new(|| PolicyKind::Fifo.build())),
        ("random", Box::new(|| PolicyKind::Random.build())),
        ("lrc", Box::new(|| PolicyKind::Lrc.build())),
        ("memtune", Box::new(|| PolicyKind::MemTune.build())),
    ];
    for (name, mode, metric) in [
        ("mrd-evict", MrdMode::EvictOnly, DistanceMetric::Stage),
        ("mrd-prefetch", MrdMode::PrefetchOnly, DistanceMetric::Stage),
        ("mrd-full", MrdMode::Full, DistanceMetric::Stage),
        ("mrd-full-job", MrdMode::Full, DistanceMetric::Job),
    ] {
        v.push((
            name,
            Box::new(move || {
                Box::new(MrdPolicy::new(MrdConfig {
                    mode,
                    metric,
                    ..Default::default()
                }))
            }),
        ));
    }
    v
}
