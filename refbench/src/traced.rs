//! A transparent [`CachePolicy`] wrapper that counts and times every hook.
//!
//! The wrapper forwards all fourteen trait methods, overridable defaults
//! included: inheriting a default instead of forwarding would change the
//! simulation, which the traced rep's digest check would catch. Counters
//! live in `Cell`s so the `&self` hooks can record too; they are merged into
//! a shared [`Sink`] when the wrapper is dropped, so serve streams (one
//! policy per admission) and sweep cells aggregate without per-call locking.

use crate::mem;
use refdist_bench::PolicySpec;
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, StageId};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every `CachePolicy` method, in trait order.
pub const HOOKS: [&str; 14] = [
    "name",
    "attach_slots",
    "on_job_submit",
    "on_stage_start",
    "on_insert",
    "on_access",
    "on_remove",
    "on_node_join",
    "pick_victim",
    "select_victims",
    "purge_candidates",
    "wants_purge",
    "prefetch_order",
    "wants_prefetch",
];

const NAME: usize = 0;
const ATTACH_SLOTS: usize = 1;
const ON_JOB_SUBMIT: usize = 2;
const ON_STAGE_START: usize = 3;
const ON_INSERT: usize = 4;
const ON_ACCESS: usize = 5;
const ON_REMOVE: usize = 6;
const ON_NODE_JOIN: usize = 7;
const PICK_VICTIM: usize = 8;
const SELECT_VICTIMS: usize = 9;
const PURGE_CANDIDATES: usize = 10;
const WANTS_PURGE: usize = 11;
const PREFETCH_ORDER: usize = 12;
const WANTS_PREFETCH: usize = 13;

/// Calls into one hook and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookStat {
    /// Calls made.
    pub calls: u64,
    /// Total host nanoseconds inside the hook.
    pub total_ns: u64,
    /// Longest single call, nanoseconds.
    pub max_ns: u64,
}

impl HookStat {
    fn merge(&mut self, o: &HookStat) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.max_ns = self.max_ns.max(o.max_ns);
    }
}

/// Per-hook statistics of one layer's policies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HookTable {
    /// Indexed like [`HOOKS`].
    pub hooks: [HookStat; 14],
    /// Victims returned by `pick_victim` and `select_victims`.
    pub victims: u64,
    /// Heap allocations made inside hooks (counted only while
    /// [`mem::set_counting`] is on).
    pub allocs: u64,
}

impl HookTable {
    /// Add another table's counts into this one.
    pub fn merge(&mut self, o: &HookTable) {
        for (a, b) in self.hooks.iter_mut().zip(&o.hooks) {
            a.merge(b);
        }
        self.victims += o.victims;
        self.allocs += o.allocs;
    }

    /// Host nanoseconds spent in all hooks.
    pub fn busy_ns(&self) -> u64 {
        self.hooks.iter().map(|h| h.total_ns).sum()
    }
}

/// The crate a policy's code lives in, named like its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `refdist-core`: the MRD policies.
    Core,
    /// `refdist-policies`: the baselines (LRU, LRC, ...).
    Policies,
}

impl Layer {
    /// The layer `spec`'s implementation belongs to.
    pub fn of(spec: PolicySpec) -> Layer {
        match spec {
            PolicySpec::MrdEvict
            | PolicySpec::MrdPrefetch
            | PolicySpec::MrdFull
            | PolicySpec::MrdJobMetric => Layer::Core,
            _ => Layer::Policies,
        }
    }

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Policies => "policies",
        }
    }
}

/// Hook statistics of both policy layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerHooks {
    /// MRD hooks.
    pub core: HookTable,
    /// Baseline-policy hooks.
    pub policies: HookTable,
}

impl LayerHooks {
    /// The table of `layer`.
    pub fn get(&self, layer: Layer) -> &HookTable {
        match layer {
            Layer::Core => &self.core,
            Layer::Policies => &self.policies,
        }
    }

    fn get_mut(&mut self, layer: Layer) -> &mut HookTable {
        match layer {
            Layer::Core => &mut self.core,
            Layer::Policies => &mut self.policies,
        }
    }

    /// Add another pair of tables into this one.
    pub fn merge(&mut self, o: &LayerHooks) {
        self.core.merge(&o.core);
        self.policies.merge(&o.policies);
    }

    /// Host nanoseconds spent in hooks of either layer.
    pub fn busy_ns(&self) -> u64 {
        self.core.busy_ns() + self.policies.busy_ns()
    }

    /// Allocations made in hooks of either layer.
    pub fn allocs(&self) -> u64 {
        self.core.allocs + self.policies.allocs
    }

    /// Trace-span arguments: `<layer>.<hook>` → `{calls, total_ns, max_ns}`
    /// for every hook that was called.
    pub fn span_args(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for layer in [Layer::Core, Layer::Policies] {
            for (name, h) in HOOKS.iter().zip(&self.get(layer).hooks) {
                if h.calls > 0 {
                    out.push((
                        format!("{}.{name}", layer.name()),
                        format!(
                            "{{\"calls\":{},\"total_ns\":{},\"max_ns\":{}}}",
                            h.calls, h.total_ns, h.max_ns
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Where dropped wrappers deposit their counts.
pub type Sink = Arc<Mutex<LayerHooks>>;

/// Take a sink's contents, leaving it empty.
pub fn drain(sink: &Sink) -> LayerHooks {
    std::mem::take(&mut *sink.lock().expect("a wrapper panicked while merging"))
}

/// Forwards every hook to `inner`, counting calls, host time, victims and
/// allocations.
pub struct TracedPolicy {
    inner: Box<dyn CachePolicy>,
    layer: Layer,
    sink: Sink,
    stats: [Cell<HookStat>; 14],
    victims: Cell<u64>,
    allocs: Cell<u64>,
}

impl TracedPolicy {
    /// Wrap `spec`'s policy; counts go to `sink` on drop.
    pub fn new(spec: PolicySpec, sink: &Sink) -> TracedPolicy {
        TracedPolicy {
            inner: spec.build(None),
            layer: Layer::of(spec),
            sink: Arc::clone(sink),
            stats: Default::default(),
            victims: Cell::new(0),
            allocs: Cell::new(0),
        }
    }

    fn start(&self) -> (Instant, u64) {
        (Instant::now(), mem::allocs())
    }

    fn stop(&self, hook: usize, (t0, a0): (Instant, u64)) {
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats[hook].get();
        s.calls += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
        self.stats[hook].set(s);
        self.allocs.set(self.allocs.get() + (mem::allocs() - a0));
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        let mut t = HookTable {
            victims: self.victims.get(),
            allocs: self.allocs.get(),
            ..Default::default()
        };
        for (h, s) in t.hooks.iter_mut().zip(&self.stats) {
            *h = s.get();
        }
        // A poisoned sink means another wrapper panicked; the run is
        // already failing, so losing these counts is harmless.
        if let Ok(mut sink) = self.sink.lock() {
            sink.get_mut(self.layer).merge(&t);
        }
    }
}

impl CachePolicy for TracedPolicy {
    fn name(&self) -> String {
        let t = self.start();
        let r = self.inner.name();
        self.stop(NAME, t);
        r
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        let t = self.start();
        self.inner.attach_slots(slots);
        self.stop(ATTACH_SLOTS, t);
    }

    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        let t = self.start();
        self.inner.on_job_submit(job, visible);
        self.stop(ON_JOB_SUBMIT, t);
    }

    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        let t = self.start();
        self.inner.on_stage_start(stage, visible);
        self.stop(ON_STAGE_START, t);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        let t = self.start();
        self.inner.on_insert(node, block);
        self.stop(ON_INSERT, t);
    }

    fn on_access(&mut self, node: NodeId, block: BlockId) {
        let t = self.start();
        self.inner.on_access(node, block);
        self.stop(ON_ACCESS, t);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        let t = self.start();
        self.inner.on_remove(node, block);
        self.stop(ON_REMOVE, t);
    }

    fn on_node_join(&mut self, node: NodeId) {
        let t = self.start();
        self.inner.on_node_join(node);
        self.stop(ON_NODE_JOIN, t);
    }

    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        let t = self.start();
        let r = self.inner.pick_victim(node, candidates);
        self.stop(PICK_VICTIM, t);
        self.victims.set(self.victims.get() + r.is_some() as u64);
        r
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let t = self.start();
        let r = self.inner.select_victims(node, shortfall, resident);
        self.stop(SELECT_VICTIMS, t);
        self.victims.set(self.victims.get() + r.len() as u64);
        r
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let t = self.start();
        let r = self.inner.purge_candidates(in_memory);
        self.stop(PURGE_CANDIDATES, t);
        r
    }

    fn wants_purge(&self) -> bool {
        let t = self.start();
        let r = self.inner.wants_purge();
        self.stop(WANTS_PURGE, t);
        r
    }

    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        let t = self.start();
        let r = self.inner.prefetch_order(node, missing);
        self.stop(PREFETCH_ORDER, t);
        r
    }

    fn wants_prefetch(&self) -> bool {
        let t = self.start();
        let r = self.inner.wants_prefetch();
        self.stop(WANTS_PREFETCH, t);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;
    use refdist_bench::{cache_for_fraction, ExpContext};
    use refdist_cluster::{
        ArrivalProcess, ServeConfig, ServeSched, ServeSim, SimConfig, Simulation,
    };
    use refdist_core::ProfileMode;
    use refdist_dag::AppPlan;
    use refdist_workloads::{Workload, WorkloadParams};

    const SPECS: [PolicySpec; 9] = [
        PolicySpec::Lru,
        PolicySpec::Fifo,
        PolicySpec::Random,
        PolicySpec::Lrc,
        PolicySpec::MemTune,
        PolicySpec::MrdEvict,
        PolicySpec::MrdPrefetch,
        PolicySpec::MrdFull,
        PolicySpec::MrdJobMetric,
    ];

    /// A tiny cluster under eviction pressure whose node 1 crashes at stage
    /// 2 and rejoins two stages later, so every hook gets exercised.
    fn tiny_cfg(spec: &refdist_dag::AppSpec) -> SimConfig {
        let ctx = ExpContext::main();
        let mut cluster = ctx.cluster.clone();
        cluster.nodes = 4;
        let cache = cache_for_fraction(spec, &cluster, 0.3).max(1);
        let mut cfg = SimConfig::new(cluster.with_cache(cache)).with_seed(7);
        cfg.faults.crash_with_rejoin(1, 2, 2);
        cfg
    }

    #[test]
    fn wrapper_is_transparent_for_every_servable_policy() {
        let spec = Workload::ConnectedComponents.build(&WorkloadParams::small());
        let plan = AppPlan::build(&spec);
        for policy in SPECS {
            let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, tiny_cfg(&spec));
            let plain = sim.run(&mut *policy.build(None));
            let sink = Sink::default();
            let traced = sim.run(&mut TracedPolicy::new(policy, &sink));
            assert_eq!(digest(&plain), digest(&traced), "{policy:?}");
            let hooks = drain(&sink);
            let t = hooks.get(Layer::of(policy));
            let other = hooks.get(match Layer::of(policy) {
                Layer::Core => Layer::Policies,
                Layer::Policies => Layer::Core,
            });
            assert_eq!(
                other,
                &HookTable::default(),
                "{policy:?} counted in one layer"
            );
            for hook in [NAME, ATTACH_SLOTS, ON_JOB_SUBMIT, ON_STAGE_START, ON_INSERT] {
                assert!(t.hooks[hook].calls > 0, "{policy:?} {}", HOOKS[hook]);
            }
            assert!(t.hooks[ON_NODE_JOIN].calls > 0, "{policy:?} saw the rejoin");
            assert!(t.victims > 0, "{policy:?} evicted under pressure");
            assert!(t.busy_ns() > 0);
        }
    }

    #[test]
    fn wrapper_is_transparent_in_serve_streams() {
        let specs: Vec<_> = [Workload::ShortestPaths, Workload::KMeans]
            .map(|w| w.build(&WorkloadParams::small()))
            .into();
        let subs: Vec<_> = (0..6).map(|i| (&specs[i % 2], (i % 3) as u32)).collect();
        let mut cfg = ServeConfig::passthrough(tiny_cfg(&specs[0]));
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_gap_us: 500_000,
        };
        cfg.sched = ServeSched::FairShare;
        let sim = ServeSim::new(&subs, cfg);
        for policy in [PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull] {
            let plain = sim.run_with(|_| policy.build(None));
            let sink = Sink::default();
            let traced = sim.run_with(|_| Box::new(TracedPolicy::new(policy, &sink)));
            assert_eq!(digest(&plain), digest(&traced), "{policy:?}");
            let hooks = drain(&sink);
            assert_eq!(
                hooks.get(Layer::of(policy)).hooks[ATTACH_SLOTS].calls,
                6,
                "{policy:?}: one admission per submission, all dropped into the sink"
            );
        }
    }
}
