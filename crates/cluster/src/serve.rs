//! Multi-tenant service mode: a *stream* of applications on one shared
//! cluster.
//!
//! The engine runs stages and the drivers own applications, so serving is
//! a second driver over the solo stage machinery, not a fork of it. Every
//! submission owns a disjoint range of global RDD ids ([`TenantMap`]
//! offsets), so block ids stay globally unique and the stores, block
//! master, slot arena and scheduler index work unchanged. One streaming
//! engine holds the shared cluster state. The driver keeps one `AppState`
//! per submission: clock, RNG streams, accumulators, per-node cache
//! counters, fault accounting, and the slot run and caching mode set at its
//! admission. It swaps that state into the engine around each of the
//! submission's stages, so everything a stage counts lands on the
//! submission that ran it. The inter-job scheduler picks which
//! application's next stage runs; cache-policy callbacks route through a
//! [`TenantMux`] that owns one policy instance per live submission.
//!
//! The driver streams: a submission is admitted at its arrival event —
//! planned and profiled through a per-run [`TemplateCache`], so repeat
//! structures are planned once and rebased — and retired once it has
//! completed and drained, so engine, mux and arena state are
//! O(peak-active), not O(stream). Every decision it makes is pinned by the
//! frozen decision digests (`tests/golden/serve_*.txt`).
//!
//! **Equivalence by construction**: with one submission, zero arrival delay
//! and an unlimited quota, the mux passes every hook through unchanged and
//! the driver performs exactly the solo driver's call sequence
//! ([`Simulation::run`](crate::Simulation::run)) —
//! `tests/differential_serve.rs` asserts byte-identical reports,
//! placements and victim/purge sequences against solo runs for
//! every policy.
//!
//! Tenancy is a *grouping* of submissions: several submissions may belong to
//! one tenant. Per-tenant cache quotas (enforced inside
//! [`refdist_store::MemoryStore`]) make a tenant over its share evict its own
//! blocks first; the mux's victim selection prefers the evicting tenant's own
//! blocks and counts cross-tenant evictions when it has to spill over.
//!
//! The Belady MIN oracle is not servable: its recorded trace is a whole-run
//! artifact of a solo run and has no meaning under interleaving.

use crate::config::SimConfig;
use crate::report::RunReport;
use crate::runtime::{AppState, Engine, EngineScratch, JobCursor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use refdist_core::AppProfiler;
use refdist_dag::{
    remap_plan, remap_profile, AppPlan, AppProfile, AppSpec, BlockId, BlockSlots, JobId, RddId,
    SlotArena, StageId, TemplateCache, TenantMap,
};
use refdist_policies::CachePolicy;
use refdist_simcore::{SimDuration, SimTime};
use refdist_store::{CacheStats, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::mem::take;
use std::sync::Arc;

/// How application arrivals are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed arrival times in simulated microseconds, one per submission
    /// (missing entries repeat the last; empty = everything at t=0).
    /// Consumes zero random draws, so replays are trivially seed-independent.
    Trace(Vec<u64>),
    /// Poisson process: i.i.d. exponential gaps with the given mean. The
    /// first submission arrives at t=0. Draws come from a dedicated stream
    /// salted off the master seed (the fault-plan pattern), so arrival
    /// randomness never perturbs the in-run jitter or fault streams.
    Poisson {
        /// Mean inter-arrival gap, microseconds.
        mean_gap_us: u64,
    },
}

/// Salt decorrelating the arrival stream from the jitter (`seed`) and fault
/// (`seed` splitmixed) streams.
const ARRIVAL_SALT: u64 = 0x5E17_A3D4_9C2B_0F86;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-application engine seed: submission 0 uses the master seed verbatim
/// (byte-equality with a standalone run), later submissions get decorrelated
/// but fully seed-determined streams.
fn app_seed(master: u64, i: usize) -> u64 {
    if i == 0 {
        master
    } else {
        splitmix64(master ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Engine seed for admission `attempt` (0-based) of a submission: attempt 0
/// is the submission's [`app_seed`] verbatim (byte-equality with the
/// no-retry path), app-level retries get decorrelated but fully
/// seed-determined streams so a retry does not replay the exact jitter and
/// fault draws that killed the previous attempt.
fn attempt_seed(base: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        base
    } else {
        splitmix64(base ^ (attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

/// Grid of a queued submission's admission polls, simulated microseconds
/// (admission control, [`AdmissionPolicy::Queue`]): it polls the gate at
/// `arrival + m·QUEUE_POLL_US`. A poll that finds the gate full puts it to
/// sleep until capacity frees; it then polls at the next tick of the grid,
/// so queue delays are quantized to this granularity.
const QUEUE_POLL_US: u64 = 1_000;

impl ArrivalProcess {
    /// Arrival times (microseconds, ascending) for `n` submissions. Pure:
    /// same `(self, n, master_seed)` always yields the same times, and the
    /// trace variant ignores the seed entirely.
    pub fn arrivals(&self, n: usize, master_seed: u64) -> Vec<u64> {
        match self {
            ArrivalProcess::Trace(t) => (0..n)
                .map(|i| {
                    t.get(i)
                        .copied()
                        .unwrap_or_else(|| t.last().copied().unwrap_or(0))
                })
                .collect(),
            ArrivalProcess::Poisson { mean_gap_us } => {
                let mut rng = SmallRng::seed_from_u64(splitmix64(master_seed ^ ARRIVAL_SALT));
                let mut at = 0u64;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            let u: f64 = rng.random();
                            // Inverse-transform exponential; 1-u ∈ (0, 1].
                            let gap = -(1.0 - u).ln() * *mean_gap_us as f64;
                            at = at.saturating_add(gap as u64);
                        }
                        at
                    })
                    .collect()
            }
        }
    }
}

/// Inter-job scheduling discipline over the shared task slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSched {
    /// Arrived submissions run to completion in arrival order.
    Fifo,
    /// Round-robin by application clock: the next stage to run belongs to
    /// the arrived, unfinished application with the smallest clock, so every
    /// tenant's applications make progress at comparable simulated rates.
    FairShare,
}

impl fmt::Display for ServeSched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServeSched::Fifo => "fifo",
            ServeSched::FairShare => "fair-share",
        })
    }
}

/// Per-tenant cache quota policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// No per-tenant limit; tenants contend for the whole storage region.
    Unlimited,
    /// Each tenant may cache at most `cache_bytes / num_tenants` per node.
    EqualShare,
    /// Each tenant may cache at most this many bytes per node.
    Bytes(u64),
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaKind::Unlimited => f.write_str("unlimited"),
            QuotaKind::EqualShare => f.write_str("equal-share"),
            QuotaKind::Bytes(b) => write!(f, "{b}B"),
        }
    }
}

/// What happens to a newly arriving submission when the cluster is already
/// running [`ResilienceConfig::max_active_apps`] submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait in a (bounded, see [`ResilienceConfig::queue_cap`]) pending
    /// queue until a running submission finishes. Queue wait counts into
    /// the submission's JCT and is reported as queue delay.
    #[default]
    Queue,
    /// Reject the submission outright: it never runs, its report is a
    /// placeholder, and it counts as a deadline miss when a deadline is set.
    Shed,
    /// Admit the submission anyway but with caching bypassed: it computes
    /// everything from lineage and inserts nothing into the shared cache,
    /// so it cannot add cache pressure to the submissions already running.
    Degrade,
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdmissionPolicy::Queue => "queue",
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Degrade => "degrade",
        })
    }
}

/// Serve-mode resilience knobs: app-level retry and overload admission
/// control. The default is fully passive — no retry budget beyond the first
/// attempt, no active-app cap, no deadline — and a passive config is
/// byte-invisible: the driver takes no extra branch, draws no extra random
/// number, and reports no resilience section (the differential serve suite
/// pins this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Total admissions a submission may consume, aborts included. 1 (the
    /// default) = no app-level retry; an aborted submission with budget
    /// left is torn down (blocks purged, slots recycled, policy dropped)
    /// and re-admitted through the normal streaming admission path after a
    /// capped exponential backoff.
    pub max_app_attempts: u32,
    /// Base app-level retry backoff, simulated microseconds; doubles per
    /// failed attempt.
    pub retry_backoff_us: u64,
    /// Cap on the app-level exponential backoff.
    pub max_retry_backoff_us: u64,
    /// What to do with a first-time arrival when `max_active_apps` are
    /// already running. Retries re-enter unconditionally: the cluster
    /// already accepted the submission once.
    pub admission: AdmissionPolicy,
    /// Cap on concurrently *running* (admitted, unfinished) submissions;
    /// `None` = unbounded (admission control off).
    pub max_active_apps: Option<u32>,
    /// Bound on how many submissions may wait in the pending queue at once
    /// (admission [`AdmissionPolicy::Queue`] only); an arrival past the cap
    /// is shed. `None` = unbounded queue.
    pub queue_cap: Option<u32>,
    /// Per-submission completion deadline measured from *arrival*,
    /// microseconds. Pure accounting: deadline misses (shed submissions
    /// included) feed the per-tenant SLO attainment in the report.
    pub deadline_us: Option<u64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_app_attempts: 1,
            retry_backoff_us: 500_000,
            max_retry_backoff_us: 8_000_000,
            admission: AdmissionPolicy::Queue,
            max_active_apps: None,
            queue_cap: None,
            deadline_us: None,
        }
    }
}

impl ResilienceConfig {
    /// Whether nothing in this config can change a run's behaviour or its
    /// report (backoff values and the admission policy are irrelevant when
    /// no retry budget and no active-app cap can trigger them).
    pub fn is_passive(&self) -> bool {
        self.max_app_attempts <= 1 && self.max_active_apps.is_none() && self.deadline_us.is_none()
    }

    /// Backoff before app-level retry number `failures` (1-based), capped.
    pub fn app_backoff_us(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(20);
        self.retry_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_retry_backoff_us)
    }

    /// Sanity-check the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_app_attempts == 0 {
            return Err("max_app_attempts must be at least 1".into());
        }
        if self.max_active_apps == Some(0) {
            return Err("max_active_apps must be at least 1".into());
        }
        if self.queue_cap.is_some() && self.max_active_apps.is_none() {
            return Err("queue_cap is meaningless without max_active_apps".into());
        }
        Ok(())
    }
}

/// Configuration of one serve run, wrapping the single-app [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The underlying cluster/simulation knobs (seed included).
    pub sim: SimConfig,
    /// Arrival process over the submissions.
    pub arrivals: ArrivalProcess,
    /// Inter-job scheduling discipline.
    pub sched: ServeSched,
    /// Per-tenant cache quota.
    pub quota: QuotaKind,
    /// App-level retry and overload admission control. Passive by default;
    /// see [`ResilienceConfig`].
    pub resilience: ResilienceConfig,
}

impl ServeConfig {
    /// The serve configuration that is equivalent to running `sim`'s single
    /// application alone: everything arrives at t=0, FIFO, no quota.
    pub fn passthrough(sim: SimConfig) -> ServeConfig {
        ServeConfig {
            sim,
            arrivals: ArrivalProcess::Trace(Vec::new()),
            sched: ServeSched::Fifo,
            quota: QuotaKind::Unlimited,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Sanity-check the whole serve configuration: the cluster, the fault
    /// plan and the resilience knobs. [`ServeSim`] refuses to run a config
    /// this rejects.
    pub fn validate(&self) -> Result<(), String> {
        self.sim.cluster.validate()?;
        self.sim.faults.validate()?;
        self.resilience.validate()
    }
}

/// One entry of a [`TenantMux`]'s slab: an admitted submission, or a free
/// entry a retired one left for the next admission to reuse.
struct Live {
    /// `None` while the entry is free.
    policy: Option<Box<dyn CachePolicy>>,
    /// Per node: this submission's blocks resident there, with sizes — the
    /// exact map its policy's `select_victims` is handed. Every map is
    /// empty at retirement, so a reused entry starts clean.
    own: Box<[BTreeMap<BlockId, u64>]>,
    /// The submission's block-size column in [`TenantMux::sizes`].
    column: usize,
}

/// [`TenantMux::slot`] of a submission with no slab entry.
const FREE: u32 = u32::MAX;

/// Multiplexes [`CachePolicy`] callbacks over one policy instance per
/// submission. Block-keyed hooks route to the block's owning submission
/// (evictions of a foreign tenant's block must reach *that* tenant's policy);
/// stage/job hooks and victim selection route to the currently running
/// submission. Purge and prefetch candidates pass straight through: the
/// engine collects them from the running submission's slot run only. With a
/// single submission every dispatch is a full pass-through — the
/// byte-equality anchor of the differential serve tests.
///
/// Victim selection works off per (node, submission) resident maps, sized
/// at admission, and per (node, tenant) byte totals, kept from the hooks
/// the mux routes anyway; a retired submission's slab entry serves the
/// next admission. An eviction hands each inner policy its own-blocks map
/// as is and ranks other tenants only when the evicting tenant falls
/// short, so a self-eviction costs O(the evicting tenant's submissions).
pub struct TenantMux {
    /// Per submission: its entry in `live`, or [`FREE`] when not admitted.
    slot: Vec<u32>,
    /// Slab of per-submission state, O(peak active) entries.
    live: Vec<Live>,
    /// Admitted, unretired submissions as `(tenant, submission)`,
    /// ascending: each tenant's submissions are one run.
    active: Vec<(u32, u32)>,
    /// Distinct `(local rdd, block size)` columns of submissions' cached
    /// RDDs, ascending: one per template, searched linearly at admission.
    sizes: Vec<Vec<(RddId, u64)>>,
    /// The full submission → tenant map (shared with the stores).
    map: Arc<TenantMap>,
    /// The latest slot-arena snapshot (`None` before the first admission):
    /// block owners are one array read off it.
    arena: Option<Arc<BlockSlots>>,
    current: usize,
    /// `[evictor_tenant][victim_tenant]` victim-selection counts; the
    /// diagonal counts a tenant evicting its own blocks.
    cross: Vec<Vec<u64>>,
    /// Bytes of each tenant's blocks resident on each node (the sum of its
    /// submissions' `own` maps), one row of tenants per node.
    tenant_bytes: Vec<u64>,
    /// `select_victims` scratch: the other tenants in visit order.
    others: Vec<usize>,
}

impl TenantMux {
    /// A mux over `map`'s submissions on `nodes` nodes, none admitted yet.
    /// Policies arrive one at a time through [`TenantMux::admit`].
    pub fn new(nodes: usize, map: Arc<TenantMap>) -> TenantMux {
        let nt = map.num_tenants();
        TenantMux {
            slot: vec![FREE; map.num_apps()],
            live: Vec::new(),
            active: Vec::new(),
            sizes: Vec::new(),
            map,
            arena: None,
            current: 0,
            cross: vec![vec![0; nt]; nt],
            tenant_bytes: vec![0; nodes * nt],
            others: Vec::with_capacity(nt),
        }
    }

    /// Admit submission `app`: install its policy, attach the current
    /// slot-arena snapshot (which also becomes the mux's ownership table)
    /// and record its cached RDDs' `(local rdd, block size)`, ascending.
    pub fn admit(
        &mut self,
        app: usize,
        mut policy: Box<dyn CachePolicy>,
        slots: &Arc<BlockSlots>,
        sizes: impl Iterator<Item = (RddId, u64)> + Clone,
    ) {
        policy.attach_slots(slots);
        self.arena = Some(Arc::clone(slots));
        let same = |c: &Vec<_>| c.iter().copied().eq(sizes.clone());
        let column = self.sizes.iter().position(same).unwrap_or_else(|| {
            self.sizes.push(sizes.collect());
            self.sizes.len() - 1
        });
        let i = self.live.iter().position(|l| l.policy.is_none());
        let i = i.unwrap_or_else(|| {
            let nodes = self.tenant_bytes.len() / self.cross.len();
            let own = (0..nodes).map(|_| BTreeMap::new()).collect();
            self.live.push(Live {
                policy: None,
                own,
                column,
            });
            self.live.len() - 1
        });
        self.live[i].policy = Some(policy);
        self.live[i].column = column;
        self.slot[app] = i as u32;
        let key = (self.map.tenant_of_app(app), app as u32);
        let pos = self.active.binary_search(&key).expect_err("admitted twice");
        self.active.insert(pos, key);
    }

    /// Retire submission `app`: drop its policy instance (and everything
    /// the policy holds — profile cursors, slot-keyed tables) and free its
    /// slab entry. Its cross-eviction counts are kept.
    pub fn retire(&mut self, app: usize) {
        let live = self.entry(app);
        debug_assert!(
            live.own.iter().all(BTreeMap::is_empty),
            "a retiring submission holds no memory"
        );
        live.policy = None;
        self.slot[app] = FREE;
        let key = (self.map.tenant_of_app(app), app as u32);
        let pos = self.active.binary_search(&key).expect("retired twice");
        self.active.remove(pos);
    }

    /// Admitted, unretired submissions right now.
    pub fn active_apps(&self) -> usize {
        self.active.len()
    }

    /// Whether submission `app` is admitted and not yet retired.
    pub fn is_active(&self, app: usize) -> bool {
        self.slot[app] != FREE
    }

    /// Route subsequent current-submission hooks to submission `app`.
    pub fn set_current(&mut self, app: usize) {
        debug_assert!(app < self.slot.len());
        self.current = app;
    }

    /// The policy name of submission `app` (which must be live).
    pub fn policy_name(&self, app: usize) -> String {
        self.policy(app).name()
    }

    /// The cross-tenant eviction matrix accumulated so far
    /// (`[evictor][victim]`; the diagonal is self-eviction).
    pub fn cross_evictions(&self) -> &Vec<Vec<u64>> {
        &self.cross
    }

    fn entry(&mut self, app: usize) -> &mut Live {
        &mut self.live[self.slot[app] as usize]
    }

    fn policy(&self, app: usize) -> &dyn CachePolicy {
        let live = &self.live[self.slot[app] as usize];
        live.policy.as_deref().expect("submission is admitted")
    }

    fn policy_mut(&mut self, app: usize) -> &mut dyn CachePolicy {
        let live = self.entry(app);
        live.policy.as_deref_mut().expect("submission is admitted")
    }

    fn cur(&mut self) -> &mut dyn CachePolicy {
        self.policy_mut(self.current)
    }

    /// The submission owning `block`: O(1) off the arena snapshot.
    fn owner(&self, block: BlockId) -> usize {
        self.arena
            .as_ref()
            .and_then(|s| s.owner(block.rdd))
            .unwrap_or_else(|| panic!("{block} belongs to no admitted submission"))
    }

    /// Whether victim selection needs the per-(node, submission) state: a
    /// single submission selects over the node map directly.
    fn tracking(&self) -> bool {
        self.slot.len() > 1
    }

    /// Tenant `t`'s submissions: its run of `active`.
    fn tenant_run(&self, t: usize) -> std::ops::Range<usize> {
        let lo = self.active.partition_point(|&(u, _)| (u as usize) < t);
        lo..lo + self.active[lo..].partition_point(|&(u, _)| u as usize == t)
    }

    /// Tenant `t`'s bytes on `node`.
    fn bytes(&mut self, node: usize, t: usize) -> &mut u64 {
        &mut self.tenant_bytes[node * self.cross.len() + t]
    }

    /// Offer `node`'s shortfall to tenant `t`'s submissions in submission
    /// order until `freed` covers it, counting the picks into `cross`.
    fn visit_tenant(
        &mut self,
        t: usize,
        node: NodeId,
        shortfall: u64,
        freed: &mut u64,
        victims: &mut Vec<BlockId>,
    ) {
        let evictor = self.map.tenant_of_app(self.current) as usize;
        for k in self.tenant_run(t) {
            if *freed >= shortfall {
                return;
            }
            let a = self.active[k].1 as usize;
            let Live { policy, own, .. } = &mut self.live[self.slot[a] as usize];
            let own = &own[node.index()];
            if own.is_empty() {
                continue;
            }
            let policy = policy.as_mut().expect("active submission");
            let picked = policy.select_victims(node, shortfall - *freed, own);
            for b in &picked {
                *freed += own.get(b).copied().unwrap_or(0);
            }
            self.cross[evictor][t] += picked.len() as u64;
            // The first contributing batch is the result itself: no copy.
            if victims.is_empty() {
                *victims = picked;
            } else {
                victims.extend(picked);
            }
        }
    }

    /// Debug builds: the per-(node, submission) maps must union to exactly
    /// the node's resident map, each block under its owner with the size
    /// recorded at admission equal to the store's, and the per-tenant
    /// totals must match. Allocation-free, so the work-count gate measures
    /// the same heap traffic in debug and release.
    #[cfg(debug_assertions)]
    fn audit(&self, node: usize, resident: &BTreeMap<BlockId, u64>) {
        let mut tracked = 0;
        for t in 0..self.cross.len() {
            let mut bytes = 0;
            for &(_, a) in &self.active[self.tenant_run(t)] {
                let a = a as usize;
                for (&b, &size) in &self.live[self.slot[a] as usize].own[node] {
                    // Keys are unique per map and each block is checked
                    // against its one owner, so no block is tracked twice;
                    // with every entry resident and the counts equal, the
                    // union is exact.
                    assert_eq!(self.owner(b), a, "{b} tracked under a foreign submission");
                    let stored = resident.get(&b);
                    assert_eq!(stored, Some(&size), "{b}: size differs on node {node}");
                    tracked += 1;
                    bytes += size;
                }
            }
            let recorded = self.tenant_bytes[node * self.cross.len() + t];
            assert_eq!(bytes, recorded, "tenant {t} bytes diverged on node {node}");
        }
        assert_eq!(
            tracked,
            resident.len(),
            "mux residency diverged on node {node}"
        );
    }
}

impl CachePolicy for TenantMux {
    fn name(&self) -> String {
        self.policy_name(self.current)
    }

    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        self.cur().on_job_submit(job, visible);
    }

    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        self.cur().on_stage_start(stage, visible);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        let o = self.owner(block);
        self.policy_mut(o).on_insert(node, block);
        if !self.tracking() {
            return;
        }
        let local = RddId(block.rdd.0 - self.map.offset(o));
        let column = &self.sizes[self.live[self.slot[o] as usize].column];
        let row = column.binary_search_by_key(&local, |&(r, _)| r);
        let size = column[row.expect("inserted blocks belong to cached RDDs")].1;
        let n = node.index();
        if self.entry(o).own[n].insert(block, size).is_none() {
            *self.bytes(n, self.map.tenant_of_app(o) as usize) += size;
        }
    }

    fn on_access(&mut self, node: NodeId, block: BlockId) {
        let o = self.owner(block);
        self.policy_mut(o).on_access(node, block);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        // Only live/draining submissions can own a cached block: retirement
        // requires zero memory residency, so routing is always resolvable.
        let o = self.owner(block);
        self.policy_mut(o).on_remove(node, block);
        let n = node.index();
        if let Some(size) = self.entry(o).own[n].remove(&block) {
            *self.bytes(n, self.map.tenant_of_app(o) as usize) -= size;
        }
    }

    fn on_node_join(&mut self, node: NodeId) {
        for k in 0..self.active.len() {
            self.policy_mut(self.active[k].1 as usize)
                .on_node_join(node);
        }
    }

    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        self.cur().pick_victim(node, candidates)
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        if !self.tracking() {
            // Single submission: exact pass-through.
            return self.cur().select_victims(node, shortfall, resident);
        }
        #[cfg(debug_assertions)]
        self.audit(node.index(), resident);

        // Own-first order: the evicting tenant's live submissions in
        // submission order; only if they fall short, the other tenants by
        // descending bytes on this node (most over-represented first; ties
        // by ascending tenant id), each tenant's live submissions in
        // submission order. The engine removes victims after this call, so
        // ranking late sees the same byte totals as ranking up front.
        let cur_tenant = self.map.tenant_of_app(self.current) as usize;
        let mut victims = Vec::new();
        let mut freed = 0u64;
        self.visit_tenant(cur_tenant, node, shortfall, &mut freed, &mut victims);
        if freed < shortfall {
            let nt = self.cross.len();
            let bytes = &self.tenant_bytes[node.index() * nt..][..nt];
            let mut others = take(&mut self.others);
            others.clear();
            others.extend((0..nt).filter(|&t| t != cur_tenant && bytes[t] > 0));
            others.sort_by_key(|&t| (std::cmp::Reverse(bytes[t]), t));
            for &t in &others {
                self.visit_tenant(t, node, shortfall, &mut freed, &mut victims);
            }
            self.others = others;
        }
        victims
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        // The engine collects candidates from the running submission's
        // blocks only: MRD's "infinite distance" verdict on a foreign
        // tenant's block would merely mean *this* profile never references
        // it.
        self.cur().purge_candidates(in_memory)
    }

    fn wants_purge(&self) -> bool {
        self.policy(self.current).wants_purge()
    }

    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        self.cur().prefetch_order(node, missing)
    }

    fn wants_prefetch(&self) -> bool {
        self.policy(self.current).wants_prefetch()
    }
}

/// High-water marks sampled after every stage of a serve run.
#[derive(Debug, Clone, Copy, Default)]
struct Peaks {
    resident_blocks: u64,
    resident_bytes: u64,
    arena_slots: u64,
    active_apps: u64,
}

/// One serve run: a set of submissions (each tagged with a tenant), a shared
/// cluster, and the serve policy knobs. Construction just records the
/// stream; per-submission planning and profiling happen at admission time.
pub struct ServeSim<'a> {
    subs: Vec<&'a AppSpec>,
    map: Arc<TenantMap>,
    cfg: ServeConfig,
}

impl<'a> ServeSim<'a> {
    /// Record `submissions` (each `(spec, tenant)`) for serving under
    /// `cfg`. Each submission is planned and profiled *locally* — so
    /// reference-distance policies see exactly the profile the app would
    /// have alone — then shifted into its global RDD id range.
    pub fn new(submissions: &[(&'a AppSpec, u32)], cfg: ServeConfig) -> ServeSim<'a> {
        assert!(!submissions.is_empty(), "at least one submission");
        let specs: Vec<&AppSpec> = submissions.iter().map(|&(s, _)| s).collect();
        let tenants: Vec<u32> = submissions.iter().map(|&(_, t)| t).collect();
        let rdd_counts: Vec<u32> = specs.iter().map(|s| s.rdds.len() as u32).collect();
        let map = Arc::new(TenantMap::new(&rdd_counts, &tenants));
        ServeSim {
            subs: specs,
            map,
            cfg,
        }
    }

    /// Template-interned admission: look the submission's structural
    /// template up in `cache` (planning and profiling it only on first
    /// sight) and rebase the shared local-space artifacts to the
    /// submission's offset. Planner and analyzer are deterministic
    /// functions of the structure, so the result is value-identical to
    /// planning the submission from scratch — the differential serve suite
    /// pins that.
    fn plan(&self, i: usize, cache: &mut TemplateCache) -> (Arc<AppPlan>, Arc<AppProfiler>) {
        let spec = self.subs[i];
        let tpl = cache.intern(spec);
        let off = self.map.offset(i);
        (
            remap_plan(&tpl.plan, off),
            Arc::new(AppProfiler::from_shared(
                spec.name.clone(),
                remap_profile(&tpl.profile, off),
            )),
        )
    }

    /// Submission `i`'s `(rdd, cached partitions)` in the global id space:
    /// the shape [`SlotArena::admit`] takes.
    fn slot_counts(&self, i: usize) -> Vec<(RddId, u32)> {
        let off = self.map.offset(i);
        self.subs[i]
            .rdds
            .iter()
            .map(|r| {
                let parts = if r.is_cached() { r.num_partitions } else { 0 };
                (RddId(r.id.0 + off), parts)
            })
            .collect()
    }

    /// The effective per-tenant quota in bytes, `None` when unlimited.
    fn quota_bytes(&self) -> Option<u64> {
        match self.cfg.quota {
            QuotaKind::Unlimited => None,
            QuotaKind::EqualShare => {
                Some((self.cfg.sim.cluster.cache_bytes / self.map.num_tenants() as u64).max(1))
            }
            QuotaKind::Bytes(b) => Some(b.max(1)),
        }
    }

    /// Execute the stream with `factory(i)` supplying a policy instance for
    /// every *admission* of submission `i` — called once per submission
    /// normally, once more per app-level retry.
    pub fn run_with(&self, factory: impl FnMut(usize) -> Box<dyn CachePolicy>) -> ServeReport {
        self.run_with_scratch(factory, &mut EngineScratch::default())
    }

    /// [`ServeSim::run_with`] on `scratch`'s buffers, leaving them — and the
    /// stream's [`crate::WorkCounts`] — in `scratch` afterwards.
    pub fn run_with_scratch(
        &self,
        mut factory: impl FnMut(usize) -> Box<dyn CachePolicy>,
        scratch: &mut EngineScratch,
    ) -> ServeReport {
        if let Err(e) = self.cfg.validate() {
            panic!("invalid serve config: {e}");
        }
        let mut driver = Driver::new(self, &mut factory, take(scratch));
        driver.drive();
        driver.finish(scratch)
    }
}

/// Where a submission is in its lifecycle. Each transition is one
/// [`Driver`] method: `admit` (Pending or Queued to Running, or at a full
/// gate to Queued or Shed), `retry` (Running to Pending), `complete`
/// (Running to Draining) and `retire_drained` (Draining to Retired).
enum Phase {
    /// Arrived, or backing off before an app-level retry (`attempts > 0`).
    Pending,
    /// Waiting at a full admission gate.
    Queued,
    /// Admitted: owns what its stages need.
    Running(Run),
    /// Completed; blocks it owns are still memory-resident.
    Draining,
    /// Completed and drained: its engine, mux and arena state are gone.
    Retired,
    /// Turned away at admission: it never ran.
    Shed,
}

/// What a running submission's stages need. Completion drops it.
struct Run {
    plan: Arc<AppPlan>,
    profiler: Arc<AppProfiler>,
    jobs: JobCursor,
    next_stage: usize,
}

/// One submission's serve-side state.
struct Submission {
    phase: Phase,
    arrival: SimTime,
    /// Clock, RNG streams, accumulators, per-node cache counters, fault
    /// accounting, the slot run its latest admission carved out of the
    /// arena, and whether it was admitted degraded: swapped into the engine
    /// around each of its stages.
    state: AppState,
    /// Admissions consumed, aborted attempts included.
    attempts: u32,
    queue_delay_us: u64,
    report: Option<RunReport>,
}

/// The serve driver: the shared engine, mux and slot arena, and one
/// [`Submission`] per arrival. Engine, mux and arena state are
/// O(peak-active), not O(stream).
struct Driver<'s, 'a> {
    sim: &'s ServeSim<'a>,
    /// Supplies a fresh policy for every admission.
    factory: &'s mut Factory<'s>,
    subs: Vec<Submission>,
    engine: Engine<'s>,
    mux: TenantMux,
    arena: SlotArena,
    /// One memoized plan and profile per distinct submission structure.
    templates: TemplateCache,
    /// Admitted, unfinished submissions: what the gate counts.
    running: usize,
    /// Submissions in [`Phase::Queued`].
    queued: usize,
    /// Queued submissions that found the gate full, out of the ready set.
    dormant: Vec<usize>,
    /// Submissions in [`Phase::Draining`], in completion order.
    draining: Vec<usize>,
    peaks: Peaks,
}

type Factory<'f> = dyn FnMut(usize) -> Box<dyn CachePolicy> + 'f;

impl<'s, 'a> Driver<'s, 'a> {
    fn new(sim: &'s ServeSim<'a>, factory: &'s mut Factory<'s>, scratch: EngineScratch) -> Self {
        let cfg = &sim.cfg.sim;
        let arena = SlotArena::new();
        let mut engine = Engine::new_streaming(cfg, Arc::new(arena.snapshot()), scratch);
        if let Some(q) = sim.quota_bytes() {
            engine.enable_store_tenancy(&sim.map, q);
        }
        let arrivals = sim.cfg.arrivals.arrivals(sim.subs.len(), cfg.seed);
        let subs = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| Submission {
                phase: Phase::Pending,
                arrival: SimTime(at),
                state: AppState::fresh(app_seed(cfg.seed, i), SimTime(at)),
                attempts: 0,
                queue_delay_us: 0,
                report: None,
            })
            .collect();
        Driver {
            sim,
            factory,
            subs,
            engine,
            mux: TenantMux::new(cfg.cluster.nodes as usize, Arc::clone(&sim.map)),
            arena,
            templates: TemplateCache::new(),
            running: 0,
            queued: 0,
            dormant: Vec::new(),
            draining: Vec::new(),
            peaks: Peaks::default(),
        }
    }

    /// The scheduling loop: pop the smallest `(key, index)` of one ready
    /// set and dispatch that submission. FIFO keys a submission by its
    /// arrival, so it is popped again until it leaves the set; fair-share
    /// re-keys it to its clock after every stage. A queued submission that
    /// finds the gate full leaves the set; once the gate reopens, each goes
    /// back at the tick its next poll of the gate falls on ([`poll_tick`]).
    /// Pops never decrease and a failed poll changes nothing but the
    /// poller's clock, so skipping the failed polls changes no decision.
    fn drive(&mut self) {
        let fifo = self.sim.cfg.sched == ServeSched::Fifo;
        let key = |sub: &Submission| if fifo { sub.arrival.0 } else { sub.state.now.0 };
        let mut ready: BTreeSet<(u64, usize)> = self.subs.iter().map(key).zip(0..).collect();
        while let Some(popped) = ready.pop_first() {
            let a = popped.1;
            if self.dispatch(a) {
                ready.insert((key(&self.subs[a]), a));
            }
            if !self.gate_full() {
                for q in self.dormant.drain(..) {
                    let sub = &mut self.subs[q];
                    sub.state.now = SimTime(poll_tick(sub.arrival.0, q, popped));
                    ready.insert((key(sub), q));
                }
            }
        }
        debug_assert!(self.dormant.is_empty(), "a queued submission slept forever");
    }

    /// Whether the overload gate turns first admissions away.
    fn gate_full(&self) -> bool {
        let cap = self.sim.cfg.resilience.max_active_apps;
        cap.is_some_and(|cap| self.running >= cap as usize)
    }

    /// Dispatch submission `a` once: admit it unless it is running, run its
    /// next stage, and retire whatever has drained. Returns whether `a`
    /// stays ready.
    fn dispatch(&mut self, a: usize) -> bool {
        if !matches!(self.subs[a].phase, Phase::Running(_)) && !self.admit(a) {
            return false;
        }
        let (aborted, last) = self.run_stage(a);
        if aborted && self.subs[a].attempts < self.sim.cfg.resilience.max_app_attempts {
            self.retry(a);
        } else if aborted || last {
            self.complete(a);
        }
        self.retire_drained();
        #[cfg(debug_assertions)]
        self.audit();

        let (blocks, bytes) = self.engine.resident_totals();
        let p = &mut self.peaks;
        p.resident_blocks = p.resident_blocks.max(blocks);
        p.resident_bytes = p.resident_bytes.max(bytes);
        p.arena_slots = p.arena_slots.max(self.arena.capacity() as u64);
        p.active_apps = p.active_apps.max(self.mux.active_apps() as u64);
        matches!(self.subs[a].phase, Phase::Running(_) | Phase::Pending)
    }

    /// Pending or Queued → Running: plan `a` through the template cache,
    /// carve its slot run out of the arena and install a fresh policy. At
    /// a full gate a first admission waits, is shed or runs degraded; a
    /// retry re-enters unconditionally. Returns whether `a` runs now.
    fn admit(&mut self, a: usize) -> bool {
        let sim = self.sim;
        let res = &sim.cfg.resilience;
        let gated = self.subs[a].attempts == 0 && self.gate_full();
        let sub = &mut self.subs[a];
        if gated {
            let queued = matches!(sub.phase, Phase::Queued);
            match res.admission {
                AdmissionPolicy::Queue
                    if queued || self.queued < res.queue_cap.map_or(usize::MAX, |c| c as usize) =>
                {
                    if !queued {
                        sub.phase = Phase::Queued;
                        self.queued += 1;
                    }
                    self.dormant.push(a);
                    return false;
                }
                AdmissionPolicy::Queue | AdmissionPolicy::Shed => {
                    sub.phase = Phase::Shed;
                    return false;
                }
                AdmissionPolicy::Degrade => sub.state.cache_bypass = true,
            }
        }
        if matches!(sub.phase, Phase::Queued) {
            self.queued -= 1;
            sub.queue_delay_us = sub.state.now.0.saturating_sub(sub.arrival.0);
        }
        if sub.attempts == 0 {
            sub.state.open_counters(sim.cfg.sim.cluster.nodes as usize);
        }
        let (plan, profiler) = sim.plan(a, &mut self.templates);
        let (base, len) = self.arena.admit(a as u32, &sim.slot_counts(a));
        sub.state.slot_run = base..base + len;
        let snap = Arc::new(self.arena.snapshot());
        self.engine.admit_app(sim.subs[a], sim.map.offset(a), &snap);
        let cached = sim.subs[a].rdds.iter().filter(|r| r.is_cached());
        let sizes = cached.map(|r| (r.id, r.block_size));
        self.mux.admit(a, (self.factory)(a), &snap, sizes);
        sub.phase = Phase::Running(Run {
            plan,
            profiler,
            jobs: JobCursor::default(),
            next_stage: 0,
        });
        sub.attempts += 1;
        self.running += 1;
        true
    }

    /// Run `a`'s next stage on the shared engine, with `a`'s state swapped
    /// in so the stage counts onto it. Returns whether the stage aborted the
    /// attempt, and whether it was the last.
    fn run_stage(&mut self, a: usize) -> (bool, bool) {
        let engine = &mut self.engine;
        let sub = &mut self.subs[a];
        let Phase::Running(run) = &mut sub.phase else {
            unreachable!("only running submissions run stages")
        };
        let stage = &run.plan.stages[run.next_stage];
        self.mux.set_current(a);
        engine.swap_app(&mut sub.state);
        let visible = run.jobs.start_stage(stage, &run.profiler, &mut self.mux);
        engine.run_one_stage(stage, visible, &mut self.mux);
        engine.swap_app(&mut sub.state);
        run.next_stage += 1;
        let last = run.next_stage == run.plan.stages.len();
        if let Some(abort) = &mut sub.state.aborted {
            abort.app = a as u32;
        }
        (sub.state.aborted.is_some(), last)
    }

    /// Running → Pending after an aborted attempt with budget left: purge
    /// its blocks, tear it down, and re-admit it after a capped exponential
    /// backoff with fresh clock and RNG streams. Accumulators, stage log,
    /// cache and fault counters carry over, so the report covers every
    /// attempt.
    fn retry(&mut self, a: usize) {
        self.engine
            .purge_app(self.sim.map.rdd_range(a), &mut self.mux);
        self.teardown(a);
        self.release();
        let sub = &mut self.subs[a];
        let Phase::Running(_) = std::mem::replace(&mut sub.phase, Phase::Pending) else {
            unreachable!("only running submissions retry")
        };
        let backoff = self.sim.cfg.resilience.app_backoff_us(sub.attempts);
        let resume = SimTime(sub.state.now.0.saturating_add(backoff));
        let seed = attempt_seed(app_seed(self.sim.cfg.sim.seed, a), sub.attempts);
        sub.state.restart(seed, resume);
    }

    /// Running → Draining: the attempt ran its last stage or aborted for
    /// good, and its report is built from every attempt's accumulators.
    fn complete(&mut self, a: usize) {
        self.release();
        let sub = &mut self.subs[a];
        let Phase::Running(_) = std::mem::replace(&mut sub.phase, Phase::Draining) else {
            unreachable!("only running submissions complete")
        };
        sub.report = Some(sub.state.report(
            &self.sim.cfg.sim,
            self.sim.subs[a].name.clone(),
            self.mux.policy_name(a),
            sub.arrival,
            sub.attempts,
        ));
        self.draining.push(a);
    }

    /// Give a finishing or retrying submission's gate capacity back: in
    /// driver order, at its last stage's start clock rather than at its
    /// completion, so the gate can admit early in simulated time
    /// (DESIGN.md §6, "Known deviations").
    fn release(&mut self) {
        self.running -= 1;
    }

    /// Draining → Retired, after every stage, for each draining submission
    /// with nothing left in memory. Retiring at completion would change
    /// which blocks later evictions see; a draining submission's blocks
    /// leave through other submissions' evictions. The visiting order does
    /// not matter: the arena's free list is kept sorted and coalesced, the
    /// registry window advances to the lowest live RDD, and ghost-disk
    /// counts are sums.
    fn retire_drained(&mut self) {
        let mut i = 0;
        while let Some(&d) = self.draining.get(i) {
            if self.engine.any_resident(self.sim.map.rdd_range(d)) {
                i += 1;
            } else {
                self.draining.remove(i);
                self.teardown(d);
                self.subs[d].phase = Phase::Retired;
            }
        }
    }

    /// Return `a`'s slot run and registry window and drop its policy; none
    /// of its blocks is in memory.
    fn teardown(&mut self, a: usize) {
        let range = self.sim.map.rdd_range(a);
        let slots = self.subs[a].state.slot_run.clone();
        self.engine.retire_app(range.clone(), slots);
        self.arena.retire(RddId(range.start));
        self.mux.retire(a);
    }

    /// Debug builds, after every dispatch (so after every admission and
    /// retirement): the mux's active set is exactly the Running and
    /// Draining submissions, and `running` and `queued` count the Running
    /// and Queued ones. Allocation-free, so the work-count gate reads the
    /// same heap traffic in debug and release.
    #[cfg(debug_assertions)]
    fn audit(&self) {
        let (mut running, mut queued) = (0, 0);
        for (a, sub) in self.subs.iter().enumerate() {
            let live = matches!(sub.phase, Phase::Running(_) | Phase::Draining);
            assert_eq!(self.mux.is_active(a), live, "submission {a}: mux differs");
            running += matches!(sub.phase, Phase::Running(_)) as usize;
            queued += matches!(sub.phase, Phase::Queued) as usize;
        }
        let counts = (self.mux.active_apps(), self.running, self.queued);
        let live = running + self.draining.len();
        assert_eq!(counts, (live, running, queued), "(active, running, queued)");
    }

    /// The stream's report; the engine's buffers go back to `scratch`.
    fn finish(self, scratch: &mut EngineScratch) -> ServeReport {
        *scratch = self.engine.into_scratch();
        let (sim, subs) = (self.sim, self.subs);
        let res = &sim.cfg.resilience;
        let shed = |s: &Submission| matches!(s.phase, Phase::Shed);
        let resilience = (!res.is_passive()).then(|| ResilienceReport {
            app_attempts: subs.iter().map(|s| s.attempts).collect(),
            shed: subs.iter().map(shed).collect(),
            degraded: subs.iter().map(|s| s.state.cache_bypass).collect(),
            queue_delay_us: subs.iter().map(|s| s.queue_delay_us).collect(),
            deadline_us: res.deadline_us,
        });
        let arrivals = subs.iter().map(|s| s.arrival.0).collect();
        // A finished submission's clock stopped at its completion (a shed
        // one's at its arrival).
        let completions: Vec<u64> = subs.iter().map(|s| s.state.now.0).collect();
        ServeReport {
            makespan: SimDuration(completions.iter().copied().max().unwrap_or(0)),
            // A shed submission never ran: its report is an inert
            // placeholder (no policy, no attempt, no task) so submission
            // indices stay aligned.
            reports: subs
                .into_iter()
                .zip(&sim.subs)
                .map(|(s, spec)| {
                    s.report.unwrap_or_else(|| RunReport {
                        app: spec.name.clone(),
                        policy: "-".into(),
                        ..RunReport::default()
                    })
                })
                .collect(),
            arrivals,
            completions,
            tenants: (0..sim.subs.len())
                .map(|a| sim.map.tenant_of_app(a))
                .collect(),
            cross_evictions: self.mux.cross_evictions().clone(),
            sched: sim.cfg.sched,
            quota: sim.cfg.quota,
            peak_resident_blocks: self.peaks.resident_blocks,
            peak_resident_bytes: self.peaks.resident_bytes,
            peak_arena_slots: self.peaks.arena_slots,
            peak_active_apps: self.peaks.active_apps,
            distinct_templates: self.templates.len(),
            resilience,
        }
    }
}

/// The tick at which dormant submission `q` (arrived at `arrival`) polls
/// the gate next, once the ready set has popped `(k, i)`: the first
/// `arrival + m·QUEUE_POLL_US` whose key `(tick, q)` comes after `(k, i)`.
fn poll_tick(arrival: u64, q: usize, (k, i): (u64, usize)) -> u64 {
    let tick = arrival + k.saturating_sub(arrival) / QUEUE_POLL_US * QUEUE_POLL_US;
    tick.saturating_add(if (tick, q) > (k, i) { 0 } else { QUEUE_POLL_US })
}

/// Per-tenant JCT distribution over one serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: u32,
    /// Submissions belonging to the tenant (shed submissions included).
    pub apps: usize,
    /// Mean JCT over the tenant's executed (non-shed) submissions.
    pub mean_jct: SimDuration,
    /// Nearest-rank 95th-percentile JCT.
    pub p95_jct: SimDuration,
    /// Nearest-rank 99th-percentile JCT.
    pub p99_jct: SimDuration,
    /// Submissions that aborted (retry budgets exhausted).
    pub aborts: u64,
    /// App-level retries the tenant's submissions consumed (resilience runs
    /// only; always 0 otherwise).
    pub retries: u64,
    /// Submissions shed at admission (never ran).
    pub shed: u64,
    /// Submissions admitted with caching bypassed.
    pub degraded: u64,
    /// Submissions that missed the deadline (shed submissions count as
    /// misses); 0 when no deadline was configured.
    pub deadline_misses: u64,
    /// Nearest-rank p95 admission-queue delay over the tenant's admitted
    /// submissions.
    pub queue_p95: SimDuration,
}

/// Per-submission resilience accounting; present on [`ServeReport`] only
/// when the run's [`ResilienceConfig`] was non-passive, so passive reports
/// stay byte-identical to pre-resilience ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Admissions each submission consumed (1 = first attempt succeeded or
    /// exhausted a budget of 1; 0 = shed before ever running).
    pub app_attempts: Vec<u32>,
    /// Whether each submission was shed at admission.
    pub shed: Vec<bool>,
    /// Whether each submission ran with caching bypassed.
    pub degraded: Vec<bool>,
    /// Admission-queue delay of each submission, microseconds (0 when
    /// admitted at arrival or shed).
    pub queue_delay_us: Vec<u64>,
    /// The configured per-submission deadline, if any.
    pub deadline_us: Option<u64>,
}

impl ResilienceReport {
    /// Total app-level retries across the stream.
    pub fn total_retries(&self) -> u64 {
        self.app_attempts
            .iter()
            .map(|&a| a.saturating_sub(1) as u64)
            .sum()
    }

    /// Submissions shed at admission.
    pub fn shed_count(&self) -> u64 {
        self.shed.iter().filter(|&&s| s).count() as u64
    }

    /// Submissions admitted with caching bypassed.
    pub fn degraded_count(&self) -> u64 {
        self.degraded.iter().filter(|&&d| d).count() as u64
    }

    /// Whether submission `i` met the deadline: it was not shed and its
    /// completion came within `deadline_us` of its arrival. `None` when no
    /// deadline was configured.
    pub fn met_deadline(&self, i: usize, arrival: u64, completion: u64) -> Option<bool> {
        let d = self.deadline_us?;
        Some(!self.shed[i] && completion.saturating_sub(arrival) <= d)
    }
}

/// Everything a serve run produced: one [`RunReport`] per submission plus
/// the stream-level accounting.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-submission reports, in submission order. `jct` is measured from
    /// the submission's *arrival*, not cluster time zero.
    pub reports: Vec<RunReport>,
    /// Arrival time of each submission, microseconds.
    pub arrivals: Vec<u64>,
    /// Completion time of each submission, microseconds.
    pub completions: Vec<u64>,
    /// Tenant of each submission.
    pub tenants: Vec<u32>,
    /// `[evictor_tenant][victim_tenant]` victim-selection counts; the
    /// diagonal is self-eviction, off-diagonal entries are cross-tenant
    /// evictions under quota/contention pressure.
    pub cross_evictions: Vec<Vec<u64>>,
    /// Scheduling discipline the run used.
    pub sched: ServeSched,
    /// Quota policy the run used.
    pub quota: QuotaKind,
    /// Completion time of the last submission.
    pub makespan: SimDuration,
    /// High-water mark of memory-resident blocks across the cluster,
    /// sampled after every stage.
    pub peak_resident_blocks: u64,
    /// High-water mark of memory-resident bytes across the cluster.
    pub peak_resident_bytes: u64,
    /// High-water mark of the slot arena, in slots: it grows with peak
    /// *active* footprint, as retired ranges recycle.
    pub peak_arena_slots: u64,
    /// High-water mark of concurrently live (arrived, unretired)
    /// submissions.
    pub peak_active_apps: u64,
    /// Distinct structural templates admission planned (every other
    /// submission reused one of them).
    pub distinct_templates: usize,
    /// Per-submission resilience accounting (retries, sheds, degrades,
    /// queue delays, deadline). `None` whenever the run's
    /// [`ResilienceConfig`] was passive.
    pub resilience: Option<ResilienceReport>,
}

/// Nearest-rank percentile over an ascending-sorted slice (`0` when empty):
/// the value at rank `ceil(len * q)`, clamped to `1..=len`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeReport {
    /// Per-tenant JCT distributions, ascending by tenant id. On resilience
    /// runs the JCT distribution covers executed (non-shed) submissions
    /// only; `apps` always counts every submission.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let nt = self.tenants.iter().copied().max().unwrap_or(0) as usize + 1;
        let res = self.resilience.as_ref();
        let is_shed = |i: usize| res.is_some_and(|r| r.shed[i]);
        (0..nt as u32)
            .map(|t| {
                let idx: Vec<usize> = (0..self.tenants.len())
                    .filter(|&i| self.tenants[i] == t)
                    .collect();
                let mut jcts: Vec<u64> = idx
                    .iter()
                    .filter(|&&i| !is_shed(i))
                    .map(|&i| self.reports[i].jct.micros())
                    .collect();
                jcts.sort_unstable();
                let aborts = idx
                    .iter()
                    .filter(|&&i| self.reports[i].aborted.is_some())
                    .count() as u64;
                let mean = if jcts.is_empty() {
                    0
                } else {
                    jcts.iter().sum::<u64>() / jcts.len() as u64
                };
                let (mut retries, mut shed, mut degraded, mut misses) = (0u64, 0u64, 0u64, 0u64);
                let mut delays: Vec<u64> = Vec::new();
                if let Some(r) = res {
                    for &i in &idx {
                        retries += r.app_attempts[i].saturating_sub(1) as u64;
                        shed += r.shed[i] as u64;
                        degraded += r.degraded[i] as u64;
                        if r.met_deadline(i, self.arrivals[i], self.completions[i]) == Some(false) {
                            misses += 1;
                        }
                        if !r.shed[i] {
                            delays.push(r.queue_delay_us[i]);
                        }
                    }
                    delays.sort_unstable();
                }
                TenantSummary {
                    tenant: t,
                    apps: idx.len(),
                    mean_jct: SimDuration(mean),
                    p95_jct: SimDuration(percentile(&jcts, 0.95)),
                    p99_jct: SimDuration(percentile(&jcts, 0.99)),
                    aborts,
                    retries,
                    shed,
                    degraded,
                    deadline_misses: misses,
                    queue_p95: SimDuration(percentile(&delays, 0.95)),
                }
            })
            .collect()
    }

    /// Submissions that met the configured deadline (shed submissions never
    /// do); `None` when the run had no deadline.
    pub fn deadline_met(&self) -> Option<usize> {
        let res = self
            .resilience
            .as_ref()
            .filter(|r| r.deadline_us.is_some())?;
        Some(
            (0..self.reports.len())
                .filter(|&i| {
                    res.met_deadline(i, self.arrivals[i], self.completions[i]) == Some(true)
                })
                .count(),
        )
    }

    /// Nearest-rank [`percentile`] `q` of the admission-queue delay over
    /// every submission (shed ones at zero wait), microseconds; `None` on
    /// runs whose resilience config was passive.
    pub fn queue_delay_percentile(&self, q: f64) -> Option<u64> {
        let mut delays = self.resilience.as_ref()?.queue_delay_us.clone();
        delays.sort_unstable();
        Some(percentile(&delays, q))
    }

    /// Human-readable (and golden-file-stable) summary: stream header,
    /// per-tenant JCT distribution table, cross-tenant eviction table.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "serve: {} apps over {} tenants, {}, quota {}, makespan {:.3}s\n",
            self.reports.len(),
            self.tenant_summaries().len(),
            self.sched,
            self.quota,
            self.makespan.as_secs_f64(),
        );
        for t in self.tenant_summaries() {
            s.push_str(&format!(
                "tenant {}: {} apps, mean JCT {:.3}s, p95 {:.3}s, p99 {:.3}s, {} aborts\n",
                t.tenant,
                t.apps,
                t.mean_jct.as_secs_f64(),
                t.p95_jct.as_secs_f64(),
                t.p99_jct.as_secs_f64(),
                t.aborts,
            ));
        }
        let mut cross_lines = Vec::new();
        for (i, row) in self.cross_evictions.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if i != j && c > 0 {
                    cross_lines.push(format!("  t{i} -> t{j}: {c}"));
                }
            }
        }
        if cross_lines.is_empty() {
            s.push_str("cross-tenant evictions: none\n");
        } else {
            s.push_str("cross-tenant evictions (evictor -> victim):\n");
            for l in cross_lines {
                s.push_str(&l);
                s.push('\n');
            }
        }
        // Resilience block, printed only on non-passive runs so passive
        // summaries (and their golden files) stay byte-identical.
        if let Some(res) = &self.resilience {
            let n = res.app_attempts.len();
            let mut delays: Vec<u64> = (0..n)
                .filter(|&i| !res.shed[i])
                .map(|i| res.queue_delay_us[i])
                .collect();
            delays.sort_unstable();
            s.push_str(&format!(
                "resilience: {} app retries, {} shed, {} degraded, queue delay p95 {:.3}s / p99 {:.3}s\n",
                res.total_retries(),
                res.shed_count(),
                res.degraded_count(),
                SimDuration(percentile(&delays, 0.95)).as_secs_f64(),
                SimDuration(percentile(&delays, 0.99)).as_secs_f64(),
            ));
            if let (Some(d), Some(met)) = (res.deadline_us, self.deadline_met()) {
                s.push_str(&format!(
                    "slo: {}/{} met the {:.3}s deadline ({:.1}% attainment)\n",
                    met,
                    n,
                    d as f64 / 1e6,
                    met as f64 / n.max(1) as f64 * 100.0,
                ));
            }
            for t in self.tenant_summaries() {
                s.push_str(&format!(
                    "tenant {} slo: {} retries, {} shed, {} degraded, {} deadline misses, queue p95 {:.3}s\n",
                    t.tenant,
                    t.retries,
                    t.shed,
                    t.degraded,
                    t.deadline_misses,
                    t.queue_p95.as_secs_f64(),
                ));
            }
        }
        s
    }

    /// Fold the stream into one [`RunReport`] shaped like a single-app run
    /// (JCT = makespan, counters summed), so the sweep engine's cell results
    /// and CSV code consume serve cells unchanged.
    pub fn merged_report(&self) -> RunReport {
        let first = &self.reports[0];
        let mut agg = CacheStats::new();
        // A shed submission's placeholder has no per-node rows (and a "-"
        // policy), so size and name the merge from reports that ran.
        let nn = self
            .reports
            .iter()
            .map(|r| r.per_node.len())
            .max()
            .unwrap_or(0);
        let mut per_node = vec![CacheStats::default(); nn];
        let mut sched = crate::report::SchedStats::default();
        let mut io = SimDuration::ZERO;
        let mut compute = SimDuration::ZERO;
        let mut tasks = 0u64;
        let mut faults = crate::faults::FaultStats::default();
        let mut stage_times = Vec::new();
        let mut aborted = None;
        let mut attempts = 0u32;
        for r in &self.reports {
            attempts = attempts.saturating_add(r.app_attempts);
            agg.merge(&r.stats);
            for (acc, s) in per_node.iter_mut().zip(&r.per_node) {
                acc.merge(s);
            }
            sched.merge(&r.sched);
            io += r.io_time;
            compute += r.compute_time;
            tasks += r.tasks;
            faults.merge(&r.faults);
            stage_times.extend_from_slice(&r.stage_times);
            if aborted.is_none() {
                aborted = r.aborted;
            }
        }
        RunReport {
            app: self
                .reports
                .iter()
                .map(|r| r.app.as_str())
                .collect::<Vec<_>>()
                .join("+"),
            policy: self
                .reports
                .iter()
                .map(|r| &r.policy)
                .find(|p| p.as_str() != "-")
                .unwrap_or(&first.policy)
                .clone(),
            jct: self.makespan,
            stats: agg,
            sched,
            per_node,
            io_time: io,
            compute_time: compute,
            stage_times,
            tasks,
            faults,
            app_attempts: attempts,
            aborted,
            trace: None,
            placements: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::runtime::Simulation;
    use refdist_core::ProfileMode;
    use refdist_dag::{AppBuilder, StorageLevel};
    use refdist_policies::LruPolicy;

    fn little_app(name: &str, iters: usize) -> AppSpec {
        let mut b = AppBuilder::new(name);
        let input = b.input("in", 4, 1 << 20, 5_000);
        let data = b.narrow("data", input, 1 << 20, 10_000);
        b.persist(data, StorageLevel::MemoryAndDisk);
        for i in 0..iters {
            let agg = b.shuffle(format!("agg{i}"), &[data], 4, 1 << 12, 1_000);
            b.action(format!("job{i}"), agg);
        }
        b.build()
    }

    fn cfg(nodes: u32, cache: u64) -> SimConfig {
        let mut c = SimConfig::new(ClusterConfig::tiny(nodes, cache));
        c.compute_jitter = 0.0;
        c.exec_mem_fraction = 0.0;
        c
    }

    #[test]
    fn single_submission_serve_matches_legacy() {
        let spec = little_app("solo", 3);
        let plan = AppPlan::build(&spec);
        let c = cfg(2, 3 << 20);

        let legacy = Simulation::new(&spec, &plan, ProfileMode::Recurring, c.clone())
            .run(&mut LruPolicy::new());

        let serve = ServeSim::new(&[(&spec, 0)], ServeConfig::passthrough(c));
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        assert_eq!(sr.reports.len(), 1);
        assert_eq!(format!("{legacy:?}"), format!("{:?}", sr.reports[0]));
        assert_eq!(sr.makespan, legacy.jct);
    }

    /// Records every `select_victims` call as `(submission, shortfall)` and
    /// picks its own blocks in ascending order until the shortfall is met.
    struct Recorder {
        app: usize,
        log: Arc<std::sync::Mutex<Vec<(usize, u64)>>>,
    }

    impl CachePolicy for Recorder {
        fn name(&self) -> String {
            format!("rec{}", self.app)
        }

        fn pick_victim(&mut self, _: NodeId, _: &[BlockId]) -> Option<BlockId> {
            unreachable!("the mux selects in batches")
        }

        fn select_victims(
            &mut self,
            _: NodeId,
            shortfall: u64,
            resident: &BTreeMap<BlockId, u64>,
        ) -> Vec<BlockId> {
            self.log.lock().unwrap().push((self.app, shortfall));
            let mut freed = 0;
            let picks = resident.iter().take_while(|&(_, &size)| {
                let more = freed < shortfall;
                freed += size;
                more
            });
            picks.map(|(&b, _)| b).collect()
        }
    }

    #[test]
    fn mux_visits_own_tenant_first_then_others_by_descending_bytes() {
        // Submissions 0 and 3 belong to tenant 0, 1 to tenant 1, 2 to
        // tenant 2; each owns one cached RDD of 100-byte blocks.
        let tenants = [0, 1, 2, 0];
        let map = Arc::new(TenantMap::new(&[1; 4], &tenants));
        let mut arena = SlotArena::new();
        for a in 0..4u32 {
            arena.admit(a, &[(RddId(a), 8)]);
        }
        let snap = Arc::new(arena.snapshot());
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut mux = TenantMux::new(4, Arc::clone(&map));
        for app in 0..4 {
            let log = Arc::clone(&log);
            let sizes = std::iter::once((RddId(0), 100));
            mux.admit(app, Box::new(Recorder { app, log }), &snap, sizes);
        }
        // Blocks per submission on each node.
        let layout: [[u32; 4]; 4] = [
            [1, 1, 3, 1], // tenant 2 (300 B) outranks tenant 1 (100 B)
            [1, 2, 2, 0], // tenants 1 and 2 tie at 200 B
            [1, 0, 2, 0], // tenant 1 holds nothing
            [2, 3, 0, 0], // tenant 0 covers the shortfall exactly
        ];
        let mut resident = vec![BTreeMap::new(); 4];
        for (n, counts) in layout.iter().enumerate() {
            for (a, &count) in counts.iter().enumerate() {
                for p in 0..count {
                    let b = BlockId::new(RddId(a as u32), p);
                    mux.on_insert(NodeId(n as u32), b);
                    resident[n].insert(b, 100);
                }
            }
        }
        let mut select = |n: usize, current: usize, shortfall: u64| {
            mux.set_current(current);
            let victims = mux.select_victims(NodeId(n as u32), shortfall, &resident[n]);
            let calls = std::mem::take(&mut *log.lock().unwrap());
            (victims.len(), calls)
        };
        let calls = vec![(0, 600), (3, 500), (2, 400), (1, 100)];
        assert_eq!(select(0, 0, 600), (6, calls), "own tenant, then descending");
        let calls = vec![(0, 500), (1, 400), (2, 200)];
        assert_eq!(select(1, 3, 500), (5, calls), "a byte tie goes to tenant 1");
        let calls = vec![(0, 1000), (2, 900)];
        assert_eq!(select(2, 0, 1000), (3, calls), "zero-byte tenant 1 skipped");
        let calls = vec![(0, 200)];
        assert_eq!(select(3, 0, 200), (2, calls), "no other tenant is asked");
        // Evictor tenant 0 took 6 of its own blocks, 3 of tenant 1's and
        // 7 of tenant 2's.
        let cross = vec![vec![6, 3, 7], vec![0; 3], vec![0; 3]];
        assert_eq!(mux.cross_evictions(), &cross);
    }

    #[test]
    fn poisson_arrivals_replay_deterministically() {
        let p = ArrivalProcess::Poisson {
            mean_gap_us: 500_000,
        };
        let a = p.arrivals(8, 42);
        let b = p.arrivals(8, 42);
        assert_eq!(a, b);
        assert_eq!(a[0], 0, "first submission arrives immediately");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending arrivals");
        let c = p.arrivals(8, 43);
        assert_ne!(a, c, "different seeds give different streams");
        // The fixed trace ignores the seed entirely (zero draws).
        let t = ArrivalProcess::Trace(vec![0, 10, 20]);
        assert_eq!(t.arrivals(5, 1), vec![0, 10, 20, 20, 20]);
        assert_eq!(t.arrivals(5, 999), vec![0, 10, 20, 20, 20]);
    }

    #[test]
    fn fair_share_stream_completes_and_attributes_stats() {
        let a = little_app("alpha", 3);
        let b = little_app("beta", 2);
        let c = cfg(2, 2 << 20);
        let serve = ServeSim::new(
            &[(&a, 0), (&b, 1)],
            ServeConfig {
                sim: c,
                arrivals: ArrivalProcess::Trace(vec![0, 100_000]),
                sched: ServeSched::FairShare,
                quota: QuotaKind::EqualShare,
                resilience: ResilienceConfig::default(),
            },
        );
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        assert_eq!(sr.reports.len(), 2);
        assert_eq!(sr.reports[0].app, "alpha");
        assert_eq!(sr.reports[1].app, "beta");
        for r in &sr.reports {
            assert!(r.aborted.is_none());
            assert!(r.jct.micros() > 0);
            assert!(r.tasks > 0);
        }
        // Stats attribution: each app's counters are its own, and the two
        // apps together account for every access the shared nodes saw.
        let merged = sr.merged_report();
        assert_eq!(
            merged.stats.accesses(),
            sr.reports[0].stats.accesses() + sr.reports[1].stats.accesses()
        );
        let sums = sr.tenant_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].apps, 1);
        assert_eq!(sums[1].apps, 1);
        assert!(sr.summary().contains("2 apps over 2 tenants"));
        assert_eq!(sr.cross_evictions.len(), 2);
        assert!(
            sr.resilience.is_none(),
            "passive config reports no resilience"
        );
        assert!(!sr.summary().contains("resilience:"));
    }

    fn serve_cfg(sim: SimConfig, sched: ServeSched, resilience: ResilienceConfig) -> ServeConfig {
        ServeConfig {
            sim,
            arrivals: ArrivalProcess::Trace(vec![0]),
            sched,
            quota: QuotaKind::Unlimited,
            resilience,
        }
    }

    #[test]
    fn passive_resilience_values_are_byte_invisible() {
        let a = little_app("alpha", 3);
        let b = little_app("beta", 2);
        let run = |res: ResilienceConfig| {
            let mut c = serve_cfg(cfg(2, 2 << 20), ServeSched::FairShare, res);
            c.arrivals = ArrivalProcess::Trace(vec![0, 100_000]);
            c.quota = QuotaKind::EqualShare;
            let serve = ServeSim::new(&[(&a, 0), (&b, 1)], c);
            serve.run_with(|_| Box::new(LruPolicy::new()))
        };
        // Two passive configs with wildly different (but inert) knob values.
        let base = run(ResilienceConfig::default());
        let tweaked = run(ResilienceConfig {
            retry_backoff_us: 1,
            max_retry_backoff_us: 2,
            admission: AdmissionPolicy::Shed,
            queue_cap: None,
            ..ResilienceConfig::default()
        });
        assert_eq!(
            format!("{:?}", base.reports),
            format!("{:?}", tweaked.reports)
        );
        assert_eq!(base.summary(), tweaked.summary());
        assert!(base.resilience.is_none() && tweaked.resilience.is_none());
    }

    #[test]
    fn app_level_retry_consumes_budget_and_reports_attempts() {
        // Every task attempt fails, so every app-level attempt aborts at
        // stage 0 and the budget is consumed in full.
        let spec = little_app("doomed", 2);
        let mut c = cfg(2, 3 << 20);
        c.faults.task_failure_p = 1.0;
        c.faults.max_task_attempts = 2;
        let res = ResilienceConfig {
            max_app_attempts: 3,
            retry_backoff_us: 50_000,
            ..ResilienceConfig::default()
        };
        let serve = ServeSim::new(&[(&spec, 0)], serve_cfg(c, ServeSched::Fifo, res));
        let mut built = 0u32;
        let sr = serve.run_with(|_| {
            built += 1;
            Box::new(LruPolicy::new())
        });
        assert_eq!(built, 3, "one fresh policy per admission attempt");
        let r = &sr.reports[0];
        assert_eq!(r.app_attempts, 3);
        assert!(r.aborted.is_some(), "budget exhausted: final abort stands");
        let res = sr.resilience.as_ref().expect("non-passive run");
        assert_eq!(res.app_attempts, vec![3]);
        assert_eq!(res.total_retries(), 2);
        assert!(
            sr.completions[0] >= 2 * 50_000,
            "completion includes two retry backoffs (got {})",
            sr.completions[0]
        );
        assert!(sr.summary().contains("resilience: 2 app retries"));
        assert_eq!(sr.tenant_summaries()[0].retries, 2);
        assert_eq!(sr.tenant_summaries()[0].aborts, 1);
    }

    #[test]
    fn retry_replays_byte_identically() {
        let spec = little_app("doomed", 2);
        let mut c = cfg(2, 3 << 20);
        c.faults.task_failure_p = 0.4;
        c.faults.max_task_attempts = 1;
        let res = ResilienceConfig {
            max_app_attempts: 4,
            ..ResilienceConfig::default()
        };
        let run = || {
            let serve = ServeSim::new(&[(&spec, 0)], serve_cfg(c.clone(), ServeSched::Fifo, res));
            serve.run_with(|_| Box::new(LruPolicy::new()))
        };
        let x = run();
        let y = run();
        assert_eq!(format!("{:?}", x.reports), format!("{:?}", y.reports));
        assert_eq!(x.summary(), y.summary());
    }

    #[test]
    fn admission_queue_delays_but_runs_everything() {
        let a = little_app("alpha", 3);
        let b = little_app("beta", 3);
        let d = little_app("gamma", 3);
        let res = ResilienceConfig {
            max_active_apps: Some(1),
            admission: AdmissionPolicy::Queue,
            ..ResilienceConfig::default()
        };
        let mut c = serve_cfg(cfg(2, 2 << 20), ServeSched::FairShare, res);
        c.arrivals = ArrivalProcess::Trace(vec![0, 0, 0]);
        let serve = ServeSim::new(&[(&a, 0), (&b, 0), (&d, 1)], c);
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        let res = sr.resilience.as_ref().expect("non-passive run");
        assert_eq!(res.shed_count(), 0);
        assert!(sr.reports.iter().all(|r| r.tasks > 0), "everything ran");
        assert!(
            res.queue_delay_us.iter().any(|&d| d > 0),
            "simultaneous arrivals past the cap must wait: {:?}",
            res.queue_delay_us
        );
        // Queue wait is part of JCT: a queued app's JCT covers admission
        // delay plus execution.
        let delayed = (0..3).find(|&i| res.queue_delay_us[i] > 0).unwrap();
        assert!(sr.reports[delayed].jct.micros() >= res.queue_delay_us[delayed]);
    }

    #[test]
    fn admission_shed_drops_overflow_and_keeps_indices_aligned() {
        let a = little_app("alpha", 3);
        let b = little_app("beta", 3);
        let d = little_app("gamma", 3);
        let res = ResilienceConfig {
            max_active_apps: Some(1),
            admission: AdmissionPolicy::Shed,
            ..ResilienceConfig::default()
        };
        let mut c = serve_cfg(cfg(2, 2 << 20), ServeSched::FairShare, res);
        c.arrivals = ArrivalProcess::Trace(vec![0, 0, 0]);
        let serve = ServeSim::new(&[(&a, 0), (&b, 0), (&d, 1)], c);
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        let res = sr.resilience.as_ref().expect("non-passive run");
        assert_eq!(res.shed_count(), 2, "only one submission fits");
        let shed_idx: Vec<usize> = (0..3).filter(|&i| res.shed[i]).collect();
        for &i in &shed_idx {
            assert_eq!(sr.reports[i].policy, "-");
            assert_eq!(sr.reports[i].tasks, 0);
            assert_eq!(sr.reports[i].app_attempts, 0);
            assert_eq!(sr.completions[i], sr.arrivals[i], "shed at arrival");
        }
        // shed + completed + aborted = submitted.
        let completed = sr
            .reports
            .iter()
            .enumerate()
            .filter(|(i, r)| !res.shed[*i] && r.aborted.is_none())
            .count() as u64;
        let aborted = sr.reports.iter().filter(|r| r.aborted.is_some()).count() as u64;
        assert_eq!(res.shed_count() + completed + aborted, 3);
        assert!(sr.summary().contains("2 shed"));
        // The merged report still sees every node and a real policy name.
        let merged = sr.merged_report();
        assert_eq!(merged.per_node.len(), 2);
        assert_eq!(merged.policy, "LRU");
    }

    #[test]
    fn admission_degrade_bypasses_caching() {
        let a = little_app("alpha", 4);
        let b = little_app("beta", 4);
        let res = ResilienceConfig {
            max_active_apps: Some(1),
            admission: AdmissionPolicy::Degrade,
            ..ResilienceConfig::default()
        };
        let mut c = serve_cfg(cfg(2, 4 << 20), ServeSched::FairShare, res);
        c.arrivals = ArrivalProcess::Trace(vec![0, 0]);
        let serve = ServeSim::new(&[(&a, 0), (&b, 1)], c);
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        let res = sr.resilience.as_ref().expect("non-passive run");
        assert_eq!(res.degraded_count(), 1);
        let deg = (0..2).find(|&i| res.degraded[i]).unwrap();
        let ok = 1 - deg;
        assert_eq!(
            sr.reports[deg].stats.hits, 0,
            "cache bypass: nothing it computes is ever cached"
        );
        assert!(
            sr.reports[ok].stats.hits > 0,
            "the admitted app caches normally"
        );
        assert!(sr.reports[deg].tasks > 0, "degraded apps still run");
        assert!(sr.summary().contains("1 degraded"));
    }

    #[test]
    fn deadline_slo_accounting_is_post_hoc() {
        let a = little_app("alpha", 3);
        let b = little_app("beta", 3);
        // A 1us deadline nothing can meet, on an otherwise passive run.
        let res = ResilienceConfig {
            deadline_us: Some(1),
            ..ResilienceConfig::default()
        };
        let mut c = serve_cfg(cfg(2, 2 << 20), ServeSched::FairShare, res);
        c.arrivals = ArrivalProcess::Trace(vec![0, 100_000]);
        let serve = ServeSim::new(&[(&a, 0), (&b, 1)], c);
        let sr = serve.run_with(|_| Box::new(LruPolicy::new()));
        let res = sr
            .resilience
            .as_ref()
            .expect("deadline makes the run non-passive");
        assert_eq!(
            res.met_deadline(0, sr.arrivals[0], sr.completions[0]),
            Some(false)
        );
        assert!(sr
            .summary()
            .contains("slo: 0/2 met the 0.000s deadline (0.0% attainment)"));
        let sums = sr.tenant_summaries();
        assert_eq!(sums[0].deadline_misses + sums[1].deadline_misses, 2);
        // And the run itself is byte-identical to the passive one: deadline
        // is pure reporting.
        let passive = {
            let mut c2 = serve_cfg(cfg(2, 2 << 20), ServeSched::FairShare, Default::default());
            c2.arrivals = ArrivalProcess::Trace(vec![0, 100_000]);
            ServeSim::new(&[(&a, 0), (&b, 1)], c2).run_with(|_| Box::new(LruPolicy::new()))
        };
        assert_eq!(
            format!("{:?}", sr.reports),
            format!("{:?}", passive.reports)
        );
    }

    #[test]
    fn validate_owns_every_serve_config_error() {
        let ok = serve_cfg(
            cfg(2, 2 << 20),
            ServeSched::Fifo,
            ResilienceConfig::default(),
        );
        ok.validate().unwrap();
        let mut no_nodes = ok.clone();
        no_nodes.sim.cluster.nodes = 0;
        let mut no_churn = ok.clone();
        no_churn.sim.faults.node_churn(0, 5);
        let mut inf_slowdown = ok.clone();
        inf_slowdown.sim.faults.slow_node(0, f64::INFINITY);
        let zero_active = ServeConfig {
            resilience: ResilienceConfig {
                max_active_apps: Some(0),
                ..ResilienceConfig::default()
            },
            ..ok.clone()
        };
        for (bad, why) in [
            (no_nodes, "at least one node"),
            (no_churn, "churn MTBF/MTTR"),
            (inf_slowdown, "slowdown factor must be finite"),
            (zero_active, "max_active_apps must be at least 1"),
        ] {
            let e = bad.validate().unwrap_err();
            assert!(e.contains(why), "{e}");
        }
    }
}
