//! Cluster and simulation configuration, with the paper's Table 4 presets.

use crate::faults::FaultPlan;

/// Static description of a cluster: homogeneous worker nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Preset name, for reports.
    pub name: String,
    /// Number of worker nodes.
    pub nodes: u32,
    /// Task slots (vCPUs) per node.
    pub cores_per_node: u32,
    /// Memory cache capacity per node, in bytes (Spark's storage memory).
    pub cache_bytes: u64,
    /// Local disk bandwidth per node, bytes/second.
    pub disk_bw: u64,
    /// NIC bandwidth per node, bytes/second.
    pub net_bw: u64,
}

const MB: u64 = 1024 * 1024;

impl ClusterConfig {
    /// The paper's *Main cluster*: 25 VMs, 4 vCPU, 8 GB RAM, 500 Mbps.
    ///
    /// Cache capacity defaults to 1 GiB of storage memory per node
    /// (8 GB × default `spark.memory.fraction` share left for storage after
    /// execution memory); experiments that sweep cache sizes override it.
    pub fn main_cluster() -> Self {
        ClusterConfig {
            name: "Main".into(),
            nodes: 25,
            cores_per_node: 4,
            cache_bytes: 1024 * MB,
            disk_bw: 100 * MB,
            net_bw: 500 / 8 * MB, // 500 Mbps
        }
    }

    /// The paper's *LRC cluster*: 20 VMs, 2 vCPU, 8 GB, 450 Mbps
    /// (Amazon EC2 m4.large equivalents).
    pub fn lrc_cluster() -> Self {
        ClusterConfig {
            name: "LRC".into(),
            nodes: 20,
            cores_per_node: 2,
            cache_bytes: 1024 * MB,
            disk_bw: 90 * MB,
            net_bw: 450 / 8 * MB,
        }
    }

    /// The paper's *MemTune cluster*: 6 VMs, 8 vCPU, 8 GB, 1 Gbps (System G).
    pub fn memtune_cluster() -> Self {
        ClusterConfig {
            name: "MemTune".into(),
            nodes: 6,
            cores_per_node: 8,
            cache_bytes: 1024 * MB,
            disk_bw: 140 * MB,
            net_bw: 1000 / 8 * MB,
        }
    }

    /// A small cluster for unit tests and examples.
    pub fn tiny(nodes: u32, cache_bytes: u64) -> Self {
        ClusterConfig {
            name: "tiny".into(),
            nodes,
            cores_per_node: 2,
            cache_bytes,
            disk_bw: 100 * MB,
            net_bw: 50 * MB,
        }
    }

    /// Copy with a different per-node cache capacity (cache-size sweeps).
    pub fn with_cache(&self, cache_bytes: u64) -> Self {
        ClusterConfig {
            cache_bytes,
            ..self.clone()
        }
    }

    /// Total task slots in the cluster.
    pub fn total_slots(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.cores_per_node == 0 {
            return Err("nodes need at least one core".into());
        }
        if self.disk_bw == 0 || self.net_bw == 0 {
            return Err("bandwidths must be positive".into());
        }
        Ok(())
    }
}

/// Per-run simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster to simulate.
    pub cluster: ClusterConfig,
    /// Master seed for all randomness (task jitter).
    pub seed: u64,
    /// Relative compute-time jitter per task (0.05 = ±5%).
    pub compute_jitter: f64,
    /// Free-memory fraction above which MRD forces prefetches that do not
    /// fit, evicting to make room (paper §4.3: "set experimentally at 25% of
    /// the cache space").
    pub prefetch_threshold: f64,
    /// Fraction of each node's storage region that execution memory borrows
    /// for the duration of every stage (Spark's unified memory manager:
    /// shuffle/aggregation buffers evict cached blocks and release the space
    /// at stage end). This churn is what gives the prefetcher its window —
    /// the released space at a stage boundary is where Algorithm 1's
    /// 25%-free threshold comes into play.
    pub exec_mem_fraction: f64,
    /// Maximum blocks prefetched per node per stage. Algorithm 1's
    /// prefetching phase pulls "the data block with the lowest value" per
    /// node each round; the cap keeps the background traffic from starving
    /// demand I/O of subsequent stages.
    pub max_prefetch_per_node: usize,
    /// Record the global cached-block access trace (for the Belady oracle).
    pub collect_trace: bool,
    /// Fault injection: scripted crashes/slowdowns plus stochastic task,
    /// fetch and disk failures, retries, and speculative execution (see
    /// [`FaultPlan`]). The default plan is empty — no fault machinery runs
    /// and results are byte-identical to a fault-free build. The legacy
    /// single-failure knobs are available as sugar:
    /// [`FaultPlan::node_failure`] (a worker loses its memory cache and
    /// local disk at a stage start; shuffle files are modelled as externally
    /// replicated — the paper's §4.4 path, where lost blocks are recomputed
    /// or re-read and the MRDmanager re-issues the table replica) and
    /// [`FaultPlan::slow_node`] (a permanent straggler).
    pub faults: FaultPlan,
    /// Adapt the prefetch threshold per node at runtime (the paper's stated
    /// future work: "modifying the prefetching memory threshold to be
    /// dynamic and automated"). When enabled, a node that wastes prefetches
    /// raises its threshold (prefetches less eagerly) and a node whose
    /// prefetches all hit lowers it, within [0.05, 0.6].
    pub adaptive_threshold: bool,
    /// Delay-scheduling bound in microseconds: a task waits at most this
    /// long for a slot on its home node before running on the globally
    /// earliest slot (paying remote reads). `None` = always run at home,
    /// which is the calibrated default.
    pub delay_scheduling_us: Option<u64>,
    /// Record every task placement as `(node, slot, start)` in
    /// [`RunReport::placements`](crate::RunReport::placements). Used by the
    /// frozen decision digests; off by default.
    pub collect_placements: bool,
}

impl SimConfig {
    /// Defaults from the paper: 25% prefetch threshold, light jitter.
    pub fn new(cluster: ClusterConfig) -> Self {
        SimConfig {
            cluster,
            seed: 42,
            compute_jitter: 0.05,
            prefetch_threshold: 0.25,
            exec_mem_fraction: 0.3,
            max_prefetch_per_node: 8,
            collect_trace: false,
            faults: FaultPlan::default(),
            adaptive_threshold: false,
            delay_scheduling_us: None,
            collect_placements: false,
        }
    }

    /// Copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table4() {
        let main = ClusterConfig::main_cluster();
        assert_eq!((main.nodes, main.cores_per_node), (25, 4));
        let lrc = ClusterConfig::lrc_cluster();
        assert_eq!((lrc.nodes, lrc.cores_per_node), (20, 2));
        let mt = ClusterConfig::memtune_cluster();
        assert_eq!((mt.nodes, mt.cores_per_node), (6, 8));
        // Network ordering: MemTune (1 Gbps) > Main (500) > LRC (450).
        assert!(mt.net_bw > main.net_bw && main.net_bw > lrc.net_bw);
        for c in [main, lrc, mt] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn with_cache_overrides_capacity() {
        let c = ClusterConfig::main_cluster().with_cache(123);
        assert_eq!(c.cache_bytes, 123);
        assert_eq!(c.nodes, 25);
    }

    #[test]
    fn total_slots() {
        assert_eq!(ClusterConfig::main_cluster().total_slots(), 100);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = ClusterConfig::tiny(1, 100);
        c.nodes = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::tiny(1, 100);
        c.cores_per_node = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::tiny(1, 100);
        c.disk_bw = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sim_config_defaults() {
        let s = SimConfig::new(ClusterConfig::tiny(2, 100));
        assert_eq!(s.prefetch_threshold, 0.25);
        assert!(!s.collect_trace);
        assert!(s.faults.is_empty());
        assert!(!s.adaptive_threshold);
        assert!(s.delay_scheduling_us.is_none());
        assert!(!s.collect_placements);
        assert_eq!(s.with_seed(7).seed, 7);
    }
}
