//! Shared building blocks for workload generators.

use refdist_dag::{AppBuilder, RddId, StorageLevel};

/// One kibibyte.
pub const KB: u64 = 1 << 10;
/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One gibibyte.
pub const GB: u64 = 1 << 30;

/// Knobs shared by all workload generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Partitions per RDD (tasks per stage). The paper's HDFS layout
    /// (128 MB blocks) gives a few dozen partitions for gigabyte inputs.
    pub partitions: u32,
    /// Input-size scale factor (1.0 = the paper's Table 3 sizes).
    pub scale: f64,
    /// Override the workload's default iteration count (paper §5.9 triples
    /// it). `None` keeps the default.
    pub iterations: Option<u32>,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            // Spark's guideline of 2-3 tasks per core: the Main cluster has
            // 100 slots, so stages run in ~2 waves and contend for each
            // node's disk and NIC, as on the paper's testbed.
            partitions: 192,
            scale: 1.0,
            iterations: None,
        }
    }
}

impl WorkloadParams {
    /// Small configuration for unit tests and examples.
    pub fn small() -> Self {
        WorkloadParams {
            partitions: 8,
            scale: 0.05,
            ..Default::default()
        }
    }

    /// Reject parameters no generator can build from: zero partitions (the
    /// block size divides by them) or a scale that is not a positive,
    /// finite number.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("partitions must be at least 1".into());
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!(
                "scale must be positive and finite, got {}",
                self.scale
            ));
        }
        Ok(())
    }

    /// Per-partition block size for a dataset of `total` bytes at scale.
    pub fn block(&self, total: u64) -> u64 {
        ((total as f64 * self.scale) as u64 / self.partitions as u64).max(1)
    }

    /// Iterations to run: the override, or `default`.
    pub fn iters(&self, default: u32) -> u32 {
        self.iterations.unwrap_or(default).max(1)
    }
}

/// Compute microseconds for a block: `us_per_mb` microseconds per MiB,
/// minimum 100 µs (task launch floor).
pub fn cost(block_bytes: u64, us_per_mb: u64) -> u64 {
    ((block_bytes as u128 * us_per_mb as u128 / MB as u128) as u64).max(100)
}

/// Append a chain of `len` narrow transformations (map/filter pipelines —
/// they add RDDs to the lineage without adding stages).
pub fn narrow_chain(
    b: &mut AppBuilder,
    name: &str,
    parent: RddId,
    len: u32,
    block: u64,
    compute_us: u64,
) -> RddId {
    let mut cur = parent;
    for i in 0..len.max(1) {
        cur = b.narrow(format!("{name}_{i}"), cur, block, compute_us);
    }
    cur
}

/// Configuration of a Pregel-style superstep loop (GraphX's `Pregel`
/// operator, the engine under PageRank, ConnectedComponents, SCC,
/// LabelPropagation, ShortestPaths and PregelOperation in SparkBench).
#[derive(Debug, Clone, Copy)]
pub struct PregelConfig {
    /// Partitions of the vertex and message RDDs.
    pub partitions: u32,
    /// Block size of each cached vertex generation.
    pub vertex_block: u64,
    /// Block size of the cached edges RDD.
    pub edge_block: u64,
    /// Block size of message RDDs.
    pub msg_block: u64,
    /// Number of supersteps.
    pub supersteps: u32,
    /// Compute µs per vertex-update task.
    pub vertex_us: u64,
    /// Compute µs per message task.
    pub msg_us: u64,
    /// If > 0, superstep `i` also re-reads the vertex generation from
    /// `i - lag` (snapshot/convergence comparison) — this is what produces
    /// the very large reference distances of LP and SCC.
    pub long_ref_lag: u32,
    /// Issue the per-superstep `messages.count()` action every `job_every`
    /// supersteps (GraphX Pregel does it every superstep).
    pub job_every: u32,
    /// Shuffle phases in the per-superstep message aggregation (1 = a single
    /// shuffle; 2 = map-side combine + reduce; 3 adds a re-partition hop).
    /// Each extra phase adds one stage per superstep.
    pub phases: u32,
    /// Extra narrow transformations per superstep (RDD-count realism).
    pub chain: u32,
    /// Whether the final summary job re-reads the *initial* vertex
    /// generation (e.g. comparing converged labels against the seed), which
    /// produces the workload's maximum reference distance.
    pub final_reads_first: bool,
    /// Storage level of the vertex generations. GraphX persists them
    /// `MEMORY_ONLY`, so an evicted generation must be *recomputed* from its
    /// lineage (shuffle reads + joins all the way back to the last resident
    /// ancestor) — the expensive cascade that makes eviction policy matter
    /// so much for the paper's I/O-intensive graph workloads.
    pub vertex_storage: StorageLevel,
}

/// Build a Pregel loop on top of `input` (the raw edge list). Returns the
/// final vertex RDD. Emits one job per `job_every` supersteps plus a final
/// aggregation job on the last vertex generation.
pub fn build_pregel(b: &mut AppBuilder, input: RddId, cfg: &PregelConfig) -> RddId {
    // Parse the edge list and cache it: referenced by every superstep.
    let edges_raw = narrow_chain(
        b,
        "edges_parse",
        input,
        cfg.chain.max(1),
        cfg.edge_block,
        cfg.msg_us,
    );
    let edges = b.narrow("edges", edges_raw, cfg.edge_block, cfg.msg_us);
    b.persist(edges, StorageLevel::MemoryAndDisk);

    // Initial vertex set: group edges by vertex.
    let verts0 = b.shuffle(
        "verts0",
        &[edges],
        cfg.partitions,
        cfg.vertex_block,
        cfg.vertex_us,
    );
    b.persist(verts0, cfg.vertex_storage);

    // Seed snapshot: touched only at the first superstep and (when
    // `final_reads_first` is set) by the final comparison — the reference
    // gap spanning the entire DAG that gives LP/SCC their maximum stage
    // distances.
    let seed = if cfg.final_reads_first {
        let s = b.narrow(
            "seed_snapshot",
            verts0,
            (cfg.vertex_block / 4).max(1),
            cfg.vertex_us / 4,
        );
        b.persist(s, cfg.vertex_storage);
        Some(s)
    } else {
        None
    };

    let mut history = vec![verts0];
    let mut verts = verts0;
    for step in 0..cfg.supersteps {
        // Message generation: vertices joined with edges, shuffled to the
        // destination vertices.
        let mut send_parents = vec![verts, edges];
        if step == 0 {
            if let Some(s) = seed {
                send_parents.push(s);
            }
        }
        let pre = b.narrow_multi(
            format!("send_{step}"),
            &send_parents,
            cfg.msg_block,
            cfg.msg_us,
        );
        let pre = narrow_chain(
            b,
            &format!("mexpr_{step}"),
            pre,
            cfg.chain,
            cfg.msg_block,
            cfg.msg_us,
        );
        let mut msgs = b.shuffle(
            format!("msgs_{step}"),
            &[pre],
            cfg.partitions,
            cfg.msg_block,
            cfg.msg_us,
        );
        for phase in 1..cfg.phases.max(1) {
            let partial = b.narrow(
                format!("combine_{step}_{phase}"),
                msgs,
                cfg.msg_block,
                cfg.msg_us,
            );
            msgs = b.shuffle(
                format!("reduced_{step}_{phase}"),
                &[partial],
                cfg.partitions,
                cfg.msg_block,
                cfg.msg_us,
            );
        }
        // Vertex update: join new messages into the vertex set, optionally
        // comparing against an old snapshot (long reference).
        let mut join_parents = vec![verts, msgs];
        if cfg.long_ref_lag > 0 && step >= cfg.long_ref_lag {
            join_parents.push(history[(step - cfg.long_ref_lag) as usize]);
        }
        let new_verts = b.narrow_multi(
            format!("verts_{}", step + 1),
            &join_parents,
            cfg.vertex_block,
            cfg.vertex_us,
        );
        b.persist(new_verts, cfg.vertex_storage);
        history.push(new_verts);
        verts = new_verts;

        if cfg.job_every > 0 && step % cfg.job_every == 0 {
            // GraphX Pregel: messages.count() to decide convergence.
            b.action(format!("superstep_{step}"), msgs);
        }
    }
    // Final aggregation over the last vertex generation (optionally
    // comparing against the initial one — the longest reference distance).
    let final_src = if let Some(s) = seed {
        b.narrow_multi(
            "final_compare",
            &[verts, verts0, s],
            cfg.vertex_block,
            cfg.vertex_us,
        )
    } else {
        verts
    };
    let summary = b.shuffle(
        "final_summary",
        &[final_src],
        cfg.partitions,
        (cfg.vertex_block / 8).max(1),
        cfg.vertex_us,
    );
    b.action("final", summary);
    verts
}

/// Build the common iterative-ML skeleton: parse + cache a dataset, run an
/// initialization job, then `iters` gradient-style jobs that each read the
/// cached dataset. Single-stage iterations model MLlib's `treeAggregate`
/// actions without shuffles. Returns the cached dataset RDD.
pub struct MlSkeleton {
    /// The cached parsed dataset.
    pub data: RddId,
    /// Auxiliary cached RDDs created during initialization (referenced again
    /// only by the finalization job, producing long distances).
    pub aux: Vec<RddId>,
}

/// Parameters for [`build_ml`].
pub struct MlConfig {
    /// Total input bytes (paper Table 3 "Data Input Size").
    pub input_total: u64,
    /// Partitions.
    pub partitions: u32,
    /// Parse cost µs/MiB.
    pub parse_us_per_mb: u64,
    /// Per-iteration cost µs/MiB (CPU-intensive workloads set this high).
    pub iter_us_per_mb: u64,
    /// Gradient-descent-style jobs.
    pub iterations: u32,
    /// Whether iterations are single-stage (aggregate action) or include a
    /// shuffle (two stages).
    pub single_stage_iters: bool,
    /// Number of auxiliary cached RDDs created at init and referenced by the
    /// finalization job.
    pub aux_cached: u32,
    /// Narrow-chain padding per iteration.
    pub chain: u32,
    /// Per-partition block size override (`None` = input/partitions).
    pub block: Option<u64>,
}

/// Build the ML skeleton into `b`; emits `2 + iterations (+1 final)` jobs.
pub fn build_ml(b: &mut AppBuilder, cfg: &MlConfig) -> MlSkeleton {
    let block = cfg
        .block
        .unwrap_or((cfg.input_total / cfg.partitions as u64).max(1));
    let parse_us = cost(block, cfg.parse_us_per_mb);
    let iter_us = cost(block, cfg.iter_us_per_mb);

    let input = b.input("hdfs_input", cfg.partitions, block, parse_us);
    let data = b.narrow("points", input, block, parse_us);
    b.persist(data, StorageLevel::MemoryAndDisk);

    // Job 0: count the dataset (materializes the cache).
    b.action("count", data);

    // Initialization job: sample/seed model via a shuffle; creates the aux
    // cached RDDs that will be referenced again at the end.
    let mut aux = Vec::new();
    for a in 0..cfg.aux_cached {
        let x = b.narrow(format!("aux_{a}"), data, (block / 16).max(1), iter_us / 4);
        b.persist(x, StorageLevel::MemoryAndDisk);
        aux.push(x);
    }
    // The init job reads data plus the aux RDDs, materializing them now so
    // their re-reference at evaluation time is a long-distance gap.
    let mut init_parents = vec![data];
    init_parents.extend(&aux);
    let sample = b.shuffle(
        "init_sample",
        &init_parents,
        cfg.partitions,
        (block / 32).max(1),
        iter_us / 8,
    );
    b.action("init", sample);

    // Iteration jobs.
    for i in 0..cfg.iterations {
        let grad0 = b.narrow(format!("grad_{i}"), data, (block / 8).max(1), iter_us);
        let grad = narrow_chain(
            b,
            &format!("gexpr_{i}"),
            grad0,
            cfg.chain,
            (block / 8).max(1),
            iter_us / 8,
        );
        if cfg.single_stage_iters {
            b.action(format!("iter_{i}"), grad);
        } else {
            let red = b.shuffle(
                format!("reduce_{i}"),
                &[grad],
                cfg.partitions,
                (block / 64).max(1),
                iter_us / 8,
            );
            b.action(format!("iter_{i}"), red);
        }
    }

    // Finalization job: model evaluation touching data and all aux RDDs.
    if !aux.is_empty() {
        let mut parents = vec![data];
        parents.extend(&aux);
        let eval = b.narrow_multi("evaluate", &parents, (block / 8).max(1), iter_us / 2);
        let evals = b.shuffle(
            "eval_sum",
            &[eval],
            cfg.partitions,
            (block / 64).max(1),
            iter_us / 8,
        );
        b.action("evaluate", evals);
    }

    MlSkeleton { data, aux }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::{AppPlan, RefAnalyzer};

    #[test]
    fn params_block_scales() {
        let p = WorkloadParams {
            partitions: 8,
            scale: 0.5,
            iterations: None,
        };
        assert_eq!(p.block(16 * MB), MB);
        assert_eq!(p.iters(10), 10);
        let p2 = WorkloadParams {
            iterations: Some(3),
            ..p
        };
        assert_eq!(p2.iters(10), 3);
    }

    #[test]
    fn validate_rejects_unbuildable_params() {
        WorkloadParams::default().validate().unwrap();
        let zero = WorkloadParams {
            partitions: 0,
            ..WorkloadParams::default()
        };
        assert!(zero.validate().is_err());
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let p = WorkloadParams {
                scale,
                ..WorkloadParams::default()
            };
            assert!(p.validate().is_err(), "scale {scale}");
        }
    }

    #[test]
    fn cost_has_floor() {
        assert_eq!(cost(1, 1000), 100);
        assert_eq!(cost(10 * MB, 1000), 10_000);
    }

    #[test]
    fn narrow_chain_adds_rdds_not_stages() {
        let mut b = AppBuilder::new("chain");
        let input = b.input("in", 4, MB, 100);
        let out = narrow_chain(&mut b, "c", input, 5, MB, 100);
        b.action("count", out);
        let spec = b.build();
        assert_eq!(spec.rdds.len(), 6);
        let plan = AppPlan::build(&spec);
        assert_eq!(plan.stages.len(), 1);
    }

    #[test]
    fn pregel_emits_one_job_per_superstep_plus_final() {
        let mut b = AppBuilder::new("pregel");
        let input = b.input("edges_raw", 4, MB, 100);
        build_pregel(
            &mut b,
            input,
            &PregelConfig {
                partitions: 4,
                vertex_block: MB,
                edge_block: MB,
                msg_block: MB / 2,
                supersteps: 5,
                vertex_us: 100,
                msg_us: 100,
                long_ref_lag: 0,
                job_every: 1,
                phases: 1,
                final_reads_first: false,
                vertex_storage: StorageLevel::MemoryAndDisk,
                chain: 1,
            },
        );
        let spec = b.build();
        assert_eq!(spec.num_jobs(), 6); // 5 supersteps + final
        let plan = AppPlan::build(&spec);
        // Later jobs' DAGs include earlier (skipped) stages.
        assert!(plan.total_stage_appearances() > plan.active_stage_count());
    }

    #[test]
    fn pregel_long_lag_stretches_distances() {
        let build = |lag: u32| {
            let mut b = AppBuilder::new("pregel");
            let input = b.input("edges_raw", 4, MB, 100);
            build_pregel(
                &mut b,
                input,
                &PregelConfig {
                    partitions: 4,
                    vertex_block: MB,
                    edge_block: MB,
                    msg_block: MB / 2,
                    supersteps: 10,
                    vertex_us: 100,
                    msg_us: 100,
                    long_ref_lag: lag,
                    job_every: 1,
                    phases: 1,
                    final_reads_first: false,
                    vertex_storage: StorageLevel::MemoryAndDisk,
                    chain: 1,
                },
            );
            let spec = b.build();
            let plan = AppPlan::build(&spec);
            let profile = RefAnalyzer::new(&spec, &plan).profile();
            RefAnalyzer::distance_stats(&profile)
        };
        let near = build(0);
        let far = build(5);
        assert!(
            far.max_stage > near.max_stage,
            "lag should stretch max stage distance ({} vs {})",
            far.max_stage,
            near.max_stage
        );
        assert!(far.avg_stage > near.avg_stage);
    }

    #[test]
    fn ml_skeleton_job_count() {
        let mut b = AppBuilder::new("ml");
        build_ml(
            &mut b,
            &MlConfig {
                input_total: 64 * MB,
                partitions: 4,
                parse_us_per_mb: 100,
                iter_us_per_mb: 1000,
                iterations: 5,
                single_stage_iters: true,
                aux_cached: 2,
                chain: 1,
                block: None,
            },
        );
        let spec = b.build();
        // count + init + 5 iters + evaluate
        assert_eq!(spec.num_jobs(), 8);
        let plan = AppPlan::build(&spec);
        // Single-stage iterations: one result stage each.
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        // data referenced by every iteration job.
        let data_refs = profile.refs(refdist_dag::RddId(1)).unwrap();
        assert!(data_refs.count() >= 7);
    }

    #[test]
    fn ml_aux_rdds_have_long_references() {
        let mut b = AppBuilder::new("ml");
        let sk = build_ml(
            &mut b,
            &MlConfig {
                input_total: 64 * MB,
                partitions: 4,
                parse_us_per_mb: 100,
                iter_us_per_mb: 1000,
                iterations: 8,
                single_stage_iters: true,
                aux_cached: 1,
                chain: 0,
                block: None,
            },
        );
        let spec = b.build();
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let aux_refs = profile.refs(sk.aux[0]).unwrap();
        // Created at init, referenced at evaluate: a long job gap.
        let max_gap = aux_refs.job_gaps().max().unwrap();
        assert!(max_gap >= 8, "aux job gap {max_gap} should span iterations");
    }
}
