//! Large-cluster smoke tests: the indexed task-slot scheduler at 128+ nodes
//! with delay scheduling, a straggler, and real eviction pressure. Tier-1 —
//! this is the scale regime the slot index exists for, so it must keep
//! working (and keep placing tasks exactly as its frozen digest records)
//! on every change.

mod common;

use common::{check_golden, fnv1a};
use refdist::cluster::EngineScratch;
use refdist::prelude::*;

/// Wide iterative app: 8 partitions per node, one cached dataset reused by
/// several jobs, so each stage schedules multiple task waves per node.
fn wide_app(nodes: u32) -> AppSpec {
    let parts = nodes * 8;
    let block = 64 * 1024;
    let mut b = AppBuilder::new("large-cluster");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..3 {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn large_cfg(nodes: u32, cache: u64) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterConfig::tiny(nodes, cache));
    cfg.cluster.cores_per_node = 4;
    cfg.compute_jitter = 0.0;
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults.slow_node(0, 4.0);
    cfg
}

#[test]
fn simulates_128_nodes_with_delay_scheduling_and_migrations() {
    let nodes = 128;
    let spec = wide_app(nodes);
    let plan = AppPlan::build(&spec);
    let sim = Simulation::new(
        &spec,
        &plan,
        ProfileMode::Recurring,
        large_cfg(nodes, 1 << 40),
    );
    let mut lru = PolicyKind::Lru.build();
    let r = sim.run(&mut *lru);

    assert_eq!(
        r.tasks,
        plan.stages.iter().map(|s| s.num_tasks as u64).sum::<u64>()
    );
    assert_eq!(
        r.sched.home_placements + r.sched.remote_placements,
        r.tasks,
        "every task is placed exactly once"
    );
    assert!(
        r.sched.remote_placements > 0,
        "the straggler must force delay-scheduled migrations at 128 nodes"
    );
    assert!(r.summary().contains("delay-scheduled remotely"));
}

/// The 128-node run's report, placements included, matches the digest
/// recorded while a linear-scan scheduler still existed and placed every
/// task identically.
#[test]
fn placements_at_128_nodes_match_golden() {
    let nodes = 128;
    let spec = wide_app(nodes);
    let plan = AppPlan::build(&spec);
    // Under cache pressure (half the cached footprint fits) so eviction and
    // scheduling interact.
    let cache: u64 = spec.cached_rdds().map(|r| r.total_size()).sum::<u64>() / 2;

    let mut cfg = large_cfg(nodes, cache.max(1));
    cfg.collect_placements = true;
    let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);
    let mut lru = PolicyKind::Lru.build();
    let r = &sim.run(&mut *lru);
    check_golden(
        "large_cluster.txt",
        &format!(
            "lru x128 nodes: {} tasks, {} remote placements, {} evictions, digest {:016x}\n",
            r.tasks,
            r.sched.remote_placements,
            r.stats.evictions,
            fnv1a(format!("{r:?}").as_bytes())
        ),
        "UPDATE_GOLDEN=1 cargo test --test large_cluster",
    );
}

#[test]
fn shared_artifacts_and_scratch_reuse_hold_at_scale() {
    let nodes = 128;
    let spec = wide_app(nodes);
    let plan = AppPlan::build(&spec);
    let cfg = large_cfg(nodes, 1 << 40);

    let base = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone());
    let mut fresh_lru = PolicyKind::Lru.build();
    let fresh = base.run(&mut *fresh_lru);

    // Re-run twice through shared artifacts and one recycled scratch.
    let mut scratch = EngineScratch::default();
    for _ in 0..2 {
        let (profiler, arena) = base.artifacts();
        let sim = Simulation::with_artifacts(&spec, &plan, profiler, arena, cfg.clone());
        let mut lru = PolicyKind::Lru.build();
        let shared = sim.run_with_scratch(&mut *lru, &mut scratch);
        assert_eq!(format!("{fresh:?}"), format!("{shared:?}"));
    }
}
