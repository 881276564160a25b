//! End-to-end simulator throughput: how fast the discrete-event engine
//! pushes a full application through, per policy. Keeps the experiment
//! harness honest — the parameter sweeps run hundreds of these.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use refdist_cluster::{ClusterConfig, SimConfig, Simulation};
use refdist_core::{MrdPolicy, ProfileMode};
use refdist_dag::AppPlan;
use refdist_policies::PolicyKind;
use refdist_workloads::{Workload, WorkloadParams};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    let params = WorkloadParams {
        partitions: 16,
        scale: 0.05,
        iterations: None,
    };
    for w in [Workload::ConnectedComponents, Workload::KMeans] {
        let spec = w.build(&params);
        let plan = AppPlan::build(&spec);
        let tasks: u64 = plan.stages.iter().map(|s| s.num_tasks as u64).sum();
        let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
        let mut cfg = SimConfig::new(ClusterConfig::tiny(4, footprint / 10));
        cfg.compute_jitter = 0.0;
        let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);

        group.throughput(Throughput::Elements(tasks));
        group.bench_with_input(BenchmarkId::new("lru", w.short_name()), &sim, |b, sim| {
            b.iter(|| {
                let mut p = PolicyKind::Lru.build();
                black_box(sim.run(&mut *p))
            });
        });
        group.bench_with_input(BenchmarkId::new("mrd", w.short_name()), &sim, |b, sim| {
            b.iter(|| {
                let mut p = MrdPolicy::full();
                black_box(sim.run(&mut p))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
