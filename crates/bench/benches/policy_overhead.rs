//! §4.4 overhead verification: MRD's bookkeeping must be "relatively small
//! and comparable to the LRU (default) caching policy" — only a small sort
//! over fewer than ~300 references.
//!
//! Benches the hot-path operations of every policy — victim selection over a
//! populated cache, access bookkeeping, and MRD's stage-advance table update
//! plus monitor synchronization — at cache populations bracketing the
//! paper's table sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use refdist_core::{MrdManager, MrdPolicy};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId};
use refdist_policies::{CachePolicy, PolicyKind};
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const NODE: NodeId = NodeId(0);

/// A profile with `rdds` cached RDDs, each referenced every 3 stages.
fn synthetic_profile(rdds: u32) -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    for r in 0..rdds {
        let stages: Vec<StageId> = (0..6).map(|k| StageId(r % 3 + k * 3)).collect();
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                jobs: stages.iter().map(|s| JobId(s.0 / 4)).collect(),
                stages: stages.into(),
            },
        );
    }
    AppProfile {
        per_rdd,
        per_stage: vec![Default::default(); 32],
        stage_job: (0..32).map(|s| JobId(s / 4)).collect(),
        num_jobs: 8,
    }
}

/// Attach a slot arena over every bench block (48 RDDs x 22 partitions),
/// as the drivers do before any other hook, then insert `blocks`.
fn populated(policy: &mut dyn CachePolicy, blocks: &[BlockId], profile: &AppProfile) {
    policy.attach_slots(&Arc::new(BlockSlots::from_counts((0..48).map(|r| (RddId(r), 22)))));
    policy.on_job_submit(JobId(0), profile);
    policy.on_stage_start(StageId(0), profile);
    for &b in blocks {
        policy.on_insert(NODE, b);
    }
}

fn bench_pick_victim(c: &mut Criterion) {
    let mut group = c.benchmark_group("pick_victim");
    for &population in &[64usize, 256, 1024] {
        let blocks: Vec<BlockId> = (0..population)
            .map(|i| BlockId::new(RddId((i % 48) as u32), (i / 48) as u32))
            .collect();
        let profile = synthetic_profile(48);
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            PolicyKind::Lru.build(),
            PolicyKind::Lrc.build(),
            PolicyKind::MemTune.build(),
            Box::new(MrdPolicy::full()),
        ];
        for p in &mut policies {
            populated(&mut **p, &blocks, &profile);
        }
        for p in &mut policies {
            group.bench_with_input(
                BenchmarkId::new(p.name(), population),
                &population,
                |b, _| {
                    b.iter(|| black_box(p.pick_victim(NODE, black_box(&blocks))));
                },
            );
        }
    }
    group.finish();
}

fn bench_access_bookkeeping(c: &mut Criterion) {
    let mut group = c.benchmark_group("on_access");
    let blocks: Vec<BlockId> = (0..256)
        .map(|i| BlockId::new(RddId((i % 48) as u32), (i / 48) as u32))
        .collect();
    let profile = synthetic_profile(48);
    let mut policies: Vec<Box<dyn CachePolicy>> = vec![
        PolicyKind::Lru.build(),
        PolicyKind::Lrc.build(),
        Box::new(MrdPolicy::full()),
    ];
    for p in &mut policies {
        populated(&mut **p, &blocks, &profile);
    }
    for p in &mut policies {
        let mut i = 0usize;
        group.bench_function(p.name(), |b| {
            b.iter(|| {
                i = (i + 1) % blocks.len();
                p.on_access(NODE, black_box(blocks[i]));
            });
        });
    }
    group.finish();
}

fn bench_mrd_table_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrd_table");
    // The paper: the largest MRD_Table held fewer than 300 references.
    for &rdds in &[50u32, 100, 300] {
        let profile = synthetic_profile(rdds);
        group.bench_with_input(BenchmarkId::new("stage_advance", rdds), &rdds, |b, _| {
            let mut mgr = MrdManager::new(Default::default());
            mgr.on_job_submit(JobId(0), &profile);
            let mut stage = 0u32;
            b.iter(|| {
                stage += 1;
                mgr.on_stage_start(StageId(black_box(stage)));
            });
        });
        group.bench_with_input(BenchmarkId::new("monitor_sync", rdds), &rdds, |b, _| {
            let mut mgr = MrdManager::new(Default::default());
            mgr.on_job_submit(JobId(0), &profile);
            let mut mon = refdist_core::CacheMonitor::new(NODE);
            let mut stage = 0u32;
            b.iter(|| {
                stage += 1;
                mgr.on_stage_start(StageId(stage));
                black_box(mgr.sync_monitor(&mut mon));
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pick_victim,
    bench_access_bookkeeping,
    bench_mrd_table_ops
);
criterion_main!(benches);
