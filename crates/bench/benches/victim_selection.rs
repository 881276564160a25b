//! Victim-selection hot path: the policies' ordered victim indexes.
//!
//! Each benchmark drives one steady-state churn step — an access, an
//! insert-under-pressure, and exactly one eviction through
//! `select_victims` — at cache populations of 1k, 10k and 100k blocks, so
//! the growth of the step cost with the population is the index's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use refdist_bench::{bench_policies, Churn};
use std::hint::black_box;

/// In `--test` smoke mode, skip the 100k population: building ten 100k-block
/// caches just to run each body once is most of a minute for zero signal.
fn populations() -> &'static [usize] {
    if std::env::args().any(|a| a == "--test") {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    }
}

fn bench_evict_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("evict_churn");
    for &blocks in populations() {
        for (name, build) in bench_policies() {
            let mut churn = Churn::new(build, blocks);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/indexed"), blocks),
                &blocks,
                |b, _| {
                    b.iter(|| black_box(churn.step()));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_evict_churn);
criterion_main!(benches);
