//! Long-stream serve smoke tests (tier-1): the serve driver must hold its
//! two load-bearing promises at four-digit stream lengths —
//!
//! 1. **Equivalence**: each stream's reports, arrivals, completions and
//!    eviction matrix match the digests in `tests/golden/serve_stream*.txt`,
//!    recorded while a build-everything-upfront driver still existed and
//!    produced byte-identical runs. A refactor or performance change must
//!    leave them as they are; an intended behaviour change regenerates them
//!    with `UPDATE_GOLDEN=1 cargo test --test serve_stream`.
//! 2. **O(active) state**: the slot arena's high-water mark tracks *peak
//!    concurrency*, not stream length — retired submissions' slot ranges
//!    are recycled into later admissions.

mod common;

use common::{check_golden, fnv1a};
use refdist::cluster::{
    ArrivalProcess, ClusterConfig, QuotaKind, ServeConfig, ServeReport, ServeSched, ServeSim,
    SimConfig,
};
use refdist::prelude::*;

/// A small two-job iterative app: one cached RDD reused by both jobs.
fn little_app(parts: u32) -> AppSpec {
    let block = 64 * 1024;
    let mut b = AppBuilder::new("stream-app");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..2 {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 8, 500);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn stream_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterConfig::tiny(2, 512 * 1024));
    cfg.seed = seed;
    cfg.compute_jitter = 0.0;
    cfg.exec_mem_fraction = 0.0;
    cfg
}

/// One golden line: the FNV-1a digests of a run's per-submission reports,
/// arrivals, completions and cross-tenant eviction matrix.
fn stream_line(label: &str, r: &ServeReport) -> String {
    let d = |s: String| fnv1a(s.as_bytes());
    format!(
        "{label}: {} submissions, reports {:016x}, arrivals {:016x}, completions {:016x}, \
         evictions {:016x}\n",
        r.reports.len(),
        d(format!("{:?}", r.reports)),
        d(format!("{:?}", r.arrivals)),
        d(format!("{:?}", r.completions)),
        d(format!("{:?}", r.cross_evictions)),
    )
}

const REGEN: &str = "UPDATE_GOLDEN=1 cargo test --test serve_stream";

fn run(n: usize, tenants: u32) -> ServeReport {
    let spec = little_app(2);
    let subs: Vec<(&AppSpec, u32)> = (0..n).map(|i| (&spec, i as u32 % tenants)).collect();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim: stream_cfg(42),
            // Mean gap well below one app's runtime, so submissions overlap
            // and the cache stays contended, but far fewer than `n` apps
            // are ever live at once.
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 40_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        },
    );
    serve.run_with(|_| PolicyKind::Lru.build())
}

#[test]
fn thousand_submission_stream_is_bounded_and_equivalent() {
    const N: usize = 1_000;
    let st = run(N, 4);
    check_golden(
        "serve_stream.txt",
        &stream_line("fair-share x1000", &st),
        REGEN,
    );

    // A whole-stream arena would hold every submission's slots; the
    // streaming arena must track peak concurrency instead. With ~25 stages
    // of work per app and a 40ms mean gap, concurrency stays two orders of
    // magnitude below the stream length — give the bound generous slack so
    // timing tweaks do not make this flaky, while still pinning the
    // O(active) claim.
    let slots_per_app = 2; // one cached RDD x two partitions
    assert_eq!(st.reports.len(), N);
    assert!(
        st.peak_active_apps < N as u64 / 10,
        "peak active {} should be far below the stream length {N}",
        st.peak_active_apps
    );
    assert!(
        st.peak_arena_slots < (N as u64 * slots_per_app) / 10,
        "streaming arena ({} slots) should be far below the whole stream's \
         ({} slots)",
        st.peak_arena_slots,
        N as u64 * slots_per_app
    );
    // And the arena actually recycled ranges rather than growing per app:
    // its high-water mark is bounded by what the peak-active cohort needs.
    assert!(
        st.peak_arena_slots <= (st.peak_active_apps + 1) * slots_per_app,
        "arena {} slots vs {} active apps",
        st.peak_arena_slots,
        st.peak_active_apps
    );
    // Interned admission planned the structure once: 1000 submissions of a
    // single template leave exactly one cache entry, not one per admission.
    assert_eq!(st.distinct_templates, 1);
}

#[test]
fn template_cache_is_bounded_by_distinct_structures() {
    // A 1k-submission stream cycling through three structurally distinct
    // templates: the cache must hold at most one entry per structure, no
    // matter how long the stream runs. Renaming alone must not split a
    // template.
    const N: usize = 1_000;
    let a = little_app(2);
    let b = little_app(3); // different partition count => different structure
    let mut renamed = little_app(2);
    renamed.name = "same-shape-different-name".into();
    let specs = [&a, &b, &renamed];
    let subs: Vec<(&AppSpec, u32)> = (0..N).map(|i| (specs[i % 3], i as u32 % 4)).collect();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim: stream_cfg(42),
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 40_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        },
    );
    let report = serve.run_with(|_| PolicyKind::Lru.build());
    assert_eq!(report.reports.len(), N);
    // `a` and `renamed` share one template; `b` differs structurally.
    assert_eq!(report.distinct_templates, 2);
}

#[test]
fn fifo_and_quota_streams_match_golden() {
    // A shorter stream across the other scheduler/quota corner, so tier-1
    // covers both dispatch disciplines end to end.
    let spec = little_app(2);
    let subs: Vec<(&AppSpec, u32)> = (0..64).map(|i| (&spec, i % 3)).collect();
    let mut lines = String::new();
    for quota in [QuotaKind::Unlimited, QuotaKind::Bytes(128 * 1024)] {
        let serve = ServeSim::new(
            &subs,
            ServeConfig {
                sim: stream_cfg(7),
                arrivals: ArrivalProcess::Poisson {
                    mean_gap_us: 25_000,
                },
                sched: ServeSched::Fifo,
                quota,
                resilience: Default::default(),
            },
        );
        let st = serve.run_with(|_| PolicyKind::Lru.build());
        assert!(st.peak_arena_slots <= subs.len() as u64 * 2);
        lines.push_str(&stream_line(&format!("fifo x64 quota {quota}"), &st));
    }
    check_golden("serve_stream_fifo.txt", &lines, REGEN);
}
