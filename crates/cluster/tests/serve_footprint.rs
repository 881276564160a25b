//! Scaling test for the serve hot path: a submission's cost must not grow
//! with the number of *other* submissions live beside it.
//!
//! An MRD fair-share stream of SP/CC/KM submissions (four tenants, round
//! robin) runs as a burst of 4 and as a burst of 16 submissions that all
//! arrive at t=0, so 4 and 16 of them are active at once. A counting
//! global allocator measures heap allocations per eviction and the run's
//! peak heap growth per active submission. Neither may grow as the active
//! count quadruples: victim selection hands each policy its own-blocks map
//! instead of re-splitting the node's resident map, candidate scans cover
//! the running submission's slot run only, and each MRD monitor's tables
//! span its own slots, not the shared arena.
//!
//! Measured (4 nodes, cache 30% of the largest template's footprint; the
//! "before" rows ran this file against the previous revision, where each
//! MRD monitor allocated per-block tables over the whole shared arena):
//!
//! | build  | active | allocs/eviction | peak growth/active |
//! |--------|--------|-----------------|--------------------|
//! | before |      4 | 7.29            | 59.7 KiB           |
//! | before |     16 | 5.95            | 114.9 KiB          |
//! | after  |      4 | 4.93            | 44.9 KiB           |
//! | after  |     16 | 3.62            | 46.4 KiB           |
//!
//! This file is its own test binary so the allocator counts nothing but
//! these runs.

use refdist_cluster::{
    ArrivalProcess, ClusterConfig, QuotaKind, ServeConfig, ServeSched, ServeSim, SimConfig,
};
use refdist_core::MrdPolicy;
use refdist_dag::AppSpec;
use refdist_workloads::{Workload, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and tracking live bytes and
/// their high-water mark.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TENANTS: usize = 4;

/// What one burst cost.
#[derive(Debug)]
struct Footprint {
    active: u64,
    allocs_per_eviction: f64,
    peak_growth_per_active: f64,
}

/// Serve `active` submissions that all arrive at t=0 (so all of them run
/// concurrently under fair-share) on a cache holding 30% of the largest
/// template's footprint, one MRD policy each.
fn run(specs: &[AppSpec], active: usize) -> Footprint {
    let footprint: u64 = specs
        .iter()
        .map(|s| s.cached_rdds().map(|r| r.total_size()).sum())
        .max()
        .unwrap_or(0);
    let mut cluster = ClusterConfig::main_cluster();
    cluster.nodes = 4;
    let cache = (footprint * 3 / 10 / cluster.nodes as u64).max(1);
    let mut cfg = ServeConfig::passthrough(SimConfig::new(cluster.with_cache(cache)).with_seed(42));
    cfg.arrivals = ArrivalProcess::Trace(vec![0; active]);
    cfg.sched = ServeSched::FairShare;
    cfg.quota = QuotaKind::Unlimited;
    let subs: Vec<(&AppSpec, u32)> = (0..active)
        .map(|i| (&specs[i % specs.len()], (i % TENANTS) as u32))
        .collect();
    let sim = ServeSim::new(&subs, cfg);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = sim.run_with(|_| Box::new(MrdPolicy::full()));
    let peak_growth = PEAK.load(Ordering::Relaxed) - base;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;

    let evictions: u64 = report.reports.iter().map(|r| r.stats.evictions).sum();
    let active = report.peak_active_apps;
    assert!(evictions > 0, "the stream must run under cache pressure");
    Footprint {
        active,
        allocs_per_eviction: allocs as f64 / evictions as f64,
        peak_growth_per_active: peak_growth as f64 / active as f64,
    }
}

#[test]
fn per_submission_cost_is_flat_in_active_submissions() {
    let params = WorkloadParams {
        partitions: 16,
        scale: 0.05,
        ..Default::default()
    };
    let specs: Vec<AppSpec> = [
        Workload::ShortestPaths,
        Workload::ConnectedComponents,
        Workload::KMeans,
    ]
    .iter()
    .map(|w| w.build(&params))
    .collect();
    let few = run(&specs, 4);
    let many = run(&specs, 16);
    eprintln!("4 active: {few:?}\n16 active: {many:?}");
    assert!(
        many.active >= 3 * few.active,
        "the caps must separate the runs: {few:?} vs {many:?}"
    );
    assert!(
        many.allocs_per_eviction <= 1.2 * few.allocs_per_eviction,
        "allocations per eviction grew with active submissions: {few:?} vs {many:?}"
    );
    assert!(
        many.peak_growth_per_active <= 1.2 * few.peak_growth_per_active,
        "peak heap growth per active submission grew: {few:?} vs {many:?}"
    );
}
