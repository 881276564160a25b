//! Determinism-under-concurrency regression tests: the contract the sweep
//! engine must uphold is that the *aggregated* output of a grid is
//! byte-identical no matter how many worker threads ran it (ISSUE 1).

use refdist_bench::{run_sweep, ExpContext, PolicySpec, ServeAxis, SweepGrid, SweepOptions};
use refdist_cluster::{ArrivalProcess, QuotaKind, ServeSched};
use refdist_workloads::Workload;

fn tiny_ctx() -> ExpContext {
    let mut ctx = ExpContext::main().quick();
    ctx.params.partitions = 8;
    ctx.params.scale = 0.02;
    ctx.cluster.nodes = 4;
    ctx
}

fn tiny_grid() -> SweepGrid {
    SweepGrid::new(
        vec![Workload::ShortestPaths, Workload::ConnectedComponents],
        vec![PolicySpec::Lru, PolicySpec::MrdFull],
    )
    .fractions(&[0.3, 0.7])
    .seeds(&[42, 7])
}

#[test]
fn aggregated_output_is_byte_identical_across_thread_counts() {
    let ctx = tiny_ctx();
    let grid = tiny_grid();
    let sequential = run_sweep(&grid, &ctx, &SweepOptions::default().threads(1));
    for threads in [2, 4, 8] {
        let parallel = run_sweep(&grid, &ctx, &SweepOptions::default().threads(threads));
        assert_eq!(
            sequential.csv(),
            parallel.csv(),
            "CSV diverged at {threads} threads"
        );
        assert_eq!(
            sequential.table(),
            parallel.table(),
            "table diverged at {threads} threads"
        );
    }
}

#[test]
fn a_cell_reports_the_same_in_any_grid() {
    // The experiments read cells out of grids of many workloads, policies
    // and fractions: a cell's report must depend on the cell and the
    // context alone, not on what else its grid holds or which worker ran
    // what before it.
    let ctx = tiny_ctx();
    let (w, fraction) = (Workload::ShortestPaths, 0.4);
    let policies = [
        PolicySpec::Lru,
        PolicySpec::Lrc,
        PolicySpec::MrdFull,
        PolicySpec::Belady,
    ];
    let crowded = SweepGrid::new(
        [Workload::KMeans, w, Workload::ConnectedComponents],
        policies,
    )
    .fractions(&[0.15, fraction, 0.8])
    .seeds(&[ctx.seed]);
    for threads in [1, 3] {
        let res = run_sweep(&crowded, &ctx, &SweepOptions::default().threads(threads));
        for policy in policies {
            let alone = SweepGrid::new([w], [policy])
                .fractions(&[fraction])
                .seeds(&[ctx.seed]);
            let alone = run_sweep(&alone, &ctx, &SweepOptions::default().threads(1));
            let crowded = &res.get(w, policy, fraction, ctx.seed).unwrap().report;
            assert_eq!(
                format!("{crowded:?}"),
                format!("{:?}", alone.cells[0].report),
                "{policy:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Not just 1-vs-N: two N-thread runs must agree with each other too
    // (guards against any residual order- or time-dependence).
    let ctx = tiny_ctx();
    let grid = tiny_grid();
    let a = run_sweep(&grid, &ctx, &SweepOptions::default().threads(4));
    let b = run_sweep(&grid, &ctx, &SweepOptions::default().threads(4));
    assert_eq!(a.csv(), b.csv());
}

#[test]
fn cells_come_back_in_canonical_order() {
    let ctx = tiny_ctx();
    let grid = tiny_grid();
    let res = run_sweep(&grid, &ctx, &SweepOptions::default().threads(4));
    let expected: Vec<String> = grid.cells().iter().map(|c| c.key()).collect();
    let got: Vec<String> = res.cells.iter().map(|c| c.cell.key()).collect();
    assert_eq!(got, expected);
}

#[test]
fn master_seed_changes_every_cell_seed() {
    let grid = tiny_grid();
    for cell in grid.cells() {
        assert_ne!(cell.sim_seed(42), cell.sim_seed(43));
    }
}

#[test]
fn chaos_cells_are_byte_identical_across_thread_counts() {
    // The chaos axis injects stochastic faults, drawn from a per-cell
    // fault stream — the resilience curve must be as thread-count-proof
    // as the fault-free grid, and actually exercise the fault machinery.
    let ctx = tiny_ctx();
    let grid = SweepGrid::new(
        vec![Workload::ShortestPaths],
        vec![PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull],
    )
    .fractions(&[0.3])
    .chaos(&[0.0, 0.05, 0.1]);
    let sequential = run_sweep(&grid, &ctx, &SweepOptions::default().threads(1));
    for threads in [2, 4, 8] {
        let parallel = run_sweep(&grid, &ctx, &SweepOptions::default().threads(threads));
        assert_eq!(
            sequential.csv(),
            parallel.csv(),
            "chaos CSV diverged at {threads} threads"
        );
        for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "chaos report diverged at {threads} threads for {}",
                a.cell.key()
            );
        }
    }
    let faulted = sequential
        .cells
        .iter()
        .filter(|c| c.cell.chaos > 0.0)
        .filter(|c| !c.report.faults.is_empty())
        .count();
    assert!(faulted > 0, "no chaos cell drew a single fault");
}

#[test]
fn serve_cells_are_byte_identical_across_thread_counts() {
    // The tenancy axis multiplexes whole applications through one shared
    // engine; its aggregated output must stay thread-count-proof, including
    // when it composes with the chaos axis.
    let ctx = tiny_ctx();
    let grid = SweepGrid::new(
        vec![Workload::ShortestPaths],
        vec![PolicySpec::Lru, PolicySpec::MrdFull],
    )
    .fractions(&[0.3])
    .chaos(&[0.0, 0.05])
    .serve(&[
        None,
        Some(ServeAxis {
            tenants: 3,
            mean_gap_us: 100_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        }),
        Some(ServeAxis {
            tenants: 2,
            mean_gap_us: 50_000,
            sched: ServeSched::Fifo,
            quota: QuotaKind::Unlimited,
            resilience: Default::default(),
        }),
    ]);
    let sequential = run_sweep(&grid, &ctx, &SweepOptions::default().threads(1));
    for threads in [2, 4, 8] {
        let parallel = run_sweep(&grid, &ctx, &SweepOptions::default().threads(threads));
        assert_eq!(
            sequential.csv(),
            parallel.csv(),
            "serve CSV diverged at {threads} threads"
        );
        for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "serve report diverged at {threads} threads for {}",
                a.cell.key()
            );
        }
    }
    // The multi-tenant cells really ran multi-tenant streams.
    let fair = sequential
        .cells
        .iter()
        .find(|c| c.cell.serve.is_some_and(|ax| ax.tenants == 3))
        .expect("3-tenant cell ran");
    assert_eq!(fair.report.tasks % 3, 0);
    assert!(fair.report.app.contains('+'));
}

#[test]
fn streaming_serve_cells_are_byte_identical_across_thread_counts() {
    // Serve cells run the *streaming* driver (lazy admission, drain-then-
    // retire, slot-range recycling) — its byte-determinism contract is the
    // same as every other cell's: one worker thread or eight, the
    // aggregated output cannot move. Denser streams than the mixed-axis
    // test above, so admissions and retirements actually interleave.
    let ctx = tiny_ctx();
    let grid = SweepGrid::new(
        vec![Workload::ShortestPaths],
        vec![PolicySpec::Lru, PolicySpec::MrdFull],
    )
    .fractions(&[0.3])
    .serve(&[
        Some(ServeAxis {
            tenants: 4,
            mean_gap_us: 20_000,
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            resilience: Default::default(),
        }),
        Some(ServeAxis {
            tenants: 5,
            mean_gap_us: 10_000,
            sched: ServeSched::Fifo,
            quota: QuotaKind::Unlimited,
            resilience: Default::default(),
        }),
    ]);
    let sequential = run_sweep(&grid, &ctx, &SweepOptions::default().threads(1));
    for threads in [2, 8] {
        let parallel = run_sweep(&grid, &ctx, &SweepOptions::default().threads(threads));
        assert_eq!(
            sequential.csv(),
            parallel.csv(),
            "streaming serve CSV diverged at {threads} threads"
        );
        for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "streaming serve report diverged at {threads} threads for {}",
                a.cell.key()
            );
        }
    }
}

#[test]
fn poisson_arrivals_replay_from_the_master_seed() {
    // The arrival stream is a dedicated RNG stream keyed only by the master
    // seed: replaying a seed reproduces the schedule exactly, different
    // seeds produce different schedules, and a fixed trace draws nothing.
    let p = ArrivalProcess::Poisson {
        mean_gap_us: 250_000,
    };
    let a = p.arrivals(16, 42);
    assert_eq!(a, p.arrivals(16, 42), "same seed must replay");
    assert_ne!(a, p.arrivals(16, 43), "different seed must diverge");
    assert_eq!(a[0], 0, "first arrival anchors the stream at t=0");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
    let t = ArrivalProcess::Trace(vec![5, 10, 20]);
    assert_eq!(
        t.arrivals(3, 1),
        t.arrivals(3, 999),
        "trace ignores the seed"
    );
}
