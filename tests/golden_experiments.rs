//! Golden-file tests for experiment text output.
//!
//! Two small experiments (Table 1 reference-distance stats and the Figure 5
//! graph-workload sweep) are rendered on a tiny fixed configuration and
//! compared byte-for-byte against checked-in snapshots under
//! `tests/golden/`. Any change to workload DAGs, the simulator, policy
//! behaviour, or table formatting shows up here as a diff.
//!
//! To regenerate the snapshots after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_experiments
//! ```
//!
//! then review the diff of `tests/golden/*.txt` before committing.

use refdist::bench::{
    experiments, run_one, EngineScratch, ExpContext, PolicySpec, PreparedWorkload, SweepOptions,
};
use refdist::cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, QuotaKind, ResilienceConfig, ServeConfig,
    ServeSched, ServeSim, SimConfig,
};
use refdist::core::ProfileMode;
use refdist::dag::AppSpec;
use refdist::policies::PolicyKind;
use refdist::workloads::Workload;
use std::fs;
use std::path::PathBuf;

/// The fixed context used for snapshots: the Main preset, shrunk far below
/// `quick()` so each snapshot renders in milliseconds.
fn golden_ctx() -> ExpContext {
    let mut ctx = ExpContext::main().quick();
    ctx.params.partitions = 8;
    ctx.params.scale = 0.02;
    ctx.cluster.nodes = 4;
    ctx
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_experiments`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "output diverged from {}; if the change is intentional, regenerate \
         with `UPDATE_GOLDEN=1 cargo test --test golden_experiments`",
        path.display()
    );
}

#[test]
fn table1_matches_golden() {
    // Thread count is explicit (not 0 = auto); the sweep engine guarantees
    // the text is identical at any width regardless.
    let out = experiments::table1_text(&golden_ctx(), &SweepOptions::default().threads(2));
    check_golden("table1.txt", &out);
}

#[test]
fn chaos_crash_matches_golden() {
    // One scripted-crash scenario pinned byte-for-byte: node 1 crashes at
    // stage 2 and rejoins cold two stages later, node 3 is wiped (and
    // immediately replaced) at stage 4. The run summaries — JCT, cache
    // stats, and the fault accounting line — must not move unless the
    // fault engine itself changes.
    let mut ctx = golden_ctx();
    ctx.faults.crash_with_rejoin(1, 2, 2);
    ctx.faults.node_failure(3, 4);
    let prep = PreparedWorkload::new(Workload::ShortestPaths, &ctx.params, ProfileMode::Recurring);
    let footprint: u64 = prep.spec.cached_rdds().map(|r| r.total_size()).sum();
    let cache = (((footprint as f64) * 0.4 / ctx.cluster.nodes as f64) as u64).max(1);
    let mut scratch = EngineScratch::default();
    let mut out = String::new();
    for policy in [PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull] {
        let r = run_one(&prep, &ctx, cache, policy, &mut scratch);
        assert!(r.aborted.is_none(), "scripted crashes never abort");
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.rejoins, 1);
        out.push_str(&r.summary());
        out.push('\n');
    }
    check_golden("chaos_crash.txt", &out);
}

#[test]
fn serve_fair_matches_golden() {
    // A 3-tenant fair-share stream pinned byte-for-byte: the per-tenant
    // mean/p95/p99 JCT lines and the cross-tenant eviction table must not
    // move unless the serving engine (arrivals, inter-job scheduling, quota
    // enforcement, or tenant attribution) itself changes.
    let ctx = golden_ctx();
    let spec = Workload::ShortestPaths.build(&ctx.params);
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
    let cache = (((footprint as f64) * 0.3 / ctx.cluster.nodes as f64) as u64).max(1);
    let subs: Vec<(&AppSpec, u32)> = vec![(&spec, 0), (&spec, 1), (&spec, 2)];
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim: SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed),
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 100_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::Unlimited,
            resilience: Default::default(),
        },
    );
    let report = serve.run_with(|_| PolicyKind::Lru.build());
    check_golden("serve_fair.txt", &report.summary());
}

#[test]
fn serve_churn_matches_golden() {
    // The resilient-serving end-to-end pinned byte-for-byte: a 6-submission
    // stream over 3 tenants rides out wall-clock node churn plus a
    // retry-exhausting task-fault storm, with app-level retry (budget 3),
    // a bounded admission queue (2 active, queue cap 2) and a per-submission
    // SLO deadline. The summary — per-tenant JCT lines, cross-tenant
    // evictions, the stream-level resilience line, and the SLO attainment
    // lines — must not move unless the resilience engine itself changes.
    let mut ctx = golden_ctx();
    // The same deterministic abort trigger as the crash-mid-stream test:
    // at master seed 11 some submission exhausts its 2-attempt task budget,
    // which is what hands the app-level retry path real work.
    ctx.faults.task_failure_p = 0.04;
    ctx.faults.max_task_attempts = 2;
    // Wall-clock churn: a node dies about every 300ms of cluster time and
    // takes 100ms to come back cold.
    ctx.faults.node_churn(300_000, 100_000);
    let spec = Workload::ShortestPaths.build(&ctx.params);
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
    let cache = (((footprint as f64) * 0.5 / ctx.cluster.nodes as f64) as u64).max(1);
    let subs: Vec<(&AppSpec, u32)> = (0..6u32).map(|i| (&spec, i % 3)).collect::<Vec<_>>();
    let mut sim = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(11);
    sim.faults = ctx.faults.clone();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim,
            arrivals: ArrivalProcess::Trace(vec![0, 50_000, 100_000, 150_000, 200_000, 250_000]),
            sched: ServeSched::FairShare,
            quota: QuotaKind::Unlimited,
            resilience: ResilienceConfig {
                max_app_attempts: 3,
                retry_backoff_us: 50_000,
                max_retry_backoff_us: 400_000,
                admission: AdmissionPolicy::Queue,
                max_active_apps: Some(2),
                queue_cap: Some(2),
                deadline_us: Some(9_000_000),
            },
        },
    );
    let report = serve.run_with(|_| PolicyKind::Lru.build());
    let res = report
        .resilience
        .as_ref()
        .expect("non-passive config reports resilience");
    assert!(
        res.total_retries() > 0,
        "the fault storm must force at least one app-level retry"
    );
    let crashes: u64 = report.reports.iter().map(|r| r.faults.crashes).sum();
    assert!(crashes > 0, "churn must take at least one node down");
    assert!(
        res.queue_delay_us.iter().any(|&d| d > 0),
        "the 2-active cap must queue at least one arrival"
    );
    let summary = report.summary();
    assert!(summary.contains("resilience:"), "{summary}");
    assert!(summary.contains("slo:"), "{summary}");
    check_golden("serve_churn.txt", &summary);
}

#[test]
fn serve_survives_a_tenant_crash_mid_stream() {
    // Serve x chaos: a retry-exhausting fault storm aimed at the stream
    // must abort only the submissions it hits — the other tenants' apps run
    // to completion and the report stays attributable per tenant.
    let mut ctx = golden_ctx();
    // Each submission draws from its own per-app fault stream, so a
    // moderate failure rate with a tight retry budget splits the stream
    // deterministically: at master seed 11, the third submission exhausts
    // its retries and aborts while the other two ride out their failures.
    ctx.faults.task_failure_p = 0.04;
    ctx.faults.max_task_attempts = 2;
    let spec = Workload::ShortestPaths.build(&ctx.params);
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
    let cache = (((footprint as f64) * 0.5 / ctx.cluster.nodes as f64) as u64).max(1);
    let subs: Vec<(&AppSpec, u32)> = vec![(&spec, 0), (&spec, 1), (&spec, 2)];
    let mut sim = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(11);
    sim.faults = ctx.faults.clone();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim,
            arrivals: ArrivalProcess::Trace(vec![0, 50_000, 100_000]),
            sched: ServeSched::FairShare,
            quota: QuotaKind::Unlimited,
            resilience: Default::default(),
        },
    );
    let report = serve.run_with(|_| PolicyKind::Lru.build());
    assert_eq!(report.reports.len(), 3, "every submission gets a report");
    let aborted: Vec<usize> = report
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.aborted.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(
        !aborted.is_empty(),
        "the fault storm must abort at least one submission"
    );
    assert!(
        aborted.len() < 3,
        "an abort must not cascade to the other tenants"
    );
    for (i, r) in report.reports.iter().enumerate() {
        if let Some(a) = r.aborted {
            assert_eq!(a.app as usize, i, "abort is stamped with the owning app");
            assert_eq!(r.faults.aborts, 1);
        } else {
            assert!(r.jct.micros() > 0, "surviving tenant {i} must finish");
            assert_eq!(r.faults.aborts, 0);
        }
    }
    let summaries = report.tenant_summaries();
    assert_eq!(summaries.len(), 3);
    let total_aborts: u64 = summaries.iter().map(|t| t.aborts).sum();
    assert_eq!(total_aborts, aborted.len() as u64);
}

#[test]
fn fig5_matches_golden() {
    let mut ctx = golden_ctx();
    ctx.cluster = ClusterConfig::lrc_cluster();
    ctx.cluster.nodes = 4;
    let out = experiments::fig5_text(&ctx, &SweepOptions::default().threads(2));
    check_golden("fig5.txt", &out);
}

/// Run one `refdist` invocation through the CLI's own parse/execute path.
fn cli(argv: &str) -> String {
    let args: Vec<String> = argv.split_whitespace().map(String::from).collect();
    refdist::cli::execute(refdist::cli::parse(&args).expect("argv parses"))
        .unwrap_or_else(|e| panic!("`refdist {argv}` failed: {e}"))
}

#[test]
fn cli_serve_mix_resilient_matches_golden() {
    // The whole `refdist serve` output pinned byte-for-byte: a two-template
    // mix over three tenants under churn, app retries, a 2-active queueing
    // gate and a deadline, across the default sched x quota grid. Header,
    // resilience line, per-section summaries, peaks and interning lines must
    // not move unless the serve command or the engine behind it changes.
    let out = cli(
        "serve --mix SP,CC --policy mrd --tenants 3 --apps 9 --gap-ms 20 --nodes 3 \
         --partitions 8 --scale 0.02 --cache-fraction 0.3 --churn 200,100 \
         --app-retries 2 --max-active 2 --admission queue --deadline 20000000",
    );
    check_golden("cli_serve_mix.txt", &out);
}

#[test]
fn cli_chaos_serve_csv_matches_golden() {
    // The SLO-attainment-vs-churn-rate curve pinned byte-for-byte, including
    // each policy's self-calibrated deadline (twice its fault-free max JCT).
    let out = cli(
        "chaos SP --serve --policies lru,mrd --rates 0,0.5,1 --tenants 2 --apps 6 \
         --gap-ms 50 --nodes 3 --partitions 8 --scale 0.02 --cache-fraction 0.3 \
         --app-retries 2 --csv",
    );
    check_golden("cli_chaos_serve.csv", &out);
}

#[test]
fn refdist_exp_prints_the_checked_in_dag_analyses() {
    // `refdist exp` is the one entry point to the experiment table. The
    // three experiments that run no simulation render at full size in
    // milliseconds, so the tier-1 tests check them against the checked-in
    // files (`ci.sh` checks all of them).
    for name in ["exp_table1", "exp_table3", "exp_fig2"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("experiments")
            .join(format!("{name}.txt"));
        let expected =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_eq!(
            cli(&format!("exp {name} --threads 2")),
            expected,
            "`refdist exp {name}` differs from {}",
            path.display()
        );
    }
}
