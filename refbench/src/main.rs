//! `refbench`: the repository's benchmark.
//!
//! Runs one workload for a fixed host-time budget, prints
//! every end-to-end metric by name with its unit and sample count, checks
//! that the simulator's outputs are correct and deterministic, and with
//! `--trace 1` adds a traced rep that attributes host time, calls and
//! allocations to each layer. The gated host times are normalized to a
//! reference loop timed on either side of every rep (see [`host`]). The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path refbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 42 [--seconds 20] [--reps 3] \
//!     [--trace 0|1] [--trace-out FILE] [--smoke]
//! ```
//!
//! Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
//! error.

mod host;
mod mem;
mod stats;
mod trace;
mod traced;
mod workloads;

#[cfg(test)]
mod json;

use stats::{tail_label, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{json_num, json_str};
use traced::{HookTable, Layer, HOOKS};
use workloads::{Bench, Outcome, Probe, Rep, Workload};

/// Set-up samples taken after each rep. Each sample spans at least
/// `SETUP_SAMPLE_S` seconds of back-to-back set-ups.
const SETUP_SAMPLES_PER_REP: usize = 10;
const SETUP_SAMPLE_S: f64 = 1e-3;

/// Worker threads of the paper sweep's timed reps (the host's cores).
const SWEEP_THREADS: usize = 2;

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

const USAGE: &str = "usage: refbench --workload <paper_sweep|scale_out|serve_mix|serve_churn>
                [--seed N] [--seconds S] [--reps R] [--trace 0|1]
                [--trace-out FILE] [--smoke]

  --seed N         master seed of inputs, simulation and arrivals (default 42)
  --seconds S      keep repeating the workload while another rep fits in
                   S host seconds (default 20; 0 with --smoke)
  --reps R         repeat at least R times (default 3; 2 with --smoke)
  --trace 1        after the timed reps, run one traced rep and report the
                   per-layer metrics
  --trace-out F    also write the traced rep as Chrome trace-event JSON
                   (implies --trace 1; one workload only)
  --smoke          toy sizes; without --workload, runs all four in one
                   process (host numbers then include earlier workloads'
                   retained heap, so only the checks are meaningful)";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut reps) = (42u64, None, None);
    let (mut trace, mut trace_out, mut smoke) = (false, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--reps" => {
                let r: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if !(1..=1000).contains(&r) {
                    return Err("--reps must be within 1..=1000".into());
                }
                reps = Some(r);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workloads = match workload.as_deref() {
        None if smoke => Workload::ALL.to_vec(),
        None => return Err("--workload is required".into()),
        Some(w) => vec![Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?],
    };
    if trace_out.is_some() && workloads.len() != 1 {
        return Err("--trace-out needs a single --workload".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { 20.0 }),
        reps: reps.unwrap_or(if smoke { 2 } else { 3 }),
        trace: trace || trace_out.is_some(),
        trace_out,
        smoke,
    })
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
    /// How the value was taken, for the human-readable line.
    note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    n: usize,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
        note: note.into(),
    }
}

/// The median of `values` as a metric, with quartiles in the note.
fn median_metric(name: &str, values: &[f64], unit: &'static str) -> Option<Metric> {
    let s = Summary::of(values)?;
    Some(metric(
        name,
        s.p50,
        unit,
        s.n,
        format!("median, q1 {}, q3 {}", fmt_value(s.q1), fmt_value(s.q3)),
    ))
}

/// Host times of the untraced reps, each taken beside a run of the
/// reference loop (see [`host`]).
#[derive(Debug, Default)]
struct HostTimes {
    /// Per rep: wall seconds, and the reference loop's seconds beside it.
    wall: Vec<(f64, f64)>,
    /// Per set-up sample: seconds, and the reference beside its rep.
    setup: Vec<(f64, f64)>,
    /// Per rep: peak RSS, MiB.
    rss: Vec<f64>,
}

impl HostTimes {
    fn normalized(samples: &[(f64, f64)]) -> Vec<f64> {
        samples
            .iter()
            .map(|&(s, r)| host::normalized(s, r))
            .collect()
    }

    fn raw(samples: &[(f64, f64)]) -> Vec<f64> {
        samples.iter().map(|&(s, _)| s).collect()
    }
}

/// The gated end-to-end metrics (`BENCHMARK.json` `end_to_end`), measured
/// untraced. Host times are normalized to the reference loop.
fn end_to_end(t: &HostTimes, out: &Outcome) -> Vec<Metric> {
    let mut m: Vec<Metric> = [
        median_metric("wall_s", &HostTimes::normalized(&t.wall), "s"),
        median_metric("setup_s", &HostTimes::normalized(&t.setup), "s"),
        median_metric("peak_rss_mb", &t.rss, "MiB"),
    ]
    .into_iter()
    .flatten()
    .collect();
    m.push(metric(
        "hit_ratio",
        out.hit_ratio(),
        "fraction",
        out.stats.accesses() as usize,
        "hits / accesses",
    ));
    if let Some(s) = Summary::of(&out.jcts_s) {
        m.push(metric(
            "sim_jct_p50_s",
            s.p50,
            "s",
            s.n,
            "simulated, median app",
        ));
    }
    m.push(metric(
        "slo_attainment",
        out.slo_attainment(),
        "fraction",
        out.submitted as usize,
        "met deadline / submitted, shed = missed",
    ));
    m
}

/// End-to-end numbers left ungated: the raw host times behind the
/// normalized ones, the JCT tail, which moves too much with the seed on
/// Poisson streams, and numbers absent or zero by design on some workloads.
/// Printed for the reader only.
fn informational(t: &HostTimes, out: &Outcome) -> Vec<Metric> {
    let mut m: Vec<Metric> = [
        median_metric("host_wall_s", &HostTimes::raw(&t.wall), "s"),
        median_metric("host_setup_s", &HostTimes::raw(&t.setup), "s"),
        median_metric(
            "reference_s",
            &t.wall.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
            "s",
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    if let Some(s) = Summary::of(&out.jcts_s) {
        m.push(metric(
            "sim_jct_tail_s",
            s.tail,
            "s",
            s.n,
            format!("simulated, {} app", tail_label(s.tail_q)),
        ));
    }
    m.push(metric(
        "failed_share",
        out.failed_share(),
        "fraction",
        out.submitted as usize,
        "(shed + aborted) / submitted",
    ));
    if let Some(r) = out.mrd_vs_lru_jct {
        let pairs = out.submitted as usize / 3;
        m.push(metric(
            "mrd_vs_lru_jct",
            r,
            "ratio",
            pairs,
            "geomean MRD/LRU JCT, paired",
        ));
    }
    m
}

/// What the traced rep measured, beyond its [`Rep`].
struct TracedRun {
    rep: Rep,
    probe: Probe,
    /// Untraced wall of the same work, seconds: the median rep, or on the
    /// paper sweep the sequential pass.
    untraced_wall_s: f64,
    /// 1-thread wall / (threads x parallel wall), paper sweep only.
    parallel_efficiency: Option<f64>,
}

fn hook_metrics(m: &mut Vec<Metric>, layer: Layer, t: &HookTable, run_s: f64) {
    let l = layer.name();
    for (name, h) in HOOKS.iter().zip(&t.hooks) {
        m.push(metric(
            format!("{l}.{name}.calls"),
            h.calls as f64,
            "count",
            1,
            "",
        ));
        m.push(metric(
            format!("{l}.{name}.busy_s"),
            h.total_ns as f64 / 1e9,
            "s",
            h.calls as usize,
            "",
        ));
    }
    m.push(metric(
        format!("{l}.victims"),
        t.victims as f64,
        "count",
        1,
        "",
    ));
    m.push(metric(
        format!("{l}.allocs"),
        t.allocs as f64,
        "count",
        1,
        "heap allocations in hooks",
    ));
    m.push(metric(
        format!("{l}.busy_share"),
        t.busy_ns() as f64 / 1e9 / run_s.max(1e-9),
        "ratio",
        1,
        "hook time / run span",
    ));
}

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), from the traced
/// rep. Every workload reports the same names; layers a workload does not
/// exercise read zero.
fn per_layer(t: &TracedRun) -> Vec<Metric> {
    let tr = &t.probe.tracer;
    let out = &t.rep.out;
    let run_s = tr.total_s("run");
    let mut m = Vec::new();

    let cells = Summary::of(&tr.durations("bench.sweep.cell"));
    m.push(metric(
        "bench.sweep.cell_s_p50",
        cells.map_or(0.0, |s| s.p50),
        "s",
        cells.map_or(0, |s| s.n),
        "",
    ));
    m.push(metric(
        "bench.sweep.cell_s_tail",
        cells.map_or(0.0, |s| s.tail),
        "s",
        cells.map_or(0, |s| s.n),
        cells.map_or(String::new(), |s| tail_label(s.tail_q)),
    ));
    m.push(metric(
        "bench.sweep.parallel_efficiency",
        t.parallel_efficiency.unwrap_or(0.0),
        "ratio",
        1,
        "1-thread wall / (threads x median parallel wall)",
    ));
    m.push(metric(
        "bench.sweep.mrd_vs_lru_jct",
        out.mrd_vs_lru_jct.unwrap_or(0.0),
        "ratio",
        out.submitted as usize / 3,
        "geomean MRD/LRU JCT over paired grid points",
    ));

    for (name, span) in [
        ("workloads.build_s", "workloads.build"),
        ("dag.plan_s", "dag.plan"),
        ("dag.slots_s", "dag.slots"),
        ("core.profile_s", "core.profile"),
    ] {
        m.push(metric(
            name,
            tr.total_s(span),
            "s",
            tr.durations(span).len(),
            "set-up",
        ));
    }

    let hooks = &t.probe.hooks;
    hook_metrics(&mut m, Layer::Core, &hooks.core, run_s);
    hook_metrics(&mut m, Layer::Policies, &hooks.policies, run_s);

    let self_s = (run_s - hooks.busy_ns() as f64 / 1e9).max(0.0);
    m.push(metric(
        "cluster.runtime.self_s",
        self_s,
        "s",
        1,
        "run span minus policy hooks",
    ));
    m.push(metric(
        "cluster.runtime.tasks",
        out.tasks as f64,
        "count",
        1,
        "",
    ));
    m.push(metric(
        "cluster.runtime.ns_per_task",
        if out.tasks == 0 {
            0.0
        } else {
            self_s * 1e9 / out.tasks as f64
        },
        "ns",
        out.tasks as usize,
        "",
    ));
    m.push(metric(
        "cluster.runtime.allocs",
        t.probe.run_allocs.saturating_sub(hooks.allocs()) as f64,
        "count",
        1,
        "run span minus policy hooks",
    ));
    m.push(metric(
        "cluster.runtime.alloc_peak_mb",
        t.probe.run_heap_peak as f64 / (1024.0 * 1024.0),
        "MiB",
        1,
        "peak heap growth in the run span",
    ));
    m.push(metric(
        "cluster.sched.home_placements",
        out.sched.home_placements as f64,
        "count",
        1,
        "",
    ));
    m.push(metric(
        "cluster.sched.remote_placements",
        out.sched.remote_placements as f64,
        "count",
        1,
        "",
    ));

    let s = &out.stats;
    for (name, v) in [
        ("hits", s.hits),
        ("misses", s.misses),
        ("remote_hits", s.remote_hits),
        ("disk_hits", s.disk_hits),
        ("recomputes", s.recomputes),
        ("evictions", s.evictions),
        ("purges", s.purges),
        ("bytes_evicted", s.bytes_evicted),
        ("prefetches", s.prefetches),
        ("prefetch_hits", s.prefetch_hits),
        ("wasted_prefetches", s.wasted_prefetches),
        ("lost_blocks", s.lost_blocks),
        ("bad_victims", s.bad_victims),
    ] {
        let unit = if name == "bytes_evicted" {
            "bytes"
        } else {
            "count"
        };
        m.push(metric(format!("store.{name}"), v as f64, unit, 1, ""));
    }
    m.push(metric(
        "store.prefetch_useful_ratio",
        if s.prefetches == 0 {
            0.0
        } else {
            s.prefetch_hits as f64 / s.prefetches as f64
        },
        "ratio",
        s.prefetches as usize,
        "prefetch hits / prefetches",
    ));

    let sv = out.serve.clone().unwrap_or_default();
    let subs = if out.serve.is_some() {
        out.submitted
    } else {
        0
    };
    for (name, v, unit) in [
        ("submissions", subs as f64, "count"),
        ("peak_active_apps", sv.peak_active_apps as f64, "count"),
        ("peak_arena_slots", sv.peak_arena_slots as f64, "count"),
        (
            "peak_resident_bytes",
            sv.peak_resident_bytes as f64,
            "bytes",
        ),
        ("distinct_templates", sv.distinct_templates as f64, "count"),
        ("cross_evictions", sv.cross_evictions as f64, "count"),
        ("self_evictions", sv.self_evictions as f64, "count"),
        ("queue_p99_s", sv.queue_p99_s, "s"),
        (
            "us_per_sub",
            if subs == 0 {
                0.0
            } else {
                run_s * 1e6 / subs as f64
            },
            "us",
        ),
    ] {
        m.push(metric(format!("cluster.serve.{name}"), v, unit, 1, ""));
    }

    let f = &out.faults;
    for (name, v) in [
        ("task_failures", f.task_failures),
        ("retries", f.retries),
        ("fault_recomputes", f.fault_recomputes),
        ("crashes", f.crashes),
        ("rejoins", f.rejoins),
        ("aborts", f.aborts),
        ("app_retries", sv.app_retries),
        ("shed", out.shed),
        ("degraded", sv.degraded),
    ] {
        m.push(metric(
            format!("cluster.faults.{name}"),
            v as f64,
            "count",
            1,
            "",
        ));
    }
    m.push(metric(
        "cluster.faults.failed_share",
        out.failed_share(),
        "fraction",
        out.submitted as usize,
        "(shed + aborted) / submitted",
    ));
    m.push(metric(
        "metrics.render_s",
        tr.total_s("metrics.render"),
        "s",
        1,
        "",
    ));
    m.push(metric(
        "trace.overhead_ratio",
        t.rep.wall_s / t.untraced_wall_s.max(1e-9),
        "ratio",
        1,
        "traced wall / untraced wall",
    ));
    m
}

/// One correctness check.
struct Check {
    ok: bool,
    what: String,
}

fn check(ok: bool, what: impl Into<String>) -> Check {
    Check {
        ok,
        what: what.into(),
    }
}

/// Checks every rep's outputs must pass on their own.
fn output_checks(w: Workload, out: &Outcome) -> Vec<Check> {
    let mut c = vec![
        check(
            out.stats.bad_victims == 0,
            format!("store.bad_victims = {} (must be 0)", out.stats.bad_victims),
        ),
        check(
            out.submitted == out.completed + out.aborted + out.shed,
            format!(
                "conservation: submitted {} = completed {} + aborted {} + shed {}",
                out.submitted, out.completed, out.aborted, out.shed
            ),
        ),
        check(
            out.completed > 0 && out.tasks > 0,
            format!("{} apps completed", out.completed),
        ),
    ];
    c.extend(out.problems.iter().map(|p| check(false, p.clone())));
    if w == Workload::ServeChurn {
        let retries = out.serve.as_ref().map_or(0, |s| s.app_retries);
        c.push(check(
            retries > 0 && out.shed > 0 && out.faults.crashes > 0,
            format!(
                "churn exercised: {retries} app retries, {} shed, {} crashes",
                out.shed, out.faults.crashes
            ),
        ));
    }
    c
}

/// Everything one workload produced.
struct WorkloadRun {
    workload: Workload,
    metrics: Vec<Metric>,
    correct: bool,
    attempted: usize,
    failed: usize,
}

fn run_workload(w: Workload, a: &Args) -> WorkloadRun {
    let bench = Bench {
        workload: w,
        seed: a.seed,
        smoke: a.smoke,
    };
    // Reps repeat until the minimum is met, stopping before another would
    // overrun the time budget. Set-up is cheap next to a rep, so it is
    // sampled on its own after every rep: spread over the whole run, its
    // median sees the same host as the reps' wall times do. Each sample
    // averages back-to-back set-ups over at least SETUP_SAMPLE_S, so
    // sub-microsecond set-ups are not lost in timer noise.
    let rss_ok = mem::reset_peak_rss();
    let (mut reps, mut times) = (Vec::<Rep>::new(), HostTimes::default());
    let (started, mut last) = (Instant::now(), 0.0);
    let mut before = host::reference_s();
    while reps.len() < a.reps || started.elapsed().as_secs_f64() + last <= a.seconds {
        let t = Instant::now();
        mem::reset_peak_rss();
        let rep = bench.rep(SWEEP_THREADS);
        if let Some(mb) = mem::peak_rss_mb().filter(|_| rss_ok) {
            times.rss.push(mb);
        }
        let mut setups = [0.0; SETUP_SAMPLES_PER_REP];
        for sample in &mut setups {
            let (mut n, mut total) = (0u32, 0.0);
            while total < SETUP_SAMPLE_S {
                total += bench.setup_sample();
                n += 1;
            }
            *sample = total / f64::from(n);
        }
        // The host's speed while the rep and its set-ups ran: the mean of
        // the reference loops on either side.
        let after = host::reference_s();
        let reference = (before + after) / 2.0;
        before = after;
        times.wall.push((rep.wall_s, reference));
        times.setup.extend(setups.map(|s| (s, reference)));
        reps.push(rep);
        last = t.elapsed().as_secs_f64();
    }
    let first = reps[0].out.clone();
    let mut checks = vec![check(
        reps.iter().all(|r| r.out.digest == first.digest),
        format!(
            "digest {:016x} identical across {} reps",
            first.digest,
            reps.len()
        ),
    )];
    checks.extend(output_checks(w, &first));
    let mut outs: Vec<u64> = reps.iter().map(|r| r.out.digest).collect();

    let median_wall = Summary::of(&HostTimes::raw(&times.wall))
        .expect("at least one rep")
        .p50;
    // The paper sweep's timed reps run on SWEEP_THREADS workers; one
    // sequential pass checks that the thread count leaves the outputs alone
    // and gives the parallel efficiency. The traced rep is sequential too,
    // so its overhead is taken against this pass.
    let mut untraced_wall = median_wall;
    let parallel_efficiency = (w == Workload::PaperSweep).then(|| {
        let seq = bench.rep(1);
        outs.push(seq.out.digest);
        checks.push(check(
            seq.out.digest == first.digest,
            format!("1-thread pass digest equals the {SWEEP_THREADS}-thread reps"),
        ));
        untraced_wall = seq.wall_s;
        seq.wall_s / (SWEEP_THREADS as f64 * median_wall)
    });
    let mut metrics = end_to_end(&times, &first);
    if !rss_ok {
        metrics.push(metric(
            "peak_rss_mb",
            f64::NAN,
            "MiB",
            0,
            "n/a: /proc unavailable",
        ));
    }
    let info = informational(&times, &first);

    let mut layer = Vec::new();
    if a.trace {
        let mut probe = Probe::default();
        let rep = bench.traced_rep(&mut probe);
        outs.push(rep.out.digest);
        checks.push(check(
            rep.out.digest == first.digest,
            "traced digest equals the untraced digest (wrapper forwards every hook)",
        ));
        let run = TracedRun {
            rep,
            probe,
            untraced_wall_s: untraced_wall,
            parallel_efficiency,
        };
        if let Some(path) = &a.trace_out {
            let written = std::fs::write(path, run.probe.tracer.to_chrome_json());
            checks.push(check(
                written.is_ok(),
                match written {
                    Ok(()) => format!("trace written to {}", path.display()),
                    Err(e) => format!("trace not written to {}: {e}", path.display()),
                },
            ));
        }
        layer = per_layer(&run);
    }

    // A rep failed when its outputs strayed from the first rep's; when the
    // first rep's outputs are themselves wrong, every rep did.
    let failed = if output_checks(w, &first).iter().all(|c| c.ok) {
        outs.iter().filter(|&&d| d != first.digest).count()
    } else {
        outs.len()
    };

    print_block(w, a, &reps, &metrics, &info, &layer, &checks);
    WorkloadRun {
        workload: w,
        metrics: if a.trace { layer } else { metrics },
        correct: checks.iter().all(|c| c.ok),
        attempted: outs.len(),
        failed,
    }
}

/// A metric value for reading: whole numbers in full, others to six
/// significant digits, `n/a` when it could not be measured.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.5e}")
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}:");
    for m in ms {
        println!(
            "  {:<36} {:>16} {:<8} n={:<8} {}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.n,
            m.note
        );
    }
}

fn print_block(
    w: Workload,
    a: &Args,
    reps: &[Rep],
    e2e: &[Metric],
    info: &[Metric],
    layer: &[Metric],
    checks: &[Check],
) {
    println!(
        "== {} (seed {}, {} reps{}) ==",
        w.name(),
        a.seed,
        reps.len(),
        if a.smoke { ", smoke size" } else { "" }
    );
    print_metrics("end-to-end", e2e);
    print_metrics("not gated", info);
    if !layer.is_empty() {
        print_metrics("per-layer (traced rep)", layer);
    }
    println!("checks:");
    for c in checks {
        println!("  {:<4} {}", if c.ok { "ok" } else { "FAIL" }, c.what);
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(runs: &[WorkloadRun]) -> String {
    let correct = runs.iter().all(|r| r.correct);
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in runs {
        for m in r.metrics.iter().filter(|m| m.value.is_finite()) {
            let name = if runs.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", r.workload.name(), m.name)
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&name),
                json_num(m.value),
                json_str(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<WorkloadRun> = args
        .workloads
        .iter()
        .map(|&w| run_workload(w, &args))
        .collect();
    println!("{}", result_json(&runs));
    if runs.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_defaults_and_errors() {
        let a = args("--workload serve_mix --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, vec![Workload::ServeMix]);
        assert_eq!((a.seed, a.seconds, a.reps, a.trace), (7, 10.0, 3, false));
        let a = args("--workload paper_sweep --trace 1").unwrap();
        assert_eq!(
            (a.workloads.len(), a.seed, a.seconds, a.trace),
            (1, 42, 20.0, true)
        );
        let a = args("--smoke").unwrap();
        assert_eq!((a.workloads.len(), a.seconds, a.reps), (4, 0.0, 2));
        let a = args("--workload scale_out --trace-out t.json").unwrap();
        assert!(a.trace && a.trace_out.is_some());
        for bad in [
            "",
            "--workload nope",
            "--workload scale_out --trace 2",
            "--workload scale_out --seed -1",
            "--workload scale_out --seconds -3",
            "--workload scale_out --reps 0",
            "--workload scale_out --bogus",
            "--workload",
            "--workload all",
            "--smoke --trace-out t.json",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn values_print_readably_and_unmeasured_ones_as_na() {
        assert_eq!(fmt_value(f64::NAN), "n/a");
        assert_eq!(fmt_value(882.0), "882");
        assert_eq!(fmt_value(2.5), "2.500000");
        assert_eq!(fmt_value(0.0000123), "1.23000e-5");
    }

    /// One metric list of each kind, from empty measurements.
    fn emitted() -> (Vec<Metric>, Vec<Metric>) {
        let out = Outcome {
            jcts_s: vec![1.0],
            submitted: 1,
            ..Default::default()
        };
        let rep = Rep {
            setup_s: 1.0,
            wall_s: 1.0,
            out,
        };
        let times = HostTimes {
            wall: vec![(1.0, 0.1)],
            setup: vec![(1.0, 0.1)],
            rss: vec![1.0],
        };
        let e2e = end_to_end(&times, &rep.out);
        let traced = TracedRun {
            rep,
            probe: Probe::default(),
            untraced_wall_s: 1.0,
            parallel_efficiency: None,
        };
        (e2e, per_layer(&traced))
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let (e2e, layer) = emitted();
        let run = |w, metrics| WorkloadRun {
            workload: w,
            metrics,
            correct: true,
            attempted: 3,
            failed: 0,
        };
        let doc = json::parse(&result_json(&[run(Workload::ScaleOut, e2e.clone())])).unwrap();
        let Value::Object(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        // Several workloads in one line are told apart by prefix.
        let both = [run(Workload::ScaleOut, e2e), run(Workload::ServeMix, layer)];
        let doc = json::parse(&result_json(&both)).unwrap();
        let m = doc.get("metrics").unwrap();
        assert!(m.get("scale_out.wall_s").is_some());
        assert!(m.get("serve_mix.cluster.serve.us_per_sub").is_some());
        assert_eq!(doc.get("attempted"), Some(&Value::Num(6.0)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    let s = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let names = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        let (e2e, layer) = emitted();
        assert_eq!(listed("end_to_end"), names(e2e));
        assert_eq!(listed("per_layer"), names(layer));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
