//! Every experiment of the reproduction, as a library function.
//!
//! Each `*_text` function renders one experiment's full stdout and returns
//! it as a `String`. [`EXPERIMENTS`] pairs each with its binary's name and
//! cluster preset: an `exp_*` binary prints one entry ([`print()`]), `run_all`
//! renders them all in-process, and the golden-file tests (`tests/golden/`)
//! snapshot some on a reduced context.
//!
//! Three shapes of experiment share this one harness:
//!
//! * **cache sweeps** (Figures 4–12) run one [`SweepGrid`] per profile mode
//!   or workload parameter set through [`run_sweep`] and read
//!   [`SweepResults::best_normalized`] (the paper's §5.3 method: a policy's
//!   best JCT normalized to LRU at the same cache size) or
//!   [`SweepResults::get`];
//! * **DAG analysis** (Table 1, Table 3, Figure 2) runs no simulation;
//! * **fixed-cache single runs** (Belady, overheads, ablations) run each
//!   configuration once at the context's seed.
//!
//! Everything is deterministic for a fixed [`ExpContext`]: parallelism
//! comes from the sweep engine's worker pool, whose aggregation order is
//! canonical regardless of worker count.

use crate::sweep::pool_map;
use crate::{
    cache_for_fraction, run_one, run_sweep, CellResult, EngineScratch, ExpContext, PolicySpec,
    PreparedWorkload, SweepGrid, SweepOptions, SweepResults, SWEEP_FRACTIONS,
};
use refdist_cluster::{RunReport, SimConfig, Simulation};
use refdist_core::{MrdConfig, MrdPolicy, ProfileMode, TieBreak};
use refdist_dag::{AppPlan, AppProfile, AppSpec, RddId, RefAnalyzer, StageId, StorageLevel};
use refdist_metrics::{geomean, human_bytes, linear_fit, BarChart, Summary, TextTable};
use refdist_policies::CachePolicy;
use refdist_workloads::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One experiment: the name of its binary and output file, the cluster
/// preset it runs on, and the function that renders its stdout.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `exp_*` binary, and the file `experiments/<name>.txt`.
    pub name: &'static str,
    /// The cluster preset: [`ExpContext::main`], [`ExpContext::lrc`] or
    /// [`ExpContext::memtune`].
    pub preset: fn() -> ExpContext,
    /// Renders the experiment's stdout.
    pub text: fn(&ExpContext, &SweepOptions) -> String,
}

impl Experiment {
    /// Render the experiment on its preset, with `REFDIST_QUICK` applied
    /// ([`ExpContext::from_env`]).
    pub fn render(&self, opts: &SweepOptions) -> String {
        (self.text)(&(self.preset)().from_env(), opts)
    }
}

/// Every experiment, in the canonical order `run_all` renders them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "exp_table1", preset: ExpContext::main, text: table1_text },
    Experiment { name: "exp_table3", preset: ExpContext::main, text: table3_text },
    Experiment { name: "exp_fig2", preset: ExpContext::main, text: fig2_text },
    Experiment { name: "exp_fig4", preset: ExpContext::main, text: fig4_text },
    Experiment { name: "exp_fig5", preset: ExpContext::lrc, text: fig5_text },
    Experiment { name: "exp_fig6", preset: ExpContext::memtune, text: fig6_text },
    Experiment { name: "exp_fig7", preset: ExpContext::lrc, text: fig7_text },
    Experiment { name: "exp_fig8", preset: ExpContext::main, text: fig8_text },
    Experiment { name: "exp_fig9", preset: ExpContext::main, text: fig9_text },
    Experiment { name: "exp_fig10", preset: ExpContext::main, text: fig10_text },
    Experiment { name: "exp_fig11", preset: ExpContext::main, text: fig11_text },
    Experiment { name: "exp_fig12", preset: ExpContext::main, text: fig12_text },
    Experiment { name: "exp_belady", preset: ExpContext::main, text: belady_text },
    Experiment { name: "exp_overheads", preset: ExpContext::main, text: overheads_text },
    Experiment { name: "exp_ablations", preset: ExpContext::main, text: ablations_text },
];

/// Print the experiment named `name`: the whole body of every `exp_*`
/// binary. Sweep progress goes to stderr, so stdout is deterministic.
pub fn print(name: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"));
    print!("{}", exp.render(&SweepOptions::default().progress(true)));
}

/// Run `policies` and the LRU baseline over the paper's cache sweep
/// ([`SWEEP_FRACTIONS`]) of `workloads`, at the context's seed.
fn sweep_vs_lru(
    ctx: &ExpContext,
    opts: &SweepOptions,
    workloads: &[Workload],
    policies: &[PolicySpec],
) -> SweepResults {
    let mut all = vec![PolicySpec::Lru];
    all.extend_from_slice(policies);
    let grid = SweepGrid::new(workloads, all).seeds(&[ctx.seed]);
    run_sweep(&grid, ctx, opts)
}

/// `policy`'s best JCT on `w` normalized to LRU at the same cache point,
/// with the LRU and policy hit ratios there.
fn best_vs_lru(res: &SweepResults, w: Workload, policy: PolicySpec) -> (f64, f64, f64) {
    res.best_normalized(w, PolicySpec::Lru, policy)
        .expect("the grid runs LRU and the policy on every workload")
}

/// The cell of `(w, policy)` at cache `fraction` and the context's seed.
fn cell<'r>(
    res: &'r SweepResults,
    ctx: &ExpContext,
    w: Workload,
    policy: PolicySpec,
    fraction: f64,
) -> &'r CellResult {
    res.get(w, policy, fraction, ctx.seed)
        .expect("the grid holds the cell")
}

/// Figure 2 — per-stage policy metrics across the ConnectedComponents
/// workflow (no simulations; pure DAG analysis).
pub fn fig2_text(ctx: &ExpContext, _opts: &SweepOptions) -> String {
    let mut ctx = ctx.clone();
    // A compact CC instance keeps the table readable.
    ctx.params.iterations = Some(4);
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let profile = RefAnalyzer::new(&spec, &plan).profile();

    // The interesting RDDs: cached, referenced at least twice.
    let rdds: Vec<RddId> = profile
        .per_rdd
        .values()
        .filter(|r| r.count() >= 2)
        .map(|r| r.rdd)
        .collect();

    // Total references per RDD (LRC's initial count).
    let totals: HashMap<RddId, usize> = rdds
        .iter()
        .map(|&r| (r, profile.refs(r).unwrap().count()))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: per-stage policy metrics for {} (cached RDDs with >=2 refs)",
        spec.name
    );
    let _ = writeln!(
        out,
        "cell = LRU idle / LRC remaining / MRD distance ('-' = not created yet, inf = dead)\n"
    );

    let mut header: Vec<String> = vec!["Stage".into(), "Job".into()];
    header.extend(rdds.iter().map(|r| spec.rdd(*r).name.clone()));
    let mut t = TextTable::new(header);

    for stage in &plan.stages {
        let mut row = vec![stage.id.to_string(), stage.job.to_string()];
        for &r in &rdds {
            let refs = profile.refs(r).unwrap();
            let creation = refs.stages[0];
            if stage.id < creation {
                row.push("-".into());
                continue;
            }
            // LRU: stages since the most recent reference at or before now.
            let last_ref = refs
                .stages
                .iter()
                .rev()
                .find(|&&s| s <= stage.id)
                .copied()
                .unwrap_or(creation);
            let lru = stage.id.0 - last_ref.0;
            // LRC: total minus references consumed so far.
            let consumed = refs.stages.iter().filter(|&&s| s <= stage.id).count();
            let lrc = totals[&r] - consumed;
            // MRD: distance to the next reference strictly after now (a
            // reference *at* the current stage is being consumed now).
            let mrd = match refs.next_ref_at_or_after(StageId(stage.id.0 + 1)) {
                Some(s) => (s.0 - stage.id.0).to_string(),
                None => "inf".into(),
            };
            let referenced_now = refs.stages.contains(&stage.id);
            let mark = if referenced_now { "*" } else { "" };
            row.push(format!("{mark}{lru}/{lrc}/{mrd}"));
        }
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "'*' marks a stage that references the RDD.");
    let _ = writeln!(
        out,
        "Observations (paper §3.3): LRU punishes reference gaps; LRC strands\n\
         single-reference RDDs behind high-count peers; MRD keeps whichever\n\
         block is referenced next and marks dead data inf for eager eviction."
    );
    out
}

/// Figure 4 — best performance of MRD modes against LRU on the Main
/// cluster, over a full (workload × policy × cache-size) sweep grid.
///
/// Paper headline: eviction-only 62% of LRU's JCT on average, prefetch-only
/// 67%, full MRD 53% (as low as 20% for SCC, as high as 88% for DT).
pub fn fig4_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let modes = [
        PolicySpec::MrdEvict,
        PolicySpec::MrdPrefetch,
        PolicySpec::MrdFull,
    ];
    let res = sweep_vs_lru(ctx, opts, Workload::sparkbench(), &modes);
    // Per workload: each mode's best normalized JCT, and the (LRU, full
    // MRD) hit ratios at full MRD's best point.
    let rows: Vec<(Workload, [f64; 3], (f64, f64))> = Workload::sparkbench()
        .iter()
        .map(|&w| {
            let best = modes.map(|m| best_vs_lru(&res, w, m));
            (w, best.map(|b| b.0), (best[2].1, best[2].2))
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: Normalized JCT vs LRU (best cache point per mode)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "Evict-only",
        "Prefetch-only",
        "Full MRD",
        "LRU hit%",
        "MRD hit%",
        "JobType",
    ]);
    let (mut e, mut p, mut f) = (vec![], vec![], vec![]);
    for (w, best, hits) in &rows {
        e.push(best[0]);
        p.push(best[1]);
        f.push(best[2]);
        t.row([
            w.short_name().to_string(),
            format!("{:.2}", best[0]),
            format!("{:.2}", best[1]),
            format!("{:.2}", best[2]),
            format!("{:.1}", hits.0 * 100.0),
            format!("{:.1}", hits.1 * 100.0),
            w.job_type().to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let mut chart = BarChart::new("Full MRD normalized JCT (shorter is better, 1.0 = LRU)")
        .width(40)
        .scale_to(1.0);
    for (w, best, _) in &rows {
        chart.row(w.short_name(), best[2]);
    }
    let _ = writeln!(out, "{}", chart.render());

    let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(1.0);
    let _ = writeln!(
        out,
        "Average normalized JCT: evict-only {:.2} (paper 0.62), prefetch-only {:.2} (paper 0.67), full {:.2} (paper 0.53)",
        mean(&e),
        mean(&p),
        mean(&f)
    );
    let _ = writeln!(
        out,
        "Geomean normalized JCT: evict-only {:.2}, prefetch-only {:.2}, full {:.2}",
        geomean(&e).unwrap_or(1.0),
        geomean(&p).unwrap_or(1.0),
        geomean(&f).unwrap_or(1.0)
    );
    let best_full = rows
        .iter()
        .min_by(|a, b| a.1[2].total_cmp(&b.1[2]))
        .unwrap();
    let worst_full = rows
        .iter()
        .max_by(|a, b| a.1[2].total_cmp(&b.1[2]))
        .unwrap();
    let _ = writeln!(
        out,
        "Full MRD: best {} at {:.2} (paper: SCC at 0.20), weakest {} at {:.2} (paper: DT at 0.88)",
        best_full.0.short_name(),
        best_full.1[2],
        worst_full.0.short_name(),
        worst_full.1[2]
    );
    out
}

/// Full MRD against a `rival` policy, both normalized to LRU over the
/// paper's cache sweep, on the rival's own cluster preset (Figures 5 and
/// 6). `paper` is the paper's (maximum, mean) improvement in percent.
fn mrd_vs_rival(
    ctx: &ExpContext,
    opts: &SweepOptions,
    figure: u32,
    rival: PolicySpec,
    workloads: &[Workload],
    paper: (u32, u32),
) -> String {
    let res = sweep_vs_lru(ctx, opts, workloads, &[rival, PolicySpec::MrdFull]);
    let r = rival.name();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure {figure}: MRD vs {r} (normalized JCT vs LRU, {r} cluster)\n"
    );
    let improvement = format!("MRD vs {r} improvement");
    let mut t = TextTable::new(["Workload", r, "MRD", improvement.as_str()]);
    let mut improvements = vec![];
    for &w in workloads {
        let (theirs, _, _) = best_vs_lru(&res, w, rival);
        let (mrd, _, _) = best_vs_lru(&res, w, PolicySpec::MrdFull);
        let imp = 1.0 - mrd / theirs;
        improvements.push(imp);
        t.row([
            w.short_name().to_string(),
            format!("{theirs:.2}"),
            format!("{mrd:.2}"),
            format!("{:.0}%", imp * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let s = Summary::of(&improvements).unwrap();
    let _ = writeln!(
        out,
        "MRD improves on {r} by up to {:.0}% and {:.0}% on average (paper: up to {}%, avg {}%)",
        s.max * 100.0,
        s.mean * 100.0,
        paper.0,
        paper.1
    );
    out
}

/// Figure 5 — MRD vs LRC on the LRC-comparison cluster (20 × m4.large
/// equivalents).
///
/// Paper: MRD beats LRC by up to 45% (ConnectedComponents) and by ~30% on
/// average, because reference *distance* predicts imminence where reference
/// *count* strands far-future-referenced blocks in the cache.
pub fn fig5_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let workloads = [
        Workload::ConnectedComponents,
        Workload::PageRank,
        Workload::SvdPlusPlus,
        Workload::KMeans,
        Workload::StronglyConnectedComponents,
        Workload::LabelPropagation,
    ];
    mrd_vs_rival(ctx, opts, 5, PolicySpec::Lrc, &workloads, (45, 30))
}

/// Figure 6 — MRD vs MemTune on the MemTune cluster (6 nodes, 8 vCPU,
/// 1 Gbps — System G equivalents).
///
/// Paper: MRD beats MemTune by up to 68% (PageRank) and ~33% on average;
/// LogisticRegression is the one workload with a slight MRD disadvantage
/// (low reference distances leave MRD nothing to exploit).
pub fn fig6_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let workloads = [
        Workload::PageRank,
        Workload::LogisticRegression,
        Workload::KMeans,
        Workload::TriangleCount,
        Workload::ConnectedComponents,
        Workload::SvdPlusPlus,
    ];
    mrd_vs_rival(ctx, opts, 6, PolicySpec::MemTune, &workloads, (68, 33))
}

/// Figure 7 — effect of cache size on hit ratio and runtime for SVD++ on
/// the LRC cluster, under LRU / LRC / MRD.
///
/// Paper: smaller caches mean lower hit ratios and longer runtimes for every
/// policy, but MRD dominates at every size; and MRD matches LRU's hit ratio
/// with far less cache (a 68% target ratio reached with 0.33 GB under MRD
/// vs 0.88 GB under LRU — 63% cache savings).
pub fn fig7_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let w = Workload::SvdPlusPlus;
    let fractions = [0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2];
    let policies = [PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull];
    let grid = SweepGrid::new([w], policies)
        .fractions(&fractions)
        .seeds(&[ctx.seed]);
    let res = run_sweep(&grid, ctx, opts);
    // The (LRU, LRC, MRD) cells at one cache fraction.
    let at = |f: f64| policies.map(|p| cell(&res, ctx, w, p, f));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: SVD++ hit ratio & runtime vs cache size (LRC cluster)\n"
    );
    let mut t = TextTable::new([
        "Cache/node",
        "LRU hit%",
        "LRC hit%",
        "MRD hit%",
        "LRU JCT(s)",
        "LRC JCT(s)",
        "MRD JCT(s)",
    ]);
    for &f in &fractions {
        let cells = at(f);
        let mut row = vec![human_bytes(cells[0].cache_bytes)];
        row.extend(cells.map(|c| format!("{:.1}", c.report.hit_ratio() * 100.0)));
        row.extend(cells.map(|c| format!("{:.1}", c.report.jct_secs())));
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());

    // Cache-savings analysis: the smallest cache at which each policy
    // reaches a target hit ratio (LRU's ratio at the mid sweep point).
    let target = at(fractions[fractions.len() / 2])[0].report.hit_ratio();
    let needed = |k: usize| {
        fractions
            .iter()
            .map(|&f| at(f)[k])
            .find(|c| c.report.hit_ratio() >= target)
            .map(|c| c.cache_bytes)
    };
    match (needed(0), needed(2)) {
        (Some(lru), Some(mrd)) if lru > 0 => {
            let _ = writeln!(
                out,
                "To reach a {:.0}% hit ratio: LRU needs {} per node, MRD needs {} — {:.0}% cache savings (paper: 63% for a 68% target)",
                target * 100.0,
                human_bytes(lru),
                human_bytes(mrd),
                (1.0 - mrd as f64 / lru as f64) * 100.0
            );
        }
        _ => {
            let _ = writeln!(out, "target hit ratio {target:.2} not reached in sweep");
        }
    }
    out
}

/// Figure 8 — stage distance vs job distance as the MRD metric (§5.7).
///
/// Paper: LabelPropagation (87 active stages over 23 jobs — ratio 3.17)
/// degrades badly under the coarse job metric, while K-Means (ratio 1.18)
/// is indifferent because its stages and jobs nearly coincide.
pub fn fig8_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let workloads = [Workload::LabelPropagation, Workload::KMeans];
    let metrics = [PolicySpec::MrdFull, PolicySpec::MrdJobMetric];
    let res = sweep_vs_lru(ctx, opts, &workloads, &metrics);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: stage-distance vs job-distance MRD (normalized JCT vs LRU)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "ActiveStages/Jobs",
        "stage JCT (best)",
        "job JCT (best)",
        "stage JCT (tight cache)",
        "job JCT (tight cache)",
        "stage hit% (tight)",
        "job hit% (tight)",
    ]);
    for &w in &workloads {
        let plan = AppPlan::build(&w.build(&ctx.params));
        let ratio = plan.active_stage_count() as f64 / plan.jobs.len() as f64;
        let best = metrics.map(|m| best_vs_lru(&res, w, m).0);
        // The metric's coarseness bites hardest under cache pressure, so
        // also compare at the tightest sweep point.
        let tightest = SWEEP_FRACTIONS[0];
        let lru = &cell(&res, ctx, w, PolicySpec::Lru, tightest).report;
        let tight = metrics.map(|m| &cell(&res, ctx, w, m, tightest).report);
        t.row([
            w.short_name().to_string(),
            format!("{ratio:.2}"),
            format!("{:.2}", best[0]),
            format!("{:.2}", best[1]),
            format!("{:.2}", tight[0].normalized_jct(lru)),
            format!("{:.2}", tight[1].normalized_jct(lru)),
            format!("{:.1}", tight[0].hit_ratio() * 100.0),
            format!("{:.1}", tight[1].hit_ratio() * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Expectation (paper §5.7): the job metric degrades LP markedly while\n\
         KM is nearly indifferent (its stages:jobs ratio is ~1)."
    );
    out
}

/// Figure 9 — ad-hoc (one job DAG at a time) vs recurring (whole-application
/// profile) runs (§5.8): one sweep grid per profile mode.
///
/// Paper: K-Means, with 17 jobs and heavy cross-job reuse, suffers without
/// the application-wide view — cross-job references look infinite and good
/// blocks get evicted. TriangleCount, with only 2 jobs and 0.8 references
/// per RDD, is indifferent.
pub fn fig9_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let workloads = [
        Workload::KMeans,
        Workload::TriangleCount,
        Workload::LabelPropagation,
        Workload::SvdPlusPlus,
    ];
    let [recurring, adhoc] = [ProfileMode::Recurring, ProfileMode::AdHoc].map(|mode| {
        let opts = opts.clone().mode(mode);
        sweep_vs_lru(ctx, &opts, &workloads, &[PolicySpec::MrdFull])
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: recurring vs ad-hoc profile visibility (MRD, normalized JCT vs LRU)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "Recurring JCT",
        "Recurring hit%",
        "Ad-hoc JCT",
        "Ad-hoc hit%",
    ]);
    for &w in &workloads {
        let (rec, _, rec_hit) = best_vs_lru(&recurring, w, PolicySpec::MrdFull);
        let (adh, _, adh_hit) = best_vs_lru(&adhoc, w, PolicySpec::MrdFull);
        t.row([
            w.short_name().to_string(),
            format!("{rec:.2}"),
            format!("{:.1}", rec_hit * 100.0),
            format!("{adh:.2}"),
            format!("{:.1}", adh_hit * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Expectation (paper §5.8): KM loses noticeably without the whole-app\n\
         DAG (cross-job references read as infinite); TC barely changes."
    );
    out
}

/// Figure 10 — effect of tripling workload iterations (§5.9): one grid at
/// the default parameters, then one sweep per workload at three times its
/// default iterations.
///
/// More iterations mean more jobs, stages and cache references, giving MRD
/// more eviction/prefetch opportunities. Paper: tripling iterations moved
/// the average normalized JCT from 62% to 54% and the hit ratio from 94% to
/// 96%, with diminishing returns, and no effect on DecisionTree (which has
/// no iterations parameter).
pub fn fig10_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let mrd = PolicySpec::MrdFull;
    let workloads: Vec<Workload> = Workload::sparkbench()
        .iter()
        .copied()
        .filter(|w| w.has_iterations())
        .collect();
    let base = sweep_vs_lru(ctx, opts, &workloads, &[mrd]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10: default vs 3x iterations (MRD, normalized JCT vs LRU)\n"
    );
    let mut t = TextTable::new(["Workload", "1x JCT", "1x hit%", "3x JCT", "3x hit%"]);
    let (mut base_jct, mut trip_jct, mut base_hit, mut trip_hit) = (vec![], vec![], vec![], vec![]);
    for &w in &workloads {
        let mut tripled = ctx.clone();
        tripled.params.iterations = w.default_iterations().map(|i| i * 3);
        let (jct, _, hit) = best_vs_lru(&base, w, mrd);
        let (jct3, _, hit3) = best_vs_lru(&sweep_vs_lru(&tripled, opts, &[w], &[mrd]), w, mrd);
        base_jct.push(jct);
        trip_jct.push(jct3);
        base_hit.push(hit);
        trip_hit.push(hit3);
        t.row([
            w.short_name().to_string(),
            format!("{jct:.2}"),
            format!("{:.1}", hit * 100.0),
            format!("{jct3:.2}"),
            format!("{:.1}", hit3 * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let m = |v: &[f64]| Summary::of(v).unwrap().mean;
    let _ = writeln!(
        out,
        "Average: JCT {:.2} -> {:.2} (paper 0.62 -> 0.54), hit {:.1}% -> {:.1}% (paper 94% -> 96%)",
        m(&base_jct),
        m(&trip_jct),
        m(&base_hit) * 100.0,
        m(&trip_hit) * 100.0
    );
    let _ = writeln!(
        out,
        "DecisionTree and TriangleCount are excluded: no iterations parameter (paper: DT unaffected)."
    );
    out
}

/// Full MRD's best JCT reduction against LRU (in %) on every SparkBench
/// workload, against the workload characteristic `x`, with its OLS
/// trendline (Figures 11 and 12). `var` names `x` in the trendline and
/// `paper_r2` is the paper's fit.
fn reduction_trend(
    ctx: &ExpContext,
    opts: &SweepOptions,
    title: &str,
    column: &str,
    var: &str,
    paper_r2: f64,
    x: impl Fn(&RefAnalyzer, &AppProfile) -> f64,
) -> String {
    let res = sweep_vs_lru(ctx, opts, Workload::sparkbench(), &[PolicySpec::MrdFull]);
    let rows: Vec<(Workload, f64, f64)> = Workload::sparkbench()
        .iter()
        .map(|&w| {
            let spec = w.build(&ctx.params);
            let plan = AppPlan::build(&spec);
            let analyzer = RefAnalyzer::new(&spec, &plan);
            let (norm, _, _) = best_vs_lru(&res, w, PolicySpec::MrdFull);
            (w, x(&analyzer, &analyzer.profile()), (1.0 - norm) * 100.0)
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "{title}\n");
    let mut t = TextTable::new(["Workload", column, "JCT reduction %"]);
    let pts: Vec<(f64, f64)> = rows.iter().map(|(_, x, y)| (*x, *y)).collect();
    for (w, x, y) in &rows {
        t.row([
            w.short_name().to_string(),
            format!("{x:.2}"),
            format!("{y:.1}"),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = match linear_fit(&pts) {
        Some(fit) => writeln!(
            out,
            "Trendline: reduction% = {:.2} + {:.2} * {var}, R² = {:.2} (paper R² = {paper_r2:.2}, positive slope)",
            fit.intercept, fit.slope, fit.r2
        ),
        None => writeln!(out, "trendline: degenerate input"),
    };
    out
}

/// Figure 11 — JCT reduction vs average stage distance (§5.10).
///
/// High-stage-distance workloads (LP, SCC) leave big reference gaps MRD can
/// exploit; low-distance workloads (SVM, SP) leave little. The paper fits a
/// linear trend with R² = 0.46.
pub fn fig11_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    reduction_trend(
        ctx,
        opts,
        "Figure 11: JCT reduction vs average stage distance",
        "AvgStageDistance",
        "avg_stage_distance",
        0.46,
        |_, profile| RefAnalyzer::distance_stats(profile).avg_stage,
    )
}

/// Figure 12 — JCT reduction vs average references per stage (§5.10).
///
/// More references per stage means more blocks competing for the cache, so
/// choosing the right victim matters more. The paper fits a linear trend
/// with R² = 0.71 (stronger than the stage-distance trend of Figure 11).
pub fn fig12_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    reduction_trend(
        ctx,
        opts,
        "Figure 12: JCT reduction vs average references per stage",
        "Refs/Stage",
        "refs_per_stage",
        0.71,
        |analyzer, profile| analyzer.characteristics(profile).refs_per_stage,
    )
}

/// Table 1 — reference-distance characteristics of all 20 workloads,
/// measured on our synthetic DAGs beside the paper's published values. DAG
/// analysis runs on the worker pool.
pub fn table1_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    /// Paper Table 1 values: (avg job, max job, avg stage, max stage).
    fn paper(w: Workload) -> (f64, u32, f64, u32) {
        use Workload::*;
        match w {
            KMeans => (5.15, 16, 5.34, 19),
            LinearRegression => (1.24, 5, 1.76, 8),
            LogisticRegression => (1.53, 6, 2.00, 9),
            Svm => (1.48, 6, 1.96, 10),
            DecisionTree => (2.71, 9, 4.38, 15),
            MatrixFactorization => (1.56, 7, 3.31, 18),
            PageRank => (1.74, 5, 6.08, 19),
            TriangleCount => (0.07, 1, 1.23, 6),
            ShortestPaths => (0.19, 1, 1.19, 4),
            LabelPropagation => (7.19, 22, 28.37, 85),
            SvdPlusPlus => (3.51, 11, 6.82, 23),
            ConnectedComponents => (1.30, 4, 5.31, 16),
            StronglyConnectedComponents => (7.77, 24, 29.96, 90),
            PregelOperation => (1.28, 4, 5.45, 16),
            HiSort => (0.00, 0, 0.00, 0),
            HiWordCount => (0.00, 0, 0.00, 0),
            HiTeraSort => (0.22, 1, 0.22, 1),
            HiPageRank => (0.00, 0, 0.09, 2),
            HiBayes => (2.09, 7, 3.23, 9),
            HiKMeans => (6.08, 19, 6.60, 25),
        }
    }

    let all: Vec<Workload> = Workload::sparkbench()
        .iter()
        .chain(Workload::hibench())
        .copied()
        .collect();

    let rows = pool_map(&all, opts.threads, |_, &w| {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        (w, RefAnalyzer::distance_stats(&profile))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Reference distance characteristics (measured vs paper)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "AvgJob",
        "AvgJob(paper)",
        "MaxJob",
        "MaxJob(paper)",
        "AvgStage",
        "AvgStage(paper)",
        "MaxStage",
        "MaxStage(paper)",
    ]);
    let mut suite_break_done = false;
    for (w, d) in &rows {
        if !suite_break_done && Workload::hibench().contains(w) {
            t.row(["-- HiBench --", "", "", "", "", "", "", "", ""]);
            suite_break_done = true;
        }
        let (pj, pmj, ps, pms) = paper(*w);
        t.row([
            w.short_name().to_string(),
            format!("{:.2}", d.avg_job),
            format!("{pj:.2}"),
            d.max_job.to_string(),
            pmj.to_string(),
            format!("{:.2}", d.avg_stage),
            format!("{ps:.2}"),
            d.max_stage.to_string(),
            pms.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Table 3 — SparkBench workload characteristics: jobs / stages / active
/// stages / RDDs / references per RDD / references per stage, plus data
/// sizes, with the paper's values in parentheses. DAG analysis runs on the
/// worker pool.
pub fn table3_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    /// Paper Table 3: (jobs, stages, active, rdds, refs/rdd, refs/stage).
    fn paper(w: Workload) -> (u32, u32, u32, u32, f64, f64) {
        use Workload::*;
        match w {
            KMeans => (17, 20, 20, 37, 5.57, 1.95),
            LinearRegression => (6, 9, 9, 24, 5.00, 0.56),
            LogisticRegression => (7, 10, 10, 25, 6.00, 0.60),
            Svm => (10, 28, 17, 40, 3.50, 0.41),
            DecisionTree => (10, 16, 16, 29, 4.00, 0.25),
            MatrixFactorization => (8, 64, 22, 103, 3.11, 1.27),
            PageRank => (7, 69, 21, 95, 2.27, 2.38),
            TriangleCount => (2, 11, 11, 74, 0.80, 0.73),
            ShortestPaths => (3, 8, 7, 34, 1.33, 1.14),
            LabelPropagation => (23, 858, 87, 377, 4.09, 3.06),
            SvdPlusPlus => (14, 103, 27, 105, 3.32, 2.33),
            ConnectedComponents => (6, 50, 19, 85, 2.87, 2.26),
            StronglyConnectedComponents => (26, 839, 93, 560, 4.22, 3.54),
            PregelOperation => (17, 467, 65, 283, 3.55, 3.25),
            _ => (0, 0, 0, 0, 0.0, 0.0),
        }
    }

    let rows = pool_map(Workload::sparkbench(), opts.threads, |_, &w| {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let analyzer = RefAnalyzer::new(&spec, &plan);
        (w, analyzer.characteristics(&analyzer.profile()))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: SparkBench workload characteristics (measured, paper in parentheses)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "Category",
        "Input",
        "StageInputs",
        "Shuffle",
        "Jobs",
        "Stages",
        "Active",
        "RDDs",
        "Refs/RDD",
        "Refs/Stage",
        "JobType",
    ]);
    for (w, c) in &rows {
        let (pj, ps, pa, pr, prr, prs) = paper(*w);
        t.row([
            w.short_name().to_string(),
            w.category().to_string(),
            human_bytes(c.input_bytes),
            human_bytes(c.stage_input_bytes),
            human_bytes(c.shuffle_bytes),
            format!("{} ({pj})", c.jobs),
            format!("{} ({ps})", c.stages),
            format!("{} ({pa})", c.active_stages),
            format!("{} ({pr})", c.rdds),
            format!("{:.2} ({prr:.2})", c.refs_per_rdd),
            format!("{:.2} ({prs:.2})", c.refs_per_stage),
            w.job_type().to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Extension — how close is MRD to Belady's MIN?
///
/// The paper argues (§3.1) that DAG information gives a "semi-omniscient"
/// view that only *approximates* Belady's optimal policy, because the exact
/// task order is unknown. The clairvoyant oracle replays the access trace
/// of an unconstrained run; every policy runs once per workload at a fixed,
/// constrained cache and the context's seed.
pub fn belady_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    const FRACTION: f64 = 0.4;
    // Apples to apples: the MIN oracle only evicts, so compare it against
    // MRD's eviction half; full MRD is shown alongside.
    let policies = [
        PolicySpec::Lru,
        PolicySpec::MrdEvict,
        PolicySpec::MrdFull,
        PolicySpec::Belady,
    ];
    let rows = pool_map(Workload::sparkbench(), opts.threads, |_, &w| {
        let prep = PreparedWorkload::new(w, &ctx.params, ProfileMode::Recurring);
        let cache = cache_for_fraction(&prep.spec, &ctx.cluster, FRACTION).max(1);
        let mut scratch = EngineScratch::default();
        let reports = policies.map(|p| run_one(&prep, ctx, cache, p, &mut scratch));
        (w, reports)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: MRD vs Belady's MIN (cache = {:.0}% of cached footprint)\n",
        FRACTION * 100.0
    );
    let mut t = TextTable::new([
        "Workload",
        "LRU JCT(s)",
        "MRD-evict JCT(s)",
        "MIN JCT(s)",
        "Full MRD JCT(s)",
        "evict/MIN",
        "MRD-evict hit%",
        "MIN hit%",
    ]);
    let mut gaps = vec![];
    for (w, [lru, mrd, full, min]) in &rows {
        let gap = mrd.jct.micros() as f64 / min.jct.micros().max(1) as f64;
        gaps.push(gap);
        t.row([
            w.short_name().to_string(),
            format!("{:.1}", lru.jct_secs()),
            format!("{:.1}", mrd.jct_secs()),
            format!("{:.1}", min.jct_secs()),
            format!("{:.1}", full.jct_secs()),
            format!("{gap:.2}"),
            format!("{:.1}", mrd.hit_ratio() * 100.0),
            format!("{:.1}", min.hit_ratio() * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let s = Summary::of(&gaps).unwrap();
    let _ = writeln!(
        out,
        "MRD eviction runs within {:.2}x of the clairvoyant eviction optimum on average\n\
         (worst {:.2}x) — quantifying §3.1's claim that stage-level DAG knowledge\n\
         approximates MIN. Full MRD (with prefetching) often beats the eviction-only\n\
         oracle outright: prefetching moves I/O off the critical path, something no\n\
         eviction policy can do.",
        s.mean, s.max
    );
    out
}

/// §4.4 — storage, computation and communication overheads of MRD: one
/// full-MRD run per SparkBench workload at a fixed cache.
///
/// The paper claims: the largest MRD_Table held fewer than 300 references
/// and measured in KBs; the per-decision sort is negligible; and monitor
/// synchronization traffic is bounded (one replica per node per change).
/// The per-hook CPU costs are `refbench`'s traced busy times (`core.*` for
/// MRD, `policies.*` for LRU), and their exact call and allocation counts
/// are gated by `tests/work_counts.rs`.
pub fn overheads_text(ctx: &ExpContext, _opts: &SweepOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Overheads (paper §4.4): MRD table size and replication traffic\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "Table refs",
        "Table RDDs",
        "~Table bytes",
        "Broadcasts",
        "Stages",
        "Broadcasts/stage/node",
    ]);
    for &w in Workload::sparkbench() {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        let refs = profile.total_references();
        // A reference point is (rdd id, stage id, job id): ~12 bytes.
        let bytes = refs * 12;

        let cache = cache_for_fraction(&spec, &ctx.cluster, 0.4).max(1);
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let mut mrd = MrdPolicy::full();
        let _ = simulate(&spec, &plan, cfg, &mut mrd);
        let broadcasts = mrd.sync_messages();
        let stages = plan.active_stage_count() as u64;
        t.row([
            w.short_name().to_string(),
            refs.to_string(),
            profile.per_rdd.len().to_string(),
            format!("{bytes} B"),
            broadcasts.to_string(),
            stages.to_string(),
            format!(
                "{:.2}",
                broadcasts as f64 / (stages as f64 * ctx.cluster.nodes as f64)
            ),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Paper: largest table < 300 references, measured in KBs; our tables are the\n\
         same order. Broadcasts are ~1 per node per stage (a replica refresh per\n\
         stage advance), matching the described sendReferenceDistance traffic."
    );
    out
}

/// One recurring-profile run of `spec` under `policy`: the single-run shape
/// of the overheads and the ablations.
fn simulate(
    spec: &AppSpec,
    plan: &AppPlan,
    cfg: SimConfig,
    policy: &mut dyn CachePolicy,
) -> RunReport {
    Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(policy)
}

/// [`simulate`] under LRU, the ablations' baseline.
fn run_lru(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig) -> RunReport {
    simulate(spec, plan, cfg, &mut *PolicySpec::Lru.build(None))
}

/// [`simulate`] under MRD configured as `mrd`.
fn run_mrd(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, mrd: MrdConfig) -> RunReport {
    simulate(spec, plan, cfg, &mut MrdPolicy::new(mrd))
}

/// Extension ablations (DESIGN.md §4b) of full MRD on a fixed, constrained
/// cache, normalized against LRU at the same point:
///
/// 1. distance tie-breaking (MRU vs LRU among equal distances);
/// 2. prefetch horizon (how far ahead prefetching may reach);
/// 3. execution-memory churn fraction (the unified memory model);
/// 4. the adaptive prefetch threshold (the paper's future-work item)
///    against fixed thresholds;
/// 5. vertex storage level: MEMORY_AND_DISK (SparkBench default) vs
///    MEMORY_ONLY (GraphX default — misses recompute instead of re-read).
///
/// Each configuration is one run at the context's seed; independent
/// configurations run on the worker pool.
pub fn ablations_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    const FRACTION: f64 = 0.4;
    let threads = opts.threads;
    let mut out = String::new();

    // --- 1. Tie-breaking -------------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 1: distance tie-breaking (full MRD, normalized JCT vs LRU)\n"
    );
    let workloads = [
        Workload::KMeans,
        Workload::DecisionTree,
        Workload::ConnectedComponents,
        Workload::StronglyConnectedComponents,
    ];
    let mut t = TextTable::new(["Workload", "MRU tiebreak", "LRU tiebreak"]);
    let rows = pool_map(&workloads, threads, |_, &w| {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let cache = cache_for_fraction(&spec, &ctx.cluster, FRACTION).max(1);
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let lru = run_lru(&spec, &plan, cfg.clone());
        let mru = run_mrd(&spec, &plan, cfg.clone(), MrdConfig::default());
        let lru_tie = run_mrd(
            &spec,
            &plan,
            cfg,
            MrdConfig {
                tie_break: TieBreak::Lru,
                ..Default::default()
            },
        );
        [
            w.short_name().to_string(),
            format!("{:.2}", mru.normalized_jct(&lru)),
            format!("{:.2}", lru_tie.normalized_jct(&lru)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "An LRU tiebreak thrashes intra-stage scans (KM/DT); MRU is Belady-consistent.\n"
    );

    // --- 2. Prefetch horizon ---------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 2: prefetch horizon (full MRD on SCC, normalized JCT vs LRU)\n"
    );
    let spec = Workload::StronglyConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.25).max(1);
    let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
    let lru = run_lru(&spec, &plan, cfg.clone());
    let mut t = TextTable::new([
        "Horizon",
        "Normalized JCT",
        "Prefetches",
        "Prefetch hits",
        "Wasted",
    ]);
    let horizons = [1u32, 3, 6, 12, 0 /* unlimited */];
    let rows = pool_map(&horizons, threads, |_, &horizon| {
        let r = run_mrd(
            &spec,
            &plan,
            cfg.clone(),
            MrdConfig {
                prefetch_horizon: horizon,
                ..Default::default()
            },
        );
        [
            if horizon == 0 {
                "unlimited".into()
            } else {
                horizon.to_string()
            },
            format!("{:.2}", r.normalized_jct(&lru)),
            r.stats.prefetches.to_string(),
            r.stats.prefetch_hits.to_string(),
            r.stats.wasted_prefetches.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Far horizons waste transfers on blocks the next reservation evicts.\n"
    );

    // --- 3. Execution-memory fraction --------------------------------------
    let _ = writeln!(
        out,
        "Ablation 3: execution-memory churn (full MRD on CC, normalized JCT vs LRU at same fraction)\n"
    );
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.5).max(1);
    let mut t = TextTable::new(["exec fraction", "LRU JCT(s)", "MRD JCT(s)", "Normalized"]);
    let fracs = [0.0f64, 0.15, 0.3, 0.5];
    let rows = pool_map(&fracs, threads, |_, &frac| {
        let mut cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        cfg.exec_mem_fraction = frac;
        let lru = run_lru(&spec, &plan, cfg.clone());
        let mrd = run_mrd(&spec, &plan, cfg, MrdConfig::default());
        [
            format!("{frac:.2}"),
            format!("{:.1}", lru.jct_secs()),
            format!("{:.1}", mrd.jct_secs()),
            format!("{:.2}", mrd.normalized_jct(&lru)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "More churn hurts both policies but widens MRD's edge: its victims matter more.\n"
    );

    // --- 4. Prefetch threshold: fixed sweep vs adaptive --------------------
    // Under the default per-stage cap and horizon the force-prefetch path
    // rarely fires, so the threshold is exercised with the prefetcher
    // uncapped and the horizon unlimited (the paper's Algorithm 1 has
    // neither bound) on SCC.
    let _ = writeln!(
        out,
        "Ablation 4: prefetch threshold — fixed sweep vs adaptive (paper future work)\n"
    );
    // The threshold only binds when a block is a sizeable fraction of the
    // cache (otherwise "fits in free" decides everything); coarse
    // partitioning makes blocks big enough to exercise the forced path.
    let mut coarse = ctx.params;
    coarse.partitions = 24;
    let spec = Workload::StronglyConnectedComponents.build(&coarse);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.12).max(1);
    let mut t = TextTable::new(["Threshold", "JCT(s)", "Prefetches", "Wasted"]);
    let mut base = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
    base.max_prefetch_per_node = usize::MAX;
    // (label, threshold, adaptive) in presentation order.
    let cases = [
        ("fixed 0.05", 0.05f64, false),
        ("fixed 0.25", 0.25, false),
        ("fixed 0.60", 0.6, false),
        ("adaptive (from 0.05)", 0.05, true),
        ("adaptive (from 0.25)", 0.25, true),
    ];
    let rows = pool_map(&cases, threads, |_, &(label, thr, adaptive)| {
        let mut cfg = base.clone();
        cfg.prefetch_threshold = thr;
        cfg.adaptive_threshold = adaptive;
        let r = run_mrd(
            &spec,
            &plan,
            cfg,
            MrdConfig {
                prefetch_horizon: 0,
                ..Default::default()
            },
        );
        [
            label.to_string(),
            format!("{:.1}", r.jct_secs()),
            r.stats.prefetches.to_string(),
            r.stats.wasted_prefetches.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Lower thresholds force far more wasteful prefetch-evictions; the adaptive rule\nrecovers even from a bad initial setting — the paper's future-work item.\n"
    );

    // --- 5. Vertex storage level -------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 5: MEMORY_AND_DISK vs MEMORY_ONLY cached data (CC, full MRD vs LRU)\n"
    );
    let mut t = TextTable::new([
        "Storage",
        "LRU JCT(s)",
        "MRD JCT(s)",
        "Normalized",
        "LRU recomputes",
    ]);
    let variants = [false, true];
    let rows = pool_map(&variants, threads, |_, &memory_only| {
        let mut spec = Workload::ConnectedComponents.build(&ctx.params);
        if memory_only {
            for r in &mut spec.rdds {
                if r.storage.is_cached() {
                    r.storage = StorageLevel::MemoryOnly;
                }
            }
        }
        let plan = AppPlan::build(&spec);
        let cache = cache_for_fraction(&spec, &ctx.cluster, 0.4).max(1);
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let lru = run_lru(&spec, &plan, cfg.clone());
        let mrd = run_mrd(&spec, &plan, cfg, MrdConfig::default());
        [
            if memory_only {
                "MEMORY_ONLY"
            } else {
                "MEMORY_AND_DISK"
            }
            .to_string(),
            format!("{:.1}", lru.jct_secs()),
            format!("{:.1}", mrd.jct_secs()),
            format!("{:.2}", mrd.normalized_jct(&lru)),
            lru.stats.recomputes.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Under MEMORY_ONLY every bad eviction becomes a recompute cascade —\nthe regime where eviction policy matters most (and prefetch least)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        let mut ctx = ExpContext::main().quick();
        ctx.params.partitions = 8;
        ctx.params.scale = 0.02;
        ctx.cluster.nodes = 4;
        ctx
    }

    fn opts() -> SweepOptions {
        SweepOptions::default().threads(2)
    }

    #[test]
    fn fig2_text_renders_metric_cells() {
        let out = fig2_text(&tiny_ctx(), &opts());
        assert!(out.contains("Figure 2"));
        assert!(out.contains("inf"));
    }

    #[test]
    fn table1_text_covers_both_suites() {
        let out = table1_text(&tiny_ctx(), &opts());
        assert!(out.contains("-- HiBench --"));
        for &w in Workload::sparkbench() {
            assert!(out.contains(w.short_name()), "missing {}", w.short_name());
        }
    }

    #[test]
    fn fig5_text_reports_improvements() {
        let mut ctx = tiny_ctx();
        ctx.cluster = refdist_cluster::ClusterConfig::lrc_cluster();
        ctx.cluster.nodes = 4;
        let out = fig5_text(&ctx, &opts());
        assert!(out.contains("Figure 5"));
        assert!(out.contains("MRD improves on LRC"));
    }

    #[test]
    fn the_table_names_every_checked_in_output() {
        // One entry per `experiments/<name>.txt`, in no particular order,
        // and no name twice.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut names: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("{}.txt", e.name))
            .collect();
        names.sort();
        assert_eq!(names, files);
    }
}
