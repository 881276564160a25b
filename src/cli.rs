//! Command-line interface logic for the `refdist` binary.
//!
//! Hand-rolled argument parsing (the workspace deliberately avoids
//! dependencies beyond the approved set), split from the binary so the
//! parsing and command execution are unit-testable.

use crate::prelude::*;
use refdist_bench::{cache_for_largest, check_fraction, PolicySpec, ServeAxis, ServeScenario};
use refdist_cluster::{QuotaKind, ResilienceConfig, ServeSched};
use refdist_metrics::{human_bytes, TextTable};
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `refdist list` — all workloads with their metadata.
    List,
    /// `refdist inspect <workload>` — plan + reference statistics.
    Inspect {
        /// Workload short name (e.g. "CC").
        workload: String,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist dot <workload> [--stages]` — Graphviz export.
    Dot {
        /// Workload short name.
        workload: String,
        /// Emit the stage DAG instead of the RDD lineage.
        stages: bool,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist run <workload> --policy <p>` — one simulation.
    Run {
        /// Workload short name.
        workload: String,
        /// Policy name (lru|fifo|random|lrc|memtune|mrd|mrd-evict|mrd-prefetch|mrd-job).
        policy: String,
        /// Cache bytes per node.
        cache_bytes: Option<u64>,
        /// Cache as a fraction of the cached footprint.
        cache_fraction: f64,
        /// Cluster preset (main|lrc|memtune) and node override.
        cluster: String,
        /// Node-count override.
        nodes: Option<u32>,
        /// Ad-hoc instead of recurring profile visibility.
        adhoc: bool,
        /// Simulation seed.
        seed: u64,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist compare <workload>` — every policy, ranked.
    Compare {
        /// Workload short name.
        workload: String,
        /// Cache as a fraction of the cached footprint.
        cache_fraction: f64,
        /// Node-count override.
        nodes: Option<u32>,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist sweep` — a (workload × policy × capacity × seed) grid on
    /// the parallel sweep engine.
    Sweep {
        /// Workload short names.
        workloads: Vec<String>,
        /// Policy names (see `--policy`).
        policies: Vec<String>,
        /// Capacity fractions of the cached footprint.
        fractions: Vec<f64>,
        /// Replicate seeds.
        seeds: Vec<u64>,
        /// Worker threads (0 = available cores / REFDIST_THREADS).
        threads: usize,
        /// Emit CSV instead of a table.
        csv: bool,
        /// Cluster preset (main|lrc|memtune).
        cluster: String,
        /// Node-count override.
        nodes: Option<u32>,
        /// Ad-hoc instead of recurring profile visibility.
        adhoc: bool,
        /// Master seed (mixed into every cell's derived seed).
        seed: u64,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist chaos <workload>` — JCT-degradation-vs-fault-rate resilience
    /// curves: every policy at every chaos rate, normalized against its own
    /// fault-free run at the same grid point.
    Chaos {
        /// Workload short name.
        workload: String,
        /// Policy names (see `--policy`).
        policies: Vec<String>,
        /// Chaos fault rates; `0.0` (the baseline) is always included.
        rates: Vec<f64>,
        /// Cache as a fraction of the cached footprint.
        cache_fraction: f64,
        /// Cluster preset (main|lrc|memtune).
        cluster: String,
        /// Node-count override.
        nodes: Option<u32>,
        /// Worker threads (0 = available cores / REFDIST_THREADS).
        threads: usize,
        /// Master seed (mixed into every cell's derived seed).
        seed: u64,
        /// Emit CSV instead of a table.
        csv: bool,
        /// Serve-mode resilience curve: run a multi-tenant stream under
        /// node churn at each rate and report SLO attainment instead of
        /// the single-app degradation curve.
        serve: bool,
        /// Serve mode: number of tenants.
        tenants: u32,
        /// Serve mode: total submissions (default: one per tenant).
        apps: Option<u32>,
        /// Serve mode: mean Poisson inter-arrival gap in milliseconds.
        gap_ms: u64,
        /// Serve mode: per-submission completion deadline in microseconds
        /// (default: twice the fault-free maximum JCT).
        deadline_us: Option<u64>,
        /// Serve mode: app-level retries after an abort.
        app_retries: u32,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist serve <workload>` — multi-tenant serving: a stream of
    /// identical applications, one per tenant, share one cluster under each
    /// (scheduler × quota) combination; reports per-tenant JCT distributions
    /// and the cross-tenant eviction matrix.
    Serve {
        /// Workload short name (each tenant submits one instance).
        workload: String,
        /// Policy name, applied per tenant (belady is not supported — a
        /// whole-run trace is meaningless under interleaving).
        policy: String,
        /// Number of tenants.
        tenants: u32,
        /// Total submissions in the stream (default: one per tenant);
        /// submissions round-robin over the tenants.
        apps: Option<u32>,
        /// Mean Poisson inter-arrival gap in milliseconds.
        gap_ms: u64,
        /// Mean Poisson inter-arrival gap in microseconds; overrides
        /// `gap_ms` for long streams needing sub-millisecond pressure.
        gap_us: Option<u64>,
        /// Heterogeneous template mix: workload short names the stream
        /// cycles through (overrides the positional workload).
        mix: Vec<String>,
        /// Inter-job schedulers to run (fifo | fair-share).
        scheds: Vec<String>,
        /// Per-tenant cache quotas to run (unlimited | equal-share | MiB).
        quotas: Vec<String>,
        /// Cache as a fraction of one app's cached footprint.
        cache_fraction: f64,
        /// Cluster preset (main|lrc|memtune).
        cluster: String,
        /// Node-count override.
        nodes: Option<u32>,
        /// Master seed (arrivals and per-app simulation seeds derive from it).
        seed: u64,
        /// Wall-clock node churn: mean time between failures and mean
        /// repair time, both in milliseconds (`--churn MTBF,MTTR`).
        churn: Option<(u64, u64)>,
        /// Cap on concurrently admitted applications.
        max_active: Option<u32>,
        /// Overload admission policy at the `--max-active` cap
        /// (queue | shed | degrade).
        admission: String,
        /// Per-submission completion deadline in microseconds.
        deadline_us: Option<u64>,
        /// App-level retries after an abort (admission budget is
        /// retries + 1).
        app_retries: u32,
        /// Generation parameters.
        params: WorkloadParams,
    },
    /// `refdist help`.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
refdist — reference-distance cache management (MRD) simulator

USAGE:
  refdist list
  refdist inspect <workload> [--partitions N] [--scale F] [--iterations N]
  refdist dot <workload> [--stages] [--partitions N] [--scale F]
  refdist run <workload> --policy <name> [options]
  refdist compare <workload> [options]
  refdist sweep [sweep options]
  refdist chaos <workload> [chaos options]
  refdist serve <workload> [serve options]
  refdist help

RUN/COMPARE OPTIONS:
  --policy <name>        lru | fifo | random | lrc | memtune |
                         mrd | mrd-evict | mrd-prefetch | mrd-job
  --cache-mb <N>         cache per node in MiB
  --cache-fraction <F>   cache as fraction of cached footprint (default 0.4)
  --cluster <preset>     main | lrc | memtune (default main)
  --nodes <N>            override the preset's node count
  --adhoc                first-run profile visibility (default: recurring)
  --seed <N>             simulation seed (default 42)
  --partitions <N>       partitions per RDD (default 192)
  --scale <F>            input scale factor (default 1.0)
  --iterations <N>       override the workload's iteration count

SWEEP OPTIONS (in addition to the applicable options above):
  --workloads <a,b,..>   comma-separated workload short names (default CC)
  --policies <a,b,..>    comma-separated policy names (default lru,mrd)
  --fractions <f,f,..>   capacity fractions (default the standard sweep)
  --seeds <n,n,..>       replicate seeds (default 42)
  --threads <N>          worker threads (default: cores, or REFDIST_THREADS)
  --csv                  emit CSV instead of a table

  Cells run in parallel; aggregated output is in canonical grid order and
  byte-identical for any thread count. Progress/ETA goes to stderr.

CHAOS OPTIONS (in addition to the applicable options above):
  --policies <a,b,..>    comma-separated policy names (default lru,lrc,mrd)
  --rates <f,f,..>       chaos fault rates (default 0,0.02,0.05,0.1); the
                         fault-free rate 0 is always included — it is the
                         degradation baseline each policy normalizes against

  Each rate seeds stochastic task/fetch/disk failures from the master seed,
  so the resilience curve is byte-deterministic at any thread count.

  --serve                serve-mode resilience curve: run a multi-tenant
                         stream (--tenants/--apps/--gap-ms as in serve)
                         under Poisson node churn at each rate (rate =
                         expected node failures per simulated second) and
                         report SLO attainment instead of JCT degradation
  --deadline <US>        per-submission SLO deadline in microseconds
                         (default: twice the fault-free maximum JCT)
  --app-retries <N>      re-admit churn-aborted submissions up to N times

SERVE OPTIONS (in addition to the applicable options above):
  --tenants <N>          number of tenants, one app each (default 3)
  --apps <N>             total submissions in the stream, round-robined
                         over the tenants (default: one per tenant)
  --gap-ms <N>           mean Poisson inter-arrival gap in ms (default 500)
  --arrival-gap <US>     mean Poisson inter-arrival gap in microseconds
                         (overrides --gap-ms; for long dense streams)
  --mix <a,b,..>         heterogeneous stream: submissions cycle through
                         these workloads (overrides the positional one)
  --scheds <a,b,..>      inter-job schedulers: fifo | fair-share
                         (default fifo,fair-share)
  --quotas <a,b,..>      per-tenant cache quotas: unlimited | equal-share |
                         a per-tenant budget in MiB (default
                         unlimited,equal-share)
  --churn <MTBF,MTTR>    wall-clock node churn: mean time between node
                         failures and mean repair time, in milliseconds
  --app-retries <N>      re-admit an aborted submission up to N times with
                         capped exponential backoff
  --max-active <N>       admit at most N concurrent apps; later arrivals
                         follow the --admission policy
  --admission <policy>   queue | shed | degrade (default queue); what an
                         arrival gets when the cluster is at --max-active
  --deadline <US>        per-submission SLO deadline in microseconds;
                         reports per-tenant attainment

  Every (scheduler x quota) combination serves the same Poisson arrival
  stream (replayed from the master seed) and reports per-tenant mean/p95/p99
  JCT plus the cross-tenant eviction matrix and the run's high-water marks
  (active apps, slot-arena size, resident blocks/bytes). Streaming mode
  admits each submission at its arrival and retires it after it drains, so
  state tracks peak concurrency, not stream length.

WORKLOADS: KM LinR LogR SVM DT MF PR TC SP LP SVD++ CC SCC PO
           Sort WordCount TeraSort PageRank(Hi) Bayes K-Means(Hi)
";

fn find_workload(name: &str) -> Result<Workload, String> {
    Workload::from_short_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `refdist list`)"))
}

struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.i += 1;
        self.args
            .get(self.i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parse_num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
    }

    fn parse_list<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        let v = self.value(flag)?;
        let items: Result<Vec<T>, String> = v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| format!("{flag}: cannot parse `{s}`")))
            .collect();
        let items = items?;
        if items.is_empty() {
            return Err(format!("{flag} needs at least one value"));
        }
        Ok(items)
    }
}

/// Parse CLI arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let mut params = WorkloadParams::default();
    let mut policy = None;
    let mut cache_bytes = None;
    let mut cache_fraction = 0.4;
    let mut cluster = "main".to_string();
    let mut nodes = None;
    let mut adhoc = false;
    let mut seed = 42u64;
    let mut stages = false;
    let mut workloads: Vec<String> = vec!["CC".into()];
    let mut policies: Option<Vec<String>> = None;
    let mut fractions: Vec<f64> = refdist_bench::SWEEP_FRACTIONS.to_vec();
    let mut seeds: Vec<u64> = vec![42];
    let mut rates: Vec<f64> = vec![0.0, 0.02, 0.05, 0.1];
    let mut threads = 0usize;
    let mut csv = false;
    let mut tenants = 3u32;
    let mut apps: Option<u32> = None;
    let mut gap_ms = 500u64;
    let mut gap_us: Option<u64> = None;
    let mut mix: Vec<String> = Vec::new();
    let mut scheds: Vec<String> = vec!["fifo".into(), "fair-share".into()];
    let mut quotas: Vec<String> = vec!["unlimited".into(), "equal-share".into()];
    let mut churn: Option<(u64, u64)> = None;
    let mut max_active: Option<u32> = None;
    let mut admission = "queue".to_string();
    let mut deadline_us: Option<u64> = None;
    let mut app_retries = 0u32;
    let mut serve_chaos = false;
    let mut positional: Vec<&String> = Vec::new();

    let mut f = Flags { args, i: 0 };
    while f.i + 1 < args.len() {
        f.i += 1;
        let arg = &args[f.i];
        match arg.as_str() {
            "--partitions" => params.partitions = f.parse_num("--partitions")?,
            "--scale" => params.scale = f.parse_num("--scale")?,
            "--iterations" => params.iterations = Some(f.parse_num("--iterations")?),
            "--policy" => policy = Some(f.value("--policy")?.to_string()),
            "--cache-mb" => {
                cache_bytes = Some(mib_to_bytes("--cache-mb", f.parse_num("--cache-mb")?)?)
            }
            "--cache-fraction" => cache_fraction = f.parse_num("--cache-fraction")?,
            "--cluster" => cluster = f.value("--cluster")?.to_string(),
            "--nodes" => nodes = Some(f.parse_num("--nodes")?),
            "--adhoc" => adhoc = true,
            "--seed" => seed = f.parse_num("--seed")?,
            "--stages" => stages = true,
            "--workloads" => workloads = f.parse_list("--workloads")?,
            "--policies" => policies = Some(f.parse_list("--policies")?),
            "--fractions" => fractions = f.parse_list("--fractions")?,
            "--seeds" => seeds = f.parse_list("--seeds")?,
            "--rates" => rates = f.parse_list("--rates")?,
            "--threads" => threads = f.parse_num("--threads")?,
            "--csv" => csv = true,
            "--tenants" => tenants = f.parse_num("--tenants")?,
            "--apps" => apps = Some(f.parse_num("--apps")?),
            "--gap-ms" => gap_ms = f.parse_num("--gap-ms")?,
            "--arrival-gap" => gap_us = Some(f.parse_num("--arrival-gap")?),
            "--mix" => mix = f.parse_list("--mix")?,
            "--scheds" => scheds = f.parse_list("--scheds")?,
            "--quotas" => quotas = f.parse_list("--quotas")?,
            "--churn" => {
                let pair: Vec<u64> = f.parse_list("--churn")?;
                if pair.len() != 2 {
                    return Err("--churn needs MTBF,MTTR in milliseconds".into());
                }
                churn = Some((pair[0], pair[1]));
            }
            "--max-active" => max_active = Some(f.parse_num("--max-active")?),
            "--admission" => admission = f.value("--admission")?.to_string(),
            "--deadline" => deadline_us = Some(f.parse_num("--deadline")?),
            "--app-retries" => app_retries = f.parse_num("--app-retries")?,
            "--serve" => serve_chaos = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => positional.push(arg),
        }
    }

    // Every command's workloads are generated from `params`: reject values
    // no generator can build from before anything is built.
    params.validate()?;
    let workload_arg = || -> Result<String, String> {
        positional
            .first()
            .map(|s| s.to_string())
            .ok_or_else(|| "missing <workload> argument".to_string())
    };

    match cmd.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "inspect" => Ok(Command::Inspect {
            workload: workload_arg()?,
            params,
        }),
        "dot" => Ok(Command::Dot {
            workload: workload_arg()?,
            stages,
            params,
        }),
        "run" => Ok(Command::Run {
            workload: workload_arg()?,
            policy: policy.ok_or("run requires --policy")?,
            cache_bytes,
            cache_fraction,
            cluster,
            nodes,
            adhoc,
            seed,
            params,
        }),
        "compare" => Ok(Command::Compare {
            workload: workload_arg()?,
            cache_fraction,
            nodes,
            params,
        }),
        "sweep" => Ok(Command::Sweep {
            workloads,
            policies: policies.unwrap_or_else(|| vec!["lru".into(), "mrd".into()]),
            fractions,
            seeds,
            threads,
            csv,
            cluster,
            nodes,
            adhoc,
            seed,
            params,
        }),
        "chaos" => Ok(Command::Chaos {
            workload: workload_arg()?,
            policies: policies
                .unwrap_or_else(|| vec!["lru".into(), "lrc".into(), "mrd".into()]),
            rates,
            cache_fraction,
            cluster,
            nodes,
            threads,
            seed,
            csv,
            serve: serve_chaos,
            tenants,
            apps,
            gap_ms,
            deadline_us,
            app_retries,
            params,
        }),
        "serve" => Ok(Command::Serve {
            workload: if mix.is_empty() {
                workload_arg()?
            } else {
                positional
                    .first()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| mix[0].clone())
            },
            policy: policy.unwrap_or_else(|| "mrd".into()),
            tenants,
            apps,
            gap_ms,
            gap_us,
            mix,
            scheds,
            quotas,
            cache_fraction,
            cluster,
            nodes,
            seed,
            churn,
            max_active,
            admission,
            deadline_us,
            app_retries,
            params,
        }),
        other => Err(format!("unknown command `{other}` (try `refdist help`)")),
    }
}

fn parse_policy(name: &str) -> Result<PolicySpec, String> {
    PolicySpec::from_cli_name(name).ok_or_else(|| format!("unknown policy `{name}`"))
}

fn parse_sched(name: &str) -> Result<refdist_cluster::ServeSched, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "fifo" => refdist_cluster::ServeSched::Fifo,
        "fair-share" | "fair" => refdist_cluster::ServeSched::FairShare,
        other => return Err(format!("unknown scheduler `{other}` (fifo | fair-share)")),
    })
}

fn parse_quota(name: &str) -> Result<refdist_cluster::QuotaKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "unlimited" => Ok(refdist_cluster::QuotaKind::Unlimited),
        "equal-share" | "equal" => Ok(refdist_cluster::QuotaKind::EqualShare),
        other => {
            let mib = other.parse::<u64>().map_err(|_| {
                format!("unknown quota `{other}` (unlimited | equal-share | per-tenant MiB)")
            })?;
            let bytes = mib_to_bytes("--quotas", mib)?;
            Ok(refdist_cluster::QuotaKind::Bytes(bytes))
        }
    }
}

/// `mib` MiB in bytes, or an error naming `flag` when that overflows `u64`.
fn mib_to_bytes(flag: &str, mib: u64) -> Result<u64, String> {
    mib.checked_mul(1 << 20)
        .ok_or_else(|| format!("{flag}: {mib} MiB does not fit in 64 bits of bytes"))
}

fn parse_admission(name: &str) -> Result<refdist_cluster::AdmissionPolicy, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "queue" => refdist_cluster::AdmissionPolicy::Queue,
        "shed" => refdist_cluster::AdmissionPolicy::Shed,
        "degrade" => refdist_cluster::AdmissionPolicy::Degrade,
        other => {
            return Err(format!(
                "unknown admission policy `{other}` (queue | shed | degrade)"
            ))
        }
    })
}

/// A cluster preset with the `--nodes` override applied (unvalidated: solo
/// commands validate it, serve commands through [`ServeScenario::validate`]).
fn cluster_preset(name: &str, nodes: Option<u32>) -> Result<ClusterConfig, String> {
    let mut cl = match name.to_ascii_lowercase().as_str() {
        "main" => ClusterConfig::main_cluster(),
        "lrc" => ClusterConfig::lrc_cluster(),
        "memtune" => ClusterConfig::memtune_cluster(),
        other => return Err(format!("unknown cluster preset `{other}`")),
    };
    if let Some(n) = nodes {
        cl.nodes = n;
    }
    Ok(cl)
}

/// `refdist chaos --serve`: SLO attainment vs churn rate. Each rate is an
/// expected node-failure count per simulated second; the stream is replayed
/// (same arrivals, same master seed) under a Poisson churn process with
/// `MTBF = 1/rate` and `MTTR = MTBF/5`, with churn-aborted submissions
/// re-admitted up to `--app-retries` times. A submission meets its SLO when
/// it completes within `--deadline` microseconds of its arrival (default:
/// twice that policy's fault-free maximum JCT, so the rate-0 baseline always
/// attains 100%). `base` is the validated fault-free, deadline-free stream.
fn chaos_serve(
    w: Workload,
    base: &ServeScenario,
    policies: &[PolicySpec],
    rates: &[f64],
    deadline_us: Option<u64>,
    csv: bool,
) -> Result<String, String> {
    let napps = base.apps;
    let run_at = |rate: f64, deadline: Option<u64>, policy: PolicySpec| {
        let mut sc = base.clone();
        if rate > 0.0 {
            let mtbf_us = ((1_000_000.0 / rate) as u64).max(1);
            sc.sim.faults.node_churn(mtbf_us, (mtbf_us / 5).max(1));
        }
        sc.axis.resilience.deadline_us = deadline;
        sc.run(policy)
    };
    // One curve point: policy, rate, deadline, met, retries, crashes,
    // rejoins, makespan.
    type CurveRow = (String, f64, u64, usize, u64, u64, u64, f64);
    let mut rows: Vec<CurveRow> = Vec::new();
    for &policy in policies {
        // Each policy's SLO is anchored to its own fault-free stream.
        let deadline = match deadline_us {
            Some(d) => d,
            None => {
                let base = run_at(0.0, None, policy)?;
                base.arrivals
                    .iter()
                    .zip(&base.completions)
                    .map(|(a, c)| c.saturating_sub(*a))
                    .max()
                    .unwrap_or(0)
                    .saturating_mul(2)
                    .max(1)
            }
        };
        for &rate in rates {
            let rep = run_at(rate, Some(deadline), policy)?;
            let res = rep.resilience.as_ref().expect("deadline set");
            let met = rep.deadline_met().expect("deadline set");
            let crashes: u64 = rep.reports.iter().map(|r| r.faults.crashes).sum();
            let rejoins: u64 = rep.reports.iter().map(|r| r.faults.rejoins).sum();
            let policy_name = rep
                .reports
                .iter()
                .map(|r| r.policy.as_str())
                .find(|p| *p != "-")
                .unwrap_or("-")
                .to_string();
            rows.push((
                policy_name,
                rate,
                deadline,
                met,
                res.total_retries(),
                crashes,
                rejoins,
                rep.makespan.as_secs_f64(),
            ));
        }
    }
    let mtbf_label = |rate: f64| {
        if rate > 0.0 {
            format!("{:.1}", 1.0 / rate)
        } else {
            "-".into()
        }
    };
    if csv {
        let mut out = String::from(
            "policy,rate,mtbf_s,deadline_s,slo_met,slo_total,attainment,\
             app_retries,crashes,rejoins,makespan_s\n",
        );
        for (pol, rate, dl, met, retries, crashes, rejoins, mk) in &rows {
            let _ = writeln!(
                out,
                "{},{:.4},{},{:.4},{},{},{:.4},{},{},{},{:.4}",
                pol,
                rate,
                mtbf_label(*rate),
                *dl as f64 / 1e6,
                met,
                napps,
                *met as f64 / napps as f64,
                retries,
                crashes,
                rejoins,
                mk,
            );
        }
        return Ok(out);
    }
    let mut t = TextTable::new([
        "Policy",
        "Rate",
        "MTBF (s)",
        "SLO",
        "Attainment",
        "Retries",
        "Crashes",
        "Rejoins",
        "Makespan (s)",
    ]);
    for (pol, rate, _dl, met, retries, crashes, rejoins, mk) in &rows {
        t.row([
            pol.clone(),
            format!("{rate:.4}"),
            mtbf_label(*rate),
            format!("{met}/{napps}"),
            format!("{:.1}%", *met as f64 / napps as f64 * 100.0),
            retries.to_string(),
            crashes.to_string(),
            rejoins.to_string(),
            format!("{mk:.2}"),
        ]);
    }
    let deadline_note = match deadline_us {
        Some(d) => format!("deadline {:.3}s", d as f64 / 1e6),
        None => "deadline 2x each policy's fault-free max JCT".into(),
    };
    let mut out = format!(
        "{} serve resilience on {} nodes: {} submissions over {} tenants, \
         {} app retries, {} (seed {})\n\n",
        w.short_name(),
        base.sim.cluster.nodes,
        napps,
        base.axis.tenants,
        base.axis.resilience.max_app_attempts - 1,
        deadline_note,
        base.sim.seed,
    );
    out.push_str(&t.render());
    Ok(out)
}

/// Execute a parsed command, returning its printable output.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut t = TextTable::new(["Name", "Full name", "Category", "Job type", "Iterations"]);
            for &w in Workload::sparkbench().iter().chain(Workload::hibench()) {
                t.row([
                    w.short_name().to_string(),
                    w.full_name().to_string(),
                    w.category().to_string(),
                    w.job_type().to_string(),
                    w.default_iterations().map_or("-".into(), |i| i.to_string()),
                ]);
            }
            Ok(t.render())
        }
        Command::Inspect { workload, params } => {
            let w = find_workload(&workload)?;
            let spec = w.build(&params);
            let plan = AppPlan::build(&spec);
            let analyzer = RefAnalyzer::new(&spec, &plan);
            let profile = analyzer.profile();
            let ch = analyzer.characteristics(&profile);
            let d = refdist_dag::RefAnalyzer::distance_stats(&profile);
            let mut out = String::new();
            let _ = writeln!(out, "{} ({})", w.full_name(), w.short_name());
            let _ = writeln!(out, "  category:        {}", w.category());
            let _ = writeln!(out, "  job type:        {}", w.job_type());
            let _ = writeln!(out, "  input:           {}", human_bytes(ch.input_bytes));
            let _ = writeln!(out, "  jobs:            {}", ch.jobs);
            let _ = writeln!(
                out,
                "  stages:          {} ({} active)",
                ch.stages, ch.active_stages
            );
            let _ = writeln!(out, "  rdds:            {}", ch.rdds);
            let _ = writeln!(out, "  refs/rdd:        {:.2}", ch.refs_per_rdd);
            let _ = writeln!(out, "  refs/stage:      {:.2}", ch.refs_per_stage);
            let _ = writeln!(
                out,
                "  avg job dist:    {:.2} (max {})",
                d.avg_job, d.max_job
            );
            let _ = writeln!(
                out,
                "  avg stage dist:  {:.2} (max {})",
                d.avg_stage, d.max_stage
            );
            let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();
            let _ = writeln!(out, "  cached footprint: {}", human_bytes(footprint));
            let live = refdist_dag::LiveSetProfile::compute(&spec, &profile);
            let _ = writeln!(
                out,
                "  peak live set:   {} at {} ({}% optimal cache savings)",
                human_bytes(live.peak_bytes),
                live.peak_stage,
                (live.optimal_savings() * 100.0) as u32
            );
            Ok(out)
        }
        Command::Dot {
            workload,
            stages,
            params,
        } => {
            let w = find_workload(&workload)?;
            let spec = w.build(&params);
            if stages {
                let plan = AppPlan::build(&spec);
                Ok(refdist_dag::dot::stage_dot(&spec, &plan))
            } else {
                Ok(refdist_dag::dot::lineage_dot(&spec))
            }
        }
        Command::Run {
            workload,
            policy,
            cache_bytes,
            cache_fraction,
            cluster,
            nodes,
            adhoc,
            seed,
            params,
        } => {
            let w = find_workload(&workload)?;
            let policy = parse_policy(&policy)?.traceless()?;
            let cl = cluster_preset(&cluster, nodes)?;
            cl.validate()?;
            let spec = w.build(&params);
            let plan = AppPlan::build(&spec);
            let cache = match cache_bytes {
                Some(bytes) => bytes.max(1),
                None => cache_for_largest(std::slice::from_ref(&spec), &cl, cache_fraction)?,
            };
            let cfg = SimConfig::new(cl.with_cache(cache)).with_seed(seed);
            let mode = if adhoc {
                ProfileMode::AdHoc
            } else {
                ProfileMode::Recurring
            };
            let mut p = policy.build(None);
            let report = Simulation::new(&spec, &plan, mode, cfg).run(&mut *p);
            if let Some(a) = &report.aborted {
                return Err(format!(
                    "stage {} aborted: task {} failed all {} attempts",
                    a.stage.0, a.task, a.attempts
                ));
            }
            let mut out = String::new();
            let _ = writeln!(out, "{}", report.summary());
            let _ = writeln!(
                out,
                "  cache/node: {}, io {:.1}s, compute {:.1}s, tasks {}",
                human_bytes(cache),
                report.io_time.as_secs_f64(),
                report.compute_time.as_secs_f64(),
                report.tasks
            );
            let _ = writeln!(
                out,
                "  disk hits {}, recomputes {}, remote hits {}, wasted prefetches {}",
                report.stats.disk_hits,
                report.stats.recomputes,
                report.stats.remote_hits,
                report.stats.wasted_prefetches
            );
            Ok(out)
        }
        Command::Compare {
            workload,
            cache_fraction,
            nodes,
            params,
        } => {
            let w = find_workload(&workload)?;
            let cl = cluster_preset("main", nodes)?;
            cl.validate()?;
            let spec = w.build(&params);
            let plan = AppPlan::build(&spec);
            let cache = cache_for_largest(std::slice::from_ref(&spec), &cl, cache_fraction)?;
            let cfg = SimConfig::new(cl.with_cache(cache));
            let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);
            let mut reports = Vec::new();
            for policy in [
                PolicySpec::Lru,
                PolicySpec::Fifo,
                PolicySpec::Random,
                PolicySpec::Lrc,
                PolicySpec::MemTune,
                PolicySpec::MrdEvict,
                PolicySpec::MrdPrefetch,
                PolicySpec::MrdFull,
            ] {
                reports.push(sim.run(&mut *policy.build(None)));
            }
            reports.sort_by_key(|r| r.jct);
            let baseline = reports
                .iter()
                .find(|r| r.policy == "LRU")
                .cloned()
                .expect("LRU ran");
            let mut t = TextTable::new([
                "Policy",
                "JCT (s)",
                "vs LRU",
                "Hit %",
                "Evictions",
                "Prefetches",
            ]);
            for r in &reports {
                t.row([
                    r.policy.clone(),
                    format!("{:.2}", r.jct_secs()),
                    format!("{:.2}", r.normalized_jct(&baseline)),
                    format!("{:.1}", r.hit_ratio() * 100.0),
                    (r.stats.evictions + r.stats.purges).to_string(),
                    r.stats.prefetches.to_string(),
                ]);
            }
            let mut out = format!(
                "{} on {} nodes, cache {}/node ({}% of footprint):\n\n",
                w.short_name(),
                cl.nodes,
                human_bytes(cache),
                (cache_fraction * 100.0) as u32
            );
            out.push_str(&t.render());
            Ok(out)
        }
        Command::Sweep {
            workloads,
            policies,
            fractions,
            seeds,
            threads,
            csv,
            cluster,
            nodes,
            adhoc,
            seed,
            params,
        } => {
            let ws: Vec<Workload> = workloads
                .iter()
                .map(|w| find_workload(w))
                .collect::<Result<_, _>>()?;
            let ps: Vec<PolicySpec> = policies
                .iter()
                .map(|p| parse_policy(p))
                .collect::<Result<_, _>>()?;
            for &f in &fractions {
                check_fraction(f)?;
            }
            let cl = cluster_preset(&cluster, nodes)?;
            cl.validate()?;
            let ctx = refdist_bench::ExpContext {
                cluster: cl,
                params,
                seed,
                faults: Default::default(),
            };
            let grid = refdist_bench::SweepGrid::new(ws, ps)
                .fractions(&fractions)
                .seeds(&seeds);
            let mode = if adhoc {
                ProfileMode::AdHoc
            } else {
                ProfileMode::Recurring
            };
            let opts = refdist_bench::SweepOptions::default()
                .threads(threads)
                .mode(mode)
                .progress(true);
            let res = refdist_bench::run_sweep(&grid, &ctx, &opts);
            // Wall time is nondeterministic: stderr only, keeping stdout
            // byte-identical for any worker count.
            eprintln!(
                "{} cells in {:.1}s",
                res.cells.len(),
                res.wall.as_secs_f64()
            );
            Ok(if csv { res.csv() } else { res.table() })
        }
        Command::Chaos {
            workload,
            policies,
            rates,
            cache_fraction,
            cluster,
            nodes,
            threads,
            seed,
            csv,
            serve,
            tenants,
            apps,
            gap_ms,
            deadline_us,
            app_retries,
            params,
        } => {
            let w = find_workload(&workload)?;
            let cl = cluster_preset(&cluster, nodes)?;
            for r in &rates {
                if !r.is_finite() || *r < 0.0 || *r > 1.0 {
                    return Err(format!("--rates: `{r}` is not a probability in [0, 1]"));
                }
            }
            // Rate 0 is the degradation baseline every policy normalizes
            // against, so it is always part of the grid.
            let mut rates = rates;
            rates.push(0.0);
            rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
            rates.dedup();
            if serve {
                let policies = policies
                    .iter()
                    .map(|p| parse_policy(p)?.traceless())
                    .collect::<Result<Vec<_>, _>>()?;
                let spec = w.build(&params);
                let base = ServeScenario {
                    templates: std::slice::from_ref(&spec),
                    apps: apps.unwrap_or(tenants),
                    sim: SimConfig::new(cl).with_seed(seed),
                    axis: ServeAxis {
                        tenants,
                        mean_gap_us: gap_ms.saturating_mul(1_000),
                        sched: ServeSched::FairShare,
                        quota: QuotaKind::Unlimited,
                        resilience: ResilienceConfig {
                            max_app_attempts: app_retries.saturating_add(1),
                            ..Default::default()
                        },
                    },
                }
                .fit_cache(cache_fraction)?;
                base.validate()?;
                return chaos_serve(w, &base, &policies, &rates, deadline_us, csv);
            }
            let ps: Vec<PolicySpec> = policies
                .iter()
                .map(|p| parse_policy(p))
                .collect::<Result<_, _>>()?;
            check_fraction(cache_fraction)?;
            cl.validate()?;
            let ctx = refdist_bench::ExpContext {
                cluster: cl,
                params,
                seed,
                faults: Default::default(),
            };
            let grid = refdist_bench::SweepGrid::new(vec![w], ps)
                .fractions(&[cache_fraction])
                .chaos(&rates);
            let opts = refdist_bench::SweepOptions::default()
                .threads(threads)
                .progress(true);
            let res = refdist_bench::run_sweep(&grid, &ctx, &opts);
            eprintln!(
                "{} cells in {:.1}s",
                res.cells.len(),
                res.wall.as_secs_f64()
            );
            // Each policy's fault-free JCT at the same grid point.
            let baseline = |policy: &str| -> Option<f64> {
                res.cells
                    .iter()
                    .find(|c| c.cell.chaos == 0.0 && c.report.policy == policy)
                    .map(|c| c.report.jct_secs())
            };
            if csv {
                let mut out = String::from(
                    "rate,policy,jct_s,vs_fault_free,task_failures,retries,\
                     fetch_failures,disk_failures,fault_recomputes,aborted\n",
                );
                for c in &res.cells {
                    let f = &c.report.faults;
                    let base = baseline(&c.report.policy);
                    let _ = writeln!(
                        out,
                        "{:.4},{},{:.4},{},{},{},{},{},{},{}",
                        c.cell.chaos,
                        c.report.policy,
                        c.report.jct_secs(),
                        base.map_or("-".into(), |b| {
                            format!("{:.4}", c.report.jct_secs() / b)
                        }),
                        f.task_failures,
                        f.retries,
                        f.fetch_failures,
                        f.disk_failures,
                        f.fault_recomputes,
                        c.report.aborted.is_some() as u8,
                    );
                }
                Ok(out)
            } else {
                let mut t = TextTable::new([
                    "Rate",
                    "Policy",
                    "JCT (s)",
                    "vs fault-free",
                    "Task fails",
                    "Fetch fails",
                    "Disk fails",
                    "Recomputes",
                ]);
                for c in &res.cells {
                    let f = &c.report.faults;
                    // An abort is itself a resilience data point: mark the
                    // row rather than failing the whole curve.
                    let jct = match &c.report.aborted {
                        Some(a) => format!("abort@s{}", a.stage.0),
                        None => format!("{:.2}", c.report.jct_secs()),
                    };
                    let vs = match (c.report.aborted.is_some(), baseline(&c.report.policy)) {
                        (false, Some(b)) => format!("{:.2}", c.report.jct_secs() / b),
                        _ => "-".into(),
                    };
                    t.row([
                        format!("{:.4}", c.cell.chaos),
                        c.report.policy.clone(),
                        jct,
                        vs,
                        f.task_failures.to_string(),
                        f.fetch_failures.to_string(),
                        f.disk_failures.to_string(),
                        f.fault_recomputes.to_string(),
                    ]);
                }
                let mut out = format!(
                    "{} resilience curve on {} nodes ({}% of footprint cached, seed {}):\n\n",
                    w.short_name(),
                    ctx.cluster.nodes,
                    (cache_fraction * 100.0) as u32,
                    seed
                );
                out.push_str(&t.render());
                Ok(out)
            }
        }
        Command::Serve {
            workload,
            policy,
            tenants,
            apps,
            gap_ms,
            gap_us,
            mix,
            scheds,
            quotas,
            cache_fraction,
            cluster,
            nodes,
            seed,
            churn,
            max_active,
            admission,
            deadline_us,
            app_retries,
            params,
        } => {
            // A heterogeneous mix cycles through the named workloads; the
            // plain form is the one-workload special case.
            let names = if mix.is_empty() { vec![workload] } else { mix };
            let ws = names
                .iter()
                .map(|n| find_workload(n))
                .collect::<Result<Vec<_>, _>>()?;
            let spec_policy = parse_policy(&policy)?.traceless()?;
            let scheds: Vec<ServeSched> = scheds
                .iter()
                .map(|s| parse_sched(s))
                .collect::<Result<_, _>>()?;
            let quotas: Vec<QuotaKind> = quotas
                .iter()
                .map(|q| parse_quota(q))
                .collect::<Result<_, _>>()?;
            let admission = parse_admission(&admission)?;
            let specs: Vec<AppSpec> = ws.iter().map(|w| w.build(&params)).collect();
            let mut sim = SimConfig::new(cluster_preset(&cluster, nodes)?).with_seed(seed);
            if let Some((mtbf_ms, mttr_ms)) = churn {
                sim.faults
                    .node_churn(mtbf_ms.saturating_mul(1_000), mttr_ms.saturating_mul(1_000));
            }
            let napps = apps.unwrap_or(tenants);
            let base = ServeScenario {
                templates: &specs,
                apps: napps,
                sim,
                axis: ServeAxis {
                    tenants,
                    mean_gap_us: gap_us.unwrap_or_else(|| gap_ms.saturating_mul(1_000)),
                    sched: scheds[0],
                    quota: quotas[0],
                    resilience: ResilienceConfig {
                        max_app_attempts: app_retries.saturating_add(1),
                        admission,
                        max_active_apps: max_active,
                        deadline_us,
                        ..Default::default()
                    },
                },
            }
            .fit_cache(cache_fraction)?;
            base.validate()?;
            let label = ws
                .iter()
                .map(|w| w.short_name().to_string())
                .collect::<Vec<_>>()
                .join("+");
            let mut out = format!(
                "{} x {} tenants on {} nodes, cache {}/node, mean gap {}ms, policy {}, seed {}\n",
                label,
                tenants,
                base.sim.cluster.nodes,
                human_bytes(base.sim.cluster.cache_bytes),
                base.axis.mean_gap_us / 1_000,
                policy,
                seed
            );
            if napps != tenants {
                let _ = writeln!(out, "stream: {napps} submissions (streaming mode)");
            }
            if churn.is_some() || !base.axis.resilience.is_passive() {
                let mut bits: Vec<String> = Vec::new();
                if let Some((b, r)) = churn {
                    bits.push(format!("churn mtbf {b}ms mttr {r}ms"));
                }
                if app_retries > 0 {
                    bits.push(format!("{app_retries} app retries"));
                }
                if let Some(m) = max_active {
                    bits.push(format!("max-active {m} ({admission})"));
                }
                if let Some(d) = deadline_us {
                    bits.push(format!("deadline {:.3}s", d as f64 / 1e6));
                }
                out.push_str(&format!("resilience: {}\n", bits.join(", ")));
            }
            for &sched in &scheds {
                for &quota in &quotas {
                    let cell = ServeScenario {
                        axis: ServeAxis {
                            sched,
                            quota,
                            ..base.axis
                        },
                        ..base.clone()
                    };
                    let report = cell.run(spec_policy)?;
                    out.push('\n');
                    out.push_str(&report.summary());
                    out.push_str(&format!(
                        "peaks: {} active apps, {} arena slots, {} resident blocks ({})\n",
                        report.peak_active_apps,
                        report.peak_arena_slots,
                        report.peak_resident_blocks,
                        human_bytes(report.peak_resident_bytes),
                    ));
                    out.push_str(&format!(
                        "admission: {} distinct templates interned over {} submissions\n",
                        report.distinct_templates, napps
                    ));
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_list_and_help() {
        assert_eq!(parse(&args("list")).unwrap(), Command::List);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(parse(&args("frobnicate")).is_err());
    }

    #[test]
    fn parse_run_flags() {
        let cmd = parse(&args(
            "run CC --policy mrd --cache-mb 64 --nodes 4 --adhoc --seed 7 --partitions 16 --scale 0.1",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                workload,
                policy,
                cache_bytes,
                nodes,
                adhoc,
                seed,
                params,
                ..
            } => {
                assert_eq!(workload, "CC");
                assert_eq!(policy, "mrd");
                assert_eq!(cache_bytes, Some(64 << 20));
                assert_eq!(nodes, Some(4));
                assert!(adhoc);
                assert_eq!(seed, 7);
                assert_eq!(params.partitions, 16);
                assert!((params.scale - 0.1).abs() < 1e-12);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args("run CC")).is_err()); // missing --policy
        assert!(parse(&args("run --policy mrd")).is_err()); // missing workload
        assert!(parse(&args("run CC --policy mrd --cache-mb nope")).is_err());
        assert!(parse(&args("inspect CC --bogus")).is_err());
    }

    #[test]
    fn list_mentions_every_workload() {
        let out = execute(Command::List).unwrap();
        for &w in Workload::sparkbench() {
            assert!(out.contains(w.short_name()), "missing {}", w.short_name());
        }
    }

    #[test]
    fn inspect_reports_statistics() {
        let out = execute(parse(&args("inspect SP --partitions 8 --scale 0.05")).unwrap()).unwrap();
        assert!(out.contains("Shortest Paths"));
        assert!(out.contains("jobs:"));
        assert!(out.contains("avg stage dist:"));
    }

    #[test]
    fn inspect_unknown_workload_fails() {
        assert!(execute(parse(&args("inspect NOPE")).unwrap()).is_err());
    }

    #[test]
    fn dot_emits_graphviz() {
        let out =
            execute(parse(&args("dot TeraSort --partitions 4 --scale 0.01")).unwrap()).unwrap();
        assert!(out.starts_with("digraph"));
        let out =
            execute(parse(&args("dot TeraSort --stages --partitions 4 --scale 0.01")).unwrap())
                .unwrap();
        assert!(out.contains("cluster_j0"));
    }

    #[test]
    fn run_executes_a_simulation() {
        let out = execute(
            parse(&args(
                "run SP --policy mrd --nodes 2 --partitions 8 --scale 0.02 --cache-fraction 0.3",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("ShortestPaths under MRD(full,stage)"));
        assert!(out.contains("tasks"));
    }

    #[test]
    fn run_rejects_unknown_policy() {
        let r = execute(
            parse(&args(
                "run SP --policy optimal --nodes 2 --partitions 8 --scale 0.02",
            ))
            .unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse(&args(
            "sweep --workloads SP,CC --policies lru,mrd --fractions 0.3,0.6 --seeds 1,2 --threads 3 --csv --partitions 8",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                workloads,
                policies,
                fractions,
                seeds,
                threads,
                csv,
                params,
                ..
            } => {
                assert_eq!(workloads, vec!["SP", "CC"]);
                assert_eq!(policies, vec!["lru", "mrd"]);
                assert_eq!(fractions, vec![0.3, 0.6]);
                assert_eq!(seeds, vec![1, 2]);
                assert_eq!(threads, 3);
                assert!(csv);
                assert_eq!(params.partitions, 8);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn sweep_defaults_are_sane() {
        match parse(&args("sweep")).unwrap() {
            Command::Sweep {
                workloads,
                policies,
                fractions,
                seeds,
                threads,
                csv,
                ..
            } => {
                assert_eq!(workloads, vec!["CC"]);
                assert_eq!(policies, vec!["lru", "mrd"]);
                assert_eq!(fractions, refdist_bench::SWEEP_FRACTIONS);
                assert_eq!(seeds, vec![42]);
                assert_eq!(threads, 0);
                assert!(!csv);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn sweep_executes_a_tiny_grid_as_csv() {
        let out = execute(
            parse(&args(
                "sweep --workloads SP --policies lru,mrd --fractions 0.3 --nodes 2 --partitions 8 --scale 0.02 --threads 2 --csv",
            ))
            .unwrap(),
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 cells: {out}");
        assert!(lines[0].starts_with("workload,policy,fraction,seed"));
        assert!(lines[1].starts_with("SP,LRU,0.3000,42"));
        assert!(lines[2].starts_with("SP,MRD,0.3000,42"));
    }

    #[test]
    fn sweep_rejects_unknown_names() {
        let r = execute(parse(&args("sweep --workloads NOPE")).unwrap());
        assert!(r.is_err());
        let r = execute(parse(&args("sweep --policies optimal")).unwrap());
        assert!(r.is_err());
        assert!(parse(&args("sweep --fractions ,")).is_err());
    }

    #[test]
    fn parse_chaos_defaults_and_flags() {
        match parse(&args("chaos SP")).unwrap() {
            Command::Chaos {
                workload,
                policies,
                rates,
                ..
            } => {
                assert_eq!(workload, "SP");
                assert_eq!(policies, vec!["lru", "lrc", "mrd"]);
                assert_eq!(rates, vec![0.0, 0.02, 0.05, 0.1]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args("chaos CC --policies lru,mrd --rates 0.05 --threads 2 --csv")).unwrap() {
            Command::Chaos {
                policies,
                rates,
                threads,
                csv,
                ..
            } => {
                assert_eq!(policies, vec!["lru", "mrd"]);
                assert_eq!(rates, vec![0.05]);
                assert_eq!(threads, 2);
                assert!(csv);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn chaos_rejects_bad_rates() {
        let r = execute(parse(&args("chaos SP --rates 1.5")).unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn chaos_builds_a_deterministic_resilience_curve() {
        // Rate 0 is injected as the baseline even though --rates omits it,
        // and the whole table is byte-stable across runs and thread counts.
        let run = |threads: &str| {
            execute(
                parse(&args(&format!(
                    "chaos SP --policies lru,lrc,mrd --rates 0.05 --nodes 2 \
                     --partitions 8 --scale 0.02 --cache-fraction 0.3 --threads {threads} --csv",
                )))
                .unwrap(),
            )
            .unwrap()
        };
        let out = run("2");
        assert_eq!(out, run("1"), "thread count changed chaos output");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "header + 2 rates x 3 policies: {out}");
        assert!(lines[0].starts_with("rate,policy"));
        // Baseline rows normalize to exactly 1.
        assert!(lines[1].starts_with("0.0000,LRU,"));
        assert!(lines[1].contains(",1.0000,"));
        // Chaotic rows actually drew faults.
        let chaotic: Vec<&&str> = lines[4..].iter().collect();
        assert!(chaotic.iter().all(|l| l.starts_with("0.0500,")));
        assert!(
            chaotic.iter().any(|l| {
                let cols: Vec<&str> = l.split(',').collect();
                cols[4] != "0" || cols[6] != "0" || cols[7] != "0"
            }),
            "no faults drawn at rate 0.05: {out}"
        );
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        match parse(&args("serve CC")).unwrap() {
            Command::Serve {
                workload,
                policy,
                tenants,
                gap_ms,
                scheds,
                quotas,
                mix,
                ..
            } => {
                assert_eq!(workload, "CC");
                assert_eq!(policy, "mrd");
                assert_eq!(tenants, 3);
                assert_eq!(gap_ms, 500);
                assert_eq!(scheds, vec!["fifo", "fair-share"]);
                assert_eq!(quotas, vec!["unlimited", "equal-share"]);
                assert!(mix.is_empty());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args(
            "serve SP --policy lru --tenants 5 --gap-ms 250 --scheds fair-share --quotas equal-share,64",
        ))
        .unwrap()
        {
            Command::Serve {
                policy,
                tenants,
                gap_ms,
                scheds,
                quotas,
                ..
            } => {
                assert_eq!(policy, "lru");
                assert_eq!(tenants, 5);
                assert_eq!(gap_ms, 250);
                assert_eq!(scheds, vec!["fair-share"]);
                assert_eq!(quotas, vec!["equal-share", "64"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --mix makes the positional workload optional.
        match parse(&args("serve --mix SP,CC,KM")).unwrap() {
            Command::Serve { workload, mix, .. } => {
                assert_eq!(workload, "SP");
                assert_eq!(mix, vec!["SP", "CC", "KM"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_inputs() {
        assert!(execute(parse(&args("serve SP --policy belady")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --tenants 0")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --scheds lottery")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --quotas 64kb")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --policy optimal")).unwrap()).is_err());
        assert!(execute(parse(&args("serve --mix SP,bogus")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --admission lottery")).unwrap()).is_err());
        // The reference drivers are config fields, not flags.
        assert!(parse(&args("serve SP --upfront")).is_err());
        assert!(parse(&args("serve SP --no-intern")).is_err());
        assert!(execute(parse(&args("serve SP --max-active 0")).unwrap()).is_err());
        assert!(execute(parse(&args("serve SP --churn 0,5")).unwrap()).is_err());
    }

    #[test]
    fn parse_serve_resilience_flags() {
        match parse(&args(
            "serve SP --churn 2000,500 --max-active 2 --admission shed \
             --deadline 4000000 --app-retries 3",
        ))
        .unwrap()
        {
            Command::Serve {
                churn,
                max_active,
                admission,
                deadline_us,
                app_retries,
                ..
            } => {
                assert_eq!(churn, Some((2000, 500)));
                assert_eq!(max_active, Some(2));
                assert_eq!(admission, "shed");
                assert_eq!(deadline_us, Some(4_000_000));
                assert_eq!(app_retries, 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --churn is strictly a pair.
        assert!(parse(&args("serve SP --churn 2000")).is_err());
        assert!(parse(&args("serve SP --churn 1,2,3")).is_err());
        // The passive defaults survive a plain parse.
        match parse(&args("serve SP")).unwrap() {
            Command::Serve {
                churn,
                max_active,
                admission,
                deadline_us,
                app_retries,
                ..
            } => {
                assert_eq!(churn, None);
                assert_eq!(max_active, None);
                assert_eq!(admission, "queue");
                assert_eq!(deadline_us, None);
                assert_eq!(app_retries, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn serve_resilience_flags_surface_in_output() {
        let cmd = "serve SP --policy lru --tenants 2 --apps 4 --gap-ms 50 --nodes 2 \
                   --partitions 8 --scale 0.02 --cache-fraction 0.3 --scheds fair-share \
                   --quotas unlimited --max-active 1 --admission queue --deadline 120000000";
        let out = execute(parse(&args(cmd)).unwrap()).unwrap();
        assert!(
            out.contains("resilience: max-active 1 (queue), deadline 120.000s"),
            "{out}"
        );
        // A non-passive config turns on the stream-level resilience and SLO
        // accounting lines.
        assert!(out.contains("queue delay p95"), "{out}");
        assert!(out.contains("slo:"), "{out}");
        let again = execute(parse(&args(cmd)).unwrap()).unwrap();
        assert_eq!(out, again, "resilient serve must replay byte-identically");
    }

    #[test]
    fn chaos_serve_reports_slo_attainment_curve() {
        let cmd = "chaos SP --serve --policies lru --rates 0.5 --tenants 2 --apps 4 \
                   --gap-ms 50 --nodes 3 --partitions 8 --scale 0.02 --cache-fraction 0.3 \
                   --app-retries 2 --csv";
        let out = execute(parse(&args(cmd)).unwrap()).unwrap();
        let again = execute(parse(&args(cmd)).unwrap()).unwrap();
        assert_eq!(out, again, "chaos --serve must be deterministic");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + rate 0 + rate 0.5: {out}");
        assert!(lines[0].starts_with("policy,rate,mtbf_s,deadline_s"));
        // The fault-free row attains 100% against its own derived deadline
        // (twice its own max JCT).
        assert!(lines[1].starts_with("LRU,0.0000,-,"), "{out}");
        assert!(lines[1].contains(",1.0000,"), "{out}");
        // The churned row actually took node crashes.
        let cols: Vec<&str> = lines[2].split(',').collect();
        assert!(lines[2].starts_with("LRU,0.5000,2.0,"), "{out}");
        assert_ne!(cols[8], "0", "no crashes at rate 0.5: {out}");
    }

    #[test]
    fn serve_mix_cycles_templates_and_reports_interning() {
        let out = execute(
            parse(&args(
                "serve --mix SP,CC --policy lru --tenants 2 --apps 6 --gap-ms 50 \
                 --nodes 2 --partitions 8 --scale 0.02 --cache-fraction 0.3 \
                 --scheds fifo --quotas unlimited",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.starts_with("SP+CC x 2 tenants"), "{out}");
        assert!(
            out.contains("admission: 2 distinct templates interned over 6 submissions"),
            "{out}"
        );
        // The command printed exactly the stream its scenario describes.
        let params = WorkloadParams {
            partitions: 8,
            scale: 0.02,
            ..Default::default()
        };
        let specs = [
            Workload::ShortestPaths.build(&params),
            Workload::ConnectedComponents.build(&params),
        ];
        let scenario = ServeScenario {
            templates: &specs,
            apps: 6,
            sim: SimConfig::new(cluster_preset("main", Some(2)).unwrap()),
            axis: ServeAxis {
                tenants: 2,
                mean_gap_us: 50_000,
                sched: ServeSched::Fifo,
                quota: QuotaKind::Unlimited,
                resilience: Default::default(),
            },
        }
        .fit_cache(0.3)
        .unwrap();
        let run = refdist_cluster::ServeSim::new(&scenario.submissions(), scenario.config())
            .run_with(|_| PolicySpec::Lru.build(None));
        assert_eq!(run.distinct_templates, 2);
        assert!(out.contains(&run.summary()), "{out}");
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        let tiny = "--nodes 2 --partitions 8 --scale 0.02";
        let cases = [
            "run SP --policy lru --nodes 0 --partitions 8 --scale 0.02".to_string(),
            "compare SP --nodes 0 --partitions 8 --scale 0.02".into(),
            "sweep --workloads SP --nodes 0 --partitions 8 --scale 0.02".into(),
            "chaos SP --nodes 0 --partitions 8 --scale 0.02".into(),
            "serve SP --nodes 0 --partitions 8 --scale 0.02".into(),
            "chaos SP --serve --nodes 0 --partitions 8 --scale 0.02".into(),
            "inspect SP --partitions 0".into(),
            "dot SP --partitions 0".into(),
            "run SP --policy lru --partitions 0".into(),
            "serve SP --partitions 0".into(),
            "chaos SP --serve --partitions 0".into(),
            "run SP --policy lru --scale 0".into(),
            "run SP --policy lru --scale -1".into(),
            "run SP --policy lru --scale nan".into(),
            "sweep --workloads SP --scale inf".into(),
            format!("run SP --policy lru {tiny} --cache-fraction nan"),
            format!("run SP --policy lru {tiny} --cache-fraction -1"),
            format!("compare SP {tiny} --cache-fraction inf"),
            format!("serve SP {tiny} --cache-fraction -1"),
            format!("chaos SP {tiny} --cache-fraction nan"),
            format!("chaos SP --serve {tiny} --cache-fraction -1"),
            format!("sweep --workloads SP {tiny} --fractions -1"),
            format!("sweep --workloads SP {tiny} --fractions 0.3,nan"),
            format!("serve SP {tiny} --tenants 0"),
            format!("chaos SP --serve {tiny} --tenants 0"),
            format!("serve SP {tiny} --apps 0"),
            format!("chaos SP --serve {tiny} --apps 0"),
            format!("serve SP {tiny} --max-active 0"),
            format!("serve SP {tiny} --churn 0,5"),
            format!("run CC --policy lru {tiny} --cache-mb 17592186044416"),
            format!("serve SP {tiny} --quotas 17592186044416"),
        ];
        for argv in &cases {
            match std::panic::catch_unwind(|| parse(&args(argv)).and_then(execute)) {
                Ok(Err(_)) => {}
                Ok(Ok(out)) => panic!("`refdist {argv}` succeeded:\n{out}"),
                Err(_) => panic!("`refdist {argv}` panicked"),
            }
        }
    }

    #[test]
    fn empty_streams_name_what_is_missing() {
        let tiny = "--nodes 2 --partitions 8 --scale 0.02";
        for cmd in ["serve SP", "chaos SP --serve"] {
            let err = |flags: &str| {
                execute(parse(&args(&format!("{cmd} {tiny} {flags}"))).unwrap()).unwrap_err()
            };
            assert_eq!(
                err("--apps 0"),
                "a serve stream needs at least one submission",
                "{cmd}"
            );
            assert_eq!(
                err("--tenants 0"),
                "a serve stream needs at least one tenant",
                "{cmd}"
            );
            assert_eq!(
                err("--tenants 0 --apps 4"),
                "a serve stream needs at least one tenant",
                "{cmd}"
            );
        }
    }

    #[test]
    fn belady_is_rejected_with_one_message() {
        let tiny = "--nodes 2 --partitions 8 --scale 0.02";
        let errors: Vec<String> = [
            format!("run SP --policy belady {tiny}"),
            format!("serve SP --policy belady {tiny}"),
            format!("chaos SP --serve --policies lru,belady {tiny}"),
        ]
        .iter()
        .map(|argv| execute(parse(&args(argv)).unwrap()).unwrap_err())
        .collect();
        assert!(errors[0].contains("belady needs a recorded whole-run trace"));
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    #[test]
    fn serve_reports_per_tenant_distributions() {
        // The acceptance grid: >= 3 tenants, both schedulers, >= 2 quota
        // policies, per-tenant mean/p95/p99 JCT plus the cross-tenant
        // eviction table in every section.
        let out = execute(
            parse(&args(
                "serve SP --policy lru --tenants 3 --gap-ms 100 --nodes 2 \
                 --partitions 8 --scale 0.02 --cache-fraction 0.3",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("serve: 3 apps over 3 tenants, fifo, quota unlimited"));
        assert!(out.contains("serve: 3 apps over 3 tenants, fifo, quota equal-share"));
        assert!(out.contains("serve: 3 apps over 3 tenants, fair-share, quota unlimited"));
        assert!(out.contains("serve: 3 apps over 3 tenants, fair-share, quota equal-share"));
        for t in 0..3 {
            assert!(out.contains(&format!("tenant {t}: 1 apps, mean JCT ")), "{out}");
        }
        assert!(out.contains("p95") && out.contains("p99"));
        assert!(out.contains("cross-tenant evictions"));
        // Deterministic: replaying the same master seed reproduces the grid.
        let again = execute(
            parse(&args(
                "serve SP --policy lru --tenants 3 --gap-ms 100 --nodes 2 \
                 --partitions 8 --scale 0.02 --cache-fraction 0.3",
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn compare_ranks_policies() {
        let out = execute(
            parse(&args(
                "compare SP --nodes 2 --partitions 8 --scale 0.02 --cache-fraction 0.3",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("LRU"));
        assert!(out.contains("MRD(full,stage)"));
        // The table is ranked: the first data row is the fastest policy.
        assert!(out.contains("vs LRU"));
    }
}
