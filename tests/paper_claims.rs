//! The paper's claims that this reproduction confirms, checked on the
//! full-size experiment outputs checked in under `experiments/`.
//!
//! `ci.sh` keeps every `experiments/<name>.txt` byte-equal to what
//! `refdist exp <name>` prints, so a change that moves a figure regenerates
//! the file and then fails here, on the claim it breaks, by name.

use std::path::PathBuf;

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("experiments")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The data rows of the first table in `text`: the whitespace-separated
/// cells of each line between the dashed rule under the header and the
/// next blank line. Section rows (`-- HiBench --`) are skipped.
fn table_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .filter(|l| !l.starts_with("--"))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

fn num(cell: &str) -> f64 {
    cell.parse()
        .unwrap_or_else(|e| panic!("not a number: {cell:?} ({e})"))
}

/// The numbers in the line of `text` that starts with `prefix`, in order
/// (tokens with a trailing `,` or `)` included).
fn numbers_in_line(text: &str, prefix: &str) -> Vec<f64> {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting {prefix:?}"));
    line.split_whitespace()
        .filter_map(|t| t.trim_end_matches([',', ')']).parse().ok())
        .collect()
}

#[test]
fn fig4_full_mrd_beats_evict_only_beats_prefetch_only_beats_lru_on_average() {
    let fig4 = read("exp_fig4.txt");
    // "Average normalized JCT: evict-only E (paper ..), prefetch-only P
    // (paper ..), full F (paper ..)": measured and paper values alternate.
    let avg = numbers_in_line(&fig4, "Average normalized JCT:");
    let (evict, prefetch, full) = (avg[0], avg[2], avg[4]);
    assert!(
        full < evict && evict < prefetch && prefetch < 1.0,
        "Fig 4 averages: full {full}, evict-only {evict}, prefetch-only {prefetch}"
    );
}

#[test]
fn fig4_mrd_hit_ratio_beats_lru_on_every_workload() {
    let fig4 = read("exp_fig4.txt");
    let rows = table_rows(&fig4);
    assert_eq!(rows.len(), 14, "one row per SparkBench workload");
    for row in rows {
        // Workload, Evict-only, Prefetch-only, Full MRD, LRU hit%, MRD hit%.
        let (lru, mrd) = (num(row[4]), num(row[5]));
        assert!(mrd > lru, "{}: MRD hit% {mrd} <= LRU hit% {lru}", row[0]);
    }
}

#[test]
fn fig5_mrd_beats_lrc_on_every_workload() {
    let fig5 = read("exp_fig5.txt");
    let rows = table_rows(&fig5);
    assert_eq!(rows.len(), 6, "CC, PR, SVD++, KM, SCC, LP");
    let losses: Vec<String> = rows
        .iter()
        .filter(|row| num(row[2]) >= num(row[1]))
        .map(|row| format!("{} (MRD {} vs LRC {})", row[0], row[2], row[1]))
        .collect();
    assert!(losses.is_empty(), "MRD does not beat LRC on {losses:?}");
}

#[test]
fn fig6_mrd_beats_memtune_on_every_workload() {
    let fig6 = read("exp_fig6.txt");
    let rows = table_rows(&fig6);
    assert_eq!(rows.len(), 6, "PR, LogR, KM, TC, CC, SVD++");
    // Workload, MemTune, MRD, improvement.
    let losses: Vec<String> = rows
        .iter()
        .filter(|row| num(row[2]) >= num(row[1]))
        .map(|row| format!("{} (MRD {} vs MemTune {})", row[0], row[2], row[1]))
        .collect();
    assert!(losses.is_empty(), "MRD does not beat MemTune on {losses:?}");
}

/// Paper §5.7: the job-distance metric hurts LP, whose jobs span many
/// stages, and barely moves KM, whose stages and jobs nearly coincide.
/// "Markedly" is a tight-cache JCT at least 0.2 above stage distance's;
/// "nearly indifferent" is best JCTs within 0.05 of each other.
#[test]
fn fig8_job_distance_hurts_lp_markedly_and_km_barely() {
    let fig8 = read("exp_fig8.txt");
    let rows = table_rows(&fig8);
    assert_eq!(rows.len(), 2, "LP, KM");
    let row = |w: &str| rows.iter().find(|r| r[0] == w).unwrap();
    // Workload, ActiveStages/Jobs, stage best, job best, stage tight, job
    // tight, stage hit% tight, job hit% tight.
    let lp = row("LP");
    let (stage, job) = (num(lp[4]), num(lp[5]));
    assert!(
        job - stage >= 0.2,
        "LP at the tight cache: job distance {job} vs stage distance {stage}"
    );
    let km = row("KM");
    let (stage, job) = (num(km[2]), num(km[3]));
    assert!(
        (job - stage).abs() <= 0.05,
        "KM best: job distance {job} vs stage distance {stage}"
    );
}

#[test]
fn table1_scc_and_lp_have_the_largest_stage_distances_and_sort_wordcount_none() {
    let table1 = read("exp_table1.txt");
    let rows = table_rows(&table1);
    assert_eq!(rows.len(), 20, "14 SparkBench + 6 HiBench workloads");
    // Workload, AvgJob, AvgJob(paper), MaxJob, MaxJob(paper), AvgStage.
    let mut by_stage: Vec<(&str, f64)> = rows.iter().map(|r| (r[0], num(r[5]))).collect();
    by_stage.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut top2 = [by_stage[0].0, by_stage[1].0];
    top2.sort();
    assert_eq!(top2, ["LP", "SCC"], "largest AvgStage: {by_stage:?}");
    for w in ["Sort", "WordCount"] {
        let row = rows.iter().find(|r| r[0] == w).unwrap();
        assert_eq!(row[5], "0.00", "{w} AvgStage");
    }
}

/// The serve grid, an extension past the paper's single-app evaluation:
/// reference distance survives multi-tenancy where tenants evict each
/// other. In every fair-share cell without quotas, MRD's mean JCT relative
/// to LRU is at most LRC's, and LRC's is below LRU's. Under FIFO the
/// submissions barely overlap, and MRD and LRC read the same in every
/// column. Equal-share cells are left out: below one working set per
/// tenant no eviction order helps (4 tenants, 80 ms reads MRD 1.007).
#[test]
fn serve_grid_mrd_leads_lrc_under_fair_share_and_matches_it_under_fifo() {
    let grid = read("exp_serve_grid.txt");
    let rows = table_rows(&grid);
    assert_eq!(rows.len(), 48, "2 x 2 x 2 x 2 cells x LRU, LRC, MRD");
    // Tenants, gap ms, sched, quota, policy, mean JCT and its unit, p99 JCT
    // and its unit, cross-ev, vs lru.
    let (mut fifo, mut contended) = (0, 0);
    for cell in rows.chunks(3) {
        let (lrc, mrd) = (&cell[1], &cell[2]);
        assert_eq!([cell[0][4], lrc[4], mrd[4]], ["lru", "lrc", "mrd"]);
        let name = format!("{} tenants, {} ms, {}, {}", lrc[0], lrc[1], lrc[2], lrc[3]);
        if lrc[2] == "fifo" {
            fifo += 1;
            assert_eq!(lrc[5..], mrd[5..], "{name}: MRD and LRC differ under FIFO");
        } else if lrc[3] == "unlimited" {
            contended += 1;
            let (lrc_vs, mrd_vs) = (num(lrc[10]), num(mrd[10]));
            assert!(
                lrc_vs < 1.0 && mrd_vs <= lrc_vs,
                "{name}: vs lru LRC {lrc_vs}, MRD {mrd_vs}"
            );
        }
    }
    assert_eq!(
        (fifo, contended),
        (8, 4),
        "FIFO and fair-share x unlimited cells"
    );
}
