//! Render every experiment of [`refdist_bench::experiments::EXPERIMENTS`]
//! in-process, in its canonical order, writing each one's output to
//! `<REFDIST_OUT_DIR>/<name>.txt` (default `experiments/`) and echoing it
//! to stdout. Each experiment runs its own cells on the sweep engine's
//! worker pool; timings go to stderr only.

use refdist_bench::experiments::EXPERIMENTS;
use refdist_bench::SweepOptions;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let out_dir =
        PathBuf::from(std::env::var("REFDIST_OUT_DIR").unwrap_or_else(|_| "experiments".into()));
    fs::create_dir_all(&out_dir).expect("create output dir");
    for exp in EXPERIMENTS {
        let started = Instant::now();
        let text = exp.render(&SweepOptions::default());
        println!("\n================ {} ================\n", exp.name);
        print!("{text}");
        let path = out_dir.join(format!("{}.txt", exp.name));
        fs::write(&path, &text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!(
            "[{} finished in {:.1}s]",
            exp.name,
            started.elapsed().as_secs_f64()
        );
    }
    println!(
        "\nAll experiments completed; outputs in {}/",
        out_dir.display()
    );
}
