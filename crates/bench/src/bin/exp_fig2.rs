//! Figure 2 — policy metric evolution across the ConnectedComponents
//! workflow. See [`refdist_bench::experiments::fig2_text`] for the
//! methodology; this binary prints it (progress on stderr, stdout
//! deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig2");
}
