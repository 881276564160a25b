//! Figure 12 — JCT reduction vs average references per stage. See
//! [`refdist_bench::experiments::fig12_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig12");
}
