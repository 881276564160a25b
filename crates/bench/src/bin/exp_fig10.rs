//! Figure 10 — effect of tripling workload iterations. See
//! [`refdist_bench::experiments::fig10_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig10");
}
