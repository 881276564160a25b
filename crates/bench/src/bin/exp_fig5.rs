//! Figure 5 — MRD vs LRC on the LRC cluster. See
//! [`refdist_bench::experiments::fig5_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig5");
}
