//! Figure 7 — SVD++ hit ratio and runtime vs cache size. See
//! [`refdist_bench::experiments::fig7_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig7");
}
