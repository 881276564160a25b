//! Figure 8 — stage distance vs job distance as the MRD metric. See
//! [`refdist_bench::experiments::fig8_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig8");
}
