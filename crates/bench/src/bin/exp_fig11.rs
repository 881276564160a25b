//! Figure 11 — JCT reduction vs average stage distance. See
//! [`refdist_bench::experiments::fig11_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig11");
}
