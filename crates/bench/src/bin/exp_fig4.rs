//! Figure 4 — best performance of MRD against LRU on the Main cluster. See
//! [`refdist_bench::experiments::fig4_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig4");
}
