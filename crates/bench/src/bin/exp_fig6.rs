//! Figure 6 — MRD vs MemTune on the MemTune cluster. See
//! [`refdist_bench::experiments::fig6_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig6");
}
