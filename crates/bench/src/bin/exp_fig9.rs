//! Figure 9 — ad-hoc vs recurring profile visibility. See
//! [`refdist_bench::experiments::fig9_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_fig9");
}
