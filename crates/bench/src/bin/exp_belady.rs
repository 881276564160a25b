//! Extension — MRD vs Belady's MIN oracle. See
//! [`refdist_bench::experiments::belady_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_belady");
}
