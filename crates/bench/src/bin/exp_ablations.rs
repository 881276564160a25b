//! Extension — ablations of MRD's design choices. See
//! [`refdist_bench::experiments::ablations_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_ablations");
}
