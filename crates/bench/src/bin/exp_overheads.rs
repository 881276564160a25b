//! §4.4 — MRD table size and replication traffic. See
//! [`refdist_bench::experiments::overheads_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_overheads");
}
