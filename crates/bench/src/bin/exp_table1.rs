//! Table 1 — reference-distance characteristics of the 20 workloads. See
//! [`refdist_bench::experiments::table1_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_table1");
}
