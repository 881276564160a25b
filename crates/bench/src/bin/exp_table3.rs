//! Table 3 — SparkBench workload characteristics. See
//! [`refdist_bench::experiments::table3_text`] for the methodology; this binary
//! prints it (progress on stderr, stdout deterministic).

fn main() {
    refdist_bench::experiments::print("exp_table3");
}
