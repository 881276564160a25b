//! Host-speed reference: a fixed loop timed on either side of every rep.
//!
//! On a shared host the same code runs faster or slower by 10% and more for
//! seconds to minutes at a time, as other tenants load the shared
//! last-level cache and the cores' clock speed changes with the host's
//! load. No statistic over one run removes a slow phase that spans the run.
//! The reference loop slows with the rep it sits beside, so each host time
//! is divided by the reference time measured around it and reported at
//! [`NOMINAL_S`]. The loop is the benchmark's own code: a change to the
//! simulator changes the rep's time and not the reference's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's usual time, seconds, on the host the baseline was
/// recorded on (a 2-vCPU Xeon VM); normalized host times are reported at
/// this scale, so they read as that host's seconds.
pub const NOMINAL_S: f64 = 0.05;

/// Ordered-map updates over a bounded key space: pointer chasing through
/// about 1 MiB of nodes, like the store's and the policies' maps.
const MAP_STEPS: u64 = 400_000;
const MAP_KEYS: u64 = 50_000;
/// Random read-modify-writes with a division over a 256 KiB table: core
/// speed and private-cache latency.
const TABLE_WORDS: usize = 1 << 15;
const TABLE_STEPS: u64 = 1_000_000;

/// Run the reference loop once; returns its host seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..MAP_STEPS {
        *map.entry(next() % MAP_KEYS).or_insert(0u64) += i;
    }
    let mut table = vec![0u64; TABLE_WORDS];
    let mut acc = 0u64;
    for i in 1..=TABLE_STEPS {
        let r = next();
        let j = r as usize & (TABLE_WORDS - 1);
        acc = acc.wrapping_add(table[j] ^ (r % i));
        table[j] = acc;
    }
    black_box((acc, map, table));
    t.elapsed().as_secs_f64()
}

/// `host_s` measured beside a reference loop that took `reference_s`,
/// rescaled to the nominal host speed.
pub fn normalized(host_s: f64, reference_s: f64) -> f64 {
    host_s / reference_s * NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_takes_measurable_time() {
        let t = reference_s();
        assert!(t > 1e-3 && t < 10.0, "reference loop took {t} s");
    }

    #[test]
    fn normalizing_cancels_a_uniform_slowdown() {
        let fast = normalized(1.0, NOMINAL_S);
        let slow = normalized(1.3, 1.3 * NOMINAL_S);
        assert!((fast - 1.0).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        assert!((normalized(2.0, NOMINAL_S) - 2.0).abs() < 1e-12);
    }
}
