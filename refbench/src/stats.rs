//! Order statistics and report digests.

use std::fmt;

/// Percentiles a tail may be reported at, ascending.
const TAIL_CANDIDATES: [f64; 8] = [0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999, 0.9999];

/// Samples a reported tail percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` over `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it, or `None` when `n` is too small for any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= 1 && n - rank(n, q) >= TAIL_MIN_BEYOND)
}

/// Label of a tail quantile: `p98`, `p99.9`; `max` when none qualifies.
pub fn tail_label(q: Option<f64>) -> String {
    match q {
        Some(q) => format!("p{}", (q * 1e4).round() / 1e2),
        None => "max".into(),
    }
}

/// Median, quartiles and tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank first quartile.
    pub q1: f64,
    /// Nearest-rank third quartile.
    pub q3: f64,
    /// The [`tail_quantile`] value, or the maximum when none qualifies.
    pub tail: f64,
    /// The quantile `tail` was taken at (`None` = maximum).
    pub tail_q: Option<f64>,
}

impl Summary {
    /// Summarize `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len());
        Some(Summary {
            n: v.len(),
            p50: nearest_rank(&v, 0.5),
            q1: nearest_rank(&v, 0.25),
            q3: nearest_rank(&v, 0.75),
            tail: tail_q.map_or(v[v.len() - 1], |q| nearest_rank(&v, q)),
            tail_q,
        })
    }
}

/// 64-bit FNV-1a over everything written to it; `write!(h, "{x:?}")`
/// digests a value's `Debug` form without materializing the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a digest of `value`'s `Debug` form.
pub fn digest(value: &impl fmt::Debug) -> u64 {
    use fmt::Write;
    let mut h = Fnv::default();
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.25), 3.0);
        assert_eq!(nearest_rank(&v, 0.75), 8.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(
            nearest_rank(&v, 0.0),
            1.0,
            "rank clamps to the first sample"
        );
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.q1, s.q3), (3, 2.0, 1.0, 3.0));
        assert_eq!(
            (s.tail, s.tail_q),
            (3.0, None),
            "too few samples for a tail"
        );
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // Fewer than 20 samples: even the median has under ten beyond it.
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(1), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        // The paper sweep's 882 cells: p99 leaves 8 beyond, p98 leaves 17.
        assert_eq!(tail_quantile(882), Some(0.98));
        // A 6000-submission stream: p99.9 leaves 6 beyond, p99 leaves 60.
        assert_eq!(tail_quantile(6000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_label(Some(0.98)), "p98");
        assert_eq!(tail_label(Some(0.999)), "p99.9");
        assert_eq!(tail_label(None), "max");
        let s = Summary::of(&(1..=882).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.tail_q, s.tail), (Some(0.98), 865.0));
    }

    #[test]
    fn digest_follows_debug_form() {
        assert_eq!(digest(&1u32), digest(&"1".parse::<u64>().unwrap()));
        assert_ne!(digest(&(1, 2)), digest(&(2, 1)));
        // FNV-1a reference value for "a".
        let mut h = Fnv::default();
        fmt::Write::write_str(&mut h, "a").unwrap();
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
