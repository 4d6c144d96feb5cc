//! Order statistics for the run record.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error from pushing an exact rank up
    // (99.9 / 100 * 1000 is 999.0000000000001).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie above the nearest-rank percentile `p` — the
/// count that says whether a tail percentile is supported.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Nearest-rank median of an unsorted sample.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    sort(&mut s);
    nearest_rank(&s, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A latency summary: p50/p90 (gated) and p99/p99.9 with the number of
/// samples beyond each (reported, not gated).
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub beyond_p99: usize,
    pub beyond_p999: usize,
}

impl Summary {
    pub fn of(mut v: Vec<f64>) -> Option<Summary> {
        sort(&mut v);
        Some(Summary {
            n: v.len(),
            p50: nearest_rank(&v, 50.0)?,
            p90: nearest_rank(&v, 90.0)?,
            p99: nearest_rank(&v, 99.0)?,
            p999: nearest_rank(&v, 99.9)?,
            beyond_p99: beyond(v.len(), 99.0),
            beyond_p999: beyond(v.len(), 99.9),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(beyond(10, 50.0), 5);
        assert_eq!(beyond(10, 99.0), 0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(beyond(20_000, 99.9), 20);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn summary_of_an_unsorted_sample() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(v).unwrap();
        assert_eq!(
            (s.n, s.p50, s.p90, s.p99, s.p999),
            (1000, 500.0, 900.0, 990.0, 999.0)
        );
        assert_eq!((s.beyond_p99, s.beyond_p999), (10, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert!(Summary::of(Vec::new()).is_none());
    }
}
