//! Order statistics used by the benchmark's reported metrics.

/// Median of `values` (mean of the two middle values for an even count),
/// or 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => 0.5 * (v[len / 2 - 1] + v[len / 2]),
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted `values`, the
/// rule `s2c2_serve` reports latencies by; 0 for an empty slice.
#[must_use]
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len => v[rank(len, p).saturating_sub(1).min(len - 1)],
    }
}

/// The 1-based nearest rank of percentile `p` among `count` samples.
fn rank(count: usize, p: f64) -> usize {
    ((p / 100.0) * count as f64).ceil() as usize
}

/// How many of `count` samples lie strictly beyond the nearest-rank
/// percentile `p` — the tail a reported percentile rests on.
#[must_use]
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(rank(count, p).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_the_serve_rule() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(nearest_rank(&v, p), s2c2_serve::percentile(&sorted, p));
        }
    }

    #[test]
    fn p95_of_200_leaves_ten_beyond() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }
}
