//! Log-bucketed streaming histogram over `f64` samples.
//!
//! Buckets are formed by truncating the *order-preserving bit image* of
//! each finite `f64` (the `total_cmp` trick: flip all bits but the sign
//! for negatives) to its top `sub_bits` mantissa bits. Consecutive
//! buckets therefore cover value ranges of geometrically increasing
//! width — a relative-error guarantee of `2^-sub_bits` per bucket —
//! while insertion stays `O(log buckets)` in a sparse `BTreeMap`.
//!
//! The registry uses [`StreamingHistogram::coarse`] (7 mantissa bits,
//! <1% relative error), where compactness wins. At all 52 bits every
//! distinct bit pattern is its own bucket and nearest-rank percentiles
//! are exact samples; exact report percentiles sort instead
//! (`s2c2_serve::percentile`).

use std::collections::BTreeMap;

/// Mantissa bits of an IEEE-754 double.
const MANTISSA_BITS: u32 = 52;

/// Order-preserving bit image of a finite `f64`: monotone with
/// `f64::total_cmp`, and an involution (applying it to the result of
/// itself recovers the original bits).
fn ordered_bits(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    // For negatives (sign bit set) flip every bit below the sign, so
    // more-negative values map to smaller integers.
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

/// Inverse of [`ordered_bits`] (same involution).
fn from_ordered_bits(ord: i64) -> f64 {
    let b = ord ^ ((((ord >> 63) as u64) >> 1) as i64);
    f64::from_bits(b as u64)
}

/// A streaming histogram: sparse log-spaced buckets plus running
/// count / sum / min / max.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    /// Low bits dropped from each ordered-bit key (`52 - sub_bits`).
    shift: u32,
    /// Bucket key (truncated ordered bits) → sample count.
    buckets: BTreeMap<i64, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::coarse()
    }
}

impl StreamingHistogram {
    /// A histogram keeping the top `sub_bits` mantissa bits per bucket
    /// (`0..=52`); per-bucket relative error is bounded by
    /// `2^-sub_bits`.
    ///
    /// # Panics
    /// If `sub_bits > 52`.
    #[must_use]
    pub fn with_sub_bits(sub_bits: u32) -> Self {
        assert!(sub_bits <= MANTISSA_BITS, "sub_bits must be <= 52");
        Self {
            shift: MANTISSA_BITS - sub_bits,
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Compact default: 7 mantissa bits, relative error under 1%.
    #[must_use]
    pub fn coarse() -> Self {
        Self::with_sub_bits(7)
    }

    /// Record one sample.
    ///
    /// # Panics
    /// If `x` is NaN or infinite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "histogram samples must be finite: {x}");
        self.count += 1;
        self.sum += x;
        if x.total_cmp(&self.min).is_lt() {
            self.min = x;
        }
        if x.total_cmp(&self.max).is_gt() {
            self.max = x;
        }
        *self
            .buckets
            .entry(ordered_bits(x) >> self.shift)
            .or_insert(0) += 1;
    }

    /// Fold another histogram with the same bucketing into this one.
    ///
    /// # Panics
    /// If the two histograms use different `sub_bits`.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.shift, other.shift, "cannot merge mixed bucketings");
        for (&key, &c) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min.total_cmp(&self.min).is_lt() {
                self.min = other.min;
            }
            if other.max.total_cmp(&self.max).is_gt() {
                self.max = other.max;
            }
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of occupied buckets.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`; returns `0.0` when
    /// empty (matching `s2c2_serve::percentile` on an empty slice). At
    /// 52 sub-bits the returned value is a recorded sample, bit-for-bit;
    /// at fewer it is the lower edge of the rank's bucket (within
    /// `2^-sub_bits` relative error of the true sample).
    ///
    /// # Panics
    /// If `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (&key, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return from_ordered_bits(key << self.shift);
            }
        }
        // Unreachable: bucket counts always sum to `count`.
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The old sort-then-index nearest-rank path, verbatim semantics.
    fn nearest_rank(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Deterministic awkward sample set: duplicates, negatives, zeros,
    /// huge magnitude spread.
    fn samples() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..200u32 {
            let x = f64::from(i % 37) * 1.7 - 20.0;
            v.push(x * (1.0 + f64::from(i) * 1e-3));
            if i % 11 == 0 {
                v.push(x); // exact duplicates
            }
        }
        v.push(0.0);
        v.push(-0.0);
        v.push(1e-300);
        v.push(1e12);
        v
    }

    #[test]
    fn exact_mode_matches_nearest_rank_bit_for_bit() {
        let vals = samples();
        let mut h = StreamingHistogram::with_sub_bits(MANTISSA_BITS);
        for &x in &vals {
            h.record(x);
        }
        for p in [0.0, 1.0, 25.0, 50.0, 73.5, 99.0, 100.0] {
            let want = nearest_rank(&vals, p);
            let got = h.percentile(p);
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "p={p}: want {want:?}, got {got:?}"
            );
        }
    }

    #[test]
    fn empty_percentile_is_zero() {
        let h = StreamingHistogram::coarse();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = StreamingHistogram::coarse();
        h.record(42.5);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), 42.5);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(42.5));
    }

    #[test]
    fn p0_and_p100_are_min_and_max_in_exact_mode() {
        let mut h = StreamingHistogram::with_sub_bits(MANTISSA_BITS);
        for x in [3.0, -7.5, 12.0, 0.25] {
            h.record(x);
        }
        assert_eq!(h.percentile(0.0), -7.5);
        assert_eq!(h.percentile(100.0), 12.0);
        assert_eq!(h.min(), Some(-7.5));
        assert_eq!(h.max(), Some(12.0));
    }

    #[test]
    fn coarse_mode_bounds_relative_error() {
        let vals = samples();
        let mut h = StreamingHistogram::coarse();
        for &x in &vals {
            h.record(x);
        }
        let tol = 2f64.powi(-7) * 1.01;
        for p in [5.0, 50.0, 95.0] {
            let want = nearest_rank(&vals, p);
            let got = h.percentile(p);
            let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
            assert!(rel <= tol, "p={p}: want {want}, got {got}, rel {rel}");
        }
        // Far fewer buckets than samples is the point of coarse mode.
        assert!(h.buckets() < vals.len());
    }

    #[test]
    fn merge_equals_single_pass() {
        let vals = samples();
        let (a_half, b_half) = vals.split_at(vals.len() / 2);
        let mut a = StreamingHistogram::coarse();
        let mut b = StreamingHistogram::coarse();
        let mut whole = StreamingHistogram::coarse();
        for &x in a_half {
            a.record(x);
        }
        for &x in b_half {
            b.record(x);
        }
        for &x in &vals {
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_percentile_panics() {
        let h = StreamingHistogram::coarse();
        let _ = h.percentile(100.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        let mut h = StreamingHistogram::coarse();
        h.record(f64::NAN);
    }

    #[test]
    fn ordered_bits_is_monotone_and_involutive() {
        let vals = [
            f64::MIN,
            -1e300,
            -2.5,
            -1e-308,
            -0.0,
            0.0,
            1e-308,
            1.0,
            2.5,
            1e300,
            f64::MAX,
        ];
        for w in vals.windows(2) {
            assert!(ordered_bits(w[0]) < ordered_bits(w[1]), "{w:?}");
        }
        for &x in &vals {
            assert_eq!(from_ordered_bits(ordered_bits(x)).to_bits(), x.to_bits());
        }
    }
}
