//! Aggregation helpers: best-of-repetitions per unit of work, the
//! geometric mean across units, and nearest-rank percentiles.
//!
//! Every timing in the benchmark is taken per deterministic unit of
//! work (one query, or one request index of a replay). A unit's time
//! is the best of its repetitions, which are interleaved across the
//! run, so a slow phase of the host inflates only the repetitions that
//! fall inside it; the per-unit bests are then aggregated.

/// Per-unit minimum over repetitions.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    reps: Vec<u64>,
}

impl BestOf {
    /// Tracker for `units` units, none measured yet.
    pub fn new(units: usize) -> Self {
        BestOf {
            best: vec![f64::INFINITY; units],
            reps: vec![0; units],
        }
    }

    /// Record one repetition of `unit` taking `value`.
    pub fn record(&mut self, unit: usize, value: f64) {
        self.best[unit] = self.best[unit].min(value);
        self.reps[unit] += 1;
    }

    /// Fewest repetitions any unit received (0 if one was never run).
    pub fn min_reps(&self) -> u64 {
        self.reps.iter().copied().min().unwrap_or(0)
    }

    /// Per-unit best values; `None` until every unit ran at least once.
    pub fn values(&self) -> Option<&[f64]> {
        (self.min_reps() > 0).then_some(self.best.as_slice())
    }
}

/// Geometric mean of strictly positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest value with
/// at least `p` % of the values at or below it. Returns the value and
/// the number of samples strictly beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean more than the single worst outlier.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// [`percentile`], but only when at least [`TAIL_SAMPLES_BEYOND`]
/// samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let (value, beyond) = percentile(values, p);
    (beyond >= TAIL_SAMPLES_BEYOND).then_some(value)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_the_minimum_per_unit() {
        let mut b = BestOf::new(2);
        assert_eq!(b.values(), None);
        b.record(0, 5.0);
        b.record(0, 3.0);
        b.record(0, 4.0);
        assert_eq!(b.values(), None, "unit 1 never ran");
        b.record(1, 7.0);
        assert_eq!(b.values(), Some(&[3.0, 7.0][..]));
        assert_eq!(b.min_reps(), 1);
    }

    #[test]
    fn geometric_mean_of_known_values() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[0.0, 1.0]);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 100.0), (100.0, 0));
        // Input order does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 50.0), (50.0, 50));
        assert_eq!(percentile(&[7.0], 99.0), (7.0, 0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // The median of a small list is still well supported.
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
    }
}
