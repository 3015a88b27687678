//! The benchmark's own noise discipline: every reported number is a
//! median with its quartiles and sample count, never a lone sample.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver applies
//! to ten runs of this benchmark; using the same rule per repetition
//! keeps the two spreads comparable.

/// Median, quartiles and sample count of one named quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none. A single sample
    /// is its own median and quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = match quartiles_sorted(&sorted) {
            Some(q) => q,
            None => (sorted[0], sorted[0], sorted[0]),
        };
        Some(Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver compares with a metric's regression bound.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `statistics.quantiles(sorted, n=4)`; `None` below two samples.
fn quartiles_sorted(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of `values` (0 when empty, so a layer that did no work reads 0).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile — the
/// guide asks for at least ten before a tail percentile is reported.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(0, n)
}

/// Repetitions far slower than their peers: wall above `factor` × the
/// median wall. Counted (as `ledger.slow_reps`), never dropped — the
/// median already resists them, and dropping would hide a slow mode.
pub fn slow_count(walls: &[f64], factor: f64) -> usize {
    let m = median(walls);
    walls.iter().filter(|&&w| m > 0.0 && w > factor * m).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).unwrap().iqr_share(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_ignores_order_and_non_finite_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[f64::NAN, 2.0, f64::INFINITY]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
    }

    #[test]
    fn slow_repetitions_are_counted_not_dropped() {
        let walls = [1.0, 1.1, 0.9, 1.0, 5.0];
        assert_eq!(slow_count(&walls, 3.0), 1);
        assert_eq!(median(&walls), 1.0);
        assert_eq!(slow_count(&[], 3.0), 0);
    }
}
