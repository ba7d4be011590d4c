//! The benchmark's own arithmetic: nearest-rank percentiles over raw
//! samples, medians over measurement windows, quartile spread, and the
//! regression-bound check. Nothing here calls the program.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median as the mean of the two middle samples for an even count, so a
/// ten-window run does not favour its lower half. Empty input reads 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `(max − min) / median` of per-window values: how much one run's windows
/// disagree. 0 when the median is 0 or there are no windows.
pub fn window_spread(windows: &[f64]) -> f64 {
    let med = median(windows);
    if med == 0.0 {
        return 0.0;
    }
    let max = windows.iter().copied().fold(f64::MIN, f64::max);
    let min = windows.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// True when `candidate` is worse than `base` by more than `bound`.
pub fn breaches(base: f64, candidate: f64, better: Better, bound: f64) -> bool {
    worsening(base, candidate, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        // Unsorted input, and a rank that lands between samples rounds up.
        assert_eq!(percentile(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.3), 20.0);
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 0.4), 20.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_median_rejects_a_stalled_window() {
        let mut windows = vec![2000.0; 9];
        windows.push(400.0); // one window lost to a neighbour stall
        assert_eq!(median(&windows), 2000.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((window_spread(&windows) - 0.8).abs() < 1e-12);
        assert_eq!(window_spread(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn bound_arithmetic_follows_direction() {
        // Lower is better: +10% is within a 0.10 bound, +11% is not.
        assert!(!breaches(100.0, 110.0, Better::Lower, 0.10));
        assert!(breaches(100.0, 111.0, Better::Lower, 0.10));
        assert!(!breaches(100.0, 50.0, Better::Lower, 0.10));
        // Higher is better: −10% is within, −11% is not, gains never breach.
        assert!(!breaches(2000.0, 1800.0, Better::Higher, 0.10));
        assert!(breaches(2000.0, 1779.0, Better::Higher, 0.10));
        assert!(!breaches(2000.0, 4000.0, Better::Higher, 0.10));
        assert!((worsening(2000.0, 1900.0, Better::Higher) - 0.05).abs() < 1e-12);
    }
}
