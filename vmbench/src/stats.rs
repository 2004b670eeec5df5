//! Order statistics over measured samples.

/// The `p`-quantile (`p` in `[0, 1]`) of `samples`, interpolating
/// linearly between the two closest ranks (the "linear" method of
/// NumPy and of Python's `statistics.quantiles(..., method="inclusive")`).
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p`-quantile's rank:
/// a percentile is only reported where this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}
