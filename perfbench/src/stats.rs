//! Sample statistics with the benchmark's percentile rule, and the
//! process memory reading.

/// A percentile is printed only when at least this many samples lie
/// beyond it; below that, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `pct` (in `1..100`) among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Samples needed before percentile `pct` may be printed.
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| n - rank(n, pct) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Percentile `pct` (in `1..100`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    if samples.len() < min_samples(pct) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Median without the percentile rule (for repeated set-up timings and
/// per-call layer timings, where every sample is the same operation).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), None, "99 samples leave 9 beyond p90");
        assert_eq!(percentile(&xs, 50), Some(50.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 99), None);
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
