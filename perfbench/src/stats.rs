//! Statistics from raw samples (never histogram buckets) and process
//! memory readings.

/// Median (mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and highest quarter (at least one sample is kept). Robust to
/// outliers like the median, but steadier than the median when the
/// samples fall into two modes.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "mean of no samples");
    let cut = (s.len() / 4).min((s.len() - 1) / 2);
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` in (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest of the usual reporting percentiles that keeps at least
/// ten samples beyond it, if any does.
pub fn reportable_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0].into_iter().find(|&p| beyond(n, p) >= 10)
}

/// `name n=.. p50=.. pXX=..` summary line for the report.
pub fn summary(name: &str, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("{name}: n=0");
    }
    let mut line = format!("{name}: n={} p50={:.3}", samples.len(), median(samples));
    match reportable_tail(samples.len()) {
        Some(p) => line += &format!(" p{p}={:.3}", percentile(samples, p)),
        None => line += " (too few samples for a tail percentile)",
    }
    line
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    s
}

/// Resets the process's peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    // Best effort: without it the peak also covers set-up.
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Peak resident set size since start or the last reset, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
