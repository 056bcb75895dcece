//! Order statistics, the process's peak RSS, and the timer's own cost.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `samples` by nearest rank; sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[rank]
}

/// The smallest of `samples`: what the code path costs on an undisturbed
/// machine. On a shared host, slow episodes last seconds and move a run's
/// median by a fifth; its floor repeats within a few percent.
pub fn floor(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "floor of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `VmHWM` of this process in MB (10^6 bytes), from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Mean cost in nanoseconds of one empty `Instant` pair, over 1 M pairs:
/// what every timed section in this harness carries on top of its work.
/// A mean, not a median, because the clock's tick is coarser than the cost.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 1_000_000;
    let all = Instant::now();
    for _ in 0..PAIRS {
        let t = Instant::now();
        std::hint::black_box(t.elapsed());
    }
    all.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut v, 0.8), 4.0);
        assert_eq!(floor(&v), 1.0);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
