//! Order statistics over raw samples.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place). `None` when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Samples strictly beyond the `q`-quantile's rank. A reported
/// percentile needs at least ten, or one outlier decides it.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// Median of `xs` (sorted in place); `NaN` when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `q`-quantile of nanosecond samples, in microseconds (`NaN` when empty).
pub fn q_us(samples: &mut [u64], q: f64) -> f64 {
    quantile(samples, q).map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// `q`-quantile of nanosecond samples, in milliseconds (`NaN` when empty).
pub fn q_ms(samples: &mut [u64], q: f64) -> f64 {
    quantile(samples, q).map_or(f64::NAN, |v| v as f64 / 1e6)
}

/// Samples keyed by the window of `window` their position (a time
/// offset or a sequence number) falls in.
pub fn by_window<T: Copy>(samples: &[(u64, T)], window: u64) -> BTreeMap<u64, Vec<T>> {
    let mut windows: BTreeMap<u64, Vec<T>> = BTreeMap::new();
    for &(at, v) in samples {
        windows.entry(at / window).or_default().push(v);
    }
    windows
}

/// The fast decile of per-window figures: their 10th percentile when
/// lower is better, their 90th when higher is better (linear
/// interpolation). Neighbours on a shared host only ever add time, and
/// they slow some windows of every run and every window of some runs; the
/// fast decile follows the program rather than the neighbours. `NaN` when
/// empty.
pub fn fast_decile(xs: &mut [f64], lower_is_better: bool) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let q = if lower_is_better { 0.1 } else { 0.9 };
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Latency `q`-quantile of each window that has at least ten samples
/// beyond it, at the fast decile of those windows; the quantile of all
/// samples when no window qualifies. `samples` are `(position, latency
/// ns)` and `window` is in the unit of the position; `NaN` when empty.
pub fn windowed(samples: &[(u64, u64)], window: u64, q: f64) -> f64 {
    let mut per_window: Vec<f64> = by_window(samples, window)
        .into_values()
        .filter(|w| beyond(w.len(), q) >= 10)
        .filter_map(|mut w| quantile(&mut w, q))
        .map(|v| v as f64)
        .collect();
    if per_window.is_empty() {
        let mut all: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
        return quantile(&mut all, q).map_or(f64::NAN, |v| v as f64);
    }
    fast_decile(&mut per_window, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut xs, 0.5), Some(50));
        assert_eq!(quantile(&mut xs, 0.99), Some(99));
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn stalled_windows_do_not_move_the_fast_decile() {
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..2000u64 {
                let stall = if w >= 3 && i % 10 == 0 { 1_000_000 } else { 0 };
                samples.push((w * 1_000_000_000 + i, 100 + i % 7 + stall));
            }
        }
        assert_eq!(windowed(&samples, 1_000_000_000, 0.99), 106.0);
        assert_eq!(windowed(&samples[..100], 1_000_000_000, 0.5), 103.0);
        assert_eq!(fast_decile(&mut [4.0, 1.0, 3.0, 2.0, 5.0, 6.0], false), 5.5);
        assert!((fast_decile(&mut [4.0, 1.0, 3.0, 2.0], true) - 1.3).abs() < 1e-12);
    }
}
