//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of each window of about `window` consecutive samples,
/// then the `across`-quantile over windows: a burst of host stalls moves
/// a window rather than the whole figure.
pub fn windowed_quantile(in_order: &[f64], window: usize, q: f64, across: f64) -> f64 {
    let n_windows = (in_order.len() / window).max(1);
    let per_window: Vec<f64> = in_order
        .chunks(in_order.len().div_ceil(n_windows).max(1))
        .map(|w| quantile(w, q))
        .collect();
    quantile(&per_window, across)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
