//! Order statistics over timing samples, and the process's peak RSS.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0..=1`) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; `NaN` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Microseconds in a duration, with all digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds in a duration.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Run `f` and return its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// CPU time (user + system, all threads) this process has used so far, in
/// seconds; `NaN` where `/proc` is unavailable. Linux reports it in
/// `USER_HZ` ticks, which are 1/100 s on every mainstream architecture.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB; `NaN` where
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(median(&[]).is_nan());
    }
}
