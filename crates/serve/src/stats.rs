//! Lock-free serving statistics: monotonic counters plus a fixed-bucket
//! latency histogram.
//!
//! The histogram uses power-of-two microsecond buckets (bucket `i` holds
//! latencies in `[2^(i-1), 2^i)` µs), so recording is one `leading_zeros`
//! and one relaxed fetch-add — cheap enough for the per-request hot path —
//! and quantiles are read as the upper bound of the bucket where the
//! cumulative count crosses the rank. Resolution is a factor of two, which
//! is plenty for p50/p99 dashboards and costs 41 atomics of memory.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket 40 tops out at ~2^40 µs ≈ 12 days,
/// far beyond any request deadline.
const BUCKETS: usize = 41;

/// Fixed-bucket histogram of microsecond latencies.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record(&self, micros: u64) {
        let bucket = (64 - u64::leading_zeros(micros) as usize).min(BUCKETS - 1);
        // audit: allow(panic-freedom) — bucket is clamped to BUCKETS-1 on the line above
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile observation,
    /// or 0 when nothing was recorded. `q` is clamped to `[0, 1]`.
    pub(crate) fn quantile_upper_bound(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based; ceil so q=0.5 of 2 obs
        // lands on the first.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i spans [2^(i-1), 2^i) µs; bucket 0 is exactly 0.
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Shared counters for one server instance. All relaxed atomics: the numbers
/// feed dashboards, not control flow.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests admitted past the queue (any route).
    pub requests: AtomicU64,
    /// Requests answered 2xx.
    pub ok: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Connections rejected at admission because the queue was full.
    pub shed: AtomicU64,
    /// Successful hot reloads.
    pub reloads: AtomicU64,
    /// Windows predicted (batch items, not requests).
    pub windows: AtomicU64,
    /// Windows on which every rule abstained.
    pub abstentions: AtomicU64,
    /// End-to-end latency (queue wait + processing) per admitted request.
    pub latency: LatencyHistogram,
}

impl ServerStats {
    /// Bump a counter by one.
    pub(crate) fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot for `GET /stats`.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
            abstentions: self.abstentions.load(Ordering::Relaxed),
            latency_p50_us: self.latency.quantile_upper_bound(0.50),
            latency_p99_us: self.latency.quantile_upper_bound(0.99),
        }
    }
}

/// Point-in-time view of [`ServerStats`], serialized by `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests admitted past the queue.
    pub requests: u64,
    /// Requests answered 2xx.
    pub ok: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Connections shed at admission (queue full).
    pub shed: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Windows predicted.
    pub windows: u64,
    /// Windows abstained on.
    pub abstentions: u64,
    /// p50 end-to-end latency, upper bucket bound in µs.
    pub latency_p50_us: u64,
    /// p99 end-to-end latency, upper bucket bound in µs.
    pub latency_p99_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let h = LatencyHistogram::default();
        // 99 fast observations (~100 µs → bucket 7, bound 128) and one slow
        // (~10 ms → bucket 14, bound 16384).
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper_bound(0.50), 128);
        assert_eq!(h.quantile_upper_bound(0.99), 128);
        assert_eq!(h.quantile_upper_bound(1.0), 16_384);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn huge_latency_saturates_last_bucket() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServerStats::default();
        ServerStats::inc(&stats.requests);
        ServerStats::inc(&stats.ok);
        stats.latency.record(300);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.latency_p50_us, 512);
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
