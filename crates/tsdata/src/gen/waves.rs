//! Deterministic and noisy wave generators for tests and ablations.

use crate::series::TimeSeries;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Pure sine wave: `offset + amplitude * sin(2π t / period + phase)`.
///
/// # Panics
/// Panics when `n == 0` or `period <= 0`.
pub fn sine(n: usize, period: f64, amplitude: f64, offset: f64, phase: f64) -> TimeSeries {
    assert!(n > 0, "need at least one sample");
    assert!(period > 0.0, "period must be positive");
    let values = (0..n)
        .map(|t| offset + amplitude * (std::f64::consts::TAU * t as f64 / period + phase).sin())
        .collect();
    TimeSeries::new("sine", values).expect("sine output is finite")
}

/// Sine wave plus Gaussian noise (Box-Muller).
///
/// # Panics
/// Panics when `n == 0` or `period <= 0`.
pub fn noisy_sine(n: usize, period: f64, amplitude: f64, noise_std: f64, seed: u64) -> TimeSeries {
    assert!(n > 0, "need at least one sample");
    assert!(period > 0.0, "period must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let values = (0..n)
        .map(|t| {
            let clean = amplitude * (std::f64::consts::TAU * t as f64 / period).sin();
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen::<f64>();
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            clean + noise_std * g
        })
        .collect();
    TimeSeries::new("noisy-sine", values).expect("output is finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_linalg::stats;

    #[test]
    fn sine_has_expected_extremes() {
        // Period 4 puts samples exactly on the extremes (t=1 -> +1, t=3 -> -1).
        let s = sine(1000, 4.0, 2.0, 1.0, 0.0);
        let (lo, hi) = s.range();
        assert!((lo - (-1.0)).abs() < 1e-9);
        assert!((hi - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sine_periodicity() {
        let s = sine(400, 40.0, 1.0, 0.0, 0.3);
        for i in 0..360 {
            assert!((s.values()[i] - s.values()[i + 40]).abs() < 1e-9);
        }
    }

    #[test]
    fn noisy_sine_variance_exceeds_clean() {
        let clean = sine(2000, 30.0, 1.0, 0.0, 0.0);
        let noisy = noisy_sine(2000, 30.0, 1.0, 0.5, 3);
        assert!(
            stats::variance(noisy.values()).unwrap() > stats::variance(clean.values()).unwrap()
        );
    }

    #[test]
    fn noisy_sine_deterministic_per_seed() {
        assert_eq!(
            noisy_sine(100, 20.0, 1.0, 0.2, 5).values(),
            noisy_sine(100, 20.0, 1.0, 0.2, 5).values()
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn sine_bad_period_panics() {
        sine(10, 0.0, 1.0, 0.0, 0.0);
    }
}
