//! Radix-2 fast Fourier transform and periodogram.
//!
//! Built for one purpose: *validating the synthetic series spectrally*. The
//! Venice simulator must put its energy at the real tidal constituent
//! frequencies (M2 ≈ 12.42 h) and the sunspot generator near the 11-year
//! Schwabe line — the tsdata spectral tests check exactly that, closing the
//! loop on the DESIGN.md §4 substitution argument.
//!
//! The implementation is the classic iterative Cooley-Tukey radix-2
//! decimation-in-time: bit-reversal permutation followed by log₂ n butterfly
//! passes. Inputs are zero-padded to the next power of two.

use crate::error::LinalgError;

/// A complex number as a `(re, im)` pair — enough surface for an FFT without
/// pulling in a complex-arithmetic dependency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from parts.
    pub(crate) fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Squared magnitude.
    #[inline]
    pub(crate) fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// Smallest power of two `>= n` (and `>= 1`).
pub(crate) fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 FFT. `data.len()` must be a power of two.
/// `inverse` selects the inverse transform (including the `1/n` scaling).
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] when the length is not a power of two,
/// [`LinalgError::Empty`] for empty input.
pub(crate) fn fft_in_place(data: &mut [Complex], inverse: bool) -> Result<(), LinalgError> {
    let n = data.len();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if !n.is_power_of_two() {
        return Err(LinalgError::ShapeMismatch {
            op: "fft (length must be a power of two)",
            left: (n, 1),
            right: (next_power_of_two(n), 1),
        });
    }

    if n == 1 {
        // A length-1 transform is the identity (and the bit-reversal shift
        // below would overflow).
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * std::f64::consts::TAU / len as f64;
        let w_len = Complex::new(angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let even = data[start + k];
                let odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w = w * w_len;
            }
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.re *= scale;
            x.im *= scale;
        }
    }
    Ok(())
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
///
/// # Errors
/// [`LinalgError::Empty`] for empty input, [`LinalgError::NonFinite`] for
/// NaN/inf samples.
pub(crate) fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, LinalgError> {
    if signal.is_empty() {
        return Err(LinalgError::Empty);
    }
    if signal.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let n = next_power_of_two(signal.len());
    let mut data: Vec<Complex> = signal
        .iter()
        .map(|&x| Complex::new(x, 0.0))
        .chain(std::iter::repeat(Complex::default()))
        .take(n)
        .collect();
    fft_in_place(&mut data, false)?;
    Ok(data)
}

/// One periodogram bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralPeak {
    /// Frequency in cycles per sample.
    pub frequency: f64,
    /// Equivalent period in samples (`1 / frequency`).
    pub period: f64,
    /// Power (squared magnitude, mean-removed signal).
    pub power: f64,
}

/// Periodogram of a real signal: power at the `n/2` positive frequencies of
/// the (zero-padded, mean-removed) signal. Returns `(frequencies, powers)`
/// where `frequencies[k] = k / n_padded` cycles per sample.
///
/// # Errors
/// [`LinalgError::Empty`] for empty input, [`LinalgError::NonFinite`] for
/// NaN/inf samples.
pub fn periodogram(signal: &[f64]) -> Result<Vec<SpectralPeak>, LinalgError> {
    let mean = signal.iter().sum::<f64>() / signal.len().max(1) as f64;
    let centered: Vec<f64> = signal.iter().map(|&x| x - mean).collect();
    let spectrum = fft_real(&centered)?;
    let n = spectrum.len();
    Ok((1..n / 2)
        .map(|k| {
            let frequency = k as f64 / n as f64;
            SpectralPeak {
                frequency,
                period: 1.0 / frequency,
                power: spectrum[k].norm_sq(),
            }
        })
        .collect())
}

/// The single strongest periodogram bin; `None` when the spectrum is flat
/// zero (constant input).
///
/// # Errors
/// See [`periodogram`].
pub fn dominant_period(signal: &[f64]) -> Result<Option<SpectralPeak>, LinalgError> {
    let bins = periodogram(signal)?;
    let best = bins
        .into_iter()
        .max_by(|a, b| a.power.total_cmp(&b.power))
        .filter(|p| p.power > 1e-12);
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn next_power_of_two_values() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1024), 1024);
        assert_eq!(next_power_of_two(1025), 2048);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a * b;
        assert!((p.re - 5.0).abs() < 1e-12); // 1*3 - 2*(-1)
        assert!((p.im - 5.0).abs() < 1e-12); // 1*(-1) + 2*3
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a.norm_sq(), 5.0);
    }

    #[test]
    fn fft_rejects_bad_lengths() {
        let mut d = vec![Complex::default(); 3];
        assert!(matches!(
            fft_in_place(&mut d, false),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut e: Vec<Complex> = vec![];
        assert!(matches!(
            fft_in_place(&mut e, false),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(fft_real(&[]), Err(LinalgError::Empty)));
        assert!(matches!(fft_real(&[f64::NAN]), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0; 16];
        signal[0] = 1.0;
        let spec = fft_real(&signal).unwrap();
        for bin in &spec {
            assert!((bin.norm_sq() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_at_its_bin() {
        // Exactly 8 cycles over 64 samples: energy lands in bin 8 only.
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal).unwrap();
        for (k, bin) in spec.iter().enumerate().take(n / 2) {
            if k == 8 {
                assert!(bin.norm_sq() > 900.0, "bin 8 power {}", bin.norm_sq());
            } else {
                assert!(bin.norm_sq() < 1e-9, "leak at bin {k}: {}", bin.norm_sq());
            }
        }
    }

    #[test]
    fn round_trip_forward_inverse() {
        let signal: Vec<f64> = (0..32).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut data, false).unwrap();
        fft_in_place(&mut data, true).unwrap();
        for (orig, back) in signal.iter().zip(&data) {
            assert!((orig - back.re).abs() < 1e-10);
            assert!(back.im.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let signal: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        let spec = fft_real(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / spec.len() as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0),
            "Parseval violated: {time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn dominant_period_of_sine() {
        // Period 16 over 256 samples.
        let signal: Vec<f64> = (0..256)
            .map(|i| (std::f64::consts::TAU * i as f64 / 16.0).sin())
            .collect();
        let peak = dominant_period(&signal).unwrap().unwrap();
        assert!((peak.period - 16.0).abs() < 0.5, "period {}", peak.period);
    }

    #[test]
    fn dominant_period_ignores_dc() {
        // Constant offset must not register (mean removal).
        let signal: Vec<f64> = (0..128)
            .map(|i| 100.0 + (std::f64::consts::TAU * i as f64 / 8.0).sin())
            .collect();
        let peak = dominant_period(&signal).unwrap().unwrap();
        assert!((peak.period - 8.0).abs() < 0.3);
    }

    #[test]
    fn constant_signal_has_no_dominant_period() {
        let signal = vec![5.0; 64];
        assert_eq!(dominant_period(&signal).unwrap(), None);
    }

    proptest! {
        #[test]
        fn linearity(seed in 0u64..200, alpha in -3.0..3.0f64) {
            let a: Vec<f64> = (0..64)
                .map(|i| ((i as u64 ^ seed) as f64 * 0.29).sin())
                .collect();
            let b: Vec<f64> = (0..64)
                .map(|i| ((i as u64 ^ seed.wrapping_mul(3)) as f64 * 0.53).cos())
                .collect();
            let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + alpha * y).collect();
            let fa = fft_real(&a).unwrap();
            let fb = fft_real(&b).unwrap();
            let fc = fft_real(&combo).unwrap();
            for k in 0..64 {
                let expect_re = fa[k].re + alpha * fb[k].re;
                let expect_im = fa[k].im + alpha * fb[k].im;
                prop_assert!((fc[k].re - expect_re).abs() < 1e-8);
                prop_assert!((fc[k].im - expect_im).abs() < 1e-8);
            }
        }

        #[test]
        fn round_trip_random_signals(
            v in proptest::collection::vec(-1e3..1e3f64, 1..100)
        ) {
            let spec = fft_real(&v).unwrap();
            let mut data = spec;
            fft_in_place(&mut data, true).unwrap();
            for (i, x) in v.iter().enumerate() {
                prop_assert!((data[i].re - x).abs() < 1e-7 * (1.0 + x.abs()));
            }
        }
    }
}
