//! Synthetic monthly sunspot-number generator.
//!
//! Substitution for the SIDC archive (January 1749 – March 1977) the paper
//! used; this environment has no network access (see DESIGN.md §4). The
//! generator reproduces the features the rule system exploits:
//!
//! * the Schwabe cycle: quasi-periodic activity with cycle length drawn
//!   around ~11 years (132 months) with real cycle-to-cycle variation,
//! * strong cycle-to-cycle amplitude variation (weak vs. strong maxima),
//! * the asymmetric cycle shape — fast rise (~4 years) and slow decay,
//! * multiplicative noise that grows with activity plus an additive floor,
//! * non-negativity, with quiet-minimum months near zero.

use crate::series::TimeSeries;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sunspot-cycle generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SunspotGenerator {
    /// Mean cycle length in months (observed mean ≈ 131).
    pub mean_period_months: f64,
    /// Standard deviation of the cycle length (months).
    pub period_std: f64,
    /// Mean cycle peak amplitude (smoothed monthly number).
    pub mean_amplitude: f64,
    /// Standard deviation of the peak amplitude.
    pub amplitude_std: f64,
    /// Fraction of the cycle spent rising (observed ≈ 0.35).
    pub rise_fraction: f64,
    /// Multiplicative noise coefficient (noise std = coeff · level).
    pub multiplicative_noise: f64,
    /// Additive noise standard deviation (monthly counting noise).
    pub additive_noise: f64,
}

impl Default for SunspotGenerator {
    fn default() -> Self {
        SunspotGenerator {
            mean_period_months: 131.0,
            period_std: 14.0,
            mean_amplitude: 110.0,
            amplitude_std: 40.0,
            rise_fraction: 0.35,
            multiplicative_noise: 0.12,
            additive_noise: 4.0,
        }
    }
}

impl SunspotGenerator {
    /// Deterministic cycle envelope at phase `p ∈ [0, 1]` for peak `a`:
    /// sinusoidal rise over `rise_fraction`, cosine decay over the rest.
    fn envelope(&self, p: f64, a: f64) -> f64 {
        let r = self.rise_fraction;
        if p < r {
            a * (std::f64::consts::FRAC_PI_2 * p / r).sin().powi(2)
        } else {
            let q = (p - r) / (1.0 - r);
            a * (std::f64::consts::FRAC_PI_2 * q).cos().powi(2)
        }
    }

    /// Generate `n` monthly values with the given RNG seed.
    ///
    /// # Panics
    /// Panics when `n == 0` (experiment-setup error).
    pub fn generate(&self, n: usize, seed: u64) -> TimeSeries {
        assert!(n > 0, "need at least one sample");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(n);

        // Current cycle parameters.
        let draw_cycle = |rng: &mut ChaCha8Rng| -> (f64, f64) {
            let period =
                (self.mean_period_months + gaussian(rng) * self.period_std).clamp(90.0, 180.0);
            let amplitude =
                (self.mean_amplitude + gaussian(rng) * self.amplitude_std).clamp(45.0, 260.0);
            (period, amplitude)
        };

        let (mut period, mut amplitude) = draw_cycle(&mut rng);
        let mut month_in_cycle = 0.0_f64;

        for _ in 0..n {
            let p = month_in_cycle / period;
            let level = self.envelope(p, amplitude);
            let noisy = level
                + gaussian(&mut rng) * (self.multiplicative_noise * level + self.additive_noise);
            values.push(noisy.max(0.0));

            month_in_cycle += 1.0;
            if month_in_cycle >= period {
                month_in_cycle = 0.0;
                let next = draw_cycle(&mut rng);
                period = next.0;
                amplitude = next.1;
            }
        }

        TimeSeries::new("sunspots", values).expect("generator output is finite")
    }

    /// Number of months between January 1749 and March 1977 inclusive —
    /// the archive span the paper used (2739 months).
    const PAPER_MONTHS: usize = (1977 - 1749) * 12 + 3;

    /// Months from January 1749 through December 1919 (training end).
    pub const TRAIN_MONTHS: usize = (1920 - 1749) * 12;

    /// Months from January 1749 through December 1928 (validation starts
    /// January 1929).
    pub const VALID_START: usize = (1929 - 1749) * 12;

    /// Generate the paper's full span (January 1749 – March 1977).
    pub fn paper_series(&self, seed: u64) -> TimeSeries {
        self.generate(Self::PAPER_MONTHS, seed)
    }
}

/// One standard Gaussian sample via Box-Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_linalg::stats;

    #[test]
    fn generates_requested_length_and_span_constants() {
        let s = SunspotGenerator::default().generate(100, 1);
        assert_eq!(s.len(), 100);
        assert_eq!(SunspotGenerator::PAPER_MONTHS, 2739);
        assert_eq!(SunspotGenerator::TRAIN_MONTHS, 2052);
        assert_eq!(SunspotGenerator::VALID_START, 2160);
        assert_eq!(SunspotGenerator::default().paper_series(1).len(), 2739);
    }

    #[test]
    fn nonnegative_everywhere() {
        let s = SunspotGenerator::default().generate(3000, 9);
        assert!(s.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = SunspotGenerator::default();
        assert_eq!(g.generate(500, 4).values(), g.generate(500, 4).values());
        assert_ne!(g.generate(500, 4).values(), g.generate(500, 5).values());
    }

    #[test]
    fn amplitude_in_plausible_sunspot_range() {
        let s = SunspotGenerator::default().generate(2739, 2);
        let (lo, hi) = s.range();
        assert!(lo >= 0.0);
        assert!(hi > 80.0, "max {hi} too weak for a sunspot record");
        assert!(hi < 400.0, "max {hi} beyond historical record");
    }

    #[test]
    fn quasi_periodicity_near_eleven_years() {
        let s = SunspotGenerator::default().generate(2739, 3);
        // Autocorrelation near the mean cycle (132 months) should beat the
        // autocorrelation at the half cycle (66 months) by a wide margin.
        let ac_cycle = s.autocorrelation(132).unwrap();
        let ac_half = s.autocorrelation(66).unwrap();
        assert!(
            ac_cycle > ac_half,
            "cycle ac {ac_cycle} not above half-cycle ac {ac_half}"
        );
        assert!(
            ac_half < 0.2,
            "half-cycle should be near troughs: {ac_half}"
        );
    }

    #[test]
    fn minima_are_quiet() {
        let s = SunspotGenerator::default().generate(2739, 7);
        // A real sunspot record spends a sizable share of months below 20.
        let quiet = s.values().iter().filter(|&&v| v < 20.0).count();
        assert!(
            quiet as f64 > 0.15 * s.len() as f64,
            "only {quiet} quiet months"
        );
    }

    #[test]
    fn cycles_vary_in_amplitude() {
        let s = SunspotGenerator::default().generate(2739, 12);
        // Split into ~11-year blocks; block maxima should differ noticeably.
        let maxima: Vec<f64> = s
            .values()
            .chunks(132)
            .filter(|c| c.len() == 132)
            .map(|c| stats::max(c).unwrap())
            .collect();
        let (lo, hi) = stats::min_max(&maxima).unwrap();
        assert!(hi - lo > 20.0, "cycle maxima too uniform: [{lo}, {hi}]");
    }

    #[test]
    fn envelope_shape_is_asymmetric() {
        let g = SunspotGenerator::default();
        // Peak sits at the rise fraction; value just after rise start grows
        // faster than it decays at the mirrored position.
        let peak = g.envelope(g.rise_fraction, 100.0);
        assert!((peak - 100.0).abs() < 1e-9);
        let early = g.envelope(g.rise_fraction * 0.5, 100.0);
        let late_same_offset = g.envelope(g.rise_fraction + g.rise_fraction * 0.5, 100.0);
        assert!(early < peak && late_same_offset < peak);
        assert_eq!(g.envelope(0.0, 100.0), 0.0);
        assert!(g.envelope(1.0, 100.0) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        SunspotGenerator::default().generate(0, 1);
    }
}
