//! Spectral validation of series.
//!
//! Thin wrapper over [`evoforecast_linalg::fft`] giving series-level
//! spectral queries. Its real job is the test suite at the bottom: the
//! DESIGN.md §4 substitution argument says the synthetic Venice and sunspot
//! series preserve the *structure* the paper's method exploits — these tests
//! verify that claim in the frequency domain (the M2 tidal line, the diurnal
//! band, the ~11-year Schwabe cycle).

use crate::error::DataError;
use crate::series::TimeSeries;
use evoforecast_linalg::fft::{self, SpectralPeak};

/// Periodogram of a series (positive frequencies, mean removed).
///
/// # Errors
/// [`DataError::InvalidParameter`] when the FFT rejects the data (cannot
/// happen for a validated series, but kept recoverable).
pub fn periodogram(series: &TimeSeries) -> Result<Vec<SpectralPeak>, DataError> {
    fft::periodogram(series.values())
        .map_err(|e| DataError::InvalidParameter(format!("periodogram failed: {e}")))
}

/// The strongest spectral peak; `None` for constant series.
///
/// # Errors
/// See [`periodogram`].
pub fn dominant_period(series: &TimeSeries) -> Result<Option<SpectralPeak>, DataError> {
    fft::dominant_period(series.values())
        .map_err(|e| DataError::InvalidParameter(format!("periodogram failed: {e}")))
}

/// Total spectral power within a period band `[lo, hi]` (in samples),
/// as a fraction of total power. Quantifies "how much of this series is the
/// X-periodic component".
///
/// # Errors
/// [`DataError::InvalidParameter`] for an empty band or FFT failure.
pub fn band_power_fraction(series: &TimeSeries, lo: f64, hi: f64) -> Result<f64, DataError> {
    if !(lo > 0.0 && hi > lo) {
        return Err(DataError::InvalidParameter(format!(
            "period band [{lo}, {hi}] invalid"
        )));
    }
    let bins = periodogram(series)?;
    let total: f64 = bins.iter().map(|b| b.power).sum();
    if total <= 0.0 {
        return Ok(0.0);
    }
    let band: f64 = bins
        .iter()
        .filter(|b| b.period >= lo && b.period <= hi)
        .map(|b| b.power)
        .sum();
    Ok(band / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::sunspot::SunspotGenerator;
    use crate::gen::venice::VeniceTide;
    use crate::gen::waves;

    #[test]
    fn sine_period_recovered() {
        let s = waves::sine(1024, 32.0, 1.0, 0.0, 0.0);
        let peak = dominant_period(&s).unwrap().unwrap();
        assert!((peak.period - 32.0).abs() < 1.0, "period {}", peak.period);
    }

    #[test]
    fn band_power_validation() {
        let s = waves::sine(1024, 32.0, 1.0, 5.0, 0.0);
        // Nearly all power in a band around 32.
        let frac = band_power_fraction(&s, 28.0, 36.0).unwrap();
        assert!(frac > 0.95, "band fraction {frac}");
        let off = band_power_fraction(&s, 5.0, 10.0).unwrap();
        assert!(off < 0.02, "off-band fraction {off}");
        assert!(band_power_fraction(&s, 0.0, 10.0).is_err());
        assert!(band_power_fraction(&s, 10.0, 10.0).is_err());
    }

    #[test]
    fn venice_spectrum_peaks_in_semidiurnal_band() {
        // The simulator must concentrate substantial energy near the M2/S2
        // semidiurnal band (12–12.5 h) — the defining feature of the real
        // Venice record the paper used.
        let s = VeniceTide::default().generate(8192, 11);
        let semidiurnal = band_power_fraction(&s, 11.5, 13.0).unwrap();
        assert!(
            semidiurnal > 0.15,
            "semidiurnal band carries only {semidiurnal:.3} of power"
        );
        // And the diurnal constituents (K1/O1/P1, 23.9–25.8 h) are present.
        let diurnal = band_power_fraction(&s, 23.0, 26.5).unwrap();
        assert!(diurnal > 0.05, "diurnal band {diurnal:.3}");
    }

    #[test]
    fn venice_dominant_period_is_tidal() {
        let s = VeniceTide::default().generate(8192, 3);
        let peak = dominant_period(&s).unwrap().unwrap();
        // Dominant line should be one of the tidal constituents (12-26 h) —
        // not noise, not the annual term (which the 8k window barely sees).
        assert!(
            (11.0..27.0).contains(&peak.period),
            "dominant period {:.2} h is not tidal",
            peak.period
        );
    }

    #[test]
    fn sunspot_spectrum_peaks_near_schwabe_cycle() {
        let s = SunspotGenerator::default().generate(2739, 5);
        // Substantial power in the 9–13 year band (108–156 months).
        let schwabe = band_power_fraction(&s, 100.0, 170.0).unwrap();
        assert!(schwabe > 0.3, "Schwabe band carries only {schwabe:.3}");
        let peak = dominant_period(&s).unwrap().unwrap();
        assert!(
            (90.0..250.0).contains(&peak.period),
            "dominant period {:.0} months far from the solar cycle",
            peak.period
        );
    }

    #[test]
    fn white_noise_has_no_dominant_band() {
        // A zero-amplitude noisy sine is pure N(0, 1) white noise.
        let s = waves::noisy_sine(4096, 50.0, 0.0, 1.0, 9);
        // No band of width ~10% of the spectrum should hold >15% of power.
        let frac = band_power_fraction(&s, 30.0, 40.0).unwrap();
        assert!(frac < 0.15, "noise band fraction {frac}");
    }
}
