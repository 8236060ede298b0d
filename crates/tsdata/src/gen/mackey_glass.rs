//! Mackey-Glass delay differential equation.
//!
//! The paper's artificial benchmark:
//!
//! ```text
//! ds/dt = -b s(t) + a s(t-λ) / (1 + s(t-λ)^10)
//! ```
//!
//! with `a = 0.2`, `b = 0.1`, `λ = 17` (the chaotic regime). We integrate
//! with classical RK4 at a fixed sub-step, keeping the full solution history
//! so the delayed term can be linearly interpolated at the half-steps RK4
//! requires. Samples are emitted once per unit time, matching the sampling
//! used throughout the Mackey-Glass forecasting literature.

use crate::series::TimeSeries;

/// Mackey-Glass integrator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MackeyGlass {
    /// Production coefficient `a` (paper: 0.2).
    pub a: f64,
    /// Decay coefficient `b` (paper: 0.1).
    pub b: f64,
    /// Delay `λ` in time units (paper: 17 — chaotic).
    pub lambda: f64,
    /// Constant initial history `s(t) = x0` for `t <= 0` (literature: 1.2).
    pub x0: f64,
    /// Integration sub-step; the delay should be a multiple of this.
    pub dt: f64,
    /// Emit one sample every `sample_every` time units.
    pub sample_every: f64,
}

impl Default for MackeyGlass {
    fn default() -> Self {
        Self::paper_setup()
    }
}

impl MackeyGlass {
    /// The paper's parameters: `a = 0.2`, `b = 0.1`, `λ = 17`, unit sampling.
    pub fn paper_setup() -> Self {
        MackeyGlass {
            a: 0.2,
            b: 0.1,
            lambda: 17.0,
            x0: 1.2,
            dt: 0.1,
            sample_every: 1.0,
        }
    }

    /// Right-hand side of the DDE given current value `s` and delayed value
    /// `s_del = s(t - λ)`.
    #[inline]
    fn rhs(&self, s: f64, s_del: f64) -> f64 {
        -self.b * s + self.a * s_del / (1.0 + s_del.powi(10))
    }

    /// Generate `n` samples (after `t = 0`), one every `sample_every` units.
    ///
    /// # Panics
    /// Panics when `n == 0`, `dt <= 0`, `sample_every < dt`, or `lambda < 0` —
    /// these are programmer errors in experiment setup, not data conditions.
    pub fn generate(&self, n: usize) -> TimeSeries {
        assert!(n > 0, "need at least one sample");
        assert!(self.dt > 0.0, "dt must be positive");
        assert!(self.sample_every >= self.dt, "sample_every must be >= dt");
        assert!(self.lambda >= 0.0, "delay must be non-negative");

        let delay_steps = self.lambda / self.dt;
        let steps_per_sample = (self.sample_every / self.dt).round() as usize;
        let total_steps = n * steps_per_sample;

        // history[k] = s(k * dt); index 0 is t = 0.
        let mut history: Vec<f64> = Vec::with_capacity(total_steps + 1);
        history.push(self.x0);

        // Delayed lookup with linear interpolation; constant history x0
        // before t = 0.
        let delayed = |history: &[f64], t_steps: f64| -> f64 {
            let idx = t_steps - delay_steps;
            if idx <= 0.0 {
                return self.x0;
            }
            let lo = idx.floor() as usize;
            let frac = idx - lo as f64;
            if lo + 1 < history.len() {
                history[lo] * (1.0 - frac) + history[lo + 1] * frac
            } else {
                *history.last().expect("history starts non-empty")
            }
        };

        let mut samples = Vec::with_capacity(n);
        for step in 0..total_steps {
            let t = step as f64;
            let s = history[step];
            // RK4 with the delayed term interpolated at t-λ, t-λ+dt/2, t-λ+dt.
            let d0 = delayed(&history, t);
            let dh = delayed(&history, t + 0.5);
            let d1 = delayed(&history, t + 1.0);
            let k1 = self.rhs(s, d0);
            let k2 = self.rhs(s + 0.5 * self.dt * k1, dh);
            let k3 = self.rhs(s + 0.5 * self.dt * k2, dh);
            let k4 = self.rhs(s + self.dt * k3, d1);
            let next = s + self.dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            history.push(next);
            if (step + 1) % steps_per_sample == 0 {
                samples.push(next);
            }
        }

        TimeSeries::new("mackey-glass", samples).expect("integrator output is finite")
    }

    /// The paper's full dataset: 5000 samples with the first 3500 discarded
    /// as initialization transients, leaving samples 3500..5000 (training
    /// `[3500, 4500)`, test `[4500, 5000)` — indices into the *returned*
    /// series are 0..1500 after the discard, so split with
    /// [`crate::split::split_at`] at 1000).
    pub fn paper_series(&self) -> TimeSeries {
        let full = self.generate(5000);
        full.discard_prefix(3500)
            .expect("5000 samples allow discarding 3500")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_length() {
        let s = MackeyGlass::paper_setup().generate(200);
        assert_eq!(s.len(), 200);
    }

    #[test]
    fn stays_in_known_band() {
        // After transients the λ=17 attractor lives in roughly [0.2, 1.4].
        let s = MackeyGlass::paper_setup().generate(2000);
        let tail = &s.values()[500..];
        let (lo, hi) = evoforecast_linalg::stats::min_max(tail).unwrap();
        assert!(lo > 0.1, "min {lo} below plausible attractor band");
        assert!(hi < 1.6, "max {hi} above plausible attractor band");
    }

    #[test]
    fn is_not_periodic_or_constant() {
        let s = MackeyGlass::paper_setup().generate(1500);
        let tail = &s.values()[500..];
        let var = evoforecast_linalg::stats::variance(tail).unwrap();
        assert!(var > 1e-3, "chaotic series should have real variance");
        // Chaotic: autocorrelation at long lags decays well below 1.
        let ac = evoforecast_linalg::stats::autocorrelation(tail, 100).unwrap();
        assert!(ac.abs() < 0.95);
    }

    #[test]
    fn deterministic() {
        let a = MackeyGlass::paper_setup().generate(300);
        let b = MackeyGlass::paper_setup().generate(300);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn small_delay_decays_to_fixed_point() {
        // With λ = 0 the DDE is ds/dt = -bs + a s/(1+s^10): non-chaotic,
        // trajectory converges — variance of a late window is tiny.
        let mg = MackeyGlass {
            lambda: 0.0,
            ..MackeyGlass::paper_setup()
        };
        let s = mg.generate(3000);
        let late = &s.values()[2500..];
        let var = evoforecast_linalg::stats::variance(late).unwrap();
        assert!(var < 1e-6, "non-delayed system should settle, var={var}");
    }

    #[test]
    fn paper_series_has_1500_points() {
        let s = MackeyGlass::paper_setup().paper_series();
        assert_eq!(s.len(), 1500);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        MackeyGlass::paper_setup().generate(0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn bad_dt_panics() {
        let mg = MackeyGlass {
            dt: 0.0,
            ..MackeyGlass::paper_setup()
        };
        mg.generate(10);
    }

    #[test]
    fn finer_dt_agrees_roughly() {
        // Chaotic systems diverge exponentially, so compare only a short
        // early horizon: the first 30 samples should agree to ~1e-2 between
        // dt=0.1 and dt=0.05.
        let coarse = MackeyGlass::paper_setup().generate(30);
        let fine = MackeyGlass {
            dt: 0.05,
            ..MackeyGlass::paper_setup()
        }
        .generate(30);
        for (c, f) in coarse.values().iter().zip(fine.values().iter()) {
            assert!((c - f).abs() < 1e-2, "coarse {c} vs fine {f}");
        }
    }
}
