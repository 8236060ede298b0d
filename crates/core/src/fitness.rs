//! The paper's fitness function.
//!
//! ```text
//! IF (NR > 1) AND (eR < EMAX) THEN fitness = NR * EMAX − eR
//! ELSE                             fitness = f_min
//! ```
//!
//! `NR` rewards coverage (how many training windows the rule fires on),
//! `EMAX` is the tolerance that both scales the coverage reward and
//! disqualifies rules whose worst-case error exceeds it, and `f_min` is the
//! sentinel for unusable rules. The product form means one extra matched
//! window is worth `EMAX` fitness — a rule may accept a slightly worse
//! maximum residual if that buys it more coverage, which is exactly the
//! accuracy/coverage trade-off the paper tunes through `EMAX`.

use serde::{Deserialize, Serialize};

/// Fitness-function parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessParams {
    /// Maximum tolerated rule error `EMAX` (in target units).
    pub emax: f64,
    /// Sentinel fitness for unusable rules (`f_min`). Must be lower than any
    /// attainable regular fitness; the paper leaves the value open, we use a
    /// large negative number by default.
    pub f_min: f64,
}

impl FitnessParams {
    /// Construct with an explicit `EMAX`; `f_min` defaults to `-1e12`.
    pub fn new(emax: f64) -> FitnessParams {
        FitnessParams { emax, f_min: -1e12 }
    }

    /// `EMAX` as a fraction of the training-target range — the natural way
    /// to configure it across series with different units (cm vs. `[0,1]`).
    pub(crate) fn relative(range: f64, fraction: f64) -> FitnessParams {
        FitnessParams::new(range * fraction)
    }

    /// The paper's fitness of a rule with `matched` windows (`NR`) and
    /// maximum residual `error` (`e_R`).
    #[inline]
    pub fn fitness(&self, matched: usize, error: f64) -> f64 {
        if matched > 1 && error < self.emax {
            matched as f64 * self.emax - error
        } else {
            self.f_min
        }
    }

    /// The highest fitness a rule with `matched` windows can reach, whatever
    /// its error: `f_min` when `matched ≤ 1`, else `max(matched · EMAX,
    /// f_min)`. Sound in floating point, because `e_R ≥ 0` (a fold of `|·|`
    /// from `0.0`) and `fl(a − e) ≤ a` for the representable
    /// `a = fl(matched · EMAX)`, so `fitness(matched, e) ≤
    /// upper_bound(matched)` for every `e` in `[0, ∞]` and for NaN.
    #[inline]
    pub(crate) fn upper_bound(&self, matched: usize) -> f64 {
        if matched > 1 {
            (matched as f64 * self.emax).max(self.f_min)
        } else {
            self.f_min
        }
    }

    /// Is a fitness value the unusable-rule sentinel?
    #[inline]
    pub fn is_unfit(&self, fitness: f64) -> bool {
        fitness <= self.f_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn viable_rule_formula() {
        let p = FitnessParams::new(10.0);
        assert_eq!(p.fitness(5, 3.0), 5.0 * 10.0 - 3.0);
        assert_eq!(p.fitness(2, 0.0), 20.0);
    }

    #[test]
    fn single_match_is_unfit() {
        let p = FitnessParams::new(10.0);
        assert_eq!(p.fitness(1, 0.0), p.f_min);
        assert_eq!(p.fitness(0, 0.0), p.f_min);
    }

    #[test]
    fn error_at_or_above_emax_is_unfit() {
        let p = FitnessParams::new(10.0);
        assert_eq!(p.fitness(100, 10.0), p.f_min); // eR == EMAX fails (strict <)
        assert_eq!(p.fitness(100, 11.0), p.f_min);
        assert!(p.fitness(100, 9.999) > 0.0);
    }

    #[test]
    fn infinite_error_is_unfit() {
        let p = FitnessParams::new(10.0);
        assert_eq!(p.fitness(50, f64::INFINITY), p.f_min);
    }

    #[test]
    fn is_unfit_detects_sentinel() {
        let p = FitnessParams::new(5.0);
        assert!(p.is_unfit(p.fitness(0, 0.0)));
        assert!(!p.is_unfit(p.fitness(3, 1.0)));
    }

    #[test]
    fn upper_bound_below_two_matches_is_f_min() {
        for p in [
            FitnessParams::new(10.0),
            FitnessParams {
                emax: 10.0,
                f_min: 1e6,
            },
        ] {
            assert_eq!(p.upper_bound(0), p.f_min);
            assert_eq!(p.upper_bound(1), p.f_min);
            assert_eq!(p.upper_bound(2), 20.0_f64.max(p.f_min));
        }
    }

    #[test]
    fn relative_scales_by_range() {
        let p = FitnessParams::relative(200.0, 0.1);
        assert_eq!(p.emax, 20.0);
    }

    #[test]
    fn coverage_vs_accuracy_tradeoff() {
        // One extra matched window outweighs any error increase below EMAX.
        let p = FitnessParams::new(10.0);
        let fewer_accurate = p.fitness(10, 0.0);
        let more_sloppy = p.fitness(11, 9.99);
        assert!(more_sloppy > fewer_accurate);
    }

    proptest! {
        #[test]
        fn fitness_monotone_in_matched(
            emax in 0.1..100.0f64,
            n in 2usize..10_000,
            err_frac in 0.0..0.999f64,
        ) {
            let p = FitnessParams::new(emax);
            let err = err_frac * emax;
            prop_assert!(p.fitness(n + 1, err) > p.fitness(n, err));
        }

        #[test]
        fn fitness_antitone_in_error(
            emax in 0.1..100.0f64,
            n in 2usize..1000,
            e1 in 0.0..0.999f64,
            e2 in 0.0..0.999f64,
        ) {
            let p = FitnessParams::new(emax);
            let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
            prop_assert!(p.fitness(n, lo * emax) >= p.fitness(n, hi * emax));
        }

        #[test]
        fn fitness_never_exceeds_the_upper_bound(
            emax in 1e-3..1e3f64,
            m in 0usize..100_000,
            e_sel in 0usize..6,
            e_frac in 0.0..2.0f64,
            e_any in 0.0..f64::MAX,
            f_min_sel in 0usize..3,
        ) {
            let mut p = FitnessParams::new(emax);
            // The default sentinel, one above every regular fitness of `m`,
            // and one between the bound's two branches.
            p.f_min = [p.f_min, m as f64 * emax + 1.0, m as f64 * emax * 0.5][f_min_sel];
            let e = [0.0, e_frac * emax, e_any, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE][e_sel];
            let bound = p.upper_bound(m);
            prop_assert!(p.fitness(m, e) <= bound, "fitness {} > bound {}", p.fitness(m, e), bound);
        }

        #[test]
        fn viable_fitness_always_beats_sentinel(
            emax in 0.1..100.0f64,
            n in 2usize..10_000,
            err_frac in 0.0..0.999f64,
        ) {
            let p = FitnessParams::new(emax);
            prop_assert!(p.fitness(n, err_frac * emax) > p.f_min);
        }
    }
}
