//! Deriving a rule's predicting part from the windows it matches.
//!
//! The paper's procedure (§3.1):
//!
//! 1. collect `C_R(S)` — the training windows matched by the condition,
//! 2. append each window's horizon-τ target `v_i`,
//! 3. fit the hyperplane `v ≈ a_0 x_i + ... + a_{D-1} x_{i+D-1} + a_D` by
//!    linear regression over those vectors,
//! 4. the expected error is `e_R = max_i |v_i − ṽ_i|`.
//!
//! Two implementations are provided:
//!
//! * the **reference two-pass path** ([`evaluate`] / [`fit_part`]): collect
//!   the matched indices, materialize the design matrix, solve by QR (or
//!   ridge). Numerically robust, kept as the oracle the fused path is tested
//!   against.
//! * the **fused single-pass path** ([`fit_from_accumulator`], fed by
//!   [`crate::parallel::match_and_accumulate`]): while matching, accumulate
//!   the `(D+1)×(D+1)` normal equations (`XᵀX` Gram and `Xᵀy`) directly, so
//!   the design matrix is never materialized; solve by Cholesky. A second
//!   cheap pass over only the `K` matched rows computes `e_R`.
//!
//! The engine's entry, [`fit_via_bitset`], is the fused path's back half:
//! the match set is already known (ANDed together from per-gene bitsets by
//! delta re-evaluation), so only the accumulate + solve half runs,
//! rebuilding the Gram by iterating the set bits through the same chunk
//! discipline ([`crate::parallel::accumulate_from_bitset`]) — results stay
//! bit-identical to the fused scan. It runs once per offspring, every
//! generation.
//!
//! To keep results bit-identical across the sequential and rayon-parallel
//! paths, accumulation is chunked: windows are grouped into fixed
//! [`GRAM_CHUNK`]-sized chunks, each chunk gets its own accumulator (rows
//! pushed in ascending window order), and non-empty chunk accumulators
//! merge in ascending chunk order. Every path produces the
//! same chunk structure, hence the same floating-point sums.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;
use crate::rule::{Condition, Rule};
use evoforecast_linalg::regression::{LinearRegression, NormalEqAccumulator, RegressionOptions};
use evoforecast_linalg::Matrix;

/// Windows per normal-equation accumulation chunk. A multiple of 64 so chunk
/// boundaries are word-aligned in [`MatchBitset`]; small enough that the
/// parallel matcher gets useful work units, large enough that per-chunk
/// accumulator overhead stays negligible.
pub const GRAM_CHUNK: usize = 4096;

/// Outcome of evaluating a condition against a training dataset.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Indices of the matched windows.
    pub matched: Vec<usize>,
    /// Fitted model, when at least one window matched.
    pub model: Option<FittedPart>,
}

/// The derived predicting part.
#[derive(Debug, Clone)]
pub struct FittedPart {
    /// Hyperplane slopes `a_0..a_{D-1}`.
    pub coefficients: Vec<f64>,
    /// Intercept `a_D`.
    pub intercept: f64,
    /// Scalar summary prediction `p` — mean matched target.
    pub prediction: f64,
    /// Expected error `e_R` — max absolute residual.
    pub error: f64,
}

impl Evaluation {
    /// `N_R`: number of matched windows.
    pub fn matched_count(&self) -> usize {
        self.matched.len()
    }

    /// Assemble a full [`Rule`]. Rules that matched nothing get a
    /// zero hyperplane and infinite error so they can never pollute
    /// predictions, mirroring the paper's `f_min` treatment.
    pub fn into_rule(self, condition: Condition) -> Rule {
        let d = condition.len();
        match self.model {
            Some(m) => Rule {
                condition,
                coefficients: m.coefficients,
                intercept: m.intercept,
                prediction: m.prediction,
                error: m.error,
                matched: self.matched.len(),
            },
            None => Rule {
                condition,
                coefficients: vec![0.0; d],
                intercept: 0.0,
                prediction: 0.0,
                error: f64::INFINITY,
                matched: 0,
            },
        }
    }
}

/// Assemble a full [`Rule`] from a condition, an optional fitted part and a
/// match count, with the same no-match semantics as [`Evaluation::into_rule`]
/// (zero hyperplane, infinite error). Used by the fused path, which tracks
/// matches as a bitset instead of an index list.
pub fn rule_from_parts(condition: Condition, model: Option<FittedPart>, matched: usize) -> Rule {
    let d = condition.len();
    match model {
        Some(m) => Rule {
            condition,
            coefficients: m.coefficients,
            intercept: m.intercept,
            prediction: m.prediction,
            error: m.error,
            matched,
        },
        None => Rule {
            condition,
            coefficients: vec![0.0; d],
            intercept: 0.0,
            prediction: 0.0,
            error: f64::INFINITY,
            matched: 0,
        },
    }
}

/// Derive the predicting part from pre-accumulated normal equations — the
/// second half of the fused path. `acc` and `matched` must come from the
/// same match run ([`crate::parallel::match_and_accumulate`] or
/// [`crate::parallel::accumulate_from_bitset`]). The solve is `O(p³)`; the `e_R` residual pass touches only
/// the `K` matched rows.
///
/// Special cases mirror [`fit_part`]: no matches → `None`; a single match →
/// constant predictor with zero error; an unsolvable system → constant mean
/// predictor with its worst-case residual.
pub fn fit_from_accumulator<E: ExampleSet>(
    acc: &NormalEqAccumulator,
    matched: &MatchBitset,
    data: &E,
    opts: RegressionOptions,
) -> Option<FittedPart> {
    let count = acc.count();
    if count == 0 {
        return None;
    }
    let d = data.feature_len();
    let mean_target = acc.sum_targets() / count as f64;

    if count == 1 {
        // audit: allow(panic-freedom) — guarded by `count == 1` on the previous line, so one set bit exists
        let i = matched.iter_ones().next().expect("count == 1");
        return Some(FittedPart {
            coefficients: vec![0.0; d],
            intercept: data.target(i),
            prediction: data.target(i),
            error: 0.0,
        });
    }

    match acc.solve(opts.ridge_lambda) {
        Ok(fit) => {
            // e_R over matched rows only. f64::max is exact, so this fold is
            // order-insensitive — any match path yields the same maximum.
            let error = matched
                .iter_ones()
                .map(|i| (data.target(i) - fit.predict(data.features(i))).abs())
                .fold(0.0_f64, f64::max);
            Some(FittedPart {
                coefficients: fit.coefficients().to_vec(),
                intercept: fit.intercept(),
                prediction: mean_target,
                error,
            })
        }
        Err(_) => {
            let error = matched
                .iter_ones()
                .map(|i| (data.target(i) - mean_target).abs())
                .fold(0.0_f64, f64::max);
            Some(FittedPart {
                coefficients: vec![0.0; d],
                intercept: mean_target,
                prediction: mean_target,
                error,
            })
        }
    }
}

/// Derive the predicting part from an already-known match bitset — the
/// delta-evaluation back half. Rebuilds the normal equations over the set
/// bits in ascending window order via
/// [`crate::parallel::accumulate_from_bitset`] (same [`GRAM_CHUNK`]
/// discipline as the fused scan, parallelized when the dataset has at least
/// `threshold` windows), then solves and computes `e_R` exactly like
/// [`fit_from_accumulator`]. Returns `(matched_count, model)`.
pub fn fit_via_bitset<E: ExampleSet>(
    matched: &MatchBitset,
    data: &E,
    opts: RegressionOptions,
    threshold: usize,
) -> (usize, Option<FittedPart>) {
    let acc = crate::parallel::accumulate_from_bitset(matched, data, opts, threshold);
    let count = acc.count();
    (count, fit_from_accumulator(&acc, matched, data, opts))
}

/// Match `condition` against every window of `data` and derive the
/// predicting part from the matched subset — the reference two-pass
/// implementation the fused path is verified against.
///
/// `opts` selects the regression path; the engine's fused equivalent uses
/// [`RegressionOptions::fast`] (ridge-stabilized normal equations) because
/// it runs once per offspring.
pub fn evaluate<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    opts: RegressionOptions,
) -> Evaluation {
    let matched: Vec<usize> = (0..data.len())
        .filter(|&i| condition.matches(data.features(i)))
        .collect();
    let model = fit_part(&matched, data, opts);
    Evaluation { matched, model }
}

/// Derive the predicting part from an explicit matched-index list (used by
/// the parallel evaluation path, which computes the matches with rayon).
pub fn fit_part<E: ExampleSet>(
    matched: &[usize],
    data: &E,
    opts: RegressionOptions,
) -> Option<FittedPart> {
    if matched.is_empty() {
        return None;
    }
    let d = data.feature_len();

    // Mean matched target = the paper's scalar p; also the fallback
    // prediction when the regression cannot run.
    let mean_target = matched.iter().map(|&i| data.target(i)).sum::<f64>() / matched.len() as f64;

    if matched.len() == 1 {
        // A single point determines no hyperplane: predict its target as a
        // constant. The paper assigns such rules f_min anyway (NR > 1 is
        // required), so this only affects reporting.
        let i = matched[0];
        return Some(FittedPart {
            coefficients: vec![0.0; d],
            intercept: data.target(i),
            prediction: data.target(i),
            error: 0.0,
        });
    }

    // Build the design over matched windows only.
    let mut xs = Matrix::zeros(matched.len(), d);
    let mut ys = Vec::with_capacity(matched.len());
    for (row, &i) in matched.iter().enumerate() {
        xs.row_mut(row).copy_from_slice(data.features(i));
        ys.push(data.target(i));
    }

    match LinearRegression::fit_with(&xs, &ys, opts) {
        Ok(fit) => {
            let error = fit.max_abs_residual(&xs, &ys);
            Some(FittedPart {
                coefficients: fit.coefficients().to_vec(),
                intercept: fit.intercept(),
                prediction: mean_target,
                error,
            })
        }
        Err(_) => {
            // Pathological design even for ridge: fall back to the constant
            // mean predictor with its worst-case residual.
            let error = ys
                .iter()
                .map(|y| (y - mean_target).abs())
                .fold(0.0_f64, f64::max);
            Some(FittedPart {
                coefficients: vec![0.0; d],
                intercept: mean_target,
                prediction: mean_target,
                error,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Gene;
    use evoforecast_tsdata::window::WindowSpec;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn evaluate_matches_and_fits_linear_series() {
        // Ramp: target = last window value + τ, an exact linear relation —
        // but ramp windows are perfectly collinear (x, x+1, x+2), so the QR
        // path reports rank deficiency and the ridge fallback fits. The fit
        // is near-exact, up to the (tiny) ridge shrinkage.
        let vals = ramp(50);
        let ds = WindowSpec::new(3, 2).unwrap().dataset(&vals).unwrap();
        let cond = Condition::all_wildcards(3);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        assert_eq!(ev.matched_count(), ds.len());
        let m = ev.model.as_ref().unwrap();
        assert!(
            m.error < 1e-3,
            "near-exact linear series: error {}",
            m.error
        );
        let rule = ev.into_rule(cond);
        // Prediction at window [10, 11, 12] must be ~14 (τ = 2).
        assert!((rule.predict(&[10.0, 11.0, 12.0]) - 14.0).abs() < 1e-2);
        assert_eq!(rule.matched, 46); // 50 - (3 + 2 - 1)
    }

    #[test]
    fn restrictive_condition_matches_subset() {
        let vals = ramp(50);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        // Windows starting in [10, 20) only.
        let cond = Condition::new(vec![Gene::bounded(10.0, 19.0), Gene::Wildcard]);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        assert_eq!(ev.matched_count(), 10);
        assert!(ev.matched.iter().all(|&i| (10..20).contains(&i)));
    }

    #[test]
    fn no_match_yields_unusable_rule() {
        let vals = ramp(20);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let cond = Condition::new(vec![Gene::bounded(100.0, 200.0), Gene::Wildcard]);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        assert_eq!(ev.matched_count(), 0);
        assert!(ev.model.is_none());
        let rule = ev.into_rule(cond);
        assert_eq!(rule.matched, 0);
        assert!(rule.error.is_infinite());
    }

    #[test]
    fn single_match_predicts_its_target() {
        let vals = ramp(20);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        // Only the window starting at 5 ([5, 6]) matches.
        let cond = Condition::new(vec![Gene::bounded(5.0, 5.0), Gene::Wildcard]);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        assert_eq!(ev.matched_count(), 1);
        let m = ev.model.as_ref().unwrap();
        assert_eq!(m.prediction, 7.0); // target of window at 5 with τ=1
        assert_eq!(m.error, 0.0);
        let rule = ev.into_rule(cond);
        assert_eq!(rule.predict(&[5.0, 6.0]), 7.0);
    }

    #[test]
    fn scalar_prediction_is_mean_matched_target() {
        // Constant-free check on a noisy series.
        let vals: Vec<f64> = (0..40).map(|i| ((i * 7919) % 13) as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let cond = Condition::all_wildcards(2);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        let mean: f64 = (0..ds.len()).map(|i| ds.target(i)).sum::<f64>() / ds.len() as f64;
        let m = ev.model.as_ref().unwrap();
        assert!((m.prediction - mean).abs() < 1e-12);
    }

    #[test]
    fn max_abs_residual_is_reported() {
        // Series with one outlier: max residual must reflect it.
        let mut vals = ramp(30);
        vals[20] = 100.0; // outlier target for some window
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let cond = Condition::all_wildcards(2);
        let ev = evaluate(&cond, &ds, RegressionOptions::default());
        let m = ev.model.as_ref().unwrap();
        assert!(m.error > 10.0, "outlier must inflate e_R: {}", m.error);
    }

    #[test]
    fn fast_options_work_on_tiny_match_sets() {
        let vals = ramp(20);
        let ds = WindowSpec::new(4, 1).unwrap().dataset(&vals).unwrap();
        // Exactly two matches: fewer rows than D+1 columns; ridge handles it.
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 1.0),
            Gene::Wildcard,
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let ev = evaluate(&cond, &ds, RegressionOptions::fast());
        assert_eq!(ev.matched_count(), 2);
        let m = ev.model.unwrap();
        assert!(m.coefficients.iter().all(|c| c.is_finite()));
        assert!(m.error.is_finite());
    }

    #[test]
    fn fit_part_empty_is_none() {
        let vals = ramp(10);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        assert!(fit_part(&[], &ds, RegressionOptions::default()).is_none());
    }

    mod properties {
        use super::*;
        use crate::parallel;
        use evoforecast_tsdata::gen::waves::noisy_sine;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn fused_kernel_agrees_with_two_pass_reference(
                seed in 0u64..500,
                n in 30usize..220,
                d in 1usize..6,
                lo_frac in 0.0..1.0f64,
                width in 0.05..1.2f64,
                wild_mask in 0u8..32,
                threshold_sel in 0usize..3,
            ) {
                prop_assume!(n > d + 6);
                let threshold = [1usize, 64, usize::MAX][threshold_sel];
                let series = noisy_sine(n, 11.0, 1.0, 0.15, seed);
                let ds = WindowSpec::new(d, 1).unwrap().dataset(series.values()).unwrap();
                let (min, max) = series
                    .values()
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                        (a.min(v), b.max(v))
                    });
                let span = max - min;
                let genes = (0..d)
                    .map(|g| {
                        if wild_mask & (1 << g) != 0 {
                            Gene::Wildcard
                        } else {
                            let lo = min + lo_frac * span * 0.8;
                            Gene::bounded(lo, lo + width * span)
                        }
                    })
                    .collect();
                let cond = Condition::new(genes);
                let opts = RegressionOptions::fast();

                // Reference: two passes, materialized design matrix, fit_part.
                let reference = evaluate(&cond, &ds, opts);
                // Fused: one pass accumulating normal equations + bitset.
                let (bits, acc) = parallel::match_and_accumulate(&cond, &ds, opts, threshold);
                let fused = fit_from_accumulator(&acc, &bits, &ds, opts);

                // Matched sets identical, bit for bit.
                prop_assert_eq!(bits.to_indices(), reference.matched.clone());
                prop_assert_eq!(acc.count(), reference.matched_count());

                match (fused, reference.model) {
                    (None, None) => {}
                    (Some(f), Some(r)) => {
                        prop_assert_eq!(f.coefficients.len(), r.coefficients.len());
                        for (a, b) in f.coefficients.iter().zip(&r.coefficients) {
                            prop_assert!((a - b).abs() < 1e-9,
                                "coefficient drift {} vs {}", a, b);
                        }
                        prop_assert!((f.intercept - r.intercept).abs() < 1e-9,
                            "intercept drift {} vs {}", f.intercept, r.intercept);
                        prop_assert!((f.prediction - r.prediction).abs() < 1e-9);
                        prop_assert!((f.error - r.error).abs() < 1e-9,
                            "e_R drift {} vs {}", f.error, r.error);
                    }
                    (f, r) => prop_assert!(false,
                        "fused {:?} vs reference {:?} disagree on fittability", f, r),
                }
            }
        }
    }
}
