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
//! The engine's entry is [`fit_via_bitset`]: the match set is already known
//! (ANDed together from per-gene bitsets by delta re-evaluation), so the
//! `(D+1)×(D+1)` normal equations (`XᵀX` Gram and `Xᵀy`) are accumulated
//! over its set bits ([`crate::parallel::accumulate_from_bitset`]) without
//! materializing a design matrix, solved by Cholesky
//! ([`fit_from_accumulator`]), and a second pass over only the `K` matched
//! rows computes `e_R`. It runs once per offspring, every generation.
//!
//! To keep results bit-identical across the sequential and rayon-parallel
//! paths, accumulation is chunked: windows are grouped into fixed
//! [`GRAM_CHUNK`]-sized chunks, each chunk gets its own accumulator (rows
//! pushed in ascending window order), and non-empty chunk accumulators
//! merge in ascending chunk order. The literal transcription of §3.1–3.3 in
//! `tests/common/train.rs` matches every window, pushes one rank-1 update
//! per row through the same chunk structure, and pins the engine to it bit
//! for bit.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;
use crate::rule::{Condition, Rule};
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions};

/// Windows per normal-equation accumulation chunk. A multiple of 64 so chunk
/// boundaries are word-aligned in [`MatchBitset`]; small enough that the
/// parallel matcher gets useful work units, large enough that per-chunk
/// accumulator overhead stays negligible.
pub const GRAM_CHUNK: usize = 4096;

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

/// Assemble a full [`Rule`] from a condition, an optional fitted part and a
/// match count. A rule that matched nothing gets a zero hyperplane and
/// infinite error so it can never pollute predictions, mirroring the
/// paper's `f_min` treatment.
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

/// Derive the predicting part from pre-accumulated normal equations. `acc`
/// must hold exactly the rows of `matched` (as
/// [`crate::parallel::accumulate_from_bitset`] builds it). The solve is
/// `O(p³)`; the `e_R` residual pass touches only the `K` matched rows.
///
/// Special cases: no matches → `None`; a single match → constant predictor
/// with zero error (a single point determines no hyperplane; the paper
/// assigns such rules `f_min` anyway); an unsolvable system → constant mean
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
            // order-insensitive: any split of the rows yields the same maximum.
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
/// engine's per-offspring refit. Builds the normal equations over the set
/// bits in ascending window order via
/// [`crate::parallel::accumulate_from_bitset`] ([`GRAM_CHUNK`] discipline,
/// parallelized when the dataset has at least `threshold` windows), then
/// solves and computes `e_R` with [`fit_from_accumulator`]. Returns
/// `(matched_count, model)`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Gene;
    use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    /// Match `condition` against every window and refit it the engine's way.
    fn fit(condition: Condition, ds: &WindowedDataset<'_>) -> (MatchBitset, Rule) {
        let mut bits = MatchBitset::new(ds.len());
        for i in 0..ds.len() {
            if condition.matches(ds.window(i)) {
                bits.set(i);
            }
        }
        let (count, model) = fit_via_bitset(&bits, ds, RegressionOptions::fast(), usize::MAX);
        (bits, rule_from_parts(condition, model, count))
    }

    #[test]
    fn fits_a_linear_series() {
        // Ramp: target = last window value + τ, an exact linear relation.
        // Ramp windows are perfectly collinear (x, x+1, x+2); the ridge term
        // keeps the system solvable, at the price of a small shrinkage bias
        // (λ = 1e-6 × the mean Gram diagonal; e_R ≈ 2e-3 here).
        let vals = ramp(50);
        let ds = WindowSpec::new(3, 2).unwrap().dataset(&vals).unwrap();
        let (_, rule) = fit(Condition::all_wildcards(3), &ds);
        assert_eq!(rule.matched, 46); // 50 - (3 + 2 - 1)
        assert!(
            rule.error < 1e-2,
            "near-exact linear series: error {}",
            rule.error
        );
        // Prediction at window [10, 11, 12] must be ~14 (τ = 2).
        assert!((rule.predict(&[10.0, 11.0, 12.0]) - 14.0).abs() < 1e-2);
    }

    #[test]
    fn restrictive_condition_matches_subset() {
        let vals = ramp(50);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        // Windows starting in [10, 20) only.
        let cond = Condition::new(vec![Gene::bounded(10.0, 19.0), Gene::Wildcard]);
        let (bits, rule) = fit(cond, &ds);
        assert_eq!(rule.matched, 10);
        assert_eq!(bits.to_indices(), (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn no_match_yields_unusable_rule() {
        let vals = ramp(20);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let cond = Condition::new(vec![Gene::bounded(100.0, 200.0), Gene::Wildcard]);
        let (count, model) = fit_via_bitset(
            &MatchBitset::new(ds.len()),
            &ds,
            RegressionOptions::fast(),
            1,
        );
        assert_eq!(count, 0);
        assert!(model.is_none());
        let rule = rule_from_parts(cond, model, count);
        assert_eq!(rule.matched, 0);
        assert!(rule.error.is_infinite());
    }

    #[test]
    fn single_match_predicts_its_target() {
        let vals = ramp(20);
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        // Only the window starting at 5 ([5, 6]) matches.
        let cond = Condition::new(vec![Gene::bounded(5.0, 5.0), Gene::Wildcard]);
        let (_, rule) = fit(cond, &ds);
        assert_eq!(rule.matched, 1);
        assert_eq!(rule.prediction, 7.0); // target of window at 5 with τ=1
        assert_eq!(rule.error, 0.0);
        assert_eq!(rule.predict(&[5.0, 6.0]), 7.0);
    }

    #[test]
    fn scalar_prediction_is_mean_matched_target() {
        // Constant-free check on a noisy series.
        let vals: Vec<f64> = (0..40).map(|i| ((i * 7919) % 13) as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let (_, rule) = fit(Condition::all_wildcards(2), &ds);
        let mean: f64 = (0..ds.len()).map(|i| ds.target(i)).sum::<f64>() / ds.len() as f64;
        assert!((rule.prediction - mean).abs() < 1e-12);
    }

    #[test]
    fn max_abs_residual_is_reported() {
        // Series with one outlier: max residual must reflect it.
        let mut vals = ramp(30);
        vals[20] = 100.0; // outlier target for some window
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let (_, rule) = fit(Condition::all_wildcards(2), &ds);
        assert!(
            rule.error > 10.0,
            "outlier must inflate e_R: {}",
            rule.error
        );
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
        let (_, rule) = fit(cond, &ds);
        assert_eq!(rule.matched, 2);
        assert!(rule.coefficients.iter().all(|c| c.is_finite()));
        assert!(rule.error.is_finite());
    }
}
