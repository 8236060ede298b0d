//! The test oracle for prediction: §3.4 of the paper transcribed literally.
//!
//! "For each input pattern, we look for the rules that this pattern fits.
//! Each rule produces an output for this pattern. The final system output is
//! the mean of the output for each pattern." Every rule is tested against
//! the window in turn; no index, no bitset. Production code answers from
//! `CompiledRuleSet`, and the tests that include this module pin it to these
//! functions bit for bit, so the sums here run over the firing rules in
//! ascending order with the same floating-point expressions.

use evoforecast_core::predict::PredictionDetail;
use evoforecast_core::{Combination, Rule, RuleSetPredictor};

/// The inverse-error weighting's regularizer, as in `evoforecast_core`.
const WEIGHT_EPS: f64 = 1e-9;

/// Combined output of the rules whose condition matches `window`; `None`
/// when none does.
pub fn predict_with(rules: &[Rule], window: &[f64], combination: Combination) -> Option<f64> {
    let mut sum = 0.0;
    let mut weight_sum = 0.0;
    let mut count = 0usize;
    for r in rules {
        if r.condition.matches(window) {
            let w = match combination {
                Combination::Mean => 1.0,
                Combination::InverseErrorWeighted => 1.0 / (r.error + WEIGHT_EPS),
            };
            sum += w * r.predict(window);
            weight_sum += w;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(sum / weight_sum)
    }
}

/// The plain mean of the matching rules' outputs, with how many fired and
/// the mean of their expected errors; `None` when none does.
pub fn predict_detailed(rules: &[Rule], window: &[f64]) -> Option<PredictionDetail> {
    let mut sum = 0.0;
    let mut err_sum = 0.0;
    let mut count = 0usize;
    for r in rules {
        if r.condition.matches(window) {
            sum += r.predict(window);
            err_sum += r.error;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(PredictionDetail {
            value: sum / count as f64,
            firing_rules: count,
            expected_error: err_sum / count as f64,
        })
    }
}

/// Bit patterns of an optional prediction, so NaN outputs compare equal to
/// themselves and `-0.0` differs from `0.0`.
pub fn bits(p: Option<f64>) -> Option<u64> {
    p.map(f64::to_bits)
}

/// Assert that `predictor` answers `window` exactly as the oracle does, in
/// both combination modes and in detail.
pub fn assert_matches_oracle(predictor: &RuleSetPredictor, window: &[f64]) {
    let rules = predictor.rules();
    for combination in [Combination::Mean, Combination::InverseErrorWeighted] {
        assert_eq!(
            bits(predictor.predict_with(window, combination)),
            bits(predict_with(rules, window, combination)),
            "{combination:?} at {window:?}"
        );
    }
    let detail = |d: Option<PredictionDetail>| {
        d.map(|d| {
            (
                d.value.to_bits(),
                d.firing_rules,
                d.expected_error.to_bits(),
            )
        })
    };
    assert_eq!(
        detail(predictor.predict_detailed(window)),
        detail(predict_detailed(rules, window)),
        "detail at {window:?}"
    );
}
