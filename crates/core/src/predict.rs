//! The abstaining rule-set predictor (§3.4).
//!
//! "For each input pattern, we look for the rules that this pattern fits.
//! Each rule produces an output for this pattern. The final system output is
//! the mean of the output for each pattern." Windows matched by no rule get
//! *no* prediction — the abstention every results table accounts for in its
//! "percentage of prediction" column.
//!
//! [`RuleSetPredictor`] is the rule set as training, merging and artifacts
//! see it. It answers every forecast from one
//! [`crate::compiled::CompiledRuleSet`], built on the first predict after
//! construction, merge or load and cached until the rules change. The
//! literal O(R·D) scan of §3.4 lives in the test suite as the oracle the
//! compiled form must match bit for bit.

use crate::bitset::MatchBitset;
use crate::compiled::CompiledRuleSet;
use crate::dataset::ExampleSet;
use crate::parallel::map_ranges;
use crate::rule::Rule;
use serde::de::Reader;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Windows per parallel chunk in [`RuleSetPredictor::predict_dataset`].
const PREDICT_CHUNK: usize = 1024;

/// Datasets with at least this many windows are predicted in parallel
/// chunks; smaller ones in one sequential pass. Outputs are identical either
/// way.
const PARALLEL_PREDICT_MIN: usize = 8 * PREDICT_CHUNK;

/// How the outputs of simultaneously firing rules are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Combination {
    /// The paper's rule (§3.4): plain mean over firing rules.
    #[default]
    Mean,
    /// Extension: weight each firing rule by `1 / (e_R + ε)` so precise
    /// rules dominate sloppy ones where they overlap (ablation A5).
    InverseErrorWeighted,
}

/// Detailed outcome of predicting one window.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionDetail {
    /// The system output (mean over firing rules).
    pub value: f64,
    /// Number of rules that fired.
    pub firing_rules: usize,
    /// Mean of the firing rules' expected errors `e_R` — the system's own
    /// confidence estimate for this window.
    pub expected_error: f64,
}

/// Check that a rule list can be evaluated as one system: every gene is
/// well-formed, every number is finite, every rule has one coefficient per
/// condition gene, and all rules share one window length.
///
/// # Errors
/// A message naming the first offending rule.
pub(crate) fn check_rule_shapes(rules: &[Rule]) -> Result<(), String> {
    let dims = rules.first().map_or(0, Rule::window_len);
    for (i, r) in rules.iter().enumerate() {
        check_rule(r).map_err(|e| format!("rule {i} {e}"))?;
        if r.window_len() != dims {
            return Err(format!(
                "rule {i} has window length {}, rule 0 has {dims}",
                r.window_len()
            ));
        }
    }
    Ok(())
}

/// The per-rule half of [`check_rule_shapes`]: well-formed genes, finite
/// numbers, one coefficient per gene.
fn check_rule(r: &Rule) -> Result<(), String> {
    if let Some(g) = r.condition.genes().iter().position(|g| !g.is_well_formed()) {
        return Err(format!(
            "gene {g} is not a wildcard or a finite interval with lo <= hi"
        ));
    }
    let numbers = [r.intercept, r.prediction, r.error];
    if !r.coefficients.iter().chain(&numbers).all(|x| x.is_finite()) {
        return Err("has a non-finite coefficient, prediction or error".to_string());
    }
    if r.coefficients.len() != r.window_len() {
        return Err(format!(
            "has {} coefficients under a {}-gene condition",
            r.coefficients.len(),
            r.window_len()
        ));
    }
    Ok(())
}

/// A trained forecasting system: the union of all viable rules from one or
/// more executions.
///
/// Its rules always fit together, in the sense of `check_rule_shapes`: each
/// constructor checks them, keeps only those that pass, or starts from rules
/// that passed. So compiling a predictor cannot fail.
#[derive(Debug, Clone)]
pub struct RuleSetPredictor {
    rules: Vec<Rule>,
    /// The rules in compiled form, built by the first predict and dropped by
    /// [`RuleSetPredictor::merge`].
    compiled: OnceLock<CompiledRuleSet>,
}

impl PartialEq for RuleSetPredictor {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

/// Serialized as `{"rules": [...]}`; the compiled cache is never written.
impl Serialize for RuleSetPredictor {
    fn to_value(&self) -> Value {
        Value::Object(vec![("rules".to_string(), self.rules.to_value())])
    }
}

/// The on-disk shape of a [`RuleSetPredictor`].
#[derive(Deserialize)]
struct SerializedRules {
    rules: Vec<Rule>,
}

/// Refuses rules that do not fit together, naming the first offending rule,
/// so a malformed artifact fails at load instead of at its first forecast.
impl Deserialize for RuleSetPredictor {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let SerializedRules { rules } = SerializedRules::deserialize(r)?;
        RuleSetPredictor::with_all_rules(rules).map_err(serde::Error::custom)
    }
}

impl RuleSetPredictor {
    /// Build from a rule set, keeping only *usable* rules: at least two
    /// matched training windows (the paper's `NR > 1` viability condition)
    /// and the shape every artifact loader demands — well-formed genes,
    /// finite coefficients, intercept, prediction and expected error, one
    /// coefficient per gene, and the first kept rule's window length. Rules
    /// that never matched anything carry no information and would pollute
    /// the mean; malformed ones could not be evaluated at all.
    pub fn new(rules: Vec<Rule>) -> RuleSetPredictor {
        let mut rules: Vec<Rule> = rules
            .into_iter()
            .filter(|r| r.matched > 1 && check_rule(r).is_ok())
            .collect();
        let dims = rules.first().map_or(0, Rule::window_len);
        rules.retain(|r| r.window_len() == dims);
        RuleSetPredictor::from_checked(rules)
    }

    /// Build from every rule, without the viability filter.
    ///
    /// # Errors
    /// [`check_rule_shapes`]' message when the rules do not fit together.
    pub(crate) fn with_all_rules(rules: Vec<Rule>) -> Result<RuleSetPredictor, String> {
        check_rule_shapes(&rules)?;
        Ok(RuleSetPredictor::from_checked(rules))
    }

    /// Wrap rules that already fit together.
    fn from_checked(rules: Vec<Rule>) -> RuleSetPredictor {
        RuleSetPredictor {
            rules,
            compiled: OnceLock::new(),
        }
    }

    /// Drop every rule whose expected error exceeds `max_error` — the
    /// predictor-side analogue of the fitness function's `EMAX` cut. Rules
    /// that were unfit at the end of evolution (e.g. never replaced) would
    /// otherwise still contribute to the prediction mean.
    pub fn filter_by_error(mut self, max_error: f64) -> RuleSetPredictor {
        self.rules.retain(|r| r.error < max_error);
        RuleSetPredictor::from_checked(self.rules)
    }

    /// The retained rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of retained rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules were retained.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Merge another predictor's rules into this one (ensemble union). The
    /// compiled form is rebuilt by the next predict, not here, so a campaign
    /// merging wave after wave never compiles in between. Both sets must
    /// share one window length, as one campaign's executions do.
    pub(crate) fn merge(&mut self, other: RuleSetPredictor) {
        debug_assert!(
            (self.rules.first().zip(other.rules.first()))
                .is_none_or(|(a, b)| a.window_len() == b.window_len()),
            "merged rule sets must share one window length"
        );
        self.rules.extend(other.rules);
        self.compiled = OnceLock::new();
    }

    /// The compiled form of the current rules, built on first use.
    fn compiled(&self) -> &CompiledRuleSet {
        self.compiled.get_or_init(|| CompiledRuleSet::compile(self))
    }

    /// Predict one window: mean over the outputs of every firing rule;
    /// `None` when no rule fires. (The paper's combination; see
    /// [`RuleSetPredictor::predict_with`] for alternatives.)
    pub fn predict(&self, window: &[f64]) -> Option<f64> {
        self.predict_with(window, Combination::Mean)
    }

    /// Predict with an explicit combination strategy.
    ///
    /// # Panics
    /// In debug builds, when the window length differs from the rules' `D`.
    pub fn predict_with(&self, window: &[f64], combination: Combination) -> Option<f64> {
        let compiled = self.compiled();
        compiled.predict_with_into(window, combination, &mut compiled.scratch())
    }

    /// Predict with diagnostics.
    pub fn predict_detailed(&self, window: &[f64]) -> Option<PredictionDetail> {
        let compiled = self.compiled();
        compiled.predict_detailed_into(window, &mut compiled.scratch())
    }

    /// Predict every example of a dataset in 1 024-window chunks, reusing
    /// one scratch bitset per worker (chunks run in parallel from 8 192
    /// windows on). Outputs are bit-identical to calling
    /// [`RuleSetPredictor::predict`] per window.
    pub fn predict_dataset<E: ExampleSet>(&self, data: &E) -> Vec<Option<f64>> {
        let n = data.len();
        let compiled = self.compiled();
        let chunk = |scratch: &mut MatchBitset, c: usize| -> Vec<Option<f64>> {
            (c * PREDICT_CHUNK..((c + 1) * PREDICT_CHUNK).min(n))
                .map(|i| compiled.predict_with_into(data.features(i), Combination::Mean, scratch))
                .collect()
        };
        let chunks = n.div_ceil(PREDICT_CHUNK);
        if n < PARALLEL_PREDICT_MIN {
            let mut scratch = compiled.scratch();
            (0..chunks).flat_map(|c| chunk(&mut scratch, c)).collect()
        } else {
            let parts = map_ranges(chunks, || compiled.scratch(), chunk);
            parts.into_iter().flatten().collect()
        }
    }

    /// Fraction of a dataset's examples that receive a prediction.
    pub fn coverage<E: ExampleSet>(&self, data: &E) -> f64 {
        coverage_fraction(&self.rules, data)
    }
}

/// Mark in `covered` every window of `data` that some rule in `rules`
/// matches. Only windows no earlier rule has covered are re-tested, and the
/// fold stops once every window is covered, so heavily overlapping rule sets
/// cost far less than `rules × windows` condition tests.
///
/// This is the one definition of coverage: the predictor, the engine, the
/// supervisor's per-wave check (also on resume) and `CoverageMap` all fold
/// through it, and none of them stores a coverage count beside the rules.
pub(crate) fn fold_coverage<'r, E: ExampleSet>(
    covered: &mut MatchBitset,
    rules: impl IntoIterator<Item = &'r Rule>,
    data: &E,
) {
    for r in rules {
        if covered.all_set() {
            break;
        }
        covered.set_where_unset(|i| r.condition.matches(data.features(i)));
    }
}

/// Fraction of `data`'s windows that some rule in `rules` matches (`0.0` for
/// an empty dataset).
pub(crate) fn coverage_fraction<'r, E: ExampleSet>(
    rules: impl IntoIterator<Item = &'r Rule>,
    data: &E,
) -> f64 {
    let mut covered = MatchBitset::new(data.len());
    fold_coverage(&mut covered, rules, data);
    covered.fraction_set()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene};
    use evoforecast_tsdata::window::WindowSpec;

    fn rule(lo: f64, hi: f64, slope: f64, intercept: f64, matched: usize, error: f64) -> Rule {
        Rule {
            condition: Condition::new(vec![Gene::bounded(lo, hi)]),
            coefficients: vec![slope],
            intercept,
            prediction: intercept,
            error,
            matched,
        }
    }

    #[test]
    fn filters_unusable_rules() {
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 1.0, 1.0, 0.0, 5, 0.1),           // kept
            rule(0.0, 1.0, 1.0, 0.0, 1, 0.1),           // NR <= 1: dropped
            rule(0.0, 1.0, 1.0, 0.0, 9, f64::INFINITY), // inf error: dropped
        ]);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    /// Variants of the one-gene rule `good` that cannot sit beside it in a
    /// rule set, each with the words `check_rule_shapes` uses to name the
    /// fault when the variant is rule 1.
    fn misfits(good: &Rule) -> Vec<(Rule, &'static str)> {
        let mut nan_coefficient = good.clone();
        nan_coefficient.coefficients = vec![f64::NAN];
        let mut infinite_intercept = good.clone();
        infinite_intercept.intercept = f64::INFINITY;
        let mut infinite_prediction = good.clone();
        infinite_prediction.prediction = f64::NEG_INFINITY;
        // `Condition::new` refuses an inverted gene; a parsed rule can hold one.
        let inverted: Rule = serde_json::from_str(
            &serde_json::to_string(good)
                .unwrap()
                .replace("\"lo\":0.0,\"hi\":10.0", "\"lo\":5.0,\"hi\":1.0"),
        )
        .unwrap();
        assert!(!inverted.condition.genes()[0].is_well_formed());
        let mut extra_coefficient = good.clone();
        extra_coefficient.coefficients = vec![1.0, 1.0];
        let mut short_coefficients = good.clone();
        short_coefficients.condition =
            Condition::new(vec![Gene::bounded(0.0, 10.0), Gene::Wildcard]);
        let mut longer_window = good.clone();
        longer_window.condition = Condition::new(vec![Gene::Wildcard, Gene::Wildcard]);
        longer_window.coefficients = vec![0.0, 0.0];
        vec![
            (nan_coefficient, "rule 1 has a non-finite"),
            (infinite_intercept, "rule 1 has a non-finite"),
            (infinite_prediction, "rule 1 has a non-finite"),
            (inverted, "rule 1 gene 0 is not"),
            (
                extra_coefficient,
                "rule 1 has 2 coefficients under a 1-gene",
            ),
            (
                short_coefficients,
                "rule 1 has 1 coefficients under a 2-gene",
            ),
            (longer_window, "rule 1 has window length 2, rule 0 has 1"),
        ]
    }

    #[test]
    fn new_drops_malformed_rules_instead_of_panicking_at_predict() {
        let good = rule(0.0, 10.0, 0.0, 4.0, 3, 0.1);
        for (bad, _) in misfits(&good) {
            let p = RuleSetPredictor::new(vec![good.clone(), bad.clone()]);
            assert_eq!(p.rules(), std::slice::from_ref(&good), "{bad:?}");
            assert_eq!(p.predict(&[3.0]), Some(4.0));
        }
    }

    #[test]
    fn with_all_rules_and_deserialize_refuse_rules_that_do_not_fit_together() {
        let good = rule(0.0, 10.0, 0.0, 4.0, 3, 0.1);
        for (bad, why) in misfits(&good) {
            let rules = vec![good.clone(), bad];
            let err = RuleSetPredictor::with_all_rules(rules.clone()).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
            // Loading refuses the same set with the same words. A non-finite
            // number is written as `null`, which reads back as NaN.
            let json = format!(r#"{{"rules":{}}}"#, serde_json::to_string(&rules).unwrap());
            let err = serde_json::from_str::<RuleSetPredictor>(&json).unwrap_err();
            assert!(err.to_string().contains(why), "{why}: {err}");
        }
        // Rules that fit together are all kept, viable or not.
        let unviable = rule(0.0, 1.0, 1.0, 0.0, 0, 0.0);
        let all = RuleSetPredictor::with_all_rules(vec![good, unviable]).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn predict_means_over_firing_rules() {
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 10.0, 0.0, 4.0, 3, 0.1), // outputs 4
            rule(0.0, 5.0, 0.0, 8.0, 3, 0.3),  // outputs 8
        ]);
        // Window 3.0 fires both: mean (4+8)/2 = 6.
        assert_eq!(p.predict(&[3.0]), Some(6.0));
        // Window 7.0 fires only the first.
        assert_eq!(p.predict(&[7.0]), Some(4.0));
        // Window 20.0 fires none: abstain.
        assert_eq!(p.predict(&[20.0]), None);
    }

    #[test]
    fn predict_detailed_reports_diagnostics() {
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 10.0, 0.0, 4.0, 3, 0.1),
            rule(0.0, 5.0, 0.0, 8.0, 3, 0.3),
        ]);
        let d = p.predict_detailed(&[3.0]).unwrap();
        assert_eq!(d.firing_rules, 2);
        assert!((d.value - 6.0).abs() < 1e-12);
        assert!((d.expected_error - 0.2).abs() < 1e-12);
        assert!(p.predict_detailed(&[99.0]).is_none());
    }

    #[test]
    fn hyperplane_rules_use_window_values() {
        let p = RuleSetPredictor::new(vec![rule(0.0, 10.0, 2.0, 1.0, 3, 0.1)]);
        assert_eq!(p.predict(&[4.0]), Some(9.0)); // 2*4 + 1
    }

    #[test]
    fn merge_unions_rule_sets() {
        let mut a = RuleSetPredictor::new(vec![rule(0.0, 1.0, 0.0, 1.0, 3, 0.1)]);
        let b = RuleSetPredictor::new(vec![rule(2.0, 3.0, 0.0, 2.0, 3, 0.1)]);
        // Compile `a` before the merge: the merge must drop that form.
        assert_eq!(a.predict(&[2.5]), None);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.predict(&[0.5]), Some(1.0));
        assert_eq!(a.predict(&[2.5]), Some(2.0));
    }

    #[test]
    fn coverage_and_dataset_prediction() {
        let vals: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ds = WindowSpec::new(1, 1).unwrap().dataset(&vals).unwrap();
        // Covers windows with value in [0, 9].
        let p = RuleSetPredictor::new(vec![rule(0.0, 9.0, 1.0, 1.0, 5, 0.1)]);
        let cov = p.coverage(&ds);
        assert!((cov - 10.0 / 19.0).abs() < 1e-12);
        let preds = p.predict_dataset(&ds);
        assert_eq!(preds.len(), 19);
        assert_eq!(preds[0], Some(1.0)); // window [0] -> 0*1+1
        assert_eq!(preds[10], None);

        // Enough windows for the parallel chunks: still exactly the
        // per-window answers, in order.
        let vals: Vec<f64> = (0..PARALLEL_PREDICT_MIN + 300)
            .map(|i| (i % 20) as f64)
            .collect();
        let ds = WindowSpec::new(1, 1).unwrap().dataset(&vals).unwrap();
        let per_window: Vec<Option<f64>> = (0..ds.len()).map(|i| p.predict(ds.window(i))).collect();
        assert!(ds.len() >= PARALLEL_PREDICT_MIN);
        assert_eq!(p.predict_dataset(&ds), per_window);
    }

    #[test]
    fn empty_predictor_abstains_everywhere() {
        let p = RuleSetPredictor::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.predict(&[1.0]), None);
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = WindowSpec::new(1, 1).unwrap().dataset(&vals).unwrap();
        assert_eq!(p.coverage(&ds), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let p = RuleSetPredictor::new(vec![rule(0.0, 10.0, 2.0, 1.0, 3, 0.1)]);
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.starts_with(r#"{"rules":[{"condition":"#), "{json}");
        let back: RuleSetPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        // A compiled cache is not part of the value.
        assert_eq!(back.predict(&[4.0]), Some(9.0));
        assert_eq!(p, back);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn filter_by_error_drops_sloppy_rules() {
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 10.0, 0.0, 1.0, 3, 0.1),
            rule(0.0, 10.0, 0.0, 2.0, 3, 5.0),
        ]);
        assert_eq!(p.len(), 2);
        let tight = p.filter_by_error(1.0);
        assert_eq!(tight.len(), 1);
        assert_eq!(tight.predict(&[5.0]), Some(1.0));
    }

    #[test]
    fn weighted_combination_prefers_precise_rules() {
        // Two rules fire: one precise (e=0.01, predicts 10), one sloppy
        // (e=1.0, predicts 20). Mean = 15; weighted lands near 10.
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 10.0, 0.0, 10.0, 3, 0.01),
            rule(0.0, 10.0, 0.0, 20.0, 3, 1.0),
        ]);
        let mean = p.predict_with(&[5.0], Combination::Mean).unwrap();
        let weighted = p
            .predict_with(&[5.0], Combination::InverseErrorWeighted)
            .unwrap();
        assert!((mean - 15.0).abs() < 1e-9);
        assert!(
            weighted < 10.5,
            "weighted {weighted} should hug the precise rule"
        );
        assert!(weighted > 9.9);
    }

    #[test]
    fn weighted_equals_mean_when_errors_equal() {
        let p = RuleSetPredictor::new(vec![
            rule(0.0, 10.0, 0.0, 4.0, 3, 0.5),
            rule(0.0, 10.0, 0.0, 8.0, 3, 0.5),
        ]);
        let mean = p.predict_with(&[5.0], Combination::Mean).unwrap();
        let weighted = p
            .predict_with(&[5.0], Combination::InverseErrorWeighted)
            .unwrap();
        assert!((mean - weighted).abs() < 1e-9);
    }

    #[test]
    fn weighted_abstains_like_mean() {
        let p = RuleSetPredictor::new(vec![rule(0.0, 1.0, 0.0, 4.0, 3, 0.5)]);
        assert_eq!(
            p.predict_with(&[9.0], Combination::InverseErrorWeighted),
            None
        );
    }

    #[test]
    fn json_round_trip() {
        let p = RuleSetPredictor::new(vec![rule(0.0, 10.0, 2.0, 1.0, 3, 0.1)]);
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: RuleSetPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.predict(&[4.0]), p.predict(&[4.0]));
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(serde_json::from_str::<RuleSetPredictor>("not json").is_err());
    }
}
