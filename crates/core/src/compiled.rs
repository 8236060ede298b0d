//! The compiled rule set every forecast answers from.
//!
//! Training wants a rule set that is easy to mutate and merge; prediction
//! wants one that is fast to *query*. [`CompiledRuleSet`] lowers a
//! [`RuleSetPredictor`] into a static, query-optimized form:
//!
//! * **Per-dimension boundary projections.** For each window position the
//!   bounded genes' interval endpoints are collected, sorted and deduplicated.
//!   Between (and at) consecutive endpoints the set of rules whose interval
//!   contains the query value is *constant*, so each elementary segment
//!   stores a precomputed rule bitset (wildcard rules are members of every
//!   segment). A query value selects its segment by one binary search.
//! * **Bitset AND.** The firing set for a window is the intersection of the
//!   `D` per-dimension segment bitsets — `O(D·(log B + R/64))` words instead
//!   of the `O(R·D)` interval scan §3.4 describes, with an early exit as soon
//!   as the running intersection dies.
//! * **Contiguous payloads.** The firing rules' regression rows `(a, b)` and
//!   expected errors `e_R` live in flat arrays indexed by rule id, so the
//!   combination loop streams them without pointer chasing.
//!
//! [`RuleSetPredictor`] compiles itself on its first predict; the server
//! compiles each model once when it installs it and queries it through the
//! allocation-free `*_into` entry points with a caller-owned
//! [`CompiledRuleSet::scratch`] bitset.
//!
//! Predictions are **bit-identical** to the literal scan of §3.4 for every
//! combination mode: the firing set is provably the same (the segment
//! decomposition reproduces `Gene::accepts` exactly, including closed
//! endpoints and `-0.0 == 0.0`), rules are visited in ascending order, and
//! each term is computed with the same floating-point expression. The scan
//! survives as the test oracle in `crates/core/tests/common/`, and a
//! property test there pins the equality.

use crate::bitset::MatchBitset;
use crate::predict::{check_rule_shapes, Combination, PredictionDetail, RuleSetPredictor};
use crate::rule::Gene;
use evoforecast_linalg::vector::dot_unchecked;

/// Small regularizer in the inverse-error weighting so a zero-error rule
/// doesn't get infinite weight.
const WEIGHT_EPS: f64 = 1e-9;

/// One window position's compiled stabbing index.
#[derive(Debug, Clone)]
struct AxisIndex {
    /// Sorted, deduplicated interval endpoints of the bounded genes at this
    /// position (`-0.0` normalized to `0.0`; always finite).
    boundaries: Vec<f64>,
    /// `2·boundaries.len() + 1` elementary segments: segment `2j` is the
    /// open interval *before* boundary `j` (or after the last), segment
    /// `2j+1` is the boundary point itself. Each holds the rules whose gene
    /// at this position accepts any value in the segment.
    segments: Vec<MatchBitset>,
    /// Rules with a wildcard at this position (the answer for NaN queries,
    /// which no bounded interval accepts).
    wildcards: MatchBitset,
}

impl AxisIndex {
    /// Collapse `-0.0` to `0.0` so binary search agrees with IEEE `==`
    /// (which `Gene::accepts`' range check uses).
    fn norm(v: f64) -> f64 {
        if v == 0.0 {
            0.0
        } else {
            v
        }
    }

    fn build(position: usize, rules: &[crate::rule::Rule]) -> AxisIndex {
        let r = rules.len();
        let mut wildcards = MatchBitset::new(r);
        let mut boundaries: Vec<f64> = Vec::new();
        for (i, rule) in rules.iter().enumerate() {
            match rule.condition.genes()[position] {
                Gene::Wildcard => wildcards.set(i),
                Gene::Bounded { lo, hi } => {
                    boundaries.push(Self::norm(lo));
                    boundaries.push(Self::norm(hi));
                }
            }
        }
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup();

        // Every segment starts as "the wildcard rules"; bounded rules then
        // paint the contiguous segment range their interval covers.
        let mut segments = vec![wildcards.clone(); 2 * boundaries.len() + 1];
        for (i, rule) in rules.iter().enumerate() {
            if let Gene::Bounded { lo, hi } = rule.condition.genes()[position] {
                let il = boundaries.partition_point(|b| *b < Self::norm(lo));
                let ih = boundaries.partition_point(|b| *b < Self::norm(hi));
                // [lo, hi] covers the boundary points il..=ih and every open
                // segment strictly between them: segments 2·il+1 ..= 2·ih+1.
                for segment in &mut segments[2 * il + 1..=2 * ih + 1] {
                    segment.set(i);
                }
            }
        }
        AxisIndex {
            boundaries,
            segments,
            wildcards,
        }
    }

    /// The precomputed firing bitset for query value `x` at this position.
    #[inline]
    fn segment_for(&self, x: f64) -> &MatchBitset {
        if x.is_nan() {
            // No closed interval contains NaN; only wildcards accept it.
            return &self.wildcards;
        }
        let i = self.boundaries.partition_point(|b| *b < x);
        if i < self.boundaries.len() && self.boundaries[i] == x {
            &self.segments[2 * i + 1]
        } else {
            &self.segments[2 * i]
        }
    }
}

/// A rule set lowered into an inference-optimized form: per-dimension
/// boundary projections for the firing set, flat payload arrays for the
/// combination loop. Build once with [`CompiledRuleSet::compile`], query from
/// any number of threads (`&self` only).
#[derive(Debug, Clone)]
pub struct CompiledRuleSet {
    dims: usize,
    rule_count: usize,
    /// Row-major `rule_count × dims` regression coefficients.
    coefficients: Vec<f64>,
    intercepts: Vec<f64>,
    errors: Vec<f64>,
    axes: Vec<AxisIndex>,
}

impl CompiledRuleSet {
    /// Lower a predictor into compiled form. `O(D · R log R)` build time.
    ///
    /// # Panics
    /// Panics when the rules do not fit together — mixed window lengths, or
    /// a coefficient count that differs from the condition length. Loading
    /// an artifact rejects both, so only a rule set built in code can get
    /// here.
    pub fn compile(predictor: &RuleSetPredictor) -> CompiledRuleSet {
        let rules = predictor.rules();
        assert_eq!(
            check_rule_shapes(rules),
            Ok(()),
            "cannot compile a malformed rule set"
        );
        let rule_count = rules.len();
        let dims = rules.first().map_or(0, |r| r.window_len());
        let mut coefficients = Vec::with_capacity(rule_count * dims);
        let mut intercepts = Vec::with_capacity(rule_count);
        let mut errors = Vec::with_capacity(rule_count);
        for r in rules {
            coefficients.extend_from_slice(&r.coefficients);
            intercepts.push(r.intercept);
            errors.push(r.error);
        }
        let axes = (0..dims).map(|p| AxisIndex::build(p, rules)).collect();
        CompiledRuleSet {
            dims,
            rule_count,
            coefficients,
            intercepts,
            errors,
            axes,
        }
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// True when no rules were compiled (every prediction abstains).
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// A scratch firing-set bitset sized for this rule set. Allocate once,
    /// reuse across queries via the `*_into` entry points.
    pub fn scratch(&self) -> MatchBitset {
        MatchBitset::new(self.rule_count)
    }

    /// Fill `scratch` with the firing set for `window`; returns `false` when
    /// it is empty. `D` binary searches + up to `D` bitset ANDs with early
    /// exit. An empty rule set abstains on a window of any length.
    fn fill_firing(&self, window: &[f64], scratch: &mut MatchBitset) -> bool {
        if self.rule_count == 0 {
            return false;
        }
        debug_assert_eq!(window.len(), self.dims, "window/compiled length");
        let mut axes = self.axes.iter().zip(window.iter());
        let Some((axis, &x)) = axes.next() else {
            return false; // zero-dimensional: no rules at all
        };
        scratch.copy_from(axis.segment_for(x));
        let mut alive = scratch.count_ones() > 0;
        for (axis, &x) in axes {
            if !alive {
                return false;
            }
            alive = scratch.intersect_with(axis.segment_for(x));
        }
        alive
    }

    /// Predict using a caller-owned scratch bitset (no allocation).
    ///
    /// # Panics
    /// Panics when `scratch` was not created by [`CompiledRuleSet::scratch`]
    /// of a rule set with the same rule count; in debug builds also when the
    /// window length differs from `D`.
    pub fn predict_with_into(
        &self,
        window: &[f64],
        combination: Combination,
        scratch: &mut MatchBitset,
    ) -> Option<f64> {
        if !self.fill_firing(window, scratch) {
            return None;
        }
        // The §3.4 sum term by term, in ascending rule order, so the f64
        // result is bit-identical to the literal scan.
        let mut sum = 0.0;
        let mut weight_sum = 0.0;
        let mut count = 0usize;
        for r in scratch.iter_ones() {
            let w = match combination {
                Combination::Mean => 1.0,
                Combination::InverseErrorWeighted => 1.0 / (self.errors[r] + WEIGHT_EPS),
            };
            sum += w * self.evaluate_rule(r, window);
            weight_sum += w;
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some(sum / weight_sum)
        }
    }

    /// [`RuleSetPredictor::predict_detailed`] with a caller-owned scratch
    /// bitset (no allocation).
    pub fn predict_detailed_into(
        &self,
        window: &[f64],
        scratch: &mut MatchBitset,
    ) -> Option<PredictionDetail> {
        if !self.fill_firing(window, scratch) {
            return None;
        }
        let mut sum = 0.0;
        let mut err_sum = 0.0;
        let mut count = 0usize;
        for r in scratch.iter_ones() {
            sum += self.evaluate_rule(r, window);
            err_sum += self.errors[r];
            count += 1;
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

    /// The hyperplane of rule `r` at `window` — the same expression as
    /// [`crate::rule::Rule::predict`] over the flat payload row.
    #[inline]
    fn evaluate_rule(&self, r: usize, window: &[f64]) -> f64 {
        let row = &self.coefficients[r * self.dims..(r + 1) * self.dims];
        dot_unchecked(row, window) + self.intercepts[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Rule};

    fn rule(genes: Vec<Gene>, coefficients: Vec<f64>, intercept: f64, error: f64) -> Rule {
        Rule {
            condition: Condition::new(genes),
            coefficients,
            intercept,
            prediction: intercept,
            error,
            matched: 5,
        }
    }

    fn band(lo: f64, hi: f64, value: f64, error: f64) -> Rule {
        rule(vec![Gene::bounded(lo, hi)], vec![0.0], value, error)
    }

    fn predict(compiled: &CompiledRuleSet, window: &[f64]) -> Option<f64> {
        compiled.predict_with_into(window, Combination::Mean, &mut compiled.scratch())
    }

    #[test]
    fn empty_rule_set_always_abstains() {
        let compiled = CompiledRuleSet::compile(&RuleSetPredictor::new(vec![]));
        assert!(compiled.is_empty());
        assert_eq!(compiled.len(), 0);
        // Any window length: an empty set has no `D` to check against.
        let mut scratch = compiled.scratch();
        for window in [&[][..], &[1.0, 2.0][..]] {
            assert_eq!(predict(&compiled, window), None);
            assert_eq!(compiled.predict_detailed_into(window, &mut scratch), None);
        }
    }

    #[test]
    fn closed_endpoints_are_inclusive() {
        let compiled =
            CompiledRuleSet::compile(&RuleSetPredictor::new(vec![band(1.0, 3.0, 7.0, 0.1)]));
        assert_eq!(compiled.len(), 1);
        assert_eq!(predict(&compiled, &[1.0]), Some(7.0));
        assert_eq!(predict(&compiled, &[3.0]), Some(7.0));
        assert_eq!(predict(&compiled, &[0.999]), None);
        assert_eq!(predict(&compiled, &[3.001]), None);
    }

    #[test]
    fn negative_zero_boundary_agrees_with_ieee_equality() {
        // 0.0 == -0.0 in IEEE terms, so both must fire a rule starting at
        // -0.0, and one ending at 0.0.
        for rule in [band(-0.0, 2.0, 7.0, 0.1), band(-2.0, 0.0, 7.0, 0.1)] {
            let compiled = CompiledRuleSet::compile(&RuleSetPredictor::new(vec![rule]));
            assert_eq!(predict(&compiled, &[0.0]), Some(7.0));
            assert_eq!(predict(&compiled, &[-0.0]), Some(7.0));
        }
    }

    #[test]
    fn nan_window_only_fires_wildcards() {
        let compiled = CompiledRuleSet::compile(&RuleSetPredictor::new(vec![
            band(0.0, 10.0, 4.0, 0.1),
            rule(vec![Gene::Wildcard], vec![0.0], 9.0, 0.2),
        ]));
        // Only the wildcard rule fires; its hyperplane is 0·NaN + 9 = NaN.
        assert!(predict(&compiled, &[f64::NAN]).unwrap().is_nan());
        let detail = compiled
            .predict_detailed_into(&[f64::NAN], &mut compiled.scratch())
            .unwrap();
        assert_eq!(detail.firing_rules, 1);
        // A bounded-only rule set abstains on NaN outright.
        let bounded =
            CompiledRuleSet::compile(&RuleSetPredictor::new(vec![band(0.0, 10.0, 4.0, 0.1)]));
        assert_eq!(predict(&bounded, &[f64::NAN]), None);
    }

    #[test]
    fn wildcard_axes_and_hyperplanes() {
        let compiled = CompiledRuleSet::compile(&RuleSetPredictor::new(vec![
            rule(
                vec![Gene::bounded(0.0, 10.0), Gene::Wildcard],
                vec![2.0, 1.0],
                1.0,
                0.1,
            ),
            rule(
                vec![Gene::Wildcard, Gene::bounded(-5.0, 5.0)],
                vec![0.5, 0.5],
                0.0,
                0.4,
            ),
        ]));
        assert_eq!(predict(&compiled, &[4.0, 100.0]), Some(109.0)); // rule 0
        assert_eq!(predict(&compiled, &[4.0, 0.0]), Some(5.5)); // (9 + 2) / 2
        assert_eq!(predict(&compiled, &[40.0, 0.0]), Some(20.0)); // rule 1
        assert_eq!(predict(&compiled, &[40.0, 50.0]), None);
        // Inverse-error weights 1/0.1 and 1/0.4 pull the mean towards rule 0.
        let weighted = compiled
            .predict_with_into(
                &[4.0, 0.0],
                Combination::InverseErrorWeighted,
                &mut compiled.scratch(),
            )
            .unwrap();
        assert!((weighted - 7.6).abs() < 1e-6, "{weighted}");
    }

    #[test]
    fn scratch_reuse_leaves_no_stale_state() {
        let p = RuleSetPredictor::new(vec![band(0.0, 10.0, 4.0, 0.1), band(5.0, 20.0, 6.0, 0.1)]);
        let compiled = CompiledRuleSet::compile(&p);
        let mut scratch = compiled.scratch();
        // Fire both, then a window firing none, then one again.
        assert_eq!(
            compiled.predict_with_into(&[7.0], Combination::Mean, &mut scratch),
            Some(5.0)
        );
        assert_eq!(
            compiled.predict_with_into(&[99.0], Combination::Mean, &mut scratch),
            None
        );
        assert_eq!(
            compiled.predict_with_into(&[2.0], Combination::Mean, &mut scratch),
            Some(4.0)
        );
    }

    #[test]
    #[should_panic(expected = "malformed rule set")]
    fn mixed_dims_panic() {
        let p = RuleSetPredictor::new(vec![
            band(0.0, 1.0, 1.0, 0.1),
            rule(
                vec![Gene::bounded(0.0, 1.0), Gene::Wildcard],
                vec![0.0, 0.0],
                1.0,
                0.1,
            ),
        ]);
        CompiledRuleSet::compile(&p);
    }
}
