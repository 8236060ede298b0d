//! Rule-set analysis.
//!
//! The paper's §5 highlights a capability beyond raw accuracy: the system
//! "can find regions in the series whose behaviour is not able to be
//! generalizable" — the abstention pattern itself is information. This
//! module quantifies a trained rule set: where in the output space its rules
//! predict, how specialized they are, how much they overlap, and which
//! value-space zones are left uncovered.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;
use crate::predict::{fold_coverage, RuleSetPredictor};
use crate::rule::Rule;
use serde::{Deserialize, Serialize};

/// Summary statistics of a trained rule set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSetStats {
    /// Number of usable rules.
    pub rules: usize,
    /// Min/max of the rules' scalar predictions (the zones they cover).
    pub prediction_range: Option<(f64, f64)>,
    /// Mean number of non-wildcard genes per rule.
    pub mean_specificity: f64,
    /// Mean interval width of bounded genes (in value units).
    pub mean_interval_width: f64,
    /// Mean expected error `e_R` across rules.
    pub mean_expected_error: f64,
    /// Mean training-match count `N_R` across rules.
    pub mean_matched: f64,
}

impl RuleSetStats {
    /// Compute statistics over a rule set.
    pub fn from_rules(rules: &[Rule]) -> RuleSetStats {
        if rules.is_empty() {
            return RuleSetStats {
                rules: 0,
                prediction_range: None,
                mean_specificity: 0.0,
                mean_interval_width: 0.0,
                mean_expected_error: 0.0,
                mean_matched: 0.0,
            };
        }
        let n = rules.len() as f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut spec_sum = 0.0;
        let mut width_sum = 0.0;
        let mut width_count = 0usize;
        let mut err_sum = 0.0;
        let mut match_sum = 0.0;
        for r in rules {
            lo = lo.min(r.prediction);
            hi = hi.max(r.prediction);
            spec_sum += r.condition.specificity() as f64;
            for g in r.condition.genes() {
                let w = g.width();
                if w.is_finite() {
                    width_sum += w;
                    width_count += 1;
                }
            }
            if r.error.is_finite() {
                err_sum += r.error;
            }
            match_sum += r.matched as f64;
        }
        RuleSetStats {
            rules: rules.len(),
            prediction_range: Some((lo, hi)),
            mean_specificity: spec_sum / n,
            mean_interval_width: if width_count > 0 {
                width_sum / width_count as f64
            } else {
                0.0
            },
            mean_expected_error: err_sum / n,
            mean_matched: match_sum / n,
        }
    }
}

/// A coverage map over the *output* space: the target range is cut into
/// `bins`, and for each bin we report how many of the dataset's windows with
/// a target in that bin are covered by at least one rule. Uncovered bins are
/// exactly the "non-generalizable regions" the paper talks about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Per-bin `(total windows, covered windows)`.
    pub bins: Vec<(usize, usize)>,
}

impl CoverageMap {
    /// Build the map with `bins` output-range buckets.
    ///
    /// # Panics
    /// Panics when `bins == 0`.
    pub fn build<E: ExampleSet>(
        predictor: &RuleSetPredictor,
        data: &E,
        bins: usize,
    ) -> CoverageMap {
        assert!(bins > 0, "need at least one bin");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..data.len() {
            let t = data.target(i);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut covered = MatchBitset::new(data.len());
        fold_coverage(&mut covered, predictor.rules(), data);
        let mut out = vec![(0usize, 0usize); bins];
        for i in 0..data.len() {
            let t = data.target(i);
            let b = (((t - lo) / width) as usize).min(bins - 1);
            out[b].0 += 1;
            if covered.contains(i) {
                out[b].1 += 1;
            }
        }
        CoverageMap { lo, hi, bins: out }
    }

    /// Bins with data but zero coverage — the unpredictable zones.
    pub fn uncovered_bins(&self) -> Vec<usize> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &(total, covered))| total > 0 && covered == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Overall covered fraction; `None` when the dataset was empty.
    pub fn overall_fraction(&self) -> Option<f64> {
        let total: usize = self.bins.iter().map(|b| b.0).sum();
        if total == 0 {
            return None;
        }
        let covered: usize = self.bins.iter().map(|b| b.1).sum();
        Some(covered as f64 / total as f64)
    }

    /// Render a compact ASCII sparkline of per-bin coverage (`.:-=#` ramp,
    /// space for empty bins).
    pub fn render_ascii(&self) -> String {
        const RAMP: [char; 5] = ['.', ':', '-', '=', '#'];
        self.bins
            .iter()
            .map(|&(total, covered)| {
                if total == 0 {
                    ' '
                } else {
                    let f = covered as f64 / total as f64;
                    RAMP[((f * 4.0).round() as usize).min(4)]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene};
    use evoforecast_tsdata::window::WindowSpec;

    fn rule(lo: f64, hi: f64, prediction: f64) -> Rule {
        Rule {
            condition: Condition::new(vec![Gene::bounded(lo, hi), Gene::Wildcard]),
            coefficients: vec![0.0, 0.0],
            intercept: prediction,
            prediction,
            error: 0.5,
            matched: 5,
        }
    }

    #[test]
    fn stats_on_empty_set() {
        let s = RuleSetStats::from_rules(&[]);
        assert_eq!(s.rules, 0);
        assert_eq!(s.prediction_range, None);
    }

    #[test]
    fn stats_aggregate_correctly() {
        let rules = vec![rule(0.0, 10.0, 2.0), rule(5.0, 7.0, 8.0)];
        let s = RuleSetStats::from_rules(&rules);
        assert_eq!(s.rules, 2);
        assert_eq!(s.prediction_range, Some((2.0, 8.0)));
        assert!((s.mean_specificity - 1.0).abs() < 1e-12); // 1 bounded gene each
        assert!((s.mean_interval_width - 6.0).abs() < 1e-12); // (10 + 2) / 2
        assert!((s.mean_expected_error - 0.5).abs() < 1e-12);
        assert!((s.mean_matched - 5.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_map_identifies_uncovered_zones() {
        let vals: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        // Covers only windows whose first value is in [0, 10].
        let p = RuleSetPredictor::new(vec![rule(0.0, 10.0, 5.0)]);
        let map = CoverageMap::build(&p, &ds, 4);
        assert_eq!(map.bins.len(), 4);
        // Low-target bins covered, high-target bins not.
        assert!(map.bins[0].1 > 0);
        assert_eq!(map.bins[3].1, 0);
        assert!(map.uncovered_bins().contains(&3));
        let f = map.overall_fraction().unwrap();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn coverage_map_ascii_render() {
        let vals: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let p = RuleSetPredictor::new(vec![rule(0.0, 10.0, 5.0)]);
        let map = CoverageMap::build(&p, &ds, 8);
        let art = map.render_ascii();
        assert_eq!(art.chars().count(), 8);
        assert!(art.contains('#'));
        assert!(art.contains('.'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&vals).unwrap();
        let p = RuleSetPredictor::new(vec![]);
        CoverageMap::build(&p, &ds, 0);
    }

    #[test]
    fn serde_round_trip() {
        let s = RuleSetStats::from_rules(&[rule(0.0, 1.0, 0.5)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: RuleSetStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s.rules, back.rules);
    }
}
