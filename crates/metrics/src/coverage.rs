//! Coverage ("percentage of prediction") accounting.
//!
//! The paper's rule system may *abstain*: a validation window matched by no
//! rule gets no prediction, and every results table reports the percentage of
//! points that did receive one. This module tracks predicted/abstained counts
//! incrementally so the experiment harness accumulates coverage and error in
//! a single pass over the validation set.

use serde::{Deserialize, Serialize};

/// Incremental counter of predicted vs. abstained evaluation points.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageAccumulator {
    predicted: usize,
    abstained: usize,
}

impl CoverageAccumulator {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a point for which the system produced a prediction.
    pub(crate) fn record_predicted(&mut self) {
        self.predicted += 1;
    }

    /// Record a point for which the system abstained.
    pub(crate) fn record_abstained(&mut self) {
        self.abstained += 1;
    }

    /// Record an `Option`-shaped prediction outcome.
    pub fn record(&mut self, prediction: Option<f64>) {
        match prediction {
            Some(_) => self.record_predicted(),
            None => self.record_abstained(),
        }
    }

    /// Number of predicted points.
    pub fn predicted(&self) -> usize {
        self.predicted
    }

    /// Number of abstained points.
    pub fn abstained(&self) -> usize {
        self.abstained
    }

    /// Total points seen.
    pub fn total(&self) -> usize {
        self.predicted + self.abstained
    }

    /// Fraction predicted in `[0, 1]`; `None` when nothing was recorded.
    pub fn fraction(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(self.predicted as f64 / total as f64)
        }
    }

    /// Percentage predicted in `[0, 100]` — the tables' "Percentage of
    /// prediction" column. `None` when nothing was recorded.
    pub(crate) fn percentage(&self) -> Option<f64> {
        self.fraction().map(|f| 100.0 * f)
    }

    /// Merge another accumulator into this one (for parallel evaluation:
    /// each worker owns a local accumulator, merged at the end).
    pub fn merge(&mut self, other: &CoverageAccumulator) {
        self.predicted += other.predicted;
        self.abstained += other.abstained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_has_no_percentage() {
        let c = CoverageAccumulator::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.fraction(), None);
        assert_eq!(c.percentage(), None);
    }

    #[test]
    fn counts_and_percentage() {
        let mut c = CoverageAccumulator::new();
        for _ in 0..3 {
            c.record_predicted();
        }
        c.record_abstained();
        assert_eq!(c.predicted(), 3);
        assert_eq!(c.abstained(), 1);
        assert_eq!(c.total(), 4);
        assert!((c.percentage().unwrap() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn record_option_shape() {
        let mut c = CoverageAccumulator::new();
        c.record(Some(1.0));
        c.record(None);
        c.record(Some(-2.0));
        assert_eq!(c.predicted(), 2);
        assert_eq!(c.abstained(), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = CoverageAccumulator::new();
        a.record_predicted();
        let mut b = CoverageAccumulator::new();
        b.record_abstained();
        b.record_predicted();
        a.merge(&b);
        assert_eq!(a.predicted(), 2);
        assert_eq!(a.abstained(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let mut c = CoverageAccumulator::new();
        c.record_predicted();
        c.record_abstained();
        let json = serde_json::to_string(&c).unwrap();
        let back: CoverageAccumulator = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    proptest! {
        #[test]
        fn percentage_in_range(p in 0usize..500, a in 0usize..500) {
            prop_assume!(p + a > 0);
            let mut c = CoverageAccumulator::new();
            for _ in 0..p { c.record_predicted(); }
            for _ in 0..a { c.record_abstained(); }
            let pct = c.percentage().unwrap();
            prop_assert!((0.0..=100.0).contains(&pct));
            prop_assert_eq!(c.total(), p + a);
        }

        #[test]
        fn merge_is_commutative(p1 in 0usize..100, a1 in 0usize..100,
                                p2 in 0usize..100, a2 in 0usize..100) {
            let build = |p: usize, a: usize| {
                let mut c = CoverageAccumulator::new();
                for _ in 0..p { c.record_predicted(); }
                for _ in 0..a { c.record_abstained(); }
                c
            };
            let mut left = build(p1, a1);
            left.merge(&build(p2, a2));
            let mut right = build(p2, a2);
            right.merge(&build(p1, a1));
            prop_assert_eq!(left, right);
        }
    }
}
