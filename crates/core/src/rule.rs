//! Rule encoding: interval genes, conditions, and full rules.
//!
//! The paper encodes a rule as a flat tuple
//! `(LL_1, UL_1, ..., LL_D, UL_D, p, e)` with `*` marking "don't care"
//! positions. Here a gene is an explicit enum — [`Gene::Wildcard`] or
//! [`Gene::Bounded`] — which makes the matching hot loop branch-predictable
//! and the genetic operators type-safe.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One position of a rule's conditional part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gene {
    /// `*` — the value at this position is irrelevant.
    Wildcard,
    /// Closed interval `[lo, hi]` the value must fall into.
    Bounded {
        /// Lower limit `LL_i`.
        lo: f64,
        /// Upper limit `UL_i`.
        hi: f64,
    },
}

impl Gene {
    /// A bounded gene with the endpoints ordered (swaps if needed).
    pub fn bounded(a: f64, b: f64) -> Gene {
        if a <= b {
            Gene::Bounded { lo: a, hi: b }
        } else {
            Gene::Bounded { lo: b, hi: a }
        }
    }

    /// Does a value satisfy this gene?
    #[inline]
    pub(crate) fn accepts(&self, x: f64) -> bool {
        match *self {
            Gene::Wildcard => true,
            Gene::Bounded { lo, hi } => (lo..=hi).contains(&x),
        }
    }

    /// Interval width; `f64::INFINITY` for a wildcard.
    pub fn width(&self) -> f64 {
        match *self {
            Gene::Wildcard => f64::INFINITY,
            Gene::Bounded { lo, hi } => hi - lo,
        }
    }

    /// Interval midpoint; `None` for a wildcard.
    pub fn center(&self) -> Option<f64> {
        match *self {
            Gene::Wildcard => None,
            Gene::Bounded { lo, hi } => Some(0.5 * (lo + hi)),
        }
    }

    /// Is this the wildcard?
    pub(crate) fn is_wildcard(&self) -> bool {
        matches!(self, Gene::Wildcard)
    }

    /// True when the gene's data is well-formed: a wildcard, or a bounded
    /// interval with finite, ordered endpoints.
    pub(crate) fn is_well_formed(&self) -> bool {
        match *self {
            Gene::Wildcard => true,
            Gene::Bounded { lo, hi } => lo.is_finite() && hi.is_finite() && lo <= hi,
        }
    }
}

impl fmt::Display for Gene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gene::Wildcard => write!(f, "*"),
            Gene::Bounded { lo, hi } => write!(f, "[{lo:.3}, {hi:.3}]"),
        }
    }
}

/// The conditional part `C_R` of a rule: one gene per window position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Condition {
    genes: Vec<Gene>,
}

impl Condition {
    /// Build from genes; must be non-empty and well-formed.
    ///
    /// # Panics
    /// Panics on empty or malformed genes — conditions are only built by the
    /// initializer and genetic operators, which guarantee well-formedness;
    /// violating it is a bug, not a data condition.
    pub fn new(genes: Vec<Gene>) -> Condition {
        assert!(!genes.is_empty(), "condition needs at least one gene");
        assert!(
            genes.iter().all(Gene::is_well_formed),
            "condition contains a malformed gene"
        );
        Condition { genes }
    }

    /// A condition of `d` wildcards (matches everything).
    pub fn all_wildcards(d: usize) -> Condition {
        Condition::new(vec![Gene::Wildcard; d])
    }

    /// Window length `D` this condition applies to.
    #[inline]
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Always false (constructor rejects empty conditions).
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// The genes.
    pub fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// Mutable access for the mutation operator.
    pub(crate) fn genes_mut(&mut self) -> &mut [Gene] {
        &mut self.genes
    }

    /// Does a window satisfy every gene? This is the hottest function in the
    /// whole system — it runs once per training window per offspring. The
    /// loop exits on the first failing gene.
    ///
    /// # Panics
    /// Panics in debug builds when `window.len() != self.len()`.
    #[inline]
    pub fn matches(&self, window: &[f64]) -> bool {
        debug_assert_eq!(window.len(), self.genes.len(), "window/condition length");
        self.genes
            .iter()
            .zip(window.iter())
            .all(|(g, &x)| g.accepts(x))
    }

    /// Number of non-wildcard genes (the condition's specificity).
    pub(crate) fn specificity(&self) -> usize {
        self.genes.iter().filter(|g| !g.is_wildcard()).count()
    }

    /// Iterate the bounded genes as `(position, lo, hi)` — the shape the
    /// selectivity probes and per-gene match kernels consume.
    pub fn bounded(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.genes.iter().enumerate().filter_map(|(p, g)| match *g {
            Gene::Bounded { lo, hi } => Some((p, lo, hi)),
            Gene::Wildcard => None,
        })
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF ")?;
        for (i, g) in self.genes.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "y{} in {}", i + 1, g)?;
        }
        Ok(())
    }
}

/// A complete rule: condition plus derived predicting part.
///
/// The predicting part is the regression hyperplane
/// `v ≈ a_0 x_1 + ... + a_{D-1} x_D + a_D` fitted over the training windows
/// the condition matches, the scalar summary prediction `p` (mean matched
/// target — the paper's encoded `p`, also the phenotypic coordinate used by
/// crowding replacement), and the expected error `e` (maximum absolute
/// residual of the fit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The conditional part.
    pub condition: Condition,
    /// Regression slope coefficients `a_0..a_{D-1}`.
    pub coefficients: Vec<f64>,
    /// Regression intercept `a_D`.
    pub intercept: f64,
    /// Scalar summary prediction `p` (mean matched target).
    pub prediction: f64,
    /// Expected error `e` (max absolute training residual).
    pub error: f64,
    /// Number of training windows matched (`N_R`).
    pub matched: usize,
}

impl Rule {
    /// Evaluate the rule's hyperplane at a window. Callers must have checked
    /// [`Condition::matches`] first — the hyperplane extrapolates badly
    /// outside the rule's region.
    ///
    /// # Panics
    /// Panics in debug builds when the window length differs from `D`.
    #[inline]
    pub fn predict(&self, window: &[f64]) -> f64 {
        debug_assert_eq!(window.len(), self.coefficients.len());
        evoforecast_linalg::vector::dot_unchecked(&self.coefficients, window) + self.intercept
    }

    /// Window length `D`.
    pub(crate) fn window_len(&self) -> usize {
        self.condition.len()
    }

    /// Render the rule the way the paper's Figure 1 presents one: the
    /// condition as per-input intervals, then the predicting part.
    pub fn render_ascii(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "┌─ rule (matched {} windows) ─", self.matched);
        for (i, g) in self.condition.genes().iter().enumerate() {
            let _ = writeln!(s, "│ y{:<3} {}", i + 1, g);
        }
        let _ = writeln!(
            s,
            "└─ THEN prediction = {:.3} ± {:.3}",
            self.prediction, self.error
        );
        s
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} THEN {:.3} ± {:.3} (N={})",
            self.condition, self.prediction, self.error, self.matched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gene_accepts_semantics() {
        let g = Gene::bounded(1.0, 3.0);
        assert!(g.accepts(1.0));
        assert!(g.accepts(3.0));
        assert!(g.accepts(2.0));
        assert!(!g.accepts(0.999));
        assert!(!g.accepts(3.001));
        assert!(Gene::Wildcard.accepts(f64::MAX));
        assert!(Gene::Wildcard.accepts(-1e300));
    }

    #[test]
    fn gene_bounded_orders_endpoints() {
        let g = Gene::bounded(5.0, -2.0);
        assert_eq!(g, Gene::Bounded { lo: -2.0, hi: 5.0 });
        assert_eq!(g.width(), 7.0);
        assert_eq!(g.center(), Some(1.5));
        assert_eq!(Gene::Wildcard.width(), f64::INFINITY);
        assert_eq!(Gene::Wildcard.center(), None);
    }

    #[test]
    fn gene_well_formedness() {
        assert!(Gene::Wildcard.is_well_formed());
        assert!(Gene::bounded(0.0, 1.0).is_well_formed());
        assert!(!(Gene::Bounded { lo: 1.0, hi: 0.0 }).is_well_formed());
        assert!(!(Gene::Bounded {
            lo: f64::NAN,
            hi: 1.0
        })
        .is_well_formed());
    }

    #[test]
    fn condition_matching_paper_example() {
        // IF (50 < y1 < 100) AND (40 < y2 < 90) AND (-10 < y3 < 5)
        //    AND * AND (1 < y5 < 100)
        let c = Condition::new(vec![
            Gene::bounded(50.0, 100.0),
            Gene::bounded(40.0, 90.0),
            Gene::bounded(-10.0, 5.0),
            Gene::Wildcard,
            Gene::bounded(1.0, 100.0),
        ]);
        assert!(c.matches(&[75.0, 60.0, 0.0, 12345.0, 50.0]));
        assert!(!c.matches(&[49.0, 60.0, 0.0, 0.0, 50.0])); // y1 below
        assert!(!c.matches(&[75.0, 60.0, 6.0, 0.0, 50.0])); // y3 above
        assert_eq!(c.specificity(), 4);
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
    }

    #[test]
    fn all_wildcards_matches_everything() {
        let c = Condition::all_wildcards(3);
        assert!(c.matches(&[1e9, -1e9, 0.0]));
        assert_eq!(c.specificity(), 0);
        assert_eq!(c.bounded().count(), 0);
    }

    #[test]
    fn bounded_iterator_skips_wildcards() {
        let c = Condition::new(vec![
            Gene::bounded(1.0, 2.0),
            Gene::Wildcard,
            Gene::bounded(-4.0, 4.0),
        ]);
        assert_eq!(
            c.bounded().collect::<Vec<_>>(),
            vec![(0, 1.0, 2.0), (2, -4.0, 4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one gene")]
    fn empty_condition_panics() {
        Condition::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "malformed gene")]
    fn malformed_gene_panics() {
        Condition::new(vec![Gene::Bounded {
            lo: f64::NAN,
            hi: 0.0,
        }]);
    }

    fn sample_rule() -> Rule {
        Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 10.0), Gene::Wildcard]),
            coefficients: vec![0.5, 0.25],
            intercept: 1.0,
            prediction: 3.0,
            error: 0.5,
            matched: 7,
        }
    }

    #[test]
    fn rule_predict_is_hyperplane() {
        let r = sample_rule();
        // 0.5*2 + 0.25*4 + 1 = 3
        assert!((r.predict(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
        assert_eq!(r.window_len(), 2);
    }

    #[test]
    fn rule_render_and_display() {
        let r = sample_rule();
        let art = r.render_ascii();
        assert!(art.contains("matched 7"));
        assert!(art.contains("y1"));
        assert!(art.contains('*'));
        assert!(art.contains("±"));
        let line = r.to_string();
        assert!(line.contains("THEN"));
        assert!(line.contains("N=7"));
    }

    #[test]
    fn rule_serde_round_trip() {
        let r = sample_rule();
        let json = serde_json::to_string(&r).unwrap();
        let back: Rule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    proptest! {
        #[test]
        fn matching_is_pointwise(
            bounds in proptest::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 1..8),
            probe in proptest::collection::vec(-150.0..150.0f64, 8),
        ) {
            let genes: Vec<Gene> = bounds.iter().map(|&(a, b)| Gene::bounded(a, b)).collect();
            let d = genes.len();
            let c = Condition::new(genes.clone());
            let window = &probe[..d];
            let expected = genes.iter().zip(window.iter()).all(|(g, &x)| g.accepts(x));
            prop_assert_eq!(c.matches(window), expected);
        }

        #[test]
        fn widening_never_loses_matches(
            lo in -50.0..0.0f64,
            hi in 0.0..50.0f64,
            delta in 0.0..20.0f64,
            probe in -100.0..100.0f64,
        ) {
            let narrow = Condition::new(vec![Gene::bounded(lo, hi)]);
            let wide = Condition::new(vec![Gene::bounded(lo - delta, hi + delta)]);
            if narrow.matches(&[probe]) {
                prop_assert!(wide.matches(&[probe]));
            }
        }
    }
}
