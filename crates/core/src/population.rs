//! Population container and per-gene match-set companions.
//!
//! In the Michigan approach the population *is* the solution, so the
//! container keeps every individual's derived rule and cached fitness
//! together; steady-state evolution replaces at most one slot per
//! generation, so fitness is computed exactly once per individual.
//!
//! [`GeneBitsets`] is the columnar decomposition of one individual's match
//! set: one bitset per *bounded* interval gene (the windows that gene alone
//! accepts), with wildcards held as implicit all-ones that are never
//! materialized. Because a gene's bitset depends only on that gene's
//! interval — not on the rest of the condition — crossover can inherit the
//! donor parent's bitset verbatim and mutation only recomputes the touched
//! gene; the full match set is a word-wise AND in ascending-selectivity
//! order ([`GeneBitsets::intersect_into`]).

use crate::bitset::MatchBitset;
use crate::rule::Rule;

/// One population slot: a rule plus its cached fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The rule (condition + derived predicting part).
    pub rule: Rule,
    /// Cached fitness under the run's [`crate::fitness::FitnessParams`].
    pub fitness: f64,
}

/// One gene's slot in a [`GeneBitsets`]: the buffer is kept allocated even
/// while the gene is a wildcard (`active == false`) so toggling a gene
/// between wildcard and bounded never allocates in the steady-state loop;
/// an inactive buffer's contents are dead and unreachable through the API.
#[derive(Debug, Clone)]
struct GeneSlot {
    bits: MatchBitset,
    active: bool,
    ones: usize,
}

/// Per-gene match bitsets for one individual — the columnar companion the
/// delta evaluation path maintains alongside each population slot.
#[derive(Debug, Clone)]
pub struct GeneBitsets {
    slots: Vec<GeneSlot>,
    universe: usize,
}

impl GeneBitsets {
    /// All-wildcard sets for `d` genes over `universe` windows (buffers
    /// allocated up front, all inactive).
    pub fn new(d: usize, universe: usize) -> GeneBitsets {
        GeneBitsets {
            slots: vec![
                GeneSlot {
                    bits: MatchBitset::new(universe),
                    active: false,
                    ones: 0,
                };
                d
            ],
            universe,
        }
    }

    /// Number of genes `D`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the condition has no genes (never — conditions are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Gene `g`'s bitset, or `None` when the gene is a wildcard (implicit
    /// all-ones).
    pub fn bitset(&self, g: usize) -> Option<&MatchBitset> {
        let s = &self.slots[g];
        s.active.then_some(&s.bits)
    }

    /// Mark gene `g` as a wildcard: its bitset is dropped from the API (the
    /// buffer is retained for reuse but its stale contents are unreachable).
    pub fn set_wildcard(&mut self, g: usize) {
        self.slots[g].active = false;
        self.slots[g].ones = 0;
    }

    /// Recompute gene `g`'s bitset in place: `fill` overwrites the buffer
    /// (every word — see [`crate::dataset::fill_gene_bitset`]), then the
    /// slot is activated with a fresh popcount.
    pub fn recompute_with(&mut self, g: usize, fill: impl FnOnce(&mut MatchBitset)) {
        let slot = &mut self.slots[g];
        fill(&mut slot.bits);
        slot.ones = slot.bits.count_ones();
        slot.active = true;
    }

    /// Inherit gene `g` from `donor` (the crossover path): copies the
    /// donor's bitset into the existing buffer — no rescan, no allocation —
    /// or marks the gene wildcard when the donor's is.
    ///
    /// # Panics
    /// Panics when the universes or gene counts differ.
    pub fn copy_gene_from(&mut self, g: usize, donor: &GeneBitsets) {
        assert_eq!(self.universe, donor.universe, "gene-set universe mismatch");
        let src = &donor.slots[g];
        let dst = &mut self.slots[g];
        if src.active {
            dst.bits.copy_from(&src.bits);
            dst.ones = src.ones;
            dst.active = true;
        } else {
            dst.active = false;
            dst.ones = 0;
        }
    }

    /// The full match set: AND of every bounded gene's bitset, most
    /// selective (fewest members) first so the running result collapses as
    /// early as possible, with a hard exit the moment it goes all-zero.
    /// All-wildcard conditions yield the full universe. `O(B · N/64)` word
    /// ops worst case for `B` bounded genes.
    pub fn intersect_into(&self, out: &mut MatchBitset) {
        let mut order: Vec<(usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(g, s)| (s.ones, g))
            .collect();
        if order.is_empty() {
            out.fill_all();
            return;
        }
        order.sort_unstable();
        out.copy_from(&self.slots[order[0].1].bits);
        for &(_, g) in &order[1..] {
            if !out.intersect_with(&self.slots[g].bits) {
                return; // running set is empty; remaining ANDs are no-ops
            }
        }
    }
}

/// A fixed-capacity population of evaluated individuals.
#[derive(Debug, Clone, Default)]
pub struct Population {
    individuals: Vec<Individual>,
}

impl Population {
    /// Build from evaluated individuals.
    pub fn new(individuals: Vec<Individual>) -> Population {
        Population { individuals }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.individuals.len()
    }

    /// Is the population empty?
    pub fn is_empty(&self) -> bool {
        self.individuals.is_empty()
    }

    /// Borrow all individuals.
    pub fn individuals(&self) -> &[Individual] {
        &self.individuals
    }

    /// Borrow one individual.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> &Individual {
        &self.individuals[i]
    }

    /// Replace slot `i` with a new individual (steady-state update).
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn replace(&mut self, i: usize, individual: Individual) {
        self.individuals[i] = individual;
    }

    /// Index of the best-fitness individual; `None` when empty.
    pub fn best_index(&self) -> Option<usize> {
        self.individuals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.fitness.total_cmp(&b.1.fitness))
            .map(|(i, _)| i)
    }

    /// Index of the worst-fitness individual; `None` when empty.
    pub(crate) fn worst_index(&self) -> Option<usize> {
        self.individuals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.fitness.total_cmp(&b.1.fitness))
            .map(|(i, _)| i)
    }

    /// Mean fitness; `None` when empty.
    pub fn mean_fitness(&self) -> Option<f64> {
        if self.individuals.is_empty() {
            return None;
        }
        Some(
            self.individuals.iter().map(|ind| ind.fitness).sum::<f64>()
                / self.individuals.len() as f64,
        )
    }

    /// Clone out all rules.
    pub fn rules(&self) -> Vec<Rule> {
        self.individuals
            .iter()
            .map(|ind| ind.rule.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Condition, Gene};

    fn make_individual(fitness: f64, prediction: f64) -> Individual {
        Individual {
            rule: Rule {
                condition: Condition::new(vec![Gene::bounded(0.0, 1.0)]),
                coefficients: vec![0.0],
                intercept: prediction,
                prediction,
                error: 0.1,
                matched: 3,
            },
            fitness,
        }
    }

    #[test]
    fn empty_population() {
        let p = Population::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.best_index(), None);
        assert_eq!(p.worst_index(), None);
        assert_eq!(p.mean_fitness(), None);
    }

    #[test]
    fn best_worst_mean() {
        let p = Population::new(vec![
            make_individual(1.0, 0.0),
            make_individual(5.0, 1.0),
            make_individual(-3.0, 2.0),
        ]);
        assert_eq!(p.best_index(), Some(1));
        assert_eq!(p.worst_index(), Some(2));
        assert!((p.mean_fitness().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(1).fitness, 5.0);
    }

    #[test]
    fn replace_updates_slot() {
        let mut p = Population::new(vec![make_individual(1.0, 0.0), make_individual(2.0, 1.0)]);
        p.replace(0, make_individual(10.0, 5.0));
        assert_eq!(p.get(0).fitness, 10.0);
        assert_eq!(p.best_index(), Some(0));
    }

    #[test]
    fn rules_extraction() {
        let p = Population::new(vec![make_individual(1.0, 7.0), make_individual(2.0, 8.0)]);
        let cloned = p.rules();
        assert_eq!(cloned.len(), 2);
        assert_eq!(cloned[0].prediction, 7.0);
        assert_eq!(cloned[1].prediction, 8.0);
    }

    mod gene_bitsets {
        use super::super::*;

        fn fill_indices(indices: &'static [usize]) -> impl FnOnce(&mut MatchBitset) {
            move |bits: &mut MatchBitset| {
                bits.clear();
                for &i in indices {
                    bits.set(i);
                }
            }
        }

        #[test]
        fn starts_all_wildcard_with_full_universe_match() {
            let gs = GeneBitsets::new(3, 100);
            assert_eq!(gs.len(), 3);
            assert!(!gs.is_empty());
            assert_eq!(gs.universe, 100);
            for g in 0..3 {
                assert!(gs.bitset(g).is_none());
            }
            // All-wildcard condition: the intersection is the whole universe.
            let mut out = MatchBitset::new(100);
            gs.intersect_into(&mut out);
            assert!(out.all_set());
        }

        #[test]
        fn mutating_from_wildcard_builds_a_bitset() {
            let mut gs = GeneBitsets::new(2, 50);
            gs.recompute_with(0, fill_indices(&[3, 7, 40]));
            assert_eq!(gs.bitset(0).unwrap().to_indices(), vec![3, 7, 40]);
            assert_eq!(gs.slots[0].ones, 3);
            let mut out = MatchBitset::new(50);
            gs.intersect_into(&mut out);
            assert_eq!(out.to_indices(), vec![3, 7, 40]);
        }

        #[test]
        fn mutating_to_wildcard_drops_the_bitset() {
            let mut gs = GeneBitsets::new(2, 50);
            gs.recompute_with(0, fill_indices(&[1, 2]));
            gs.recompute_with(1, fill_indices(&[2, 3]));
            gs.set_wildcard(0);
            // The stale [1, 2] buffer must be unreachable: gene 0 now matches
            // everything, so the intersection is gene 1's set alone.
            assert!(gs.bitset(0).is_none());
            let mut out = MatchBitset::new(50);
            gs.intersect_into(&mut out);
            assert_eq!(out.to_indices(), vec![2, 3]);
        }

        #[test]
        fn recompute_overwrites_stale_contents() {
            let mut gs = GeneBitsets::new(1, 50);
            gs.recompute_with(0, fill_indices(&[10, 20, 30]));
            gs.set_wildcard(0);
            // Reactivate with different members: nothing from [10, 20, 30]
            // may leak through.
            gs.recompute_with(0, fill_indices(&[5]));
            assert_eq!(gs.bitset(0).unwrap().to_indices(), vec![5]);
            assert_eq!(gs.slots[0].ones, 1);
        }

        #[test]
        fn crossover_copy_inherits_bitset_and_wildcardness() {
            let mut donor = GeneBitsets::new(3, 60);
            donor.recompute_with(0, fill_indices(&[0, 59]));
            // donor gene 1 stays wildcard, gene 2 bounded.
            donor.recompute_with(2, fill_indices(&[7]));

            let mut child = GeneBitsets::new(3, 60);
            child.recompute_with(1, fill_indices(&[4, 5])); // to be overwritten
            for g in 0..3 {
                child.copy_gene_from(g, &donor);
            }
            assert_eq!(child.bitset(0).unwrap().to_indices(), vec![0, 59]);
            assert!(child.bitset(1).is_none(), "wildcard must be inherited");
            assert_eq!(child.slots[2].ones, 1);
        }

        #[test]
        fn intersection_is_selectivity_ordered_and_early_exits() {
            let mut gs = GeneBitsets::new(3, 200);
            gs.recompute_with(0, fill_indices(&[1, 2, 3, 4, 5, 6, 7, 100]));
            gs.recompute_with(1, fill_indices(&[100]));
            gs.recompute_with(2, fill_indices(&[2, 100, 150]));
            let mut out = MatchBitset::new(200);
            gs.intersect_into(&mut out);
            assert_eq!(out.to_indices(), vec![100]);

            // Disjoint genes: the running set dies and the result is empty.
            gs.recompute_with(1, fill_indices(&[199]));
            gs.intersect_into(&mut out);
            assert_eq!(out.count_ones(), 0);
        }

        #[test]
        #[should_panic(expected = "universe mismatch")]
        fn copy_across_universes_panics() {
            let donor = GeneBitsets::new(1, 10);
            let mut child = GeneBitsets::new(1, 20);
            child.copy_gene_from(0, &donor);
        }
    }

    #[test]
    fn best_index_handles_sentinel_fitness() {
        let p = Population::new(vec![
            make_individual(-1e12, 0.0),
            make_individual(-1e12, 1.0),
        ]);
        // total_cmp makes this deterministic; first max wins.
        assert!(p.best_index().is_some());
    }
}
