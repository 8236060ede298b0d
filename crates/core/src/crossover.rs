//! Uniform crossover of conditional parts (§3.1).
//!
//! "For each i < D the offspring can inherit two genes (one from each
//! parent) with the same probability." The predicting part `(p, e)` is *not*
//! inherited — the engine re-derives it by regression over the offspring's
//! matched windows.

use crate::rule::{Condition, Gene};
use rand::Rng;

/// Produce one offspring condition by uniform gene-wise inheritance,
/// recording each gene's provenance into `from_a` (`true` = inherited from
/// parent `a`). The delta evaluation path uses the provenance to copy the
/// donor parent's per-gene match bitset instead of rescanning the data.
///
/// # Panics
/// Panics when the parents have different window lengths — impossible within
/// one run, so this is an internal invariant.
pub fn uniform_into<R: Rng>(
    a: &Condition,
    b: &Condition,
    rng: &mut R,
    from_a: &mut Vec<bool>,
) -> Condition {
    assert_eq!(
        a.len(),
        b.len(),
        "crossover requires equal-length conditions"
    );
    from_a.clear();
    let genes: Vec<Gene> = a
        .genes()
        .iter()
        .zip(b.genes().iter())
        .map(|(&ga, &gb)| {
            let take_a = rng.gen::<bool>();
            from_a.push(take_a);
            if take_a {
                ga
            } else {
                gb
            }
        })
        .collect();
    Condition::new(genes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn parent_a() -> Condition {
        // The paper's Parent A: (50,100, 40,90, -10,5, *, 1,100)
        Condition::new(vec![
            Gene::bounded(50.0, 100.0),
            Gene::bounded(40.0, 90.0),
            Gene::bounded(-10.0, 5.0),
            Gene::Wildcard,
            Gene::bounded(1.0, 100.0),
        ])
    }

    fn parent_b() -> Condition {
        // The paper's Parent B: (60,90, 10,20, 15,30, 40,45, *)
        Condition::new(vec![
            Gene::bounded(60.0, 90.0),
            Gene::bounded(10.0, 20.0),
            Gene::bounded(15.0, 30.0),
            Gene::bounded(40.0, 45.0),
            Gene::Wildcard,
        ])
    }

    #[test]
    fn every_gene_comes_from_a_parent() {
        let (a, b) = (parent_a(), parent_b());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let child = uniform_into(&a, &b, &mut rng, &mut Vec::new());
            assert_eq!(child.len(), a.len());
            for (i, g) in child.genes().iter().enumerate() {
                assert!(
                    *g == a.genes()[i] || *g == b.genes()[i],
                    "gene {i} from neither parent"
                );
            }
        }
    }

    #[test]
    fn both_parents_contribute_over_many_draws() {
        let (a, b) = (parent_a(), parent_b());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut from_a = 0usize;
        let mut from_b = 0usize;
        for _ in 0..400 {
            let child = uniform_into(&a, &b, &mut rng, &mut Vec::new());
            for (i, g) in child.genes().iter().enumerate() {
                // Positions where the parents differ are informative.
                if a.genes()[i] != b.genes()[i] {
                    if *g == a.genes()[i] {
                        from_a += 1;
                    } else {
                        from_b += 1;
                    }
                }
            }
        }
        let total = (from_a + from_b) as f64;
        let frac_a = from_a as f64 / total;
        assert!(
            (0.42..0.58).contains(&frac_a),
            "inheritance should be ~50/50, got {frac_a}"
        );
    }

    #[test]
    fn provenance_names_the_actual_donor() {
        let (a, b) = (parent_a(), parent_b());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut from_a = Vec::new();
        for _ in 0..50 {
            let child = uniform_into(&a, &b, &mut rng, &mut from_a);
            assert_eq!(from_a.len(), a.len());
            for (i, (&donor_a, g)) in from_a.iter().zip(child.genes()).enumerate() {
                let donor = if donor_a { a.genes()[i] } else { b.genes()[i] };
                assert_eq!(*g, donor, "gene {i} disagrees with its provenance");
            }
        }
    }

    #[test]
    fn identical_parents_produce_clone() {
        let a = parent_a();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let child = uniform_into(&a, &a, &mut rng, &mut Vec::new());
        assert_eq!(child, a);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = (parent_a(), parent_b());
        let c1 = uniform_into(&a, &b, &mut ChaCha8Rng::seed_from_u64(11), &mut Vec::new());
        let c2 = uniform_into(&a, &b, &mut ChaCha8Rng::seed_from_u64(11), &mut Vec::new());
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let a = Condition::all_wildcards(3);
        let b = Condition::all_wildcards(4);
        uniform_into(&a, &b, &mut ChaCha8Rng::seed_from_u64(0), &mut Vec::new());
    }

    proptest! {
        #[test]
        fn offspring_genes_always_well_formed(seed in 0u64..500) {
            let (a, b) = (parent_a(), parent_b());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let child = uniform_into(&a, &b, &mut rng, &mut Vec::new());
            prop_assert!(child.genes().iter().all(|g| g.is_well_formed()));
        }
    }
}
