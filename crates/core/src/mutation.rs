//! Interval mutation (§3.1): "enlargement, shrink or moving up or down the
//! interval encoded by the gene", plus wildcard toggling (the encoding
//! explicitly allows `*` genes, so mutation must be able to create and
//! destroy them or that part of the search space would be unreachable from
//! the initial population).
//!
//! All steps are scaled by [`MutationConfig::step_fraction`] of the series
//! value range, so the operator behaves identically on Venice centimetres
//! and on `[0, 1]`-normalized Mackey-Glass.

use crate::config::MutationConfig;
use crate::rule::{Condition, Gene};
use rand::Rng;

/// Mutate a condition in place. Each gene independently mutates with
/// `config.per_gene_probability`; a mutating bounded gene undergoes enlarge /
/// shrink / shift-up / shift-down (equal odds) or becomes a wildcard; a
/// mutating wildcard may materialize into a random interval.
///
/// The positions whose gene was actually rewritten go into `changed`,
/// ascending (a wildcard that stayed a wildcard is *not* recorded). The
/// delta evaluation path recomputes exactly these genes' match bitsets and
/// inherits every other gene's from the donor parent.
pub fn mutate_into<R: Rng>(
    condition: &mut Condition,
    config: &MutationConfig,
    value_range: (f64, f64),
    rng: &mut R,
    changed: &mut Vec<usize>,
) {
    let (lo_v, hi_v) = value_range;
    let range = hi_v - lo_v;
    debug_assert!(range > 0.0, "value range must be non-empty");
    let max_step = config.step_fraction * range;

    changed.clear();
    for (g, gene) in condition.genes_mut().iter_mut().enumerate() {
        if rng.gen::<f64>() >= config.per_gene_probability {
            continue;
        }
        *gene = match *gene {
            Gene::Wildcard => {
                if rng.gen::<f64>() < config.from_wildcard_probability {
                    changed.push(g);
                    random_interval(lo_v, hi_v, rng)
                } else {
                    Gene::Wildcard
                }
            }
            Gene::Bounded { lo, hi } => {
                changed.push(g);
                if rng.gen::<f64>() < config.to_wildcard_probability {
                    Gene::Wildcard
                } else {
                    perturb_interval(lo, hi, max_step, rng)
                }
            }
        };
    }
}

/// Apply one of the four paper operators to an interval.
fn perturb_interval<R: Rng>(lo: f64, hi: f64, max_step: f64, rng: &mut R) -> Gene {
    let step = rng.gen::<f64>() * max_step;
    match rng.gen_range(0..4u8) {
        // Enlarge: push both endpoints outward.
        0 => Gene::bounded(lo - step, hi + step),
        // Shrink: pull both endpoints inward, but never past the midpoint —
        // a rule's interval may become tiny but stays an interval.
        1 => {
            let half_width = 0.5 * (hi - lo);
            let s = step.min(half_width);
            Gene::bounded(lo + s, hi - s)
        }
        // Move up.
        2 => Gene::bounded(lo + step, hi + step),
        // Move down.
        _ => Gene::bounded(lo - step, hi - step),
    }
}

/// A fresh random interval inside the (slightly padded) value range; used
/// when a wildcard materializes and by the random initializer.
pub fn random_interval<R: Rng>(lo_v: f64, hi_v: f64, rng: &mut R) -> Gene {
    let range = hi_v - lo_v;
    let center = lo_v + rng.gen::<f64>() * range;
    // Widths between 5 % and 50 % of the range: wide enough to match
    // something, narrow enough to stay local.
    let width = (0.05 + 0.45 * rng.gen::<f64>()) * range;
    Gene::bounded(center - 0.5 * width, center + 0.5 * width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base_condition() -> Condition {
        Condition::new(vec![
            Gene::bounded(10.0, 20.0),
            Gene::Wildcard,
            Gene::bounded(-5.0, 5.0),
        ])
    }

    fn always_mutate() -> MutationConfig {
        MutationConfig {
            per_gene_probability: 1.0,
            step_fraction: 0.1,
            to_wildcard_probability: 0.0,
            from_wildcard_probability: 0.0,
        }
    }

    #[test]
    fn zero_probability_is_identity() {
        let mut c = base_condition();
        let cfg = MutationConfig {
            per_gene_probability: 0.0,
            ..Default::default()
        };
        let before = c.clone();
        mutate_into(
            &mut c,
            &cfg,
            (0.0, 100.0),
            &mut ChaCha8Rng::seed_from_u64(1),
            &mut Vec::new(),
        );
        assert_eq!(c, before);
    }

    #[test]
    fn mutation_preserves_well_formedness() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cfg = MutationConfig {
            per_gene_probability: 1.0,
            to_wildcard_probability: 0.3,
            from_wildcard_probability: 0.7,
            ..Default::default()
        };
        for _ in 0..500 {
            let mut c = base_condition();
            mutate_into(&mut c, &cfg, (-50.0, 150.0), &mut rng, &mut Vec::new());
            assert!(c.genes().iter().all(|g| g.is_well_formed()));
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn bounded_genes_change_under_forced_mutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut changed = 0usize;
        for _ in 0..100 {
            let mut c = base_condition();
            mutate_into(
                &mut c,
                &always_mutate(),
                (0.0, 100.0),
                &mut rng,
                &mut Vec::new(),
            );
            if c.genes()[0] != base_condition().genes()[0] {
                changed += 1;
            }
        }
        // Steps are uniform in (0, max]; a zero draw is measure-zero, so
        // nearly every mutation changes the gene.
        assert!(changed > 90, "only {changed}/100 mutations changed gene 0");
    }

    #[test]
    fn steps_bounded_by_step_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let cfg = always_mutate(); // step_fraction 0.1, range 100 -> max 10
        for _ in 0..500 {
            let mut c = Condition::new(vec![Gene::bounded(40.0, 60.0)]);
            mutate_into(&mut c, &cfg, (0.0, 100.0), &mut rng, &mut Vec::new());
            if let Gene::Bounded { lo, hi } = c.genes()[0] {
                assert!(lo >= 40.0 - 10.0 - 1e-9, "lo {lo} moved too far");
                assert!(hi <= 60.0 + 10.0 + 1e-9, "hi {hi} moved too far");
                assert!(hi - lo <= 20.0 + 20.0 + 1e-9);
            }
        }
    }

    #[test]
    fn shrink_never_inverts_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Huge steps vs. a narrow interval: shrink must clamp at midpoint.
        let cfg = MutationConfig {
            per_gene_probability: 1.0,
            step_fraction: 1.0,
            to_wildcard_probability: 0.0,
            from_wildcard_probability: 0.0,
        };
        for _ in 0..1000 {
            let mut c = Condition::new(vec![Gene::bounded(49.9, 50.1)]);
            mutate_into(&mut c, &cfg, (0.0, 100.0), &mut rng, &mut Vec::new());
            if let Gene::Bounded { lo, hi } = c.genes()[0] {
                assert!(lo <= hi, "interval inverted: [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn wildcard_toggling_both_directions() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = MutationConfig {
            per_gene_probability: 1.0,
            step_fraction: 0.1,
            to_wildcard_probability: 1.0,
            from_wildcard_probability: 1.0,
        };
        let mut c = base_condition();
        mutate_into(&mut c, &cfg, (0.0, 100.0), &mut rng, &mut Vec::new());
        // Bounded genes became wildcards; the wildcard became bounded.
        assert!(c.genes()[0].is_wildcard());
        assert!(!c.genes()[1].is_wildcard());
        assert!(c.genes()[2].is_wildcard());
    }

    #[test]
    fn changed_records_exactly_the_rewritten_genes() {
        let cfg = MutationConfig {
            per_gene_probability: 0.5,
            step_fraction: 0.2,
            to_wildcard_probability: 0.3,
            from_wildcard_probability: 0.4,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut saw_change = false;
        for _ in 0..200 {
            let before = base_condition();
            let mut after = before.clone();
            let mut changed = Vec::new();
            mutate_into(&mut after, &cfg, (0.0, 100.0), &mut rng, &mut changed);
            saw_change |= !changed.is_empty();
            for g in 0..before.len() {
                let recorded = changed.contains(&g);
                let both_wildcard =
                    before.genes()[g].is_wildcard() && after.genes()[g].is_wildcard();
                if both_wildcard {
                    // A wildcard that stayed a wildcard must never be recorded:
                    // its (implicit) match set is unchanged.
                    assert!(!recorded, "gene {g} wildcard->wildcard was recorded");
                } else if before.genes()[g] != after.genes()[g] {
                    assert!(recorded, "gene {g} changed but was not recorded");
                }
                // A recorded bounded gene may coincidentally equal its old
                // value (measure-zero step draws aside, perturbation always
                // rewrites), so the reverse implication is not asserted.
            }
        }
        assert!(saw_change, "mutation never fired in 200 trials");
    }

    #[test]
    fn random_interval_inside_padded_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..500 {
            let g = random_interval(-50.0, 150.0, &mut rng);
            assert!(g.is_well_formed());
            if let Gene::Bounded { lo, hi } = g {
                // Center in range, width <= 50% of range.
                assert!(hi - lo <= 100.0 + 1e-9);
                assert!(lo >= -50.0 - 50.0 && hi <= 150.0 + 50.0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut c = base_condition();
            let cfg = MutationConfig {
                per_gene_probability: 0.5,
                ..Default::default()
            };
            mutate_into(
                &mut c,
                &cfg,
                (0.0, 100.0),
                &mut ChaCha8Rng::seed_from_u64(seed),
                &mut Vec::new(),
            );
            c
        };
        assert_eq!(run(42), run(42));
    }

    proptest! {
        #[test]
        fn never_panics_and_stays_well_formed(
            seed in 0u64..1000,
            p in 0.0..1.0f64,
            step in 0.001..1.0f64,
            to_wc in 0.0..1.0f64,
            from_wc in 0.0..1.0f64,
        ) {
            let cfg = MutationConfig {
                per_gene_probability: p,
                step_fraction: step,
                to_wildcard_probability: to_wc,
                from_wildcard_probability: from_wc,
            };
            let mut c = base_condition();
            mutate_into(&mut c, &cfg, (-10.0, 10.0), &mut ChaCha8Rng::seed_from_u64(seed), &mut Vec::new());
            prop_assert!(c.genes().iter().all(|g| g.is_well_formed()));
        }
    }
}
