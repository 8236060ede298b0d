//! Population initialization (§3.2).
//!
//! The paper's procedure spreads the initial rules across the whole *output*
//! range so diversity exists before evolution starts: the output range is cut
//! into `population_size` equal bins; for each bin, the training windows
//! whose target falls in the bin define the most general rule covering them
//! (per-input min/max → interval). These rules are deliberately very general;
//! the EA specializes them.
//!
//! Bins that contain no training target produce no rule (there is nothing to
//! take a min/max over); those slots are filled with random interval rules so
//! the population keeps its configured size. A pure-random initializer is
//! also provided for ablation A2.

use crate::dataset::ExampleSet;
use crate::mutation::random_interval;
use crate::rule::{Condition, Gene};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which initializer a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// Paper default (§3.2): output-range binning.
    Binned,
    /// Ablation A2: random intervals.
    Random,
}

/// Dispatch on the configured strategy.
pub fn initialize<E: ExampleSet, R: Rng>(
    strategy: InitStrategy,
    data: &E,
    population_size: usize,
    rng: &mut R,
) -> Vec<Condition> {
    match strategy {
        InitStrategy::Binned => binned(data, population_size, rng),
        InitStrategy::Random => random_population(data, population_size, rng),
    }
}

/// Output-range binned initialization. Returns `population_size` conditions:
/// one per non-empty target bin, random fills for empty bins.
///
/// # Panics
/// Panics when `population_size == 0` (config validation prevents this).
pub(crate) fn binned<E: ExampleSet, R: Rng>(
    data: &E,
    population_size: usize,
    rng: &mut R,
) -> Vec<Condition> {
    assert!(population_size > 0, "population_size must be >= 1");
    let d = data.feature_len();
    let n = data.len();

    // Output (target) range defines the bins.
    let (mut t_lo, mut t_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let t = data.target(i);
        t_lo = t_lo.min(t);
        t_hi = t_hi.max(t);
    }
    let range = t_hi - t_lo;

    let mut conditions = Vec::with_capacity(population_size);

    if range > 0.0 {
        let bin_width = range / population_size as f64;
        // Per-bin per-position running min/max. Flat layout:
        // bounds[bin * d + pos] = (min, max).
        let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); population_size * d];
        let mut counts = vec![0usize; population_size];

        for i in 0..n {
            let t = data.target(i);
            let bin = (((t - t_lo) / bin_width) as usize).min(population_size - 1);
            counts[bin] += 1;
            let window = data.features(i);
            let row = &mut bounds[bin * d..(bin + 1) * d];
            for (slot, &x) in row.iter_mut().zip(window.iter()) {
                slot.0 = slot.0.min(x);
                slot.1 = slot.1.max(x);
            }
        }

        for bin in 0..population_size {
            if counts[bin] == 0 {
                continue;
            }
            let genes = bounds[bin * d..(bin + 1) * d]
                .iter()
                .map(|&(lo, hi)| Gene::bounded(lo, hi))
                .collect();
            conditions.push(Condition::new(genes));
        }
    }

    // Random fill for empty bins (and for the degenerate constant-target
    // case, where no bin structure exists).
    let (v_lo, v_hi) = value_range_of(data);
    while conditions.len() < population_size {
        conditions.push(random(d, (v_lo, v_hi), rng));
    }
    conditions
}

/// Pure random initialization (ablation A2): each gene is a wildcard with
/// probability 0.75, else a random interval. Random rules must be
/// wildcard-heavy to have any chance of matching in high-dimensional window
/// spaces — the probability that `D` independent random intervals all accept
/// a window decays exponentially in the number of bounded genes (for D = 24
/// an all-bounded random rule matches essentially nothing, which would make
/// the ablation comparison trivially degenerate rather than informative).
pub(crate) fn random_population<E: ExampleSet, R: Rng>(
    data: &E,
    population_size: usize,
    rng: &mut R,
) -> Vec<Condition> {
    assert!(population_size > 0, "population_size must be >= 1");
    let d = data.feature_len();
    let range = value_range_of(data);
    (0..population_size)
        .map(|_| random(d, range, rng))
        .collect()
}

/// Wildcard probability of [`random_population`] genes.
pub(crate) const RANDOM_WILDCARD_PROB: f64 = 0.75;

/// One random condition.
fn random<R: Rng>(d: usize, (lo, hi): (f64, f64), rng: &mut R) -> Condition {
    let genes = (0..d)
        .map(|_| {
            if rng.gen::<f64>() < RANDOM_WILDCARD_PROB {
                Gene::Wildcard
            } else {
                random_interval(lo, hi, rng)
            }
        })
        .collect();
    Condition::new(genes)
}

/// Min/max over the examples' feature values.
fn value_range_of<E: ExampleSet>(data: &E) -> (f64, f64) {
    data.feature_range()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dataset(values: &[f64], d: usize, tau: usize) -> WindowedDataset<'_> {
        WindowSpec::new(d, tau).unwrap().dataset(values).unwrap()
    }

    #[test]
    fn binned_produces_full_population() {
        let vals: Vec<f64> = (0..200).map(|i| (i as f64 * 0.17).sin() * 50.0).collect();
        let ds = dataset(&vals, 4, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let conds = binned(&ds, 20, &mut rng);
        assert_eq!(conds.len(), 20);
        assert!(conds.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn binned_rules_cover_their_bin_members() {
        // Every training window must be matched by the rule built from its
        // own target bin — the min/max construction guarantees it.
        let vals: Vec<f64> = (0..300).map(|i| (i as f64 * 0.23).sin() * 10.0).collect();
        let ds = dataset(&vals, 3, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let pop_size = 10;
        let conds = binned(&ds, pop_size, &mut rng);
        // Union coverage of binned rules over training windows must be 100%:
        // each window's target lives in some bin, and that bin's rule matches
        // the window by construction.
        let covered = (0..ds.len())
            .filter(|&i| {
                conds
                    .iter()
                    .any(|c| c.matches(ExampleSet::features(&ds, i)))
            })
            .count();
        assert_eq!(covered, ds.len(), "binned init must cover all of training");
    }

    #[test]
    fn binned_on_ramp_localizes_rules() {
        // On a ramp, targets are ordered, so each bin sees a contiguous chunk
        // of windows and its intervals are localized (much narrower than the
        // full range).
        let vals: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let ds = dataset(&vals, 2, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let conds = binned(&ds, 10, &mut rng);
        let narrow = conds
            .iter()
            .filter(|c| {
                c.genes().iter().all(|g| g.width() < 100.0) // range is ~400
            })
            .count();
        assert!(narrow >= 8, "only {narrow}/10 rules localized on a ramp");
    }

    #[test]
    fn constant_series_falls_back_to_random() {
        let vals = vec![5.0; 50];
        let ds = dataset(&vals, 3, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let conds = binned(&ds, 8, &mut rng);
        assert_eq!(conds.len(), 8);
        assert!(conds
            .iter()
            .all(|c| c.genes().iter().all(|g| g.is_well_formed())));
    }

    #[test]
    fn random_population_shape_and_wildcards() {
        let vals: Vec<f64> = (0..100).map(|i| (i as f64).cos()).collect();
        let ds = dataset(&vals, 5, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let conds = random_population(&ds, 200, &mut rng);
        assert_eq!(conds.len(), 200);
        let wildcard_genes: usize = conds.iter().map(|c| c.len() - c.specificity()).sum();
        let total_genes = 200 * 5;
        let frac = wildcard_genes as f64 / total_genes as f64;
        assert!(
            (frac - RANDOM_WILDCARD_PROB).abs() < 0.08,
            "wildcard fraction {frac} far from {RANDOM_WILDCARD_PROB}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let vals: Vec<f64> = (0..150).map(|i| ((i * i) % 17) as f64).collect();
        let ds = dataset(&vals, 3, 1);
        let a = binned(&ds, 12, &mut ChaCha8Rng::seed_from_u64(9));
        let b = binned(&ds, 12, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn more_bins_than_distinct_targets() {
        // 3 distinct target values, 50 bins: most bins empty, random fill.
        let vals: Vec<f64> = (0..60).map(|i| (i % 3) as f64).collect();
        let ds = dataset(&vals, 2, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let conds = binned(&ds, 50, &mut rng);
        assert_eq!(conds.len(), 50);
    }

    #[test]
    #[should_panic(expected = "population_size")]
    fn zero_population_panics() {
        let vals: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ds = dataset(&vals, 2, 1);
        binned(&ds, 0, &mut ChaCha8Rng::seed_from_u64(0));
    }
}
