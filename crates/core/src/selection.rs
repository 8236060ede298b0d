//! Parent selection: k-round tournament ("selection by means of three
//! rounds trials", §3.3).
//!
//! Each tournament draws `rounds` contestants uniformly at random (with
//! replacement, the standard steady-state formulation) and the fittest one
//! wins. Selection pressure grows with `rounds`; the paper uses 3.

use crate::population::Population;
use rand::Rng;

/// Select one parent index by a `rounds`-way tournament.
///
/// # Panics
/// Panics when the population is empty or `rounds == 0` — engine
/// construction validates both.
pub(crate) fn tournament<R: Rng>(pop: &Population, rounds: usize, rng: &mut R) -> usize {
    assert!(!pop.is_empty(), "tournament over empty population");
    assert!(rounds > 0, "tournament needs at least one round");
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..rounds {
        let challenger = rng.gen_range(0..pop.len());
        if pop.get(challenger).fitness > pop.get(best).fitness {
            best = challenger;
        }
    }
    best
}

/// Select two parents by independent tournaments. The pair may coincide —
/// the paper does not force distinct parents, and with crossover + mutation
/// a self-pairing still explores (mutation perturbs the clone).
pub fn select_parents<R: Rng>(pop: &Population, rounds: usize, rng: &mut R) -> (usize, usize) {
    (tournament(pop, rounds, rng), tournament(pop, rounds, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Individual;
    use crate::rule::{Condition, Gene, Rule};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pop_with_fitness(fs: &[f64]) -> Population {
        Population::new(
            fs.iter()
                .map(|&f| Individual {
                    rule: Rule {
                        condition: Condition::new(vec![Gene::bounded(0.0, 1.0)]),
                        coefficients: vec![0.0],
                        intercept: 0.0,
                        prediction: 0.0,
                        error: 0.0,
                        matched: 2,
                    },
                    fitness: f,
                })
                .collect(),
        )
    }

    #[test]
    fn single_round_is_uniform_draw() {
        let pop = pop_with_fitness(&[1.0, 2.0, 3.0, 4.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[tournament(&pop, 1, &mut rng)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "one-round tournament must reach all"
        );
    }

    #[test]
    fn higher_rounds_prefer_fitter() {
        let pop = pop_with_fitness(&[0.0, 0.0, 0.0, 100.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let wins_best: usize = (0..2000)
            .filter(|_| tournament(&pop, 3, &mut rng) == 3)
            .count();
        // P(best in 3 draws) = 1 - (3/4)^3 ≈ 0.578.
        assert!(
            (0.50..0.66).contains(&(wins_best as f64 / 2000.0)),
            "best won {wins_best}/2000"
        );
    }

    #[test]
    fn more_rounds_mean_more_pressure() {
        let pop = pop_with_fitness(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mean_fit = |rounds: usize, rng: &mut ChaCha8Rng| -> f64 {
            (0..3000)
                .map(|_| pop.get(tournament(&pop, rounds, rng)).fitness)
                .sum::<f64>()
                / 3000.0
        };
        let m1 = mean_fit(1, &mut rng);
        let m3 = mean_fit(3, &mut rng);
        let m7 = mean_fit(7, &mut rng);
        assert!(m1 < m3 && m3 < m7, "pressure ordering {m1} {m3} {m7}");
    }

    #[test]
    fn deterministic_given_seed() {
        let pop = pop_with_fitness(&[1.0, 5.0, 2.0]);
        let picks_a: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            (0..50).map(|_| tournament(&pop, 3, &mut rng)).collect()
        };
        let picks_b: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            (0..50).map(|_| tournament(&pop, 3, &mut rng)).collect()
        };
        assert_eq!(picks_a, picks_b);
    }

    #[test]
    fn select_parents_returns_two_indices() {
        let pop = pop_with_fitness(&[1.0, 2.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let (a, b) = select_parents(&pop, 3, &mut rng);
            assert!(a < 2 && b < 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        tournament(&Population::default(), 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let pop = pop_with_fitness(&[1.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        tournament(&pop, 0, &mut rng);
    }
}
