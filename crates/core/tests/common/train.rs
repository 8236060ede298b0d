//! The test oracle for training: §3.1–3.3 of the paper transcribed literally.
//!
//! "The predicting part is calculated by means of a linear regression over
//! the points that fulfill the conditional part", and the rule's expected
//! error is the maximum absolute residual of that fit (§3.1). Fitness is
//! `N_R · EMAX − e_R` for rules with `N_R > 1` and `e_R < EMAX`, `f_min`
//! otherwise (§3.2). Evolution is steady state: two tournament parents, one
//! uniform-crossover offspring, interval mutation, and the offspring replaces
//! the phenotypically nearest individual when strictly fitter (§3.3).
//!
//! Every window is tested against the whole condition; there are no per-gene
//! bitsets, no sorted projections and no incremental coverage counters. The
//! normal equations take one rank-1 update per matched row, summed per
//! `GRAM_CHUNK` windows and merged in ascending chunk order: the summation
//! order the engine's packed kernel reproduces. The tests that include this
//! module pin `Engine` to it bit for bit.

use evoforecast_core::config::EngineConfig;
use evoforecast_core::population::{Individual, Population};
use evoforecast_core::regress::GRAM_CHUNK;
use evoforecast_core::{crossover, init, mutation, replacement, selection};
use evoforecast_core::{Condition, ExampleSet, Gene, Rule};
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The windows `condition` matches, ascending.
pub fn matches<E: ExampleSet>(condition: &Condition, data: &E) -> Vec<usize> {
    (0..data.len())
        .filter(|&i| condition.matches(data.features(i)))
        .collect()
}

/// §3.1: regress the target over the `matched` windows and take the
/// maximum absolute residual as the expected error. A rule that matches
/// nothing gets a zero hyperplane and infinite error; a single match
/// predicts its own target with zero error; an unsolvable system falls back
/// to the constant mean with its worst residual.
pub fn derive_rule<E: ExampleSet>(condition: Condition, matched: &[usize], data: &E) -> Rule {
    let d = data.feature_len();
    let opts = RegressionOptions::fast();
    let mut acc = NormalEqAccumulator::new(d, true);
    for chunk in matched.chunk_by(|a, b| a / GRAM_CHUNK == b / GRAM_CHUNK) {
        let mut part = NormalEqAccumulator::new(d, true);
        for &i in chunk {
            part.push_row(data.features(i), data.target(i));
        }
        acc.merge(&part);
    }

    let rule = |coefficients: Vec<f64>, intercept: f64, prediction: f64, error: f64| Rule {
        condition: condition.clone(),
        coefficients,
        intercept,
        prediction,
        error,
        matched: matched.len(),
    };
    match matched {
        [] => rule(vec![0.0; d], 0.0, 0.0, f64::INFINITY),
        [i] => rule(vec![0.0; d], data.target(*i), data.target(*i), 0.0),
        _ => {
            let mean = acc.sum_targets() / acc.count() as f64;
            let max_residual = |predict: &dyn Fn(&[f64]) -> f64| {
                matched
                    .iter()
                    .map(|&i| (data.target(i) - predict(data.features(i))).abs())
                    .fold(0.0_f64, f64::max)
            };
            match acc.solve(opts.ridge_lambda) {
                Ok(fit) => rule(
                    fit.coefficients().to_vec(),
                    fit.intercept(),
                    mean,
                    max_residual(&|x| fit.predict(x)),
                ),
                Err(_) => rule(vec![0.0; d], mean, mean, max_residual(&|_| mean)),
            }
        }
    }
}

/// §3.2: `N_R · EMAX − e_R` when `N_R > 1` and `e_R < EMAX`, else `f_min`.
pub fn fitness(config: &EngineConfig, rule: &Rule) -> f64 {
    let (emax, f_min) = (config.fitness.emax, config.fitness.f_min);
    if rule.matched > 1 && rule.error < emax {
        rule.matched as f64 * emax - rule.error
    } else {
        f_min
    }
}

/// Match, derive and score one condition; returns the individual and the
/// windows it matches.
pub fn evaluate<E: ExampleSet>(
    condition: Condition,
    data: &E,
    config: &EngineConfig,
) -> (Individual, Vec<usize>) {
    let matched = matches(&condition, data);
    let rule = derive_rule(condition, &matched, data);
    let fitness = fitness(config, &rule);
    (Individual { rule, fitness }, matched)
}

/// The steady-state loop of §3.3 over one example set.
pub struct Oracle<'d, E: ExampleSet> {
    config: EngineConfig,
    data: &'d E,
    population: Population,
    match_sets: Vec<Vec<usize>>,
    rng: ChaCha8Rng,
}

impl<'d, E: ExampleSet> Oracle<'d, E> {
    /// Seed the RNG from `config.seed`, initialize (§3.2) and evaluate the
    /// population.
    pub fn new(config: EngineConfig, data: &'d E) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let conditions = init::initialize(config.init, data, config.population_size, &mut rng);
        let (individuals, match_sets) = conditions
            .into_iter()
            .map(|c| evaluate(c, data, &config))
            .unzip();
        Oracle {
            config,
            data,
            population: Population::new(individuals),
            match_sets,
            rng,
        }
    }

    /// One generation; returns whether the offspring entered the population.
    pub fn step(&mut self) -> bool {
        let config = &self.config;
        let (ia, ib) =
            selection::select_parents(&self.population, config.tournament_rounds, &mut self.rng);
        let mut child = crossover::uniform_into(
            &self.population.get(ia).rule.condition,
            &self.population.get(ib).rule.condition,
            &mut self.rng,
            &mut Vec::new(),
        );
        mutation::mutate_into(
            &mut child,
            &config.mutation,
            config.value_range,
            &mut self.rng,
            &mut Vec::new(),
        );
        let (offspring, matched) = evaluate(child, self.data, config);
        let victim = replacement::choose_victim(
            config.replacement,
            &self.population,
            offspring.rule.prediction,
            &mut self.rng,
        );
        let replaced = replacement::try_replace(&mut self.population, victim, offspring);
        if replaced {
            self.match_sets[victim] = matched;
        }
        replaced
    }

    /// The population in slot order.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The windows individual `k` matches, ascending.
    pub fn match_set(&self, k: usize) -> &[usize] {
        &self.match_sets[k]
    }

    /// Fraction of the windows matched by at least one viable rule, by a
    /// full sweep of every window against every condition.
    pub fn coverage(&self) -> f64 {
        let n = self.data.len();
        if n == 0 {
            return 0.0;
        }
        let f_min = self.config.fitness.f_min;
        let covered = (0..n)
            .filter(|&i| {
                self.population.individuals().iter().any(|ind| {
                    ind.fitness > f_min && ind.rule.condition.matches(self.data.features(i))
                })
            })
            .count();
        covered as f64 / n as f64
    }
}

/// Bit patterns of every number in a rule (gene bounds, coefficients,
/// intercept, prediction, error) plus its match count, so `-0.0` differs
/// from `0.0` and NaN compares equal to itself.
pub fn rule_bits(rule: &Rule) -> Vec<u64> {
    let genes = rule.condition.genes().iter().flat_map(|g| match *g {
        Gene::Bounded { lo, hi } => [1, lo.to_bits(), hi.to_bits()],
        Gene::Wildcard => [0, 0, 0],
    });
    let part = rule
        .coefficients
        .iter()
        .chain([&rule.intercept, &rule.prediction, &rule.error])
        .map(|x| x.to_bits());
    genes.chain(part).chain([rule.matched as u64]).collect()
}
