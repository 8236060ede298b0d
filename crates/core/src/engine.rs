//! The steady-state evolution engine (§3.3).
//!
//! Each generation: select two parents by 3-round tournament, produce *one*
//! offspring by uniform crossover, mutate it, re-derive its predicting part
//! by regression over the training windows it matches, then let it compete
//! against the phenotypically nearest individual — it enters the population
//! only if strictly fitter. The population after the final generation *is*
//! the learned rule set (Michigan approach).
//!
//! The offspring's match set is never recomputed from scratch (delta
//! re-evaluation): each individual carries one bitset per bounded gene
//! ([`crate::population::GeneBitsets`]), crossover copies the donor parent's
//! bitsets, mutation recomputes only the mutated genes (one columnar sweep
//! each), and the full match set is a selectivity-ordered word-wise AND.
//! Results are bit-identical to matching every window against the whole
//! condition: the literal transcription of §3.1–3.3 in
//! `tests/common/train.rs` pins every rule, match set and the training
//! coverage to that, generation by generation. The engine stores no coverage:
//! [`GenericEngine::training_coverage`] folds the viable rules when asked,
//! and nothing in the generation loop reads it.
//!
//! Evaluation follows the AND: match → victim → bound → fit → replace. The
//! crowding victim depends only on the offspring's scalar prediction `p`, the
//! mean matched target, which the match set alone fixes, so it is chosen
//! before any regression. No fitness exceeds
//! `FitnessParams::upper_bound` of the match count, since
//! `e_R ≥ 0`; an offspring whose bound does not strictly beat the victim's
//! fitness would lose the strict `>` of [`replacement::try_replace`] anyway,
//! so it is rejected without its Gram, solve or residual pass. The skip is
//! exact, not a heuristic: the oracle, which fits every offspring, agrees bit
//! for bit.

use crate::bitset::MatchBitset;
use crate::config::EngineConfig;
use crate::dataset::{self, ColumnStore, ExampleSet};
use crate::error::EvoError;
use crate::population::{GeneBitsets, Individual, Population};
use crate::predict::coverage_fraction;
use crate::regress::{count_and_prediction, fit_via_bitset, rule_from_parts};
use crate::rule::{Condition, Gene, Rule};
use crate::{crossover, init, mutation, replacement, selection};
use evoforecast_linalg::regression::RegressionOptions;
use evoforecast_tsdata::window::WindowedDataset;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Counters exposed for telemetry and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Steady-state generations executed.
    pub generations: usize,
    /// Offspring that entered the population.
    pub replacements: usize,
    /// Individuals evaluated: the initial population plus every offspring,
    /// whether fitted or rejected on the bound.
    pub evaluations: usize,
    /// Offspring rejected on the fitness bound, without a regression.
    pub bound_rejections: usize,
}

/// One evolution run over an arbitrary example set. The paper's setting is
/// the windowed time series ([`Engine`]); the generic form also learns rules
/// on tabular regression data ([`crate::dataset::TabularExamples`]) — the
/// generalization the paper's conclusions point to.
#[derive(Debug)]
pub struct GenericEngine<E: ExampleSet> {
    config: EngineConfig,
    data: E,
    population: Population,
    /// Delta-evaluation state.
    delta: DeltaState,
    rng: ChaCha8Rng,
    stats: EngineStats,
}

/// State of the delta evaluation path: the columnar data view, one
/// [`GeneBitsets`] per population slot, and the offspring's buffers. The
/// offspring's gene bitsets are swapped into the victim's slot on
/// replacement instead of being reallocated; its full match set is scratch,
/// rebuilt by the next generation's AND. (The refit, when it runs, still
/// allocates; see [`GenericEngine::offspring_delta`].)
#[derive(Debug)]
struct DeltaState {
    columns: ColumnStore,
    /// `gene_sets[k]` = per-gene match bitsets of individual `k`.
    gene_sets: Vec<GeneBitsets>,
    /// Offspring gene sets under construction; swapped into `gene_sets` on
    /// replacement.
    scratch_genes: GeneBitsets,
    /// Offspring full match set: the AND of `scratch_genes`.
    scratch_full: MatchBitset,
    /// Crossover provenance (`true` = gene inherited from parent `a`).
    from_a: Vec<bool>,
    /// Ascending indices of the genes mutation rewrote this generation.
    mutated: Vec<usize>,
}

/// The paper's engine: evolution over a windowed time series.
pub type Engine<'a> = GenericEngine<WindowedDataset<'a>>;

impl<'a> GenericEngine<WindowedDataset<'a>> {
    /// Validate the configuration, window the training data, and build +
    /// evaluate the initial population.
    ///
    /// # Errors
    /// * [`EvoError::InvalidConfig`] from validation,
    /// * [`EvoError::Data`] when the series is too short for the window spec.
    pub fn new(config: EngineConfig, train: &'a [f64]) -> Result<Engine<'a>, EvoError> {
        config.validate()?;
        let data = config.window.dataset(train)?;
        Self::from_examples(config, data)
    }
}

impl<E: ExampleSet> GenericEngine<E> {
    /// Build from an already-constructed example set (windowed or tabular).
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] from validation.
    pub fn from_examples(config: EngineConfig, data: E) -> Result<GenericEngine<E>, EvoError> {
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let columns = ColumnStore::build(&data);

        let conditions = init::initialize(config.init, &data, config.population_size, &mut rng);
        let mut stats = EngineStats::default();
        let mut individuals = Vec::with_capacity(conditions.len());
        let mut gene_sets = Vec::with_capacity(conditions.len());
        let mut full = MatchBitset::new(data.len());
        for c in conditions {
            stats.evaluations += 1;
            let gs = build_gene_sets(&c, &data, &columns);
            gs.intersect_into(&mut full);
            individuals.push(evaluate(c, &full, &data, &config));
            gene_sets.push(gs);
        }

        let delta = DeltaState {
            columns,
            gene_sets,
            scratch_genes: GeneBitsets::new(data.feature_len(), data.len()),
            scratch_full: full,
            from_a: Vec::new(),
            mutated: Vec::new(),
        };
        Ok(GenericEngine {
            config,
            data,
            population: Population::new(individuals),
            delta,
            rng,
            stats,
        })
    }

    /// Run one steady-state generation. Returns whether the offspring
    /// entered the population.
    pub fn step(&mut self) -> bool {
        let (ia, ib) = selection::select_parents(
            &self.population,
            self.config.tournament_rounds,
            &mut self.rng,
        );
        let replaced = self.offspring_delta(ia, ib);
        self.stats.generations += 1;
        if replaced {
            self.stats.replacements += 1;
        }
        replaced
    }

    /// Delta offspring evaluation: tracked crossover copies per-gene bitsets
    /// from the donor parent, tracked mutation recomputes only the rewritten
    /// genes, and the full match set is a selectivity-ordered AND. The match
    /// count and the scalar prediction come straight from that set
    /// ([`count_and_prediction`], summed in the Gram's `Σy` order), which
    /// picks the victim. Only when the fitness bound of the match count
    /// strictly beats the victim's fitness are the Gram / `Xᵀy` rebuilt over
    /// the set bits through the standard chunk discipline, solved and scored;
    /// otherwise the offspring is rejected unfitted, exactly as the fitted
    /// comparison would reject it (see the module doc).
    ///
    /// The match-set buffers (per-gene bitsets and the full set) live in
    /// [`DeltaState`]; the gene bitsets are swapped — not cloned — into the
    /// victim's slot on replacement, so they are never reallocated. A refit
    /// still allocates: [`crate::parallel::accumulate_from_bitset`] makes one
    /// `NormalEqAccumulator` (three `Vec`s) per chunk, the `Vec` of chunk
    /// parts and one row-pack block per call (per worker when parallel), and
    /// the solve allocates its system matrix, factor and coefficients.
    fn offspring_delta(&mut self, ia: usize, ib: usize) -> bool {
        let DeltaState {
            columns,
            gene_sets,
            scratch_genes,
            scratch_full,
            from_a,
            mutated,
        } = &mut self.delta;

        let mut child = crossover::uniform_into(
            &self.population.get(ia).rule.condition,
            &self.population.get(ib).rule.condition,
            &mut self.rng,
            from_a,
        );
        mutation::mutate_into(
            &mut child,
            &self.config.mutation,
            self.config.value_range,
            &mut self.rng,
            mutated,
        );

        // Assemble the offspring's per-gene bitsets: rewritten genes are
        // recomputed, everything else is copied verbatim from whichever
        // parent donated the gene. `mutated` is ascending, so one forward
        // cursor suffices.
        let mut next_mutated = mutated.iter().copied().peekable();
        for (g, (&gene, &take_a)) in child.genes().iter().zip(from_a.iter()).enumerate() {
            if next_mutated.peek() == Some(&g) {
                next_mutated.next();
                match gene {
                    Gene::Wildcard => scratch_genes.set_wildcard(g),
                    Gene::Bounded { lo, hi } => {
                        refill_gene(scratch_genes, g, lo, hi, columns, &self.data)
                    }
                }
            } else {
                let donor = if take_a {
                    &gene_sets[ia]
                } else {
                    &gene_sets[ib]
                };
                scratch_genes.copy_gene_from(g, donor);
            }
        }
        scratch_genes.intersect_into(scratch_full);
        self.stats.evaluations += 1;

        // The victim depends only on the prediction, which the match set
        // alone fixes; no fitness can exceed the bound, so an offspring whose
        // bound does not strictly beat the victim is rejected unfitted.
        let (matched, prediction) = count_and_prediction(scratch_full, &self.data);
        let victim = replacement::choose_victim(
            self.config.replacement,
            &self.population,
            prediction,
            &mut self.rng,
        );
        let victim_fitness = self.population.get(victim).fitness;
        let could_win = self.config.fitness.upper_bound(matched) > victim_fitness;
        if !could_win {
            self.stats.bound_rejections += 1;
            return false;
        }

        let offspring = evaluate(child, scratch_full, &self.data, &self.config);
        debug_assert_eq!(offspring.rule.prediction.to_bits(), prediction.to_bits());
        let replaced = replacement::try_replace(&mut self.population, victim, offspring);
        if replaced {
            // The victim's slot takes the offspring's gene bitsets; the
            // scratch takes the victim's old ones, which the next generation
            // overwrites gene by gene.
            std::mem::swap(&mut gene_sets[victim], scratch_genes);
        }
        replaced
    }

    /// Run the configured number of generations and return the final rule
    /// set (a clone — the engine remains usable for further steps).
    pub fn run(&mut self) -> Vec<Rule> {
        for _ in 0..self.config.generations {
            self.step();
        }
        self.population.rules()
    }

    /// The current population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Telemetry counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The run's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Fraction of training examples matched by at least one *viable* rule,
    /// the measure the §3.4 ensemble stop condition applies to merged rule
    /// sets (the supervisor computes its own over those; nothing in the
    /// engine's loop reads this).
    ///
    /// Folds the viable rules' conditions over the training windows with
    /// the fold behind [`crate::RuleSetPredictor::coverage`], so each call
    /// costs a population sweep; no coverage state is kept between calls.
    pub fn training_coverage(&self) -> f64 {
        let viable = self
            .population
            .individuals()
            .iter()
            .filter(|ind| !self.config.fitness.is_unfit(ind.fitness))
            .map(|ind| &ind.rule);
        coverage_fraction(viable, &self.data)
    }

    /// The training windows matched by individual `k`'s condition: the AND
    /// of its per-gene bitsets.
    ///
    /// # Panics
    /// When `k` is out of population range.
    pub fn match_set(&self, k: usize) -> MatchBitset {
        let mut full = MatchBitset::new(self.data.len());
        self.delta.gene_sets[k].intersect_into(&mut full);
        full
    }
}

/// Derive a condition's predicting part over its known match set and score
/// it: the Gram / `Xᵀy` are rebuilt over the set bits through the standard
/// chunk discipline, solved by Cholesky (ridge-stabilized, LU fallback), and
/// only the matched rows are revisited for the max-residual `e_R`.
fn evaluate<E: ExampleSet>(
    condition: Condition,
    matched: &MatchBitset,
    data: &E,
    config: &EngineConfig,
) -> Individual {
    let opts = RegressionOptions::fast();
    let (count, model) = fit_via_bitset(matched, data, opts, config.parallel_threshold);
    let rule = rule_from_parts(condition, model, count);
    let fitness = config.fitness.fitness(rule.matched, rule.error);
    Individual { rule, fitness }
}

/// Recompute one bounded gene's bitset by the columnar sweep over position
/// `g`, which yields the exact [`Gene::accepts`] member set.
fn refill_gene<E: ExampleSet>(
    gene_sets: &mut GeneBitsets,
    g: usize,
    lo: f64,
    hi: f64,
    columns: &ColumnStore,
    data: &E,
) {
    gene_sets.recompute_with(g, |bits| {
        dataset::fill_gene_bitset(columns.column(data, g), lo, hi, bits)
    });
}

/// Build a condition's whole per-gene bitset family from scratch — the init
/// path; the steady-state loop never calls this.
fn build_gene_sets<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    columns: &ColumnStore,
) -> GeneBitsets {
    let mut gs = GeneBitsets::new(condition.len(), data.len());
    for (g, lo, hi) in condition.bounded() {
        refill_gene(&mut gs, g, lo, hi, columns, data);
    }
    gs
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_tsdata::gen::waves::{noisy_sine, sine};
    use evoforecast_tsdata::window::WindowSpec;

    fn engine_on(values: &[f64], generations: usize, seed: u64) -> Engine<'_> {
        let spec = WindowSpec::new(4, 1).unwrap();
        let config = EngineConfig::for_series(values, spec)
            .with_population(30)
            .with_generations(generations)
            .with_seed(seed);
        Engine::new(config, values).unwrap()
    }

    #[test]
    fn construction_validates_config_and_data() {
        let vals: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let spec = WindowSpec::new(4, 1).unwrap();
        let bad = EngineConfig::for_series(&vals, spec).with_population(1);
        assert!(matches!(
            Engine::new(bad, &vals),
            Err(EvoError::InvalidConfig(_))
        ));

        let short = [1.0, 2.0];
        let cfg = EngineConfig::for_series(&vals, spec);
        assert!(matches!(Engine::new(cfg, &short), Err(EvoError::Data(_))));
    }

    #[test]
    fn initial_population_is_full_and_evaluated() {
        let series = sine(300, 25.0, 1.0, 0.0, 0.0);
        let e = engine_on(series.values(), 0, 1);
        assert_eq!(e.population().len(), 30);
        assert_eq!(e.stats().evaluations, 30);
        // Binned init on a smooth series: most rules must be viable.
        let viable = e
            .population()
            .individuals()
            .iter()
            .filter(|ind| !e.config().fitness.is_unfit(ind.fitness))
            .count();
        assert!(viable > 15, "only {viable}/30 viable after init");
    }

    #[test]
    fn step_counts_and_replacement_bookkeeping() {
        let series = noisy_sine(400, 20.0, 1.0, 0.05, 3);
        let mut e = engine_on(series.values(), 0, 2);
        let mut replaced = 0;
        for _ in 0..200 {
            if e.step() {
                replaced += 1;
            }
        }
        let st = e.stats();
        assert_eq!(st.generations, 200);
        assert_eq!(st.replacements, replaced);
        assert_eq!(st.evaluations, 30 + 200);
    }

    #[test]
    fn evolution_does_not_regress_best_fitness() {
        // Steady state with strict acceptance: the best fitness is
        // non-decreasing... *except* the best individual itself can be
        // crowd-replaced by a fitter neighbor. Track max over population —
        // replacement only happens on strict improvement, so the population
        // max never decreases.
        let series = noisy_sine(500, 25.0, 1.0, 0.05, 5);
        let mut e = engine_on(series.values(), 0, 7);
        let best_of = |e: &Engine<'_>| {
            e.population()
                .best_index()
                .map(|i| e.population().get(i).fitness)
                .unwrap()
        };
        let mut prev = best_of(&e);
        for _ in 0..300 {
            e.step();
            let now = best_of(&e);
            assert!(now >= prev - 1e-9, "best fitness regressed {prev} -> {now}");
            prev = now;
        }
    }

    #[test]
    fn run_executes_configured_generations() {
        let series = sine(300, 25.0, 1.0, 0.0, 0.0);
        let mut e = engine_on(series.values(), 150, 4);
        let rules = e.run();
        assert_eq!(rules.len(), 30);
        assert_eq!(e.stats().generations, 150);
    }

    #[test]
    fn deterministic_given_seed() {
        let series = noisy_sine(400, 25.0, 1.0, 0.05, 9);
        let run = |seed: u64| {
            let mut e = engine_on(series.values(), 200, seed);
            e.run()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must reproduce the exact rule set");
        let c = run(12);
        assert_ne!(a, c, "different seeds should explore differently");
    }

    #[test]
    fn evolution_improves_noisy_series() {
        // On a noisy series the initial binned rules are imperfect (noise
        // inflates e_R past EMAX for broad rules), so evolution has room to
        // work: viable-rule count and training coverage must both grow.
        // (A *pure* sine is a ceiling case — init is already near-optimal
        // and crossover of distant zones mostly yields dead offspring, so
        // progress there needs the paper's 75k-generation budget.)
        let series = noisy_sine(400, 25.0, 1.0, 0.1, 7);
        let mut e = engine_on(series.values(), 0, 17);
        let viable = |e: &Engine<'_>| {
            e.population()
                .individuals()
                .iter()
                .filter(|ind| !e.config().fitness.is_unfit(ind.fitness))
                .count()
        };
        let viable_before = viable(&e);
        let cov_before = e.training_coverage();
        for _ in 0..2000 {
            e.step();
        }
        let viable_after = viable(&e);
        let cov_after = e.training_coverage();
        assert!(
            viable_after > viable_before,
            "viable rules: {viable_before} -> {viable_after}"
        );
        assert!(
            cov_after > cov_before,
            "coverage: {cov_before} -> {cov_after}"
        );
        assert!(e.stats().replacements > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn engine_never_panics_and_keeps_invariants(
                seed in 0u64..1000,
                n in 40usize..120,
                d in 1usize..5,
                tau in 1usize..3,
                pop in 2usize..12,
                per_gene in 0.0..1.0f64,
                steps in 0usize..60,
            ) {
                prop_assume!(n > d + tau + 5);
                let series = noisy_sine(n, 13.0, 1.0, 0.1, seed);
                let spec = WindowSpec::new(d, tau).unwrap();
                let mut config = EngineConfig::for_series(series.values(), spec)
                    .with_population(pop)
                    .with_seed(seed);
                config.mutation.per_gene_probability = per_gene;
                config.parallel_threshold = usize::MAX; // keep proptest cheap
                let mut engine = Engine::new(config, series.values()).unwrap();
                for _ in 0..steps {
                    engine.step();
                }
                let population = engine.population();
                // Invariants: size constant, every rule well-formed with the
                // right window length, finite parameters, fitness consistent
                // with the rule's (matched, error).
                prop_assert_eq!(population.len(), pop);
                for ind in population.individuals() {
                    prop_assert_eq!(ind.rule.window_len(), d);
                    prop_assert!(ind.rule.condition.genes().iter().all(|g| g.is_well_formed()));
                    prop_assert!(ind.rule.coefficients.iter().all(|c| c.is_finite()));
                    prop_assert!(ind.rule.intercept.is_finite());
                    let expected = engine
                        .config()
                        .fitness
                        .fitness(ind.rule.matched, ind.rule.error);
                    prop_assert_eq!(ind.fitness, expected);
                }
                let cov = engine.training_coverage();
                prop_assert!((0.0..=1.0).contains(&cov));
            }
        }
    }

    #[test]
    fn training_coverage_reasonable_after_binned_init() {
        let series = noisy_sine(400, 25.0, 1.0, 0.05, 23);
        let e = engine_on(series.values(), 0, 23);
        let cov = e.training_coverage();
        // Binned init covers every training window whose rule is viable;
        // a smooth noisy sine keeps most rules viable.
        assert!(cov > 0.5, "coverage after init only {cov}");
        assert!(cov <= 1.0);
    }
}
