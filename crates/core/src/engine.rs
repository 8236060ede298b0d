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
//! bitsets, mutation recomputes only the mutated genes (sorted-projection
//! range query or columnar sweep), and the full match set is a
//! selectivity-ordered word-wise AND. Results are bit-identical to matching
//! every window against the whole condition
//! ([`crate::parallel::match_and_accumulate`], kept as the test reference).

use crate::bitset::MatchBitset;
use crate::config::EngineConfig;
use crate::dataset::{self, ColumnStore, ExampleSet};
use crate::error::EvoError;
use crate::matchindex::MatchIndex;
use crate::population::{GeneBitsets, Individual, Population};
use crate::regress::{fit_via_bitset, rule_from_parts};
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
    /// Full offspring evaluations performed (match + regression).
    pub evaluations: usize,
}

/// Early-stopping conditions for [`GenericEngine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopConditions {
    /// Hard generation cap (always enforced).
    pub max_generations: usize,
    /// Stop once training coverage (viable rules) reaches this fraction;
    /// checked every [`StopConditions::check_every`] generations. The check
    /// itself is `O(1)` (incremental coverage counters), the cadence just
    /// bounds how far past the target a run can drift.
    pub target_coverage: Option<f64>,
    /// Stop after this many consecutive generations without a replacement —
    /// the steady-state loop has stagnated.
    pub stagnation_window: Option<usize>,
    /// Coverage-check cadence in generations.
    pub check_every: usize,
    /// Stop once this instant passes (checked after every generation). A
    /// wall-clock guard for interactive runs; note that unlike the other
    /// conditions it makes the stopping point machine-dependent, so
    /// deterministic pipelines (the ensemble supervisor) budget in
    /// *generations* instead and only consult the clock between executions.
    pub deadline: Option<std::time::Instant>,
}

impl StopConditions {
    /// Only the generation cap.
    pub fn generations(max_generations: usize) -> StopConditions {
        StopConditions {
            max_generations,
            target_coverage: None,
            stagnation_window: None,
            check_every: 500,
            deadline: None,
        }
    }

    /// Builder-style coverage target.
    pub fn with_target_coverage(mut self, target: f64) -> Self {
        self.target_coverage = Some(target);
        self
    }

    /// Builder-style stagnation window.
    pub fn with_stagnation_window(mut self, window: usize) -> Self {
        self.stagnation_window = Some(window);
        self
    }

    /// Builder-style wall-clock deadline, as a duration from now.
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> Self {
        // audit: allow(determinism) — explicit opt-in stop condition; affects only when evolution stops, never what it computes
        self.deadline = Some(std::time::Instant::now() + budget);
        self
    }
}

/// Why [`GenericEngine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The generation cap was reached.
    MaxGenerations,
    /// The training-coverage target was met.
    CoverageReached,
    /// No replacement for the configured window of generations.
    Stagnated,
    /// The wall-clock deadline passed.
    DeadlineExpired,
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
    /// `match_sets[k]` = training windows matched by individual `k`'s
    /// condition, kept in lockstep with the population by [`Self::step`].
    match_sets: Vec<MatchBitset>,
    /// Per-window count of *viable* rules matching it (the coverage
    /// denominator is `data.len()`). Updated incrementally on replacement.
    viable_counts: Vec<u32>,
    /// Number of windows with `viable_counts > 0` — the coverage numerator,
    /// maintained so [`Self::training_coverage`] is `O(1)`.
    covered: usize,
    /// Delta-evaluation state.
    delta: DeltaState,
    rng: ChaCha8Rng,
    stats: EngineStats,
}

/// State of the delta evaluation path: the columnar and sorted-projection
/// data views, one [`GeneBitsets`] per population slot (lockstep with `match_sets`), and the
/// offspring's match-set buffers, which are swapped into a population slot
/// on replacement instead of being reallocated. (The refit still allocates
/// every generation; see [`GenericEngine::offspring_delta`].)
#[derive(Debug)]
struct DeltaState {
    columns: ColumnStore,
    index: MatchIndex,
    /// `gene_sets[k]` = per-gene match bitsets of individual `k`.
    gene_sets: Vec<GeneBitsets>,
    /// Offspring gene sets under construction; swapped into `gene_sets` on
    /// replacement.
    scratch_genes: GeneBitsets,
    /// Offspring full match set; swapped into the engine's `match_sets` on
    /// replacement.
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
        let index = MatchIndex::build(&data);
        let columns = ColumnStore::build(&data);

        let conditions = init::initialize(config.init, &data, config.population_size, &mut rng);
        let mut stats = EngineStats::default();
        let mut individuals = Vec::with_capacity(conditions.len());
        let mut match_sets = Vec::with_capacity(conditions.len());
        let mut gene_sets = Vec::with_capacity(conditions.len());
        for c in conditions {
            stats.evaluations += 1;
            let gs = build_gene_sets(&c, &data, &columns, &index);
            let mut full = MatchBitset::new(data.len());
            gs.intersect_into(&mut full);
            individuals.push(evaluate(c, &full, &data, &config));
            match_sets.push(full);
            gene_sets.push(gs);
        }

        let mut viable_counts = vec![0u32; data.len()];
        let mut covered = 0usize;
        for (ind, bits) in individuals.iter().zip(&match_sets) {
            if !config.fitness.is_unfit(ind.fitness) {
                add_coverage(&mut viable_counts, &mut covered, bits);
            }
        }

        let delta = DeltaState {
            columns,
            index,
            gene_sets,
            scratch_genes: GeneBitsets::new(data.feature_len(), data.len()),
            scratch_full: MatchBitset::new(data.len()),
            from_a: Vec::new(),
            mutated: Vec::new(),
        };
        Ok(GenericEngine {
            config,
            data,
            population: Population::new(individuals),
            match_sets,
            viable_counts,
            covered,
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
    /// genes, the full match set is a selectivity-ordered AND, and the Gram /
    /// `Xᵀy` are rebuilt over the resulting set bits through the standard
    /// chunk discipline. The match-set buffers (per-gene bitsets and the
    /// full set) live in [`DeltaState`] and are swapped — not cloned — into
    /// the population slots on replacement, so they are never reallocated.
    /// The refit still allocates every generation:
    /// [`crate::parallel::accumulate_from_bitset`] makes one
    /// `NormalEqAccumulator` (three `Vec`s) per chunk, the `Vec` of chunk
    /// parts and one row-pack block per call (per worker when parallel), and
    /// the solve allocates its system matrix, factor and coefficients.
    fn offspring_delta(&mut self, ia: usize, ib: usize) -> bool {
        let DeltaState {
            columns,
            index,
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
                        refill_gene(scratch_genes, g, lo, hi, columns, &self.data, index)
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

        let offspring = evaluate(child, scratch_full, &self.data, &self.config);
        self.stats.evaluations += 1;

        let victim = replacement::choose_victim(
            self.config.replacement,
            &self.population,
            offspring.rule.prediction,
            &mut self.rng,
        );
        let victim_viable = !self
            .config
            .fitness
            .is_unfit(self.population.get(victim).fitness);
        let offspring_viable = !self.config.fitness.is_unfit(offspring.fitness);
        let replaced = replacement::try_replace(&mut self.population, victim, offspring);

        if replaced {
            // Swap scratch into the victim's slots: the stored slots now hold
            // the offspring's sets, the scratch holds the victim's old ones —
            // exactly what the coverage withdrawal below needs, and next
            // generation overwrites every scratch gene anyway.
            std::mem::swap(&mut self.match_sets[victim], scratch_full);
            std::mem::swap(&mut gene_sets[victim], scratch_genes);
            if victim_viable {
                remove_coverage(&mut self.viable_counts, &mut self.covered, scratch_full);
            }
            if offspring_viable {
                add_coverage(
                    &mut self.viable_counts,
                    &mut self.covered,
                    &self.match_sets[victim],
                );
            }
        }
        replaced
    }

    /// Run the configured number of generations and return the final rule
    /// set (a clone — the engine remains usable for further steps).
    pub fn run(&mut self) -> Vec<Rule> {
        self.run_until(StopConditions::generations(self.config.generations))
            .0
    }

    /// Run until an early-stop condition fires or the generation cap is
    /// reached; returns the rule set and the reason. Unlike
    /// [`GenericEngine::run`], this does not consult `config.generations`.
    pub fn run_until(&mut self, stop: StopConditions) -> (Vec<Rule>, StopReason) {
        let check_every = stop.check_every.max(1);
        let mut since_replacement = 0usize;
        for g in 0..stop.max_generations {
            if self.step() {
                since_replacement = 0;
            } else {
                since_replacement += 1;
            }
            if let Some(window) = stop.stagnation_window {
                if since_replacement >= window {
                    return (self.population.rules(), StopReason::Stagnated);
                }
            }
            if let Some(target) = stop.target_coverage {
                if (g + 1) % check_every == 0 && self.training_coverage() >= target {
                    return (self.population.rules(), StopReason::CoverageReached);
                }
            }
            if let Some(deadline) = stop.deadline {
                // audit: allow(determinism) — deadline stop condition the caller opted into via with_time_budget
                if std::time::Instant::now() >= deadline {
                    return (self.population.rules(), StopReason::DeadlineExpired);
                }
            }
        }
        (self.population.rules(), StopReason::MaxGenerations)
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

    /// Fraction of training examples matched by at least one *viable* rule
    /// (the coverage measure the ensemble stop-condition uses).
    ///
    /// `O(1)`: the engine maintains per-window viable-match counts
    /// incrementally on every crowding replacement, so this is a single
    /// division, not a population sweep.
    pub fn training_coverage(&self) -> f64 {
        let n = self.data.len();
        if n == 0 {
            return 0.0;
        }
        self.covered as f64 / n as f64
    }

    /// Reference implementation of [`Self::training_coverage`]: a full
    /// `O(n · population)` sweep re-testing every window against every viable
    /// condition. The viable-rule prefilter is hoisted out of the per-window
    /// loop so unfit individuals cost nothing per window. Kept public for
    /// tests and diagnostics; the incremental counter must always agree.
    pub fn training_coverage_scan(&self) -> f64 {
        let n = self.data.len();
        if n == 0 {
            return 0.0;
        }
        let viable: Vec<&Condition> = self
            .population
            .individuals()
            .iter()
            .filter(|ind| !self.config.fitness.is_unfit(ind.fitness))
            .map(|ind| &ind.rule.condition)
            .collect();
        if viable.is_empty() {
            return 0.0;
        }
        let covered = (0..n)
            .filter(|&i| {
                let w = self.data.features(i);
                viable.iter().any(|c| c.matches(w))
            })
            .count();
        covered as f64 / n as f64
    }

    /// The training windows matched by individual `k`'s condition.
    ///
    /// # Panics
    /// When `k` is out of population range.
    pub fn match_set(&self, k: usize) -> &MatchBitset {
        &self.match_sets[k]
    }
}

/// Count window `i` as covered by one more viable rule.
fn add_coverage(counts: &mut [u32], covered: &mut usize, bits: &MatchBitset) {
    for i in bits.iter_ones() {
        counts[i] += 1;
        if counts[i] == 1 {
            *covered += 1;
        }
    }
}

/// Withdraw a viable rule's matches from the per-window counts.
fn remove_coverage(counts: &mut [u32], covered: &mut usize, bits: &MatchBitset) {
    for i in bits.iter_ones() {
        counts[i] -= 1;
        if counts[i] == 0 {
            *covered -= 1;
        }
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

/// Recompute one bounded gene's bitset. The gene's measured selectivity
/// picks the route: intervals admitting under
/// [`crate::matchindex::SCAN_FRACTION`] of the windows go through the
/// sorted-projection range query (`O(log N + K)`), broader ones through the
/// cache-friendly columnar sweep (`O(N)`). Both produce the exact
/// [`Gene::accepts`] member set.
fn refill_gene<E: ExampleSet>(
    gene_sets: &mut GeneBitsets,
    g: usize,
    lo: f64,
    hi: f64,
    columns: &ColumnStore,
    data: &E,
    index: &MatchIndex,
) {
    gene_sets.recompute_with(g, |bits| {
        if !index.fill_gene_bitset(g, lo, hi, bits) {
            dataset::fill_gene_bitset(columns.column(data, g), lo, hi, bits);
        }
    });
}

/// Build a condition's whole per-gene bitset family from scratch — the init
/// path; the steady-state loop never calls this.
fn build_gene_sets<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    columns: &ColumnStore,
    index: &MatchIndex,
) -> GeneBitsets {
    let mut gs = GeneBitsets::new(condition.len(), data.len());
    for (g, lo, hi) in condition.bounded() {
        refill_gene(&mut gs, g, lo, hi, columns, data, index);
    }
    gs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;
    use crate::regress::fit_from_accumulator;
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
    fn delta_all_wildcard_condition_matches_everything() {
        // Edge case: a condition of only wildcards has no per-gene bitset at
        // all; the AND must yield the full universe and the fit must agree
        // with the from-scratch fused kernel.
        let series = noisy_sine(500, 25.0, 1.0, 0.05, 61);
        let spec = WindowSpec::new(4, 1).unwrap();
        let ds = spec.dataset(series.values()).unwrap();
        let cond = Condition::all_wildcards(4);
        let columns = ColumnStore::build(&ds);
        let gs = build_gene_sets(&cond, &ds, &columns, &MatchIndex::build(&ds));
        let mut full = MatchBitset::new(ExampleSet::len(&ds));
        gs.intersect_into(&mut full);
        assert!(full.all_set(), "all-wildcard must match every window");

        let opts = RegressionOptions::fast();
        let (count, model) = fit_via_bitset(&full, &ds, opts, usize::MAX);
        let (scan_bits, acc) = parallel::match_and_accumulate(&cond, &ds, opts, usize::MAX);
        assert_eq!(full, scan_bits);
        assert_eq!(count, acc.count());
        let reference = fit_from_accumulator(&acc, &scan_bits, &ds, opts).unwrap();
        let model = model.unwrap();
        assert_eq!(model.intercept.to_bits(), reference.intercept.to_bits());
        assert_eq!(model.error.to_bits(), reference.error.to_bits());
    }

    #[test]
    fn parallel_threshold_does_not_change_results() {
        for (data_seed, engine_seed) in [(13, 21), (19, 29)] {
            let series = noisy_sine(600, 25.0, 1.0, 0.05, data_seed);
            let spec = WindowSpec::new(4, 1).unwrap();
            let base = EngineConfig::for_series(series.values(), spec)
                .with_population(20)
                .with_generations(100)
                .with_seed(engine_seed);
            let mut seq_cfg = base.clone();
            seq_cfg.parallel_threshold = usize::MAX;
            let mut par_cfg = base;
            par_cfg.parallel_threshold = 1;

            let seq_rules = Engine::new(seq_cfg, series.values()).unwrap().run();
            let par_rules = Engine::new(par_cfg, series.values()).unwrap().run();
            assert_eq!(seq_rules, par_rules, "data seed {data_seed}");
        }
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

    #[test]
    fn run_until_respects_generation_cap() {
        let series = noisy_sine(300, 25.0, 1.0, 0.05, 31);
        let mut e = engine_on(series.values(), 0, 31);
        let (rules, reason) = e.run_until(StopConditions::generations(50));
        assert_eq!(reason, StopReason::MaxGenerations);
        assert_eq!(e.stats().generations, 50);
        assert_eq!(rules.len(), 30);
    }

    #[test]
    fn run_until_stops_on_trivial_coverage_target() {
        let series = noisy_sine(300, 25.0, 1.0, 0.05, 33);
        let mut e = engine_on(series.values(), 0, 33);
        let stop = StopConditions {
            max_generations: 10_000,
            target_coverage: Some(0.01),
            stagnation_window: None,
            check_every: 10,
            deadline: None,
        };
        let (_, reason) = e.run_until(stop);
        assert_eq!(reason, StopReason::CoverageReached);
        assert!(e.stats().generations <= 10);
    }

    #[test]
    fn run_until_respects_expired_deadline() {
        let series = noisy_sine(300, 25.0, 1.0, 0.05, 37);
        let mut e = engine_on(series.values(), 0, 37);
        // A deadline already in the past: the run must stop after the very
        // first generation with DeadlineExpired, not grind through the cap.
        let stop = StopConditions::generations(1_000_000)
            .with_time_budget(std::time::Duration::from_secs(0));
        let (rules, reason) = e.run_until(stop);
        assert_eq!(reason, StopReason::DeadlineExpired);
        assert_eq!(e.stats().generations, 1);
        assert_eq!(rules.len(), 30);
    }

    #[test]
    fn run_until_detects_stagnation() {
        // A pure sine with already-near-optimal init stagnates quickly (the
        // ceiling case documented in evolution_improves_noisy_series).
        let series = sine(300, 25.0, 1.0, 0.0, 0.0);
        let mut e = engine_on(series.values(), 0, 35);
        let stop = StopConditions::generations(50_000).with_stagnation_window(200);
        let (_, reason) = e.run_until(stop);
        assert_eq!(reason, StopReason::Stagnated);
        assert!(
            e.stats().generations < 50_000,
            "stagnation should fire well before the cap"
        );
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn delta_single_gene_mutation_matches_from_scratch(
                seed in 0u64..500,
                n in 40usize..260,
                d in 2usize..6,
                lo_frac in 0.0..1.0f64,
                width in 0.05..1.2f64,
                wild_mask in 0u8..32,
                mutate_gene_sel in 0usize..8,
                to_wildcard_sel in 0u8..2,
                new_lo_frac in 0.0..1.0f64,
                new_width in 0.05..1.0f64,
                threshold_sel in 0usize..2,
                use_index_sel in 0u8..2,
            ) {
                prop_assume!(n > d + 6);
                // threshold 1 exercises the rayon accumulation, MAX the
                // sequential one — both must agree with the fused scan.
                let threshold = [1usize, usize::MAX][threshold_sel];
                let series = noisy_sine(n, 11.0, 1.0, 0.15, seed);
                let ds = WindowSpec::new(d, 1).unwrap().dataset(series.values()).unwrap();
                let nwin = ExampleSet::len(&ds);
                let (min, max) = series
                    .values()
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                        (a.min(v), b.max(v))
                    });
                let span = max - min;
                let genes: Vec<Gene> = (0..d)
                    .map(|g| {
                        if wild_mask & (1 << g) != 0 {
                            Gene::Wildcard
                        } else {
                            let lo = min + lo_frac * span * 0.8;
                            Gene::bounded(lo, lo + width * span)
                        }
                    })
                    .collect();
                let cond = Condition::new(genes);

                // use_index_sel 1 refills through the engine's route (range
                // query when the gene is selective), 0 through the column
                // sweep alone.
                let columns = ColumnStore::build(&ds);
                let index = MatchIndex::build(&ds);
                let refill = |gs: &mut GeneBitsets, g: usize, lo: f64, hi: f64| {
                    if use_index_sel == 1 {
                        refill_gene(gs, g, lo, hi, &columns, &ds, &index);
                    } else {
                        gs.recompute_with(g, |bits| {
                            dataset::fill_gene_bitset(columns.column(&ds, g), lo, hi, bits)
                        });
                    }
                };
                let mut gs = GeneBitsets::new(d, nwin);
                for (g, lo, hi) in cond.bounded() {
                    refill(&mut gs, g, lo, hi);
                }

                // One-gene mutation, delta-maintained: only the touched
                // gene's bitset changes.
                let g = mutate_gene_sel % d;
                let mut child = cond;
                let new_gene = if to_wildcard_sel == 1 {
                    Gene::Wildcard
                } else {
                    let lo = min + new_lo_frac * span * 0.8;
                    Gene::bounded(lo, lo + new_width * span)
                };
                child.genes_mut()[g] = new_gene;
                match new_gene {
                    Gene::Wildcard => gs.set_wildcard(g),
                    Gene::Bounded { lo, hi } => refill(&mut gs, g, lo, hi),
                }
                let mut full = MatchBitset::new(nwin);
                gs.intersect_into(&mut full);
                let opts = RegressionOptions::fast();
                let (count, delta_model) = fit_via_bitset(&full, &ds, opts, threshold);

                // From-scratch fused evaluation of the mutated condition.
                let (scan_bits, acc) = parallel::match_and_accumulate(&child, &ds, opts, threshold);
                prop_assert_eq!(&full, &scan_bits, "match sets differ");
                prop_assert_eq!(count, acc.count());
                let scratch_model = fit_from_accumulator(&acc, &scan_bits, &ds, opts);
                match (delta_model, scratch_model) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.coefficients.len(), b.coefficients.len());
                        for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
                            prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "coefficients must be bit-identical");
                        }
                        prop_assert_eq!(a.intercept.to_bits(), b.intercept.to_bits());
                        prop_assert!((a.error - b.error).abs() <= 1e-9,
                            "e_R drift {} vs {}", a.error, b.error);
                    }
                    (a, b) => prop_assert!(false,
                        "fittability disagreement {:?} vs {:?}", a, b),
                }
            }
        }
    }

    #[test]
    fn incremental_coverage_always_equals_full_scan() {
        // The O(1) counter must track the reference sweep exactly through
        // hundreds of crowding replacements.
        let series = noisy_sine(500, 25.0, 1.0, 0.1, 47);
        let mut e = engine_on(series.values(), 0, 47);
        assert_eq!(
            e.training_coverage().to_bits(),
            e.training_coverage_scan().to_bits(),
            "coverage disagrees right after init"
        );
        for g in 0..600 {
            e.step();
            if g % 25 == 0 {
                assert_eq!(
                    e.training_coverage().to_bits(),
                    e.training_coverage_scan().to_bits(),
                    "coverage drifted at generation {g}"
                );
            }
        }
        assert_eq!(
            e.training_coverage().to_bits(),
            e.training_coverage_scan().to_bits()
        );
        assert!(
            e.stats().replacements > 0,
            "test never exercised the update"
        );
    }

    #[test]
    fn match_sets_stay_in_lockstep_with_population() {
        let series = noisy_sine(400, 25.0, 1.0, 0.08, 53);
        let mut e = engine_on(series.values(), 0, 53);
        for _ in 0..300 {
            e.step();
        }
        for k in 0..e.population().len() {
            let ind = e.population().get(k);
            let bits = e.match_set(k);
            let expected =
                parallel::match_bitset(&ind.rule.condition, &e.data, e.config().parallel_threshold);
            assert_eq!(bits, &expected, "stale match set for individual {k}");
            assert_eq!(bits.count_ones(), ind.rule.matched);
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
