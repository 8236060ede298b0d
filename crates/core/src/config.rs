//! Engine and ensemble configuration.

use crate::error::EvoError;
use crate::fitness::FitnessParams;
use crate::init::InitStrategy;
use crate::replacement::ReplacementStrategy;
use evoforecast_linalg::stats;
use evoforecast_tsdata::window::WindowSpec;
use serde::{Deserialize, Serialize};

/// Mutation operator parameters (§3.1: "enlargement, shrink or moving up or
/// down the interval").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MutationConfig {
    /// Probability that each gene of an offspring mutates.
    pub per_gene_probability: f64,
    /// Mutation step as a fraction of the series value range: an interval
    /// endpoint moves by up to this fraction of the range.
    pub step_fraction: f64,
    /// Probability that a mutating bounded gene becomes a wildcard.
    pub to_wildcard_probability: f64,
    /// Probability that a mutating wildcard becomes a bounded interval.
    pub from_wildcard_probability: f64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            per_gene_probability: 0.08,
            step_fraction: 0.1,
            to_wildcard_probability: 0.05,
            from_wildcard_probability: 0.25,
        }
    }
}

impl MutationConfig {
    /// Validate probabilities and fractions.
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] when any value is out of range.
    pub fn validate(&self) -> Result<(), EvoError> {
        let probs = [
            ("per_gene_probability", self.per_gene_probability),
            ("to_wildcard_probability", self.to_wildcard_probability),
            ("from_wildcard_probability", self.from_wildcard_probability),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(EvoError::InvalidConfig(format!(
                    "{name} = {p} must be in [0, 1]"
                )));
            }
        }
        if !(self.step_fraction > 0.0 && self.step_fraction.is_finite()) {
            return Err(EvoError::InvalidConfig(format!(
                "step_fraction = {} must be positive",
                self.step_fraction
            )));
        }
        Ok(())
    }
}

/// Full configuration of one steady-state evolution run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Window length `D` and horizon `τ`.
    pub window: WindowSpec,
    /// Population size (also the number of initializer bins).
    pub population_size: usize,
    /// Steady-state generations (one offspring each).
    pub generations: usize,
    /// Fitness parameters (`EMAX`, `f_min`).
    pub fitness: FitnessParams,
    /// Mutation parameters.
    pub mutation: MutationConfig,
    /// Tournament rounds for parent selection (paper: 3).
    pub tournament_rounds: usize,
    /// How offspring replace population members (paper: crowding).
    pub replacement: ReplacementStrategy,
    /// Population initialization (paper: output-range binning).
    pub init: InitStrategy,
    /// RNG seed (every run is deterministic given its seed).
    pub seed: u64,
    /// Value range `(lo, hi)` of the training series; drives interval
    /// mutation steps and the initializer bins.
    pub value_range: (f64, f64),
    /// Evaluate offspring in parallel with rayon when the training dataset
    /// has at least this many windows; `usize::MAX` disables parallelism.
    pub parallel_threshold: usize,
}

impl EngineConfig {
    /// Sensible defaults derived from a training series: population 100,
    /// `EMAX` = 15 % of the series range, crowding replacement, 3-round
    /// tournaments.
    ///
    /// # Panics
    /// Panics on an empty training slice (experiment-setup error).
    pub fn for_series(train: &[f64], window: WindowSpec) -> EngineConfig {
        // audit: allow(panic-freedom) — documented `# Panics` contract, pinned by a test; empty training data is a setup bug
        let (lo, hi) = stats::min_max(train).expect("training series must be non-empty");
        let range = (hi - lo).max(f64::MIN_POSITIVE);
        EngineConfig {
            window,
            population_size: 100,
            generations: 10_000,
            fitness: FitnessParams::relative(range, 0.15),
            mutation: MutationConfig::default(),
            tournament_rounds: 3,
            replacement: ReplacementStrategy::Crowding,
            init: InitStrategy::Binned,
            seed: 0x5EED,
            value_range: (lo, hi),
            parallel_threshold: 8_192,
        }
    }

    /// Defaults for a *tabular* example set (the paper's "other machine
    /// learning domains" generalization): `EMAX` is sized from the target
    /// range, mutation steps from the feature range. The window spec is a
    /// placeholder recording the feature dimensionality — tabular engines
    /// are built with [`crate::engine::GenericEngine::from_examples`], which
    /// never windows anything.
    pub fn for_examples(examples: &crate::dataset::TabularExamples) -> EngineConfig {
        use crate::dataset::ExampleSet as _;
        let (t_lo, t_hi) = examples.target_range();
        let t_range = (t_hi - t_lo).max(f64::MIN_POSITIVE);
        let value_range = examples.feature_range();
        EngineConfig {
            window: WindowSpec::new(examples.feature_len(), 1)
                // audit: allow(panic-freedom) — TabularExamples construction rejects feature_len == 0
                .expect("feature_len >= 1 by TabularExamples construction"),
            population_size: 100,
            generations: 10_000,
            fitness: FitnessParams::relative(t_range, 0.15),
            mutation: MutationConfig::default(),
            tournament_rounds: 3,
            replacement: ReplacementStrategy::Crowding,
            init: InitStrategy::Binned,
            seed: 0x5EED,
            value_range,
            parallel_threshold: 8_192,
        }
    }

    /// Builder-style: set the generation count.
    pub fn with_generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Builder-style: set the population size.
    pub fn with_population(mut self, population_size: usize) -> Self {
        self.population_size = population_size;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set `EMAX` directly (target units).
    pub fn with_emax(mut self, emax: f64) -> Self {
        self.fitness = FitnessParams::new(emax);
        self
    }

    /// Builder-style: set the replacement strategy.
    pub fn with_replacement(mut self, replacement: ReplacementStrategy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Builder-style: set the initialization strategy.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Validate the whole configuration.
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] describing the first problem found.
    pub fn validate(&self) -> Result<(), EvoError> {
        if self.population_size < 2 {
            return Err(EvoError::InvalidConfig(format!(
                "population_size = {} must be >= 2",
                self.population_size
            )));
        }
        if self.tournament_rounds == 0 {
            return Err(EvoError::InvalidConfig(
                "tournament_rounds must be >= 1".into(),
            ));
        }
        if !(self.fitness.emax > 0.0 && self.fitness.emax.is_finite()) {
            return Err(EvoError::InvalidConfig(format!(
                "EMAX = {} must be positive and finite",
                self.fitness.emax
            )));
        }
        if self.value_range.0 >= self.value_range.1 {
            return Err(EvoError::InvalidConfig(format!(
                "value_range {:?} is empty",
                self.value_range
            )));
        }
        self.mutation.validate()
    }

    /// Width of the training value range.
    pub fn range_width(&self) -> f64 {
        self.value_range.1 - self.value_range.0
    }
}

/// Configuration of a multi-execution ensemble (§3.4: runs accumulate until
/// the rule set covers enough of the prediction space).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Per-run engine configuration; run `k` uses `seed + k`.
    pub engine: EngineConfig,
    /// Maximum number of executions.
    pub max_executions: usize,
    /// Stop once the accumulated rules cover at least this fraction of the
    /// *training* windows (`0.0 ..= 1.0`).
    pub coverage_target: f64,
}

impl EnsembleConfig {
    /// Wrap an engine config with default ensemble settings: up to 5
    /// executions, 98 % coverage target.
    pub fn new(engine: EngineConfig) -> EnsembleConfig {
        EnsembleConfig {
            engine,
            max_executions: 5,
            coverage_target: 0.98,
        }
    }

    /// Builder-style: set the execution cap.
    pub fn with_max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// Builder-style: set the coverage target.
    pub fn with_coverage_target(mut self, target: f64) -> Self {
        self.coverage_target = target;
        self
    }

    /// Fingerprint of this configuration: FNV-1a over the canonical JSON
    /// rendering. Stored in checkpoints so a resume refuses to continue a
    /// campaign under a different configuration (which would silently break
    /// the bit-identical-resume guarantee).
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self)
            // audit: allow(panic-freedom) — EnsembleConfig is plain data; serialization cannot fail
            .expect("EnsembleConfig serializes: all fields are plain data");
        crate::checkpoint::fingerprint_json(&json)
    }

    /// Validate.
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] when the cap is zero or the target is
    /// outside `[0, 1]`, plus any engine-config problem.
    pub fn validate(&self) -> Result<(), EvoError> {
        if self.max_executions == 0 {
            return Err(EvoError::InvalidConfig(
                "max_executions must be >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.coverage_target) {
            return Err(EvoError::InvalidConfig(format!(
                "coverage_target = {} must be in [0, 1]",
                self.coverage_target
            )));
        }
        self.engine.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WindowSpec {
        WindowSpec::new(4, 1).unwrap()
    }

    fn train() -> Vec<f64> {
        (0..100).map(|i| (i as f64 * 0.3).sin() * 10.0).collect()
    }

    #[test]
    fn for_series_derives_range_and_emax() {
        let cfg = EngineConfig::for_series(&train(), spec());
        let (lo, hi) = cfg.value_range;
        assert!(lo < hi);
        assert!((cfg.fitness.emax - (hi - lo) * 0.15).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = EngineConfig::for_series(&train(), spec())
            .with_generations(123)
            .with_population(7)
            .with_seed(99)
            .with_emax(2.5)
            .with_replacement(ReplacementStrategy::ReplaceWorst);
        assert_eq!(cfg.generations, 123);
        assert_eq!(cfg.population_size, 7);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.fitness.emax, 2.5);
        assert_eq!(cfg.replacement, ReplacementStrategy::ReplaceWorst);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = EngineConfig::for_series(&train(), spec());

        let mut c = base.clone();
        c.population_size = 1;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.tournament_rounds = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.fitness.emax = 0.0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.value_range = (1.0, 1.0);
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.mutation.per_gene_probability = 1.5;
        assert!(c.validate().is_err());

        let mut c = base;
        c.mutation.step_fraction = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mutation_config_validation() {
        assert!(MutationConfig::default().validate().is_ok());
        let bad = MutationConfig {
            to_wildcard_probability: -0.1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = MutationConfig {
            from_wildcard_probability: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn for_series_empty_panics() {
        EngineConfig::for_series(&[], spec());
    }

    #[test]
    fn for_examples_sizes_from_tabular_data() {
        use crate::dataset::TabularExamples;
        use evoforecast_linalg::Matrix;
        let features = Matrix::from_rows(&[&[0.0, 5.0], &[10.0, -5.0], &[2.0, 2.0]]);
        let examples = TabularExamples::new(features, vec![100.0, 200.0, 150.0]).unwrap();
        let cfg = EngineConfig::for_examples(&examples);
        assert_eq!(cfg.window.window(), 2);
        // EMAX from target range (100), mutation range from features (-5..10).
        assert!((cfg.fitness.emax - 100.0 * 0.15).abs() < 1e-12);
        assert_eq!(cfg.value_range, (-5.0, 10.0));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn ensemble_config_validation() {
        let e = EnsembleConfig::new(EngineConfig::for_series(&train(), spec()));
        assert!(e.validate().is_ok());
        assert!(e.clone().with_max_executions(0).validate().is_err());
        assert!(e.clone().with_coverage_target(1.5).validate().is_err());
        assert!(e.with_coverage_target(-0.1).validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let mut cfg = EngineConfig::for_series(&train(), spec());
        // Round numbers so the JSON text round-trips bit-exactly (floats can
        // lose an ULP through the decimal representation).
        cfg.value_range = (-10.0, 10.0);
        cfg.fitness = crate::fitness::FitnessParams::new(3.0);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);

        let e = EnsembleConfig::new(back);
        let json = serde_json::to_string(&e).unwrap();
        let back: EnsembleConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let e = EnsembleConfig::new(EngineConfig::for_series(&train(), spec()));
        assert_eq!(e.fingerprint(), e.clone().fingerprint());
        assert_ne!(
            e.fingerprint(),
            e.clone().with_max_executions(9).fingerprint()
        );
        let mut reseeded = e.clone();
        reseeded.engine.seed ^= 1;
        assert_ne!(e.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    fn range_width() {
        let mut cfg = EngineConfig::for_series(&train(), spec());
        cfg.value_range = (-50.0, 150.0);
        assert_eq!(cfg.range_width(), 200.0);
    }
}
