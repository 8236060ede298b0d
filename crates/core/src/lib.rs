//! Michigan-style evolutionary rule system for local time-series forecasting.
//!
//! Reproduction of *"Time Series Forecasting by means of Evolutionary
//! Algorithms"* (Luque, Valls & Isasi, IPPS 2007). Each individual in the
//! population is a **prediction rule**:
//!
//! ```text
//! IF  (50 < y1 < 100) AND (40 < y2 < 90) AND ... AND (1 < y5 < 100)
//! THEN prediction = 33 ± 3
//! ```
//!
//! and the *whole population* — not the single best individual — is the
//! forecasting system (the Michigan approach). Rules are local: each one
//! fires only on windows matching its interval condition; its predicting
//! part is *derived*, not evolved, by ordinary least squares over exactly
//! those windows, and its expected error is the maximum absolute residual of
//! that fit. Evolution is steady state with 3-round tournament selection,
//! uniform interval crossover, interval mutation (enlarge / shrink / shift),
//! and crowding replacement of the phenotypically nearest individual.
//!
//! # Quickstart
//!
//! ```
//! use evoforecast_core::prelude::*;
//! use evoforecast_tsdata::gen::waves::noisy_sine;
//! use evoforecast_tsdata::window::WindowSpec;
//!
//! let series = noisy_sine(600, 25.0, 1.0, 0.02, 7);
//! let (train, valid) = evoforecast_tsdata::split::split_at(series.values(), 500).unwrap();
//! let spec = WindowSpec::new(4, 1).unwrap();
//!
//! let config = EngineConfig::for_series(train, spec).with_generations(2_000);
//! let mut engine = Engine::new(config, train).unwrap();
//! let rules = engine.run();
//! let predictor = RuleSetPredictor::new(rules);
//!
//! let ds = spec.dataset(valid).unwrap();
//! let hit = ds.iter().filter_map(|(w, _)| predictor.predict(w)).count();
//! assert!(hit > 0, "at least some validation windows should be covered");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bitset;
pub mod checkpoint;
pub mod compiled;
pub mod config;
pub mod crossover;
pub mod dataset;
pub mod engine;
pub mod error;
pub mod fitness;
pub mod init;
pub mod model;
pub mod multistep;
pub mod mutation;
pub mod parallel;
pub mod population;
pub mod predict;
pub mod regress;
pub mod replacement;
pub mod rule;
pub mod selection;
pub mod supervisor;

pub use bitset::MatchBitset;
pub use checkpoint::{CheckpointError, EnsembleCheckpoint, ExecutionOutcome, OutcomeStatus};
pub use compiled::CompiledRuleSet;
pub use config::{EngineConfig, EnsembleConfig, MutationConfig};
pub use dataset::{ColumnStore, ExampleSet, TabularExamples};
pub use engine::{Engine, GenericEngine};
pub use error::EvoError;
pub use population::GeneBitsets;
pub use predict::{Combination, RuleSetPredictor};
pub use replacement::ReplacementStrategy;
pub use rule::{Condition, Gene, Rule};
pub use supervisor::{DegradationReason, RunBudget, Supervisor, SupervisorReport};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::analysis::{CoverageMap, RuleSetStats};
    pub use crate::config::{EngineConfig, EnsembleConfig, MutationConfig};
    pub use crate::dataset::{ExampleSet, TabularExamples};
    pub use crate::engine::{Engine, GenericEngine};
    pub use crate::error::EvoError;
    pub use crate::model::{ModelMetadata, TrainedModel};
    pub use crate::multistep::free_run;
    pub use crate::predict::{Combination, RuleSetPredictor};
    pub use crate::replacement::ReplacementStrategy;
    pub use crate::rule::{Condition, Gene, Rule};
    pub use crate::supervisor::{DegradationReason, RunBudget, Supervisor, SupervisorReport};
}
