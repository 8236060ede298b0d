//! Training and evaluation wrappers used by every bench target.

use evoforecast_core::config::{EngineConfig, EnsembleConfig};
use evoforecast_core::predict::RuleSetPredictor;
use evoforecast_core::supervisor::{Supervisor, SupervisorReport};
use evoforecast_metrics::PairedErrors;
use evoforecast_neural::mlp::{Mlp, MlpConfig};
use evoforecast_neural::Forecaster;
use evoforecast_tsdata::normalize::{MinMaxScaler, Scaler};
use evoforecast_tsdata::window::WindowSpec;

/// Parameters of one rule-system training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleSystemSetup {
    /// Window length `D` and horizon `τ`.
    pub spec: WindowSpec,
    /// `EMAX` as a fraction of the training range.
    pub emax_fraction: f64,
    /// Population size.
    pub population: usize,
    /// Generations per execution.
    pub generations: usize,
    /// Maximum ensemble executions.
    pub executions: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Train the paper's rule system (ensemble of executions) on a series.
///
/// # Panics
/// Panics when the configuration is invalid for the series — bench targets
/// construct both together, so a failure is a harness bug.
pub fn train_rule_system(
    train: &[f64],
    setup: RuleSystemSetup,
) -> (RuleSetPredictor, SupervisorReport) {
    let engine = EngineConfig::for_series(train, setup.spec)
        .with_population(setup.population)
        .with_generations(setup.generations)
        .with_seed(setup.seed);
    let (lo, hi) = (engine.value_range.0, engine.value_range.1);
    let engine = engine.with_emax((hi - lo) * setup.emax_fraction);
    let config = EnsembleConfig::new(engine)
        .with_max_executions(setup.executions)
        .with_coverage_target(0.98);
    let supervisor = Supervisor::new(config).expect("harness config must validate");
    supervisor
        .run(train)
        .expect("training series fits the window spec")
}

/// Evaluate an abstaining predictor over a validation slice, producing the
/// paired errors + coverage that fill one table row.
///
/// # Panics
/// Panics when the validation slice is too short for the window spec.
pub fn evaluate_abstaining(
    predictor: &RuleSetPredictor,
    valid: &[f64],
    spec: WindowSpec,
) -> PairedErrors {
    let ds = spec
        .dataset(valid)
        .expect("validation series fits the window spec");
    let mut pairs = PairedErrors::with_capacity(ds.len());
    let predictions = predictor.predict_dataset(&ds, 8_192);
    for (i, pred) in predictions.into_iter().enumerate() {
        pairs.record(ds.target(i), pred);
    }
    pairs
}

/// Evaluate a non-abstaining forecaster (all neural baselines) the same way;
/// coverage is always 100 %.
///
/// # Panics
/// Panics when the validation slice is too short for the window spec.
pub fn evaluate_forecaster<F: Forecaster>(
    forecaster: &F,
    valid: &[f64],
    spec: WindowSpec,
) -> PairedErrors {
    let ds = spec
        .dataset(valid)
        .expect("validation series fits the window spec");
    let mut pairs = PairedErrors::with_capacity(ds.len());
    for (window, target) in ds.iter() {
        pairs.record(target, Some(forecaster.forecast(window)));
    }
    pairs
}

/// Aligned per-point predictions of the rule system and a comparator over
/// the subset of validation windows the rule system covers — the input shape
/// [`evoforecast_metrics::bootstrap_rmse_diff`] needs for a paired
/// significance test.
///
/// # Panics
/// Panics when the validation slice is too short for the window spec.
pub fn paired_predictions<F: Forecaster>(
    predictor: &RuleSetPredictor,
    forecaster: &F,
    valid: &[f64],
    spec: WindowSpec,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let ds = spec
        .dataset(valid)
        .expect("validation series fits the window spec");
    let mut actual = Vec::new();
    let mut rs = Vec::new();
    let mut other = Vec::new();
    for (window, target) in ds.iter() {
        if let Some(p) = predictor.predict(window) {
            actual.push(target);
            rs.push(p);
            other.push(forecaster.forecast(window));
        }
    }
    (actual, rs, other)
}

/// A forecaster wrapper that min-max normalizes inputs and denormalizes the
/// output — sigmoid networks need inputs in their responsive band, while the
/// harness reports errors in original units (Venice centimetres).
#[derive(Debug, Clone)]
pub struct ScaledForecaster<F> {
    inner: F,
    scaler: MinMaxScaler,
}

impl<F: Forecaster> ScaledForecaster<F> {
    /// Wrap a forecaster with a fitted scaler.
    pub fn new(inner: F, scaler: MinMaxScaler) -> Self {
        ScaledForecaster { inner, scaler }
    }
}

impl<F: Forecaster> Forecaster for ScaledForecaster<F> {
    fn forecast(&self, window: &[f64]) -> f64 {
        let scaled: Vec<f64> = window.iter().map(|&x| self.scaler.transform(x)).collect();
        self.scaler.inverse(self.inner.forecast(&scaled))
    }
}

/// Train the Table 1/3 feedforward comparator: scale the series to `[0, 1]`
/// on the training range, train an MLP on the windowed task, return a
/// forecaster operating in original units.
///
/// # Panics
/// Panics when the training slice is degenerate (constant) or too short.
pub fn train_mlp_forecaster(
    train: &[f64],
    spec: WindowSpec,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> ScaledForecaster<Mlp> {
    let scaler = MinMaxScaler::fit(train).expect("training series must have range");
    let scaled = scaler.transform_slice(train);
    let ds = spec
        .dataset(&scaled)
        .expect("training series fits the window spec");
    let xs = ds.design_matrix();
    let ys = ds.targets();
    let mut mlp = Mlp::new(
        spec.window(),
        MlpConfig {
            hidden,
            epochs,
            seed,
            ..Default::default()
        },
    )
    .expect("MLP config is valid");
    mlp.train(&xs, &ys)
        .expect("MLP training on scaled data converges");
    ScaledForecaster::new(mlp, scaler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_tsdata::gen::waves::noisy_sine;

    fn setup(spec: WindowSpec) -> RuleSystemSetup {
        RuleSystemSetup {
            spec,
            emax_fraction: 0.15,
            population: 20,
            generations: 300,
            executions: 1,
            seed: 42,
        }
    }

    #[test]
    fn rule_system_end_to_end() {
        let series = noisy_sine(500, 25.0, 1.0, 0.05, 1);
        let (train, valid) = series.values().split_at(400);
        let spec = WindowSpec::new(4, 1).unwrap();
        let (predictor, report) = train_rule_system(train, setup(spec));
        assert!(report.executions >= 1);
        assert!(!predictor.is_empty());
        let pairs = evaluate_abstaining(&predictor, valid, spec);
        assert!(pairs.coverage_percentage().unwrap() > 10.0);
        if pairs.predicted_count() > 0 {
            assert!(pairs.rmse().unwrap() < 1.0);
        }
    }

    #[test]
    fn mlp_end_to_end_beats_mean_baseline() {
        let series = noisy_sine(600, 25.0, 1.0, 0.05, 2);
        let (train, valid) = series.values().split_at(500);
        let spec = WindowSpec::new(4, 1).unwrap();
        let mlp = train_mlp_forecaster(train, spec, 12, 120, 3);
        let pairs = evaluate_forecaster(&mlp, valid, spec);
        assert_eq!(pairs.coverage_percentage(), Some(100.0));
        // NMSE < 1 means better than predicting the mean.
        assert!(
            pairs.nmse().unwrap() < 1.0,
            "NMSE {}",
            pairs.nmse().unwrap()
        );
    }

    #[test]
    fn scaled_forecaster_round_trips_units() {
        // A forecaster that echoes its (scaled) last input: after wrapping,
        // it should echo the raw last input.
        struct Echo;
        impl Forecaster for Echo {
            fn forecast(&self, w: &[f64]) -> f64 {
                *w.last().unwrap()
            }
        }
        let scaler = MinMaxScaler::from_bounds(-50.0, 150.0, 0.0, 1.0).unwrap();
        let f = ScaledForecaster::new(Echo, scaler);
        assert!((f.forecast(&[10.0, 42.0]) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn abstaining_evaluation_counts_all_points() {
        let series = noisy_sine(300, 20.0, 1.0, 0.05, 4);
        let (train, valid) = series.values().split_at(250);
        let spec = WindowSpec::new(3, 1).unwrap();
        let (predictor, _) = train_rule_system(train, setup(spec));
        let pairs = evaluate_abstaining(&predictor, valid, spec);
        let expected_points = spec.pair_count(valid.len());
        assert_eq!(pairs.coverage().total(), expected_points);
    }
}
