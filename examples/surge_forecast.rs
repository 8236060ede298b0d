//! Operational tide forecasting: predict the *meteorological residual*.
//!
//! Real tide services don't forecast the raw water level — the astronomical
//! tide is computable years ahead from the harmonic constituents, so the
//! problem that matters is the residual (storm surge + noise). This example
//! compares the two formulations on the same simulated record:
//!
//! 1. **level model** — rules learned on the raw level (the paper's setup),
//! 2. **residual model** — rules learned on `level − astronomical`, with the
//!    known astronomical tide added back at forecast time.
//!
//! Run: `cargo run --release --example surge_forecast`

use evoforecast::core::prelude::*;
use evoforecast::metrics::PairedErrors;
use evoforecast::tsdata::gen::venice::VeniceTide;
use evoforecast::tsdata::window::WindowSpec;

const D: usize = 24;
const HORIZON: usize = 6;
const TRAIN: usize = 6_000;
const TOTAL: usize = 8_000;

fn train_system(train: &[f64], seed: u64, emax_fraction: f64) -> RuleSetPredictor {
    let engine = EngineConfig::for_series(train, WindowSpec::new(D, HORIZON).unwrap())
        .with_population(50)
        .with_generations(5_000)
        .with_seed(seed);
    let (lo, hi) = engine.value_range;
    let engine = engine.with_emax((hi - lo) * emax_fraction);
    let config = EnsembleConfig::new(engine).with_max_executions(4);
    let (p, _) = Supervisor::new(config).unwrap().run(train).unwrap();
    p
}

fn main() {
    println!("Venice, τ = {HORIZON} h: forecasting the raw level vs forecasting the residual\n");
    let tide = VeniceTide::default();
    let record = tide.generate_decomposed(TOTAL, 2035);
    let spec = WindowSpec::new(D, HORIZON).unwrap();

    // --- formulation 1: raw level -------------------------------------------
    let level = record.total.values();
    let level_model = train_system(&level[..TRAIN], 1, 0.15);

    // --- formulation 2: residual, astronomical tide added back --------------
    // The residual is the *stochastic* part, so rules need a looser relative
    // precision bar to keep coverage (the EMAX dial of ablation A3).
    let residual_model = train_system(&record.residual[..TRAIN], 2, 0.3);

    let mut level_pairs = PairedErrors::new();
    let mut residual_pairs = PairedErrors::new();
    let valid_level = &level[TRAIN..];
    let valid_residual = &record.residual[TRAIN..];
    let ds_level = spec.dataset(valid_level).unwrap();
    let ds_residual = spec.dataset(valid_residual).unwrap();
    assert_eq!(ds_level.len(), ds_residual.len());

    for i in 0..ds_level.len() {
        let actual = ds_level.target(i);
        level_pairs.record(actual, level_model.predict(ds_level.window(i)));
        // Residual model predicts the residual; the astronomical tide at the
        // target instant is known in advance.
        let target_index = TRAIN + i + (D - 1) + HORIZON;
        let astro = record.astronomical[target_index];
        let residual_prediction = residual_model
            .predict(ds_residual.window(i))
            .map(|r| astro + r);
        residual_pairs.record(actual, residual_prediction);
    }

    let show = |label: &str, pairs: &PairedErrors| {
        println!(
            "{label:<18} coverage {:>5.1}%  RMSE {:>6.2} cm  max|err| {:>6.1} cm",
            pairs.coverage_percentage().unwrap_or(0.0),
            pairs.rmse().unwrap_or(f64::NAN),
            pairs.max_abs_error().unwrap_or(f64::NAN),
        );
    };
    show("level model", &level_pairs);
    show("residual model", &residual_pairs);

    println!("\nWhy the residual formulation helps: the rules spend their capacity on");
    println!("the hard, stochastic part instead of re-learning deterministic harmonics —");
    println!("and the residual's range is a fraction of the level's, so the same EMAX");
    println!("fraction is a much tighter absolute precision bar.");
}
