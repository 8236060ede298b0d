//! Sunspot scenario: multi-horizon forecasting on the synthetic Schwabe-cycle
//! record with the paper's 1749–1919 / 1929–1977 split, sweeping the horizon
//! to reproduce the paper's observation that the rule system stays usable as
//! τ grows while errors rise gracefully.
//!
//! Run: `cargo run --release --example sunspots`

use evoforecast::core::prelude::*;
use evoforecast::metrics::PairedErrors;
use evoforecast::tsdata::gen::sunspot::SunspotGenerator;
use evoforecast::tsdata::normalize::MinMaxScaler;
use evoforecast::tsdata::window::WindowSpec;

const D: usize = 24; // the paper: 24 monthly inputs

fn main() {
    println!("Synthetic monthly sunspot record, train 1749–1919, validate 1929–1977\n");

    let series = SunspotGenerator::default().paper_series(1749);
    let scaler =
        MinMaxScaler::fit(&series.values()[..SunspotGenerator::TRAIN_MONTHS]).expect("has range");
    let normalized = scaler.transform_slice(series.values());
    let train = &normalized[..SunspotGenerator::TRAIN_MONTHS];
    let valid = &normalized[SunspotGenerator::VALID_START..];

    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>8}",
        "horizon", "coverage%", "half-MSE", "rmse", "rules"
    );
    for horizon in [1usize, 4, 8, 12, 18] {
        let spec = WindowSpec::new(D, horizon).expect("valid spec");
        let engine_cfg = EngineConfig::for_series(train, spec)
            .with_population(50)
            .with_generations(4_000)
            .with_seed(1700 + horizon as u64);
        let ensemble_cfg = EnsembleConfig::new(engine_cfg).with_max_executions(4);
        let supervisor = Supervisor::new(ensemble_cfg).expect("config validates");
        let (predictor, _) = supervisor.run(train).expect("training succeeds");

        let ds = spec.dataset(valid).expect("valid fits");
        let mut pairs = PairedErrors::with_capacity(ds.len());
        for (window, target) in ds.iter() {
            pairs.record(target, predictor.predict(window));
        }
        println!(
            "{horizon:>8} {:>10.1} {:>12.5} {:>10.4} {:>8}",
            pairs.coverage_percentage().unwrap_or(0.0),
            pairs.half_mse(horizon).unwrap_or(f64::NAN),
            pairs.rmse().unwrap_or(f64::NAN),
            predictor.len(),
        );
    }

    println!("\nPaper's Table 3 (for reference): half-MSE 0.00228 → 0.01021 as τ goes 1 → 18,");
    println!("with ≥95% prediction coverage at every horizon.");
}
