//! Venice-lagoon scenario: the paper's motivating domain. Trains the rule
//! ensemble on simulated hourly water levels, compares against an MLP, and
//! reports how each system handles the *unusual* high tides the paper cares
//! about (levels above the 80 cm warning threshold).
//!
//! Run: `cargo run --release --example venice_tides`

use evoforecast::core::prelude::*;
use evoforecast::metrics::PairedErrors;
use evoforecast::neural::mlp::{Mlp, MlpConfig};
use evoforecast::neural::Forecaster;
use evoforecast::tsdata::gen::venice::VeniceTide;
use evoforecast::tsdata::normalize::MinMaxScaler;
use evoforecast::tsdata::window::WindowSpec;

const D: usize = 24; // the paper: 24 consecutive hourly measures
const HORIZON: usize = 4; // predict 4 hours ahead
const WARNING_LEVEL_CM: f64 = 80.0;

fn main() {
    println!("Venice lagoon water level, τ = {HORIZON} h ahead from {D} hourly inputs\n");

    let series = VeniceTide::default().generate(8_000, 2035);
    let (train, valid) =
        evoforecast::tsdata::split::split_at(series.values(), 6_000).expect("series splits");
    let spec = WindowSpec::new(D, HORIZON).expect("valid spec");

    // --- the paper's rule system (ensemble of executions) ------------------
    let engine_cfg = EngineConfig::for_series(train, spec)
        .with_population(50)
        .with_generations(5_000)
        .with_seed(11);
    let ensemble_cfg = EnsembleConfig::new(engine_cfg)
        .with_max_executions(4)
        .with_coverage_target(0.97);
    let supervisor = Supervisor::new(ensemble_cfg).expect("config validates");
    let (predictor, report) = supervisor.run(train).expect("training succeeds");
    println!(
        "rule system: {} rules from {} executions, training coverage {:.1}%",
        predictor.len(),
        report.executions,
        report.training_coverage * 100.0
    );

    // --- MLP baseline in [0,1], reported in cm ------------------------------
    let scaler = MinMaxScaler::fit(train).expect("train has range");
    let scaled_train = scaler.transform_slice(train);
    let ds_train = spec.dataset(&scaled_train).expect("train fits");
    let mut mlp = Mlp::new(
        D,
        MlpConfig {
            hidden: 20,
            epochs: 60,
            seed: 5,
            ..Default::default()
        },
    )
    .expect("MLP config");
    mlp.train(&ds_train.design_matrix(), &ds_train.targets())
        .expect("MLP trains");

    // --- evaluate both, overall and on unusual tides ------------------------
    let ds = spec.dataset(valid).expect("valid fits");
    let mut rs_all = PairedErrors::new();
    let mut nn_all = PairedErrors::new();
    let mut rs_high = PairedErrors::new();
    let mut nn_high = PairedErrors::new();

    for (window, target) in ds.iter() {
        let rs_pred = predictor.predict(window);
        let scaled_window: Vec<f64> = window.iter().map(|&x| scaler.transform(x)).collect();
        let nn_pred = scaler.inverse(mlp.forecast(&scaled_window));

        rs_all.record(target, rs_pred);
        nn_all.record(target, Some(nn_pred));
        if target > WARNING_LEVEL_CM {
            rs_high.record(target, rs_pred);
            nn_high.record(target, Some(nn_pred));
        }
    }

    let show = |label: &str, pairs: &PairedErrors| {
        println!(
            "{label:<26} coverage {:>5.1}%  RMSE {:>6.2} cm  ({} points)",
            pairs.coverage_percentage().unwrap_or(0.0),
            pairs.rmse().unwrap_or(f64::NAN),
            pairs.coverage().total(),
        );
    };
    println!();
    show("rule system (all)", &rs_all);
    show("MLP (all)", &nn_all);
    show(&format!("rule system (>{WARNING_LEVEL_CM} cm)"), &rs_high);
    show(&format!("MLP (>{WARNING_LEVEL_CM} cm)"), &nn_high);

    println!("\nThe paper's thesis: local rules keep their accuracy on the rare high");
    println!("tides that matter, where global models regress toward average behaviour.");
}
