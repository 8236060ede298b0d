//! Mackey-Glass scenario: chaotic-series forecasting with the paper's exact
//! data recipe, using the delay embedding of the RAN/MRAN literature, and a
//! look at the system's *abstention* behaviour — which windows does it
//! decline to predict, and were they actually the hard ones?
//!
//! Run: `cargo run --release --example mackey_glass`

use evoforecast::core::prelude::*;
use evoforecast::tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast::tsdata::normalize::{MinMaxScaler, Scaler};
use evoforecast::tsdata::window::WindowSpec;

const HORIZON: usize = 50;

fn main() {
    println!("Mackey-Glass (a=0.2, b=0.1, λ=17), τ = {HORIZON}, embedding x(t), x(t-6), x(t-12), x(t-18)\n");

    // The paper's recipe: 5000 samples, discard 3500, train 1000, test 500,
    // normalized to [0, 1].
    let series = MackeyGlass::paper_setup().paper_series();
    let scaler = MinMaxScaler::fit(&series.values()[..1000]).expect("has range");
    let normalized = scaler.transform_slice(series.values());
    let (train, test) = normalized.split_at(1000);

    let spec = WindowSpec::with_spacing(4, HORIZON, 6).expect("valid spec");

    let engine_cfg = EngineConfig::for_series(train, spec)
        .with_population(50)
        .with_generations(6_000)
        .with_seed(17);
    let ensemble_cfg = EnsembleConfig::new(engine_cfg).with_max_executions(4);
    let supervisor = Supervisor::new(ensemble_cfg).expect("config validates");
    let (predictor, report) = supervisor.run(train).expect("training succeeds");
    println!(
        "trained {} rules over {} executions (training coverage {:.1}%)\n",
        predictor.len(),
        report.executions,
        report.training_coverage * 100.0
    );

    // Evaluate, separating predicted from abstained windows.
    let ds = spec.dataset(test).expect("test fits");
    let mut sq_err = 0.0;
    let mut predicted = 0usize;
    let mut abstained_targets = Vec::new();
    let mut predicted_targets = Vec::new();
    for (window, target) in ds.iter() {
        match predictor.predict(window) {
            Some(p) => {
                sq_err += (p - target) * (p - target);
                predicted += 1;
                predicted_targets.push(target);
            }
            None => abstained_targets.push(target),
        }
    }
    let total = ds.len();
    let var: f64 = {
        let all: Vec<f64> = ds.targets();
        let m = all.iter().sum::<f64>() / all.len() as f64;
        all.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / all.len() as f64
    };
    let nmse = (sq_err / predicted as f64) / var;
    println!(
        "test: {predicted}/{total} predicted ({:.1}%), NMSE {:.4} (paper: 0.025 at ~79%)",
        100.0 * predicted as f64 / total as f64,
        nmse
    );

    // The paper's observation: the discarded ~20% "were certainly inductive
    // of high errors". Check where the abstentions live in value space.
    let spread = |v: &[f64]| -> (f64, f64) {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    if !abstained_targets.is_empty() {
        let (alo, ahi) = spread(&abstained_targets);
        let (plo, phi) = spread(&predicted_targets);
        println!(
            "abstained windows' targets span [{alo:.3}, {ahi:.3}]; predicted span [{plo:.3}, {phi:.3}]"
        );
        println!("abstention count: {}", abstained_targets.len());
    } else {
        println!("no abstentions at this scale");
    }
}
