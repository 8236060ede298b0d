//! Cross-crate integration tests: the whole learn → predict pipeline on
//! controlled workloads, checked against baselines and invariants.

use evoforecast::core::prelude::*;
use evoforecast::metrics::PairedErrors;
use evoforecast::tsdata::gen::ar::ArProcess;
use evoforecast::tsdata::gen::waves::{noisy_sine, sine};
use evoforecast::tsdata::split::split_at;
use evoforecast::tsdata::window::WindowSpec;

/// Persistence baseline: predict the last window value.
fn persistence_rmse(valid: &[f64], spec: WindowSpec) -> f64 {
    let ds = spec.dataset(valid).unwrap();
    let mut sq = 0.0;
    for (w, t) in ds.iter() {
        let p = *w.last().unwrap();
        sq += (p - t) * (p - t);
    }
    (sq / ds.len() as f64).sqrt()
}

fn train_quick(train: &[f64], spec: WindowSpec, seed: u64) -> RuleSetPredictor {
    let engine = EngineConfig::for_series(train, spec)
        .with_population(30)
        .with_generations(2_000)
        .with_seed(seed);
    let config = EnsembleConfig::new(engine)
        .with_max_executions(2)
        .with_coverage_target(0.99);
    let (predictor, _) = Supervisor::new(config).unwrap().run(train).unwrap();
    predictor
}

fn evaluate(predictor: &RuleSetPredictor, valid: &[f64], spec: WindowSpec) -> PairedErrors {
    let ds = spec.dataset(valid).unwrap();
    let mut pairs = PairedErrors::with_capacity(ds.len());
    for (w, t) in ds.iter() {
        pairs.record(t, predictor.predict(w));
    }
    pairs
}

#[test]
fn beats_persistence_on_noisy_sine() {
    let series = noisy_sine(900, 25.0, 1.0, 0.05, 3);
    let (train, valid) = split_at(series.values(), 700).unwrap();
    let spec = WindowSpec::new(4, 3).unwrap(); // τ=3: persistence is weak here
    let predictor = train_quick(train, spec, 1);
    let pairs = evaluate(&predictor, valid, spec);

    assert!(pairs.coverage_percentage().unwrap() > 50.0);
    let rs_rmse = pairs.rmse().unwrap();
    let base = persistence_rmse(valid, spec);
    assert!(
        rs_rmse < base,
        "rule system {rs_rmse:.4} should beat persistence {base:.4} at τ=3"
    );
}

#[test]
fn near_noise_floor_on_linear_ar_process() {
    // AR(2) is exactly representable by the rules' linear predicting part:
    // validation RMSE should approach the innovation noise level.
    let process = ArProcess::stable_ar2(); // noise_std = 0.3
    let series = process.generate(1_200, 5);
    let (train, valid) = split_at(series.values(), 1_000).unwrap();
    let spec = WindowSpec::new(3, 1).unwrap();
    let predictor = train_quick(train, spec, 2);
    let pairs = evaluate(&predictor, valid, spec);

    assert!(pairs.coverage_percentage().unwrap() > 60.0);
    let rmse = pairs.rmse().unwrap();
    assert!(
        rmse < 2.0 * process.noise_std,
        "AR(2) rmse {rmse:.4} should be near the 0.3 noise floor"
    );
}

#[test]
fn deterministic_end_to_end() {
    let series = noisy_sine(600, 20.0, 1.0, 0.08, 9);
    let (train, valid) = split_at(series.values(), 480).unwrap();
    let spec = WindowSpec::new(4, 1).unwrap();
    let a = train_quick(train, spec, 7);
    let b = train_quick(train, spec, 7);
    assert_eq!(a.rules(), b.rules(), "same seed, same rule set");
    let pa = evaluate(&a, valid, spec);
    let pb = evaluate(&b, valid, spec);
    assert_eq!(pa.predicted(), pb.predicted());
}

#[test]
fn coverage_never_decreases_with_more_executions() {
    let series = noisy_sine(700, 25.0, 1.0, 0.1, 11);
    let (train, _) = split_at(series.values(), 600).unwrap();
    let spec = WindowSpec::new(4, 1).unwrap();
    let run = |execs: usize| {
        let engine = EngineConfig::for_series(train, spec)
            .with_population(25)
            .with_generations(1_000)
            .with_seed(13);
        let config = EnsembleConfig::new(engine)
            .with_max_executions(execs)
            .with_coverage_target(1.0);
        let (_, report) = Supervisor::new(config).unwrap().run(train).unwrap();
        report.training_coverage
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four >= one - 1e-12,
        "coverage with 4 executions ({four}) below 1 execution ({one})"
    );
}

#[test]
fn abstention_consistency_between_coverage_and_predictions() {
    // The predictor's coverage() and its per-window predictions must agree:
    // every covered window gets Some, every uncovered window gets None.
    let series = noisy_sine(500, 25.0, 1.0, 0.1, 15);
    let (train, valid) = split_at(series.values(), 400).unwrap();
    let spec = WindowSpec::new(4, 1).unwrap();
    let predictor = train_quick(train, spec, 3);

    let ds = spec.dataset(valid).unwrap();
    let predictions = predictor.predict_dataset(&ds, usize::MAX);
    let some_count = predictions.iter().filter(|p| p.is_some()).count();
    let coverage = predictor.coverage(&ds);
    assert!((coverage - some_count as f64 / ds.len() as f64).abs() < 1e-12);
}

#[test]
fn predictions_respect_training_range_sanity() {
    // Rule outputs are regression extrapolations, but the ensemble mean over
    // local rules should stay within a generous multiple of the training
    // range on in-distribution data.
    let series = sine(600, 30.0, 2.0, 5.0, 0.0); // range [3, 7]
    let (train, valid) = split_at(series.values(), 480).unwrap();
    let spec = WindowSpec::new(4, 1).unwrap();
    let predictor = train_quick(train, spec, 4);
    let ds = spec.dataset(valid).unwrap();
    for (w, _) in ds.iter() {
        if let Some(p) = predictor.predict(w) {
            assert!(
                (0.0..=10.0).contains(&p),
                "prediction {p} far outside training range [3, 7]"
            );
        }
    }
}

#[test]
fn too_short_training_data_errors_cleanly() {
    let spec = WindowSpec::new(24, 96).unwrap();
    // Non-constant (so the config itself validates) but far too short for
    // D + τ = 120 points.
    let short: Vec<f64> = (0..50).map(|i| i as f64).collect();
    let engine = EngineConfig::for_series(&short, spec);
    assert!(matches!(
        evoforecast::core::engine::Engine::new(engine, &short),
        Err(EvoError::Data(_))
    ));
}

#[test]
fn serde_round_trip_of_trained_predictor() {
    let series = noisy_sine(400, 20.0, 1.0, 0.05, 21);
    let (train, valid) = split_at(series.values(), 320).unwrap();
    let spec = WindowSpec::new(3, 1).unwrap();
    let predictor = train_quick(train, spec, 5);

    let json = serde_json::to_string(&predictor).unwrap();
    let back: RuleSetPredictor = serde_json::from_str(&json).unwrap();
    assert_eq!(predictor.len(), back.len());

    // Behaviour preserved (up to JSON float text precision).
    let ds = spec.dataset(valid).unwrap();
    for (w, _) in ds.iter().take(50) {
        match (predictor.predict(w), back.predict(w)) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            other => panic!("abstention mismatch after serde: {other:?}"),
        }
    }
}
