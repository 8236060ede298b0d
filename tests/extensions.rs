//! Integration tests for the extension features: naive-baseline bars,
//! closed-loop forecasting, gap imputation feeding the learner, tabular
//! rule learning, and spectral sanity of the full pipeline.

use evoforecast::core::prelude::*;
use evoforecast::linalg::Matrix;
use evoforecast::metrics::PairedErrors;
use evoforecast::neural::naive::{Drift, Persistence, SeasonalNaive};
use evoforecast::neural::Forecaster;
use evoforecast::tsdata::gaps::{fill_gaps, gap_stats, FillStrategy};
use evoforecast::tsdata::gen::mackey_glass::MackeyGlass;
use evoforecast::tsdata::gen::waves::noisy_sine;
use evoforecast::tsdata::normalize::{MinMaxScaler, Scaler};
use evoforecast::tsdata::split::split_at;
use evoforecast::tsdata::window::WindowSpec;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn train_quick(train: &[f64], spec: WindowSpec, seed: u64, generations: usize) -> RuleSetPredictor {
    let engine = EngineConfig::for_series(train, spec)
        .with_population(30)
        .with_generations(generations)
        .with_seed(seed);
    let config = EnsembleConfig::new(engine).with_max_executions(2);
    let (p, _) = Supervisor::new(config).unwrap().run(train).unwrap();
    p
}

fn rmse_of<F: Forecaster>(f: &F, valid: &[f64], spec: WindowSpec) -> f64 {
    let ds = spec.dataset(valid).unwrap();
    let mut pairs = PairedErrors::new();
    for (w, t) in ds.iter() {
        pairs.record(t, Some(f.forecast(w)));
    }
    pairs.rmse().unwrap()
}

#[test]
fn rule_system_beats_every_naive_baseline_on_periodic_data() {
    // Periodic + noise at τ=5: persistence and drift are poor, seasonal
    // naive is strong — the learned system must beat them all.
    let series = noisy_sine(1_000, 20.0, 1.0, 0.05, 7);
    let (train, valid) = split_at(series.values(), 800).unwrap();
    let spec = WindowSpec::new(24, 5).unwrap();

    let predictor = train_quick(train, spec, 1, 3_000);
    let ds = spec.dataset(valid).unwrap();
    let mut pairs = PairedErrors::new();
    for (w, t) in ds.iter() {
        pairs.record(t, predictor.predict(w));
    }
    assert!(pairs.coverage_percentage().unwrap() > 50.0);
    let rs = pairs.rmse().unwrap();

    let persistence = rmse_of(&Persistence, valid, spec);
    let drift = rmse_of(&Drift::new(5).unwrap(), valid, spec);
    let seasonal = rmse_of(&SeasonalNaive::new(20, 5).unwrap(), valid, spec);

    assert!(
        rs < persistence,
        "RS {rs:.4} vs persistence {persistence:.4}"
    );
    assert!(rs < drift, "RS {rs:.4} vs drift {drift:.4}");
    assert!(rs < seasonal, "RS {rs:.4} vs seasonal-naive {seasonal:.4}");
}

#[test]
fn free_run_error_grows_with_distance() {
    // Closed-loop iteration on Mackey-Glass: chaotic divergence means the
    // late-step error should exceed the early-step error.
    let series = MackeyGlass::paper_setup().paper_series();
    let scaler = MinMaxScaler::fit(&series.values()[..1000]).unwrap();
    let normalized = scaler.transform_slice(series.values());
    let (train, test) = normalized.split_at(1000);
    let spec = WindowSpec::new(6, 1).unwrap();

    let predictor = train_quick(train, spec, 3, 4_000);
    // Average over several starting points to smooth chaos-luck.
    let mut early = Vec::new();
    let mut late = Vec::new();
    for start in (0..200).step_by(40) {
        let seed_window = &test[start..start + 6];
        let run = evoforecast::core::multistep::free_run(&predictor, seed_window, 30);
        for (k, p) in run.predictions.iter().enumerate() {
            let truth = test[start + 6 + k];
            let err = (p - truth).abs();
            if k < 5 {
                early.push(err);
            } else if k >= 20 {
                late.push(err);
            }
        }
    }
    assert!(!early.is_empty(), "free runs died immediately");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if !late.is_empty() {
        assert!(
            mean(&late) > mean(&early) * 0.8,
            "late error {:.4} should not be far below early {:.4} on a chaotic series",
            mean(&late),
            mean(&early)
        );
    }
}

#[test]
fn gap_filled_record_trains_end_to_end() {
    // Knock 10% of a series out, impute linearly, and verify the learner
    // still reaches sensible accuracy — the real-data workflow.
    let series = noisy_sine(900, 25.0, 1.0, 0.05, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let record: Vec<Option<f64>> = series
        .values()
        .iter()
        .map(|&v| {
            if rng.gen::<f64>() < 0.1 {
                None
            } else {
                Some(v)
            }
        })
        .collect();
    let stats = gap_stats(&record);
    assert!(stats.missing_fraction() > 0.05 && stats.missing_fraction() < 0.15);

    let filled = fill_gaps("filled", &record, FillStrategy::Linear).unwrap();
    let (train, valid) = split_at(filled.values(), 700).unwrap();
    let spec = WindowSpec::new(4, 1).unwrap();
    let predictor = train_quick(train, spec, 5, 2_500);

    let ds = spec.dataset(valid).unwrap();
    let mut pairs = PairedErrors::new();
    for (w, t) in ds.iter() {
        pairs.record(t, predictor.predict(w));
    }
    assert!(pairs.coverage_percentage().unwrap() > 50.0);
    assert!(
        pairs.rmse().unwrap() < 0.3,
        "rmse {} too high after imputation",
        pairs.rmse().unwrap()
    );
}

#[test]
fn tabular_engine_learns_a_noisy_plane() {
    // GenericEngine over TabularExamples: a plane with noise; validation
    // error must approach the noise level.
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let make = |rng: &mut ChaCha8Rng, n: usize, noise: f64| {
        let mut xs = Matrix::zeros(n, 3);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..3 {
                xs[(i, j)] = rng.gen::<f64>() * 4.0 - 2.0;
            }
            let y = 1.5 * xs[(i, 0)] - 0.5 * xs[(i, 1)] + 0.25 * xs[(i, 2)] + 3.0;
            ys.push(y + (rng.gen::<f64>() - 0.5) * noise);
        }
        TabularExamples::new(xs, ys).unwrap()
    };
    let train = make(&mut rng, 600, 0.1);
    let test = make(&mut rng, 200, 0.0);

    let config = EngineConfig::for_examples(&train)
        .with_population(25)
        .with_generations(2_000)
        .with_seed(23);
    let mut engine = GenericEngine::from_examples(config, train).unwrap();
    let predictor = RuleSetPredictor::new(engine.run());

    let mut sum_sq = 0.0;
    let mut predicted = 0usize;
    for i in 0..ExampleSet::len(&test) {
        if let Some(p) = predictor.predict(test.features(i)) {
            sum_sq += (p - test.target(i)) * (p - test.target(i));
            predicted += 1;
        }
    }
    assert!(predicted as f64 > 0.5 * ExampleSet::len(&test) as f64);
    let rmse = (sum_sq / predicted as f64).sqrt();
    assert!(rmse < 0.3, "tabular plane rmse {rmse}");
}

#[test]
fn spectral_pipeline_sanity() {
    // Full loop: generate -> spectral check -> window -> learn. The learned
    // system on a spectrally-verified series must beat persistence.
    let series = evoforecast::tsdata::gen::venice::VeniceTide::default().generate(4_096, 29);
    let m2 = evoforecast::tsdata::spectrum::band_power_fraction(&series, 11.5, 13.0).unwrap();
    assert!(m2 > 0.1, "tidal band missing: {m2}");

    let (train, valid) = split_at(series.values(), 3_200).unwrap();
    let spec = WindowSpec::new(24, 6).unwrap();
    let predictor = train_quick(train, spec, 7, 3_000);
    let ds = spec.dataset(valid).unwrap();
    let mut pairs = PairedErrors::new();
    for (w, t) in ds.iter() {
        pairs.record(t, predictor.predict(w));
    }
    let rs = pairs.rmse().unwrap();
    let base = rmse_of(&Persistence, valid, spec);
    assert!(
        rs < base,
        "RS {rs:.2} cm vs persistence {base:.2} cm at τ=6"
    );
}
