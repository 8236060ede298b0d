//! Degenerate-input coverage: inputs at the edge of validity must produce
//! precise typed errors (naming the offending index) or well-defined
//! behavior — never a panic or a NaN cascade deep inside the engine.

use evoforecast_core::prelude::*;
use evoforecast_core::supervisor::Supervisor;
use evoforecast_tsdata::error::DataError;
use evoforecast_tsdata::series::TimeSeries;
use evoforecast_tsdata::window::WindowSpec;

fn spec() -> WindowSpec {
    WindowSpec::new(3, 1).unwrap()
}

#[test]
fn constant_series_is_rejected_with_a_typed_config_error() {
    // A constant series has an empty value range: EMAX and the initializer
    // bins would all collapse, so validation refuses it up front.
    let flat = vec![5.0; 100];
    let engine = EngineConfig::for_series(&flat, spec());
    let err = Supervisor::new(EnsembleConfig::new(engine)).unwrap_err();
    match err {
        EvoError::InvalidConfig(msg) => assert!(msg.contains("value_range"), "{msg}"),
        other => panic!("expected config error, got {other:?}"),
    }
}

#[test]
fn single_nan_or_infinity_is_reported_with_its_index() {
    let mut values: Vec<f64> = (0..50).map(|i| i as f64).collect();
    values[17] = f64::NAN;
    match TimeSeries::new("x", values) {
        Err(DataError::NonFinite { index }) => assert_eq!(index, 17),
        other => panic!("expected indexed non-finite error, got {other:?}"),
    }

    let mut values: Vec<f64> = (0..50).map(|i| i as f64).collect();
    values[3] = f64::INFINITY;
    let err = TimeSeries::new("x", values).unwrap_err();
    assert!(err.to_string().contains("index 3"), "{err}");
}

#[test]
fn series_shorter_than_one_window_fails_fast_and_is_not_retried() {
    // 3 points cannot form a single (window=3, horizon=1) pair. The error is
    // deterministic, so the supervisor must propagate it instead of burning
    // retries on it.
    let short = [1.0, 2.0, 3.0];
    let engine = EngineConfig::for_series(&short, spec())
        .with_population(10)
        .with_generations(50);
    let sup = Supervisor::new(EnsembleConfig::new(engine)).unwrap();
    match sup.run(&short) {
        Err(EvoError::Data(DataError::WindowTooLarge { needed, available })) => {
            assert_eq!(needed, 4);
            assert_eq!(available, 3);
        }
        other => panic!("expected window-too-large, got {other:?}"),
    }
}

#[test]
fn all_wildcard_population_covers_every_window() {
    // The coverage edge case: one fully general rule saturates the coverage
    // union immediately (the incremental fold must early-exit, not loop).
    let values: Vec<f64> = (0..60).map(|i| (i as f64 * 0.4).sin() * 10.0).collect();
    let ds = spec().dataset(&values).unwrap();
    let rule = Rule {
        condition: Condition::all_wildcards(3),
        coefficients: vec![0.0, 0.0, 1.0],
        intercept: 0.0,
        prediction: 0.0,
        error: 0.1,
        matched: ds.len(),
    };
    let predictor = RuleSetPredictor::new(vec![rule]);
    assert_eq!(predictor.coverage(&ds), 1.0);
    for (w, _) in ds.iter() {
        assert!(predictor.predict(w).is_some());
    }
}

#[test]
fn empty_rule_set_covers_nothing_and_always_abstains() {
    let values: Vec<f64> = (0..30).map(|i| i as f64).collect();
    let ds = spec().dataset(&values).unwrap();
    let predictor = RuleSetPredictor::new(Vec::new());
    assert_eq!(predictor.coverage(&ds), 0.0);
    assert!(predictor.predict(&[1.0, 2.0, 3.0]).is_none());
}

#[test]
fn quantized_series_trains_to_finite_rules_through_singular_grams() {
    // Five levels: windows repeat many times over, and a gene whose interval
    // holds one level makes its column constant, so it duplicates the
    // intercept column and the rule's Gram is singular or nearly so.
    let values: Vec<f64> = (0..600)
        .map(|i| ((i as f64 * 0.37).sin() * 2.0).round())
        .collect();
    let ds = spec().dataset(&values).unwrap();
    let distinct: std::collections::BTreeSet<Vec<u64>> = ds
        .iter()
        .map(|(w, _)| w.iter().map(|x| x.to_bits()).collect())
        .collect();
    assert!(
        distinct.len() * 4 < ds.len(),
        "test premise: windows repeat"
    );

    let engine = EngineConfig::for_series(&values, spec())
        .with_population(30)
        .with_generations(2_000)
        .with_seed(19);
    let rules = Engine::new(engine.clone(), &values).unwrap().run();
    let viable: Vec<Rule> = rules.into_iter().filter(|r| r.matched > 1).collect();
    let one_level = |g: &Gene| {
        matches!(*g, Gene::Bounded { lo, hi }
            if (-2..=2).filter(|&l| (lo..=hi).contains(&f64::from(l))).count() == 1)
    };
    assert!(
        viable
            .iter()
            .any(|r| r.condition.genes().iter().any(one_level)),
        "test premise: some rule has a constant column"
    );
    for r in &viable {
        let numbers = [r.intercept, r.prediction, r.error];
        assert!(
            r.coefficients.iter().chain(&numbers).all(|x| x.is_finite()),
            "{r:?}"
        );
    }
    assert_eq!(RuleSetPredictor::new(viable.clone()).rules(), viable);

    let supervisor = Supervisor::new(EnsembleConfig::new(engine).with_max_executions(2)).unwrap();
    let (predictor, report) = supervisor.run(&values).unwrap();
    assert!(!predictor.is_empty());
    assert_eq!(RuleSetPredictor::new(predictor.rules().to_vec()), predictor);
    assert!(report.training_coverage > 0.0);
    for (w, _) in ds.iter() {
        if let Some(p) = predictor.predict(w) {
            assert!(p.is_finite(), "{w:?} -> {p}");
        }
    }
}
