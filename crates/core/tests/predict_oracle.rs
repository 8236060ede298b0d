//! The compiled predictor against the literal §3.4 scan in `common/`: hand
//! cases at the index's edges, a property test over random rule sets, and a
//! trained ensemble on its own training windows.

mod common;

use common::{assert_matches_oracle, bits, predict_with};
use evoforecast_core::prelude::*;
use evoforecast_core::CompiledRuleSet;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::WindowSpec;
use proptest::prelude::*;

fn rule(genes: Vec<Gene>, coefficients: Vec<f64>, intercept: f64, error: f64) -> Rule {
    Rule {
        condition: Condition::new(genes),
        coefficients,
        intercept,
        prediction: intercept,
        error,
        matched: 5,
    }
}

fn band(lo: f64, hi: f64, value: f64, error: f64) -> Rule {
    rule(vec![Gene::bounded(lo, hi)], vec![0.0], value, error)
}

#[test]
fn hand_cases_match_the_oracle() {
    let p = RuleSetPredictor::new(vec![
        band(0.0, 10.0, 4.0, 0.1),
        band(0.0, 5.0, 8.0, 0.3),
        band(20.0, 30.0, 1.0, 0.2),
        band(-0.0, 0.0, 2.0, 0.4),
        rule(vec![Gene::Wildcard], vec![0.5], 9.0, 0.2),
    ]);
    for x in [
        -1.0,
        -0.0,
        0.0,
        3.0,
        5.0,
        5.0001,
        7.0,
        10.0,
        10.5,
        20.0,
        25.0,
        30.0,
        31.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_matches_oracle(&p, &[x]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn compiled_is_bit_identical_to_scan(
        gene_specs in proptest::collection::vec(
            proptest::collection::vec(
                // None = wildcard, Some((lo, width)) = bounded interval.
                proptest::option::of((-50.0..50.0f64, 0.0..40.0f64)),
                3..=3,
            ),
            1..12,
        ),
        payload in proptest::collection::vec(
            (-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64, -5.0..5.0f64, 0.0..3.0f64),
            12,
        ),
        windows in proptest::collection::vec(
            proptest::collection::vec(-70.0..70.0f64, 3..=3),
            1..20,
        ),
    ) {
        let rules: Vec<Rule> = gene_specs
            .iter()
            .zip(payload.iter())
            .map(|(spec, &(a, b, c, intercept, error))| {
                let genes: Vec<Gene> = spec
                    .iter()
                    .map(|g| match g {
                        Some((lo, width)) => Gene::bounded(*lo, lo + width),
                        None => Gene::Wildcard,
                    })
                    .collect();
                rule(genes, vec![a, b, c], intercept, error)
            })
            .collect();
        let p = RuleSetPredictor::new(rules);
        // The server's path: one compiled set, one scratch for every window.
        let compiled = CompiledRuleSet::compile(&p);
        let mut scratch = compiled.scratch();
        for w in &windows {
            assert_matches_oracle(&p, w);
            for combination in [Combination::Mean, Combination::InverseErrorWeighted] {
                prop_assert_eq!(
                    bits(compiled.predict_with_into(w, combination, &mut scratch)),
                    bits(predict_with(p.rules(), w, combination))
                );
            }
        }
    }
}

#[test]
fn trained_ensemble_matches_the_oracle_on_its_training_windows() {
    let series = VeniceTide::default().generate(2_000, 2007);
    let values = series.values();
    let spec = WindowSpec::new(24, 4).unwrap();
    let engine = EngineConfig::for_series(values, spec)
        .with_population(80)
        .with_generations(300)
        .with_seed(2011);
    let config = EnsembleConfig::new(engine)
        .with_max_executions(4)
        .with_coverage_target(1.0);
    let (predictor, _) = Supervisor::new(config).unwrap().run(values).unwrap();
    println!(
        "{} rules over {} windows",
        predictor.len(),
        spec.dataset(values).unwrap().len()
    );
    assert!(predictor.len() >= 200, "{} rules", predictor.len());

    let ds = spec.dataset(values).unwrap();
    let expected: Vec<Option<u64>> = (0..ds.len())
        .map(|i| {
            bits(predict_with(
                predictor.rules(),
                ds.window(i),
                Combination::Mean,
            ))
        })
        .collect();
    assert!(expected.iter().any(Option::is_some));
    assert!(expected.iter().any(Option::is_none));
    let batch: Vec<Option<u64>> = predictor
        .predict_dataset(&ds)
        .into_iter()
        .map(bits)
        .collect();
    assert_eq!(batch, expected);
    for i in 0..ds.len() {
        assert_matches_oracle(&predictor, ds.window(i));
    }
}
