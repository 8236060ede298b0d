//! **P1** — Criterion micro-benchmarks of the engine's hot kernels:
//! rule matching over a training sweep, one gene's match bitset by range
//! query vs column sweep, the regression refit of an offspring's predicting
//! part, one full steady-state generation, and a batch prediction pass.
//!
//! Run: `cargo bench -p evoforecast-bench --bench micro_core`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evoforecast_core::config::EngineConfig;
use evoforecast_core::dataset::{fill_gene_bitset, ColumnStore};
use evoforecast_core::engine::Engine;
use evoforecast_core::matchindex::MatchIndex;
use evoforecast_core::parallel::match_bitset;
use evoforecast_core::predict::RuleSetPredictor;
use evoforecast_core::regress;
use evoforecast_core::rule::{Condition, Gene};
use evoforecast_core::MatchBitset;
use evoforecast_linalg::regression::RegressionOptions;
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::WindowSpec;
use std::hint::black_box;

const D: usize = 24;

fn series() -> Vec<f64> {
    VeniceTide::default().generate(10_000, 9).into_values()
}

/// A mid-specificity condition representative of evolved rules.
fn typical_condition() -> Condition {
    let genes = (0..D)
        .map(|i| {
            if i % 4 == 3 {
                Gene::Wildcard
            } else {
                Gene::bounded(-20.0 + i as f64, 90.0 - i as f64)
            }
        })
        .collect();
    Condition::new(genes)
}

fn bench_matching(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
    let cond = typical_condition();
    c.bench_function("match_10k_windows_seq", |b| {
        b.iter(|| black_box(match_bitset(black_box(&cond), &ds, usize::MAX)))
    });
    c.bench_function("match_10k_windows_par", |b| {
        b.iter(|| black_box(match_bitset(black_box(&cond), &ds, 1)))
    });
}

fn bench_match_index(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
    let index = MatchIndex::build(&ds);
    let columns = ColumnStore::build(&ds);
    let mut out = MatchBitset::new(ds.len());
    // A selective evolved-style gene: the rare high-tide band on tap 5,
    // refilled the way delta re-evaluation refills a mutated gene.
    let (p, lo, hi) = (5, 70.0, 85.0);
    assert!(
        index.fill_gene_bitset(p, lo, hi, &mut out),
        "band is selective"
    );
    c.bench_function("gene_selective_sweep", |b| {
        b.iter(|| {
            fill_gene_bitset(
                columns.column(&ds, p),
                black_box(lo),
                black_box(hi),
                &mut out,
            );
            black_box(&out);
        })
    });
    c.bench_function("gene_selective_index", |b| {
        b.iter(|| black_box(index.fill_gene_bitset(p, black_box(lo), black_box(hi), &mut out)))
    });
}

fn bench_regression_refit(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
    let cond = typical_condition();
    let matched = match_bitset(&cond, &ds, usize::MAX).to_indices();
    c.bench_function(
        &format!("refit_predicting_part_{}_windows", matched.len()),
        |b| {
            b.iter(|| {
                black_box(regress::fit_part(
                    black_box(&matched),
                    &ds,
                    RegressionOptions::fast(),
                ))
            })
        },
    );
}

fn bench_engine_step(c: &mut Criterion) {
    let values = series();
    let spec = WindowSpec::new(D, 1).unwrap();
    let config = EngineConfig::for_series(&values, spec)
        .with_population(50)
        .with_seed(1);
    c.bench_function("engine_step_steady_state", |b| {
        b.iter_batched(
            || Engine::new(config.clone(), &values).unwrap(),
            |mut engine| {
                for _ in 0..10 {
                    black_box(engine.step());
                }
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_batch_predict(c: &mut Criterion) {
    let values = series();
    let spec = WindowSpec::new(D, 1).unwrap();
    let config = EngineConfig::for_series(&values, spec)
        .with_population(50)
        .with_generations(500)
        .with_seed(2);
    let mut engine = Engine::new(config, &values).unwrap();
    let predictor = RuleSetPredictor::new(engine.run());
    let ds = spec.dataset(&values).unwrap();
    c.bench_function("predict_10k_windows", |b| {
        b.iter(|| black_box(predictor.predict_dataset(&ds)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matching, bench_match_index, bench_regression_refit, bench_engine_step, bench_batch_predict
}
criterion_main!(benches);
