//! **A4** — parallel-scaling bench (the hpc deliverable): rayon-parallel vs
//! sequential rule matching and batch prediction across dataset sizes.
//!
//! The interesting result is the crossover: below a few thousand windows the
//! rayon dispatch overhead loses to the sequential loop (which is why
//! `EngineConfig::parallel_threshold` defaults to 8192); above it, matching
//! scales with cores.
//!
//! Run: `cargo bench -p evoforecast-bench --bench scaling_parallel`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evoforecast_core::parallel::{batch_predict, match_bitset};
use evoforecast_core::rule::{Condition, Gene};
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::WindowSpec;
use std::hint::black_box;

const D: usize = 24;

fn condition() -> Condition {
    let genes = (0..D)
        .map(|i| {
            if i % 5 == 4 {
                Gene::Wildcard
            } else {
                Gene::bounded(-30.0, 100.0 - i as f64)
            }
        })
        .collect();
    Condition::new(genes)
}

fn bench_match_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_bitset");
    for &n in &[2_000usize, 8_000, 32_000, 128_000] {
        let values = VeniceTide::default().generate(n + D + 1, 3).into_values();
        let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
        let cond = condition();
        group.throughput(Throughput::Elements(ds.len() as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| black_box(match_bitset(&cond, &ds, usize::MAX)))
        });
        group.bench_with_input(BenchmarkId::new("rayon", n), &n, |b, _| {
            b.iter(|| black_box(match_bitset(&cond, &ds, 1)))
        });
    }
    group.finish();
}

fn bench_predict_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_predict");
    let cond = condition();
    for &n in &[8_000usize, 64_000] {
        let values = VeniceTide::default().generate(n + D + 1, 4).into_values();
        let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
        let f = |w: &[f64]| {
            if cond.matches(w) {
                Some(w.iter().sum::<f64>() / w.len() as f64)
            } else {
                None
            }
        };
        group.throughput(Throughput::Elements(ds.len() as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| black_box(batch_predict(&ds, usize::MAX, f)))
        });
        group.bench_with_input(BenchmarkId::new("rayon", n), &n, |b, _| {
            b.iter(|| black_box(batch_predict(&ds, 1, f)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_match_scaling, bench_predict_scaling
}
criterion_main!(benches);
