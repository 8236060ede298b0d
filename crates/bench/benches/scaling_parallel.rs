//! **A4** — parallel-scaling bench: the engine's Gram build
//! (`parallel::accumulate_from_bitset`) below and above
//! `EngineConfig::parallel_threshold`, across dataset sizes.
//!
//! The interesting result is the crossover: below a few thousand windows the
//! rayon dispatch overhead loses to the sequential chunk loop (which is why
//! `EngineConfig::parallel_threshold` defaults to 8192); above it, the
//! per-chunk accumulation scales with cores.
//!
//! Run: `cargo bench -p evoforecast-bench --bench scaling_parallel`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evoforecast_core::parallel::accumulate_from_bitset;
use evoforecast_core::rule::{Condition, Gene};
use evoforecast_core::MatchBitset;
use evoforecast_linalg::regression::RegressionOptions;
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

fn bench_gram_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulate_from_bitset");
    let cond = condition();
    let opts = RegressionOptions::fast();
    for &n in &[2_000usize, 8_000, 32_000, 128_000] {
        let values = VeniceTide::default().generate(n + D + 1, 3).into_values();
        let ds = WindowSpec::new(D, 1).unwrap().dataset(&values).unwrap();
        let mut bits = MatchBitset::new(ds.len());
        for i in 0..ds.len() {
            if cond.matches(ds.window(i)) {
                bits.set(i);
            }
        }
        group.throughput(Throughput::Elements(bits.count_ones() as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| black_box(accumulate_from_bitset(&bits, &ds, opts, usize::MAX)))
        });
        group.bench_with_input(BenchmarkId::new("rayon", n), &n, |b, _| {
            b.iter(|| black_box(accumulate_from_bitset(&bits, &ds, opts, 1)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gram_scaling
}
criterion_main!(benches);
