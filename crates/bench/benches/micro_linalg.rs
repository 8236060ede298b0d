//! Criterion micro-benchmarks of the linear-algebra kernels: the Cholesky
//! solve of the ridge normal equations (the engine's per-rule solve) beside
//! its pivoted-LU fallback, and the FFT used for spectral validation. The
//! Gram accumulation that feeds the solve is timed by `micro_eval`.
//!
//! Run: `cargo bench -p evoforecast-bench --bench micro_linalg`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evoforecast_linalg::cholesky::CholeskyDecomposition;
use evoforecast_linalg::fft::fft_real;
use evoforecast_linalg::lu::LuDecomposition;
use evoforecast_linalg::Matrix;
use std::hint::black_box;

/// A symmetric positive-definite `n x n` system matrix, shaped like the
/// ridge normal equations: `BᵀB` plus a dominant diagonal.
fn spd_system(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| {
        (i as f64 * (0.713 + 0.317 * j as f64)).sin() * 3.0
    });
    let mut a = b.transpose().matmul(&b).expect("square product");
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn targets(rows: usize) -> Vec<f64> {
    (0..rows).map(|i| (i as f64 * 0.21).cos()).collect()
}

fn bench_solves(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorizations");
    // 5 and 25 are the augmented orders of D = 4 and D = 24 rules.
    for &n in &[5usize, 25, 64] {
        let a = spd_system(n);
        let b = targets(n);
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |bch, _| {
            bch.iter(|| {
                let ch = CholeskyDecomposition::new(black_box(&a)).unwrap();
                black_box(ch.solve(black_box(&b)).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("lu_solve", n), &n, |bch, _| {
            bch.iter(|| {
                let lu = LuDecomposition::new(black_box(&a)).unwrap();
                black_box(lu.solve(black_box(&b)).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_real");
    for &n in &[1_024usize, 8_192, 65_536] {
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(fft_real(black_box(&signal)).unwrap()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solves, bench_fft
}
criterion_main!(benches);
