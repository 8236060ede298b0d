//! **P1** — Offspring evaluation at Venice scale (45k windows × 24 taps):
//! the old two-pass pipeline (match → collect indices → materialize the
//! design matrix → factorize) against the fused single-pass kernel (match
//! while accumulating the normal equations → Cholesky → residual pass over
//! matched rows only).
//!
//! Three comparators:
//! * `old_two_pass_qr` — what [`evoforecast_core::regress::evaluate`] does
//!   with default options: materialize + Householder QR (`O(2·K·p²)` flops
//!   on the K×(D+1) design).
//! * `old_two_pass_ridge` — same two passes + materialization, but the
//!   ridge normal-equations solve (the engine's previous hot path).
//! * `fused_single_pass` — the fused kernel
//!   ([`evoforecast_core::parallel::match_and_accumulate`], now the test
//!   reference for the engine's delta path), which never materializes the
//!   design.
//!
//! **P2** — Delta re-evaluation of offspring against the fused kernel, on a
//! *selective* evolved-style condition (the common case once the population
//! has specialized). Offspring are never evaluated from scratch by the
//! engine any more: crossover copies per-gene match bitsets from the donor
//! parent and mutation recomputes only the mutated gene's bitset, so the
//! comparators here measure exactly what `Engine::step` now pays:
//! * `delta_mutation` — recompute the one mutated (most selective) gene's
//!   bitset by a columnar sweep, copy the other `D−1` gene bitsets from the
//!   donor, AND in ascending-selectivity order, rebuild Gram/Xᵀy over the
//!   set bits.
//! * `bitset_and_crossover` — the mutation-free offspring: copy all `D`
//!   gene bitsets from the two parents, AND, refit.
//!
//! **P3** — The Gram build alone, on the selective condition's matched set,
//! sequentially: the packed, register-tiled kernel behind every evaluation
//! path against the row-at-a-time rank-1 update it replaced, under the same
//! chunk discipline.
//! * `gram_row_wise` — `NormalEqAccumulator::push_row` per matched row.
//! * `gram_packed` — `parallel::accumulate_from_bitset`, which packs each
//!   chunk's rows into blocks for `NormalEqAccumulator::push_rows`.
//!
//! It asserts the two agree bit for bit (every Gram and `Xᵀy` entry, `Σ y`
//! and the count) and prints nanoseconds per matched row for each.
//!
//! Run: `cargo bench -p evoforecast-bench --bench micro_eval`
//! Its first measurements were recorded in commit `4c63a7a` (broad group)
//! and commit `e9c2c5b` (selective group); `git show <commit> -- '*.json'`
//! prints them.

use criterion::{criterion_group, criterion_main, Criterion};
use evoforecast_core::dataset;
use evoforecast_core::regress;
use evoforecast_core::rule::{Condition, Gene};
use evoforecast_core::{parallel, ColumnStore, ExampleSet, GeneBitsets, MatchBitset};
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions};
use evoforecast_tsdata::gen::venice::VeniceTide;
use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};
use std::hint::black_box;
use std::time::Instant;

/// Paper scale for Venice: D = 24 hourly taps, τ = 4 h ahead.
const D: usize = 24;
const TAU: usize = 4;
/// 45k training windows, the size of the paper's 1980–1994 training split.
const WINDOWS: usize = 45_000;

fn series() -> Vec<f64> {
    VeniceTide::default()
        .generate(WINDOWS + D + TAU - 1, 9)
        .into_values()
}

/// A broad evolved-style condition: bounded on most taps, wide enough to
/// match the bulk of the training windows — the worst case for evaluation
/// cost and the common case early in a run.
fn broad_condition() -> Condition {
    let genes = (0..D)
        .map(|i| {
            if i % 4 == 3 {
                Gene::Wildcard
            } else {
                Gene::bounded(-60.0 + (i % 5) as f64, 160.0 - (i % 7) as f64)
            }
        })
        .collect();
    Condition::new(genes)
}

/// Matched-set size the selective condition is tuned for: a specialized
/// rule late in a run covers ~1% of the 45k training windows (crowding
/// replacement drives the population toward such niches).
const K_TARGET: usize = 500;

/// A selective evolved-style condition: the broad genes above plus one
/// narrow interval on the *last* tap, chosen from the sorted column so it
/// admits ~[`K_TARGET`] windows. Placing the selective gene last is the
/// worst case for the fused row-scan (it short-circuits on the first
/// failing gene, so here it pays nearly the full `O(N·D)` match) and the
/// common case for delta evaluation (one `O(N)` column sweep + `N·D/64`
/// AND words).
fn selective_condition(ds: &impl ExampleSet) -> Condition {
    let col = ds.column(D - 1).expect("spacing-1 windows expose columns");
    let mut sorted = col.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let start = (sorted.len() - K_TARGET) / 2;
    let (lo, hi) = (sorted[start], sorted[start + K_TARGET - 1]);
    let mut genes = broad_condition().genes().to_vec();
    genes[D - 1] = Gene::bounded(lo, hi);
    Condition::new(genes)
}

/// Per-gene match bitsets for `cond` — what every individual in the
/// population now carries alongside its full match set.
fn gene_sets_for(cond: &Condition, ds: &impl ExampleSet, columns: &ColumnStore) -> GeneBitsets {
    let mut gs = GeneBitsets::new(cond.len(), ds.len());
    for (g, gene) in cond.genes().iter().enumerate() {
        match *gene {
            Gene::Wildcard => gs.set_wildcard(g),
            Gene::Bounded { lo, hi } => gs.recompute_with(g, |bits| {
                dataset::fill_gene_bitset(columns.column(ds, g), lo, hi, bits)
            }),
        }
    }
    gs
}

fn fused(
    cond: &Condition,
    ds: &WindowedDataset<'_>,
    opts: RegressionOptions,
) -> (
    MatchBitset,
    NormalEqAccumulator,
    Option<regress::FittedPart>,
) {
    let (bits, acc) = parallel::match_and_accumulate(cond, ds, opts, usize::MAX);
    let model = regress::fit_from_accumulator(&acc, &bits, ds, opts);
    (bits, acc, model)
}

fn bench_eval(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, TAU).unwrap().dataset(&values).unwrap();
    assert_eq!(ds.len(), WINDOWS);
    let cond = broad_condition();
    let opts = RegressionOptions::fast();

    // Sanity: the comparison is apples-to-apples — same matched set, same
    // coefficients (within tolerance) from every path.
    let reference = regress::evaluate(&cond, &ds, opts);
    let (bits, acc, model) = fused(&cond, &ds, opts);
    assert_eq!(bits.to_indices(), reference.matched);
    assert!(
        acc.count() > WINDOWS / 4,
        "broad condition should match broadly"
    );
    let (m, r) = (model.unwrap(), reference.model.unwrap());
    assert!((m.error - r.error).abs() < 1e-9);

    let mut g = c.benchmark_group(format!("eval_venice_{}_windows", acc.count()));
    g.sample_size(10);

    g.bench_function("old_two_pass_qr", |b| {
        b.iter(|| {
            black_box(regress::evaluate(
                black_box(&cond),
                &ds,
                RegressionOptions::default(),
            ))
        })
    });
    g.bench_function("old_two_pass_ridge", |b| {
        b.iter(|| black_box(regress::evaluate(black_box(&cond), &ds, opts)))
    });
    g.bench_function("fused_single_pass", |b| {
        b.iter(|| black_box(fused(black_box(&cond), &ds, opts)))
    });
    g.finish();
}

fn bench_delta(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, TAU).unwrap().dataset(&values).unwrap();
    let cond = selective_condition(&ds);
    let opts = RegressionOptions::fast();
    let columns = ColumnStore::build(&ds);
    let (sel_lo, sel_hi) = match cond.genes()[D - 1] {
        Gene::Bounded { lo, hi } => (lo, hi),
        Gene::Wildcard => unreachable!("last gene is the selective interval"),
    };
    eprintln!(
        "cores: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // The two parents an offspring copies its gene bitsets from. Identical
    // content so every comparator yields the same matched set (apples to
    // apples with the fused kernel below), but two distinct allocations so
    // crossover's copy traffic touches both parents as in `Engine::step`.
    let parent_a = gene_sets_for(&cond, &ds, &columns);
    let parent_b = gene_sets_for(&cond, &ds, &columns);
    let mut scratch = GeneBitsets::new(D, ds.len());
    let mut full = MatchBitset::new(ds.len());

    // Sanity before measuring: the delta path (copy D−1 genes, recompute the
    // mutated one, AND, rebuild Gram/Xᵀy over set bits) is bit-identical to
    // the fused from-scratch kernel — same matched set, same coefficients,
    // same e_R, not merely within tolerance.
    let (bits, acc, model) = fused(&cond, &ds, opts);
    let k = acc.count();
    assert!(
        (300..=1_000).contains(&k),
        "selective condition should match ~{K_TARGET} windows, got {k}"
    );
    for g in 0..D - 1 {
        scratch.copy_gene_from(g, &parent_a);
    }
    scratch.recompute_with(D - 1, |out| {
        dataset::fill_gene_bitset(columns.column(&ds, D - 1), sel_lo, sel_hi, out)
    });
    scratch.intersect_into(&mut full);
    assert_eq!(full, bits, "delta match set must equal the fused scan");
    let (count, delta_model) = regress::fit_via_bitset(&full, &ds, opts, usize::MAX);
    assert_eq!(count, k);
    let (m, d) = (model.unwrap(), delta_model.unwrap());
    assert_eq!(m.coefficients, d.coefficients);
    assert_eq!(m.intercept, d.intercept);
    assert_eq!(m.error, d.error);

    let mut g = c.benchmark_group(format!("delta_venice_{k}_matched"));
    g.sample_size(10);

    g.bench_function("fused_single_pass", |b| {
        b.iter(|| black_box(fused(black_box(&cond), &ds, opts)))
    });
    g.bench_function("delta_mutation", |b| {
        b.iter(|| {
            for gi in 0..D - 1 {
                scratch.copy_gene_from(gi, black_box(&parent_a));
            }
            scratch.recompute_with(D - 1, |out| {
                dataset::fill_gene_bitset(
                    columns.column(&ds, D - 1),
                    black_box(sel_lo),
                    black_box(sel_hi),
                    out,
                )
            });
            scratch.intersect_into(&mut full);
            black_box(regress::fit_via_bitset(&full, &ds, opts, usize::MAX))
        })
    });
    g.bench_function("bitset_and_crossover", |b| {
        b.iter(|| {
            for gi in 0..D {
                let donor = if gi % 2 == 0 { &parent_a } else { &parent_b };
                scratch.copy_gene_from(gi, black_box(donor));
            }
            scratch.intersect_into(&mut full);
            black_box(regress::fit_via_bitset(&full, &ds, opts, usize::MAX))
        })
    });
    g.finish();
}

/// The Gram build the packed kernel replaced: one rank-1 `push_row` per set
/// bit, per [`regress::GRAM_CHUNK`], non-empty chunks merged in order.
fn gram_row_wise(
    bits: &MatchBitset,
    ds: &WindowedDataset<'_>,
    opts: RegressionOptions,
) -> NormalEqAccumulator {
    let mut acc = NormalEqAccumulator::new(D, opts.intercept);
    let mut part = NormalEqAccumulator::new(D, opts.intercept);
    let mut chunk = 0;
    for i in bits.iter_ones() {
        if i / regress::GRAM_CHUNK != chunk {
            if part.count() > 0 {
                acc.merge(&part);
            }
            part = NormalEqAccumulator::new(D, opts.intercept);
            chunk = i / regress::GRAM_CHUNK;
        }
        part.push_row(ds.features(i), ds.target(i));
    }
    if part.count() > 0 {
        acc.merge(&part);
    }
    acc
}

fn bench_gram(c: &mut Criterion) {
    let values = series();
    let ds = WindowSpec::new(D, TAU).unwrap().dataset(&values).unwrap();
    let cond = selective_condition(&ds);
    let opts = RegressionOptions::fast();
    let (bits, _) = parallel::match_and_accumulate(&cond, &ds, opts, usize::MAX);
    let k = bits.count_ones();

    let packed = parallel::accumulate_from_bitset(&bits, &ds, opts, usize::MAX);
    let row_wise = gram_row_wise(&bits, &ds, opts);
    assert_eq!(packed.count(), row_wise.count());
    assert_eq!(
        packed.sum_targets().to_bits(),
        row_wise.sum_targets().to_bits()
    );
    let bits_of = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits_of(packed.gram()), bits_of(row_wise.gram()), "Gram");
    assert_eq!(bits_of(packed.xty()), bits_of(row_wise.xty()), "Xᵀy");

    const REPS: usize = 2_000;
    let ns_per_row = |f: &dyn Fn() -> NormalEqAccumulator| {
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / (REPS * k) as f64
    };
    let row_ns = ns_per_row(&|| gram_row_wise(black_box(&bits), &ds, opts));
    let packed_ns =
        ns_per_row(&|| parallel::accumulate_from_bitset(black_box(&bits), &ds, opts, usize::MAX));
    eprintln!(
        "gram over {k} matched rows: row-wise {row_ns:.1} ns/row, packed {packed_ns:.1} ns/row ({:.2}x)",
        row_ns / packed_ns
    );

    let mut g = c.benchmark_group(format!("gram_venice_{k}_matched"));
    g.sample_size(10);
    g.bench_function("gram_row_wise", |b| {
        b.iter(|| black_box(gram_row_wise(black_box(&bits), &ds, opts)))
    });
    g.bench_function("gram_packed", |b| {
        b.iter(|| {
            black_box(parallel::accumulate_from_bitset(
                black_box(&bits),
                &ds,
                opts,
                usize::MAX,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_eval, bench_delta, bench_gram);
criterion_main!(benches);
