//! Rayon-parallel kernels.
//!
//! Two operations dominate wall-clock time and parallelize cleanly:
//!
//! * **offspring matching** — testing a condition against every training
//!   window (`O(N·D)` with early exit). For the paper's full-scale Venice
//!   runs that is 45 000 windows × 24 taps per offspring.
//! * **batch prediction** — evaluating a whole validation sweep.
//!
//! Both keep sequential fallbacks below a size threshold: rayon's task
//! dispatch costs more than matching a few thousand windows, and the
//! sequential and parallel paths must return *identical* results (rayon's
//! indexed `filter`/`map` preserve order, so they do — the determinism test
//! below pins that).

use crate::bitset::{ones_in_words, MatchBitset};
use crate::dataset::ExampleSet;
use crate::regress::GRAM_CHUNK;
use crate::rule::Condition;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions, RowPack};
use rayon::prelude::*;

/// Indices of the training windows matched by a condition, parallelized when
/// the dataset has at least `threshold` windows.
pub fn match_indices<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    threshold: usize,
) -> Vec<usize> {
    let n = data.len();
    if n < threshold {
        (0..n)
            .filter(|&i| condition.matches(data.features(i)))
            .collect()
    } else {
        (0..n)
            .into_par_iter()
            .filter(|&i| condition.matches(data.features(i)))
            .collect()
    }
}

/// The one packing helper behind every accumulation path: push the windows
/// `rows` (ascending, all inside one [`GRAM_CHUNK`]) into a fresh chunk
/// accumulator through the packed, register-tiled Gram kernel
/// ([`NormalEqAccumulator::push_rows`]).
fn accumulate_rows<E: ExampleSet>(
    data: &E,
    rows: impl Iterator<Item = usize>,
    pack: &mut RowPack,
    opts: RegressionOptions,
) -> NormalEqAccumulator {
    let mut part = NormalEqAccumulator::new(data.feature_len(), opts.intercept);
    part.push_rows(
        pack,
        rows.map(|i| {
            debug_assert!(
                data.features(i).iter().all(|x| x.is_finite()) && data.target(i).is_finite(),
                "non-finite example at index {i} reached the Gram kernel"
            );
            (data.features(i), data.target(i))
        }),
    );
    part
}

/// Run `chunk` over every [`GRAM_CHUNK`] of an `n`-window dataset, in
/// parallel when `n >= threshold`, with one [`RowPack`] per call
/// (sequential) or per worker (parallel). Results come back in chunk order.
/// A `RowPack` allocates nothing until it is first used, so callers that do
/// not accumulate just ignore it.
fn map_chunks<R, F>(n: usize, threshold: usize, chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RowPack, usize) -> R + Send + Sync,
{
    let chunks = n.div_ceil(GRAM_CHUNK);
    if n < threshold {
        let mut pack = RowPack::new();
        (0..chunks).map(|c| chunk(&mut pack, c)).collect()
    } else {
        (0..chunks)
            .into_par_iter()
            .map_init(RowPack::new, chunk)
            .collect()
    }
}

/// Merge per-chunk accumulators in ascending chunk order, skipping empty
/// ones — the canonical reduce every path shares.
fn merge_parts(
    parts: impl IntoIterator<Item = NormalEqAccumulator>,
    d: usize,
    opts: RegressionOptions,
) -> NormalEqAccumulator {
    let mut acc = NormalEqAccumulator::new(d, opts.intercept);
    for part in parts {
        if part.count() > 0 {
            acc.merge(&part);
        }
    }
    acc
}

/// Single-pass evaluation front half: match `condition` against every window
/// *and* accumulate the ridge normal equations over the matches, without
/// materializing a design matrix. Parallelized over [`GRAM_CHUNK`]-sized
/// chunks when the dataset has at least `threshold` windows.
///
/// The chunk structure — not the thread count — determines the
/// floating-point summation order: each chunk's rows go through the packed
/// kernel in ascending window order, and per-chunk accumulators always merge
/// in ascending chunk order, skipping empty chunks. So the sequential path,
/// the parallel path, the index path
/// ([`crate::matchindex::MatchIndex::match_accumulate_with_parallel_fallback`])
/// and [`accumulate_from_bitset`] return bit-identical results.
pub fn match_and_accumulate<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    opts: RegressionOptions,
    threshold: usize,
) -> (MatchBitset, NormalEqAccumulator) {
    let n = data.len();
    let parts = map_chunks(n, threshold, |pack, c| {
        let start = c * GRAM_CHUNK;
        let end = (start + GRAM_CHUNK).min(n);
        let mut words = vec![0u64; (end - start).div_ceil(64)];
        let matched = (start..end)
            .filter(|&i| condition.matches(data.features(i)))
            .inspect(|&i| words[(i - start) / 64] |= 1u64 << ((i - start) % 64));
        let part = accumulate_rows(data, matched, pack, opts);
        (part, words)
    });
    let mut bits = MatchBitset::new(n);
    for (chunk, (_, words)) in parts.iter().enumerate() {
        bits.splice_words(chunk * (GRAM_CHUNK / 64), words);
    }
    let acc = merge_parts(
        parts.into_iter().map(|(part, _)| part),
        data.feature_len(),
        opts,
    );
    (bits, acc)
}

/// Accumulate the normal equations over an explicit ascending matched-index
/// list — the index-assisted entry into the fused path. Each chunk's run of
/// indices goes through the same packing helper and merge as
/// [`match_and_accumulate`], so the two agree bit-for-bit on the same match
/// set.
///
/// # Panics
/// Panics (in debug builds) when `indices` is not sorted ascending.
pub fn accumulate_sorted_indices<E: ExampleSet>(
    indices: &[usize],
    data: &E,
    opts: RegressionOptions,
) -> (MatchBitset, NormalEqAccumulator) {
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "indices must be sorted"
    );
    let mut bits = MatchBitset::new(data.len());
    let mut pack = RowPack::new();
    let parts = indices
        .chunk_by(|a, b| a / GRAM_CHUNK == b / GRAM_CHUNK)
        .map(|run| {
            for &i in run {
                bits.set(i);
            }
            accumulate_rows(data, run.iter().copied(), &mut pack, opts)
        });
    let acc = merge_parts(parts, data.feature_len(), opts);
    (bits, acc)
}

/// Accumulate the normal equations over the set bits of an already-known
/// match set — the delta-evaluation entry into the fused path, where the
/// match set was produced by ANDing per-gene bitsets rather than by
/// rescanning rows. Each [`GRAM_CHUNK`]'s set bits (chunk boundaries are
/// word-aligned) go through the same packing helper and merge as
/// [`match_and_accumulate`] / [`accumulate_sorted_indices`], so all three
/// agree bit-for-bit on the same match set. Parallelized over chunks when
/// the dataset has at least `threshold` windows.
///
/// # Panics
/// Panics (in debug builds) when the bitset universe differs from the
/// dataset length.
pub fn accumulate_from_bitset<E: ExampleSet>(
    bits: &MatchBitset,
    data: &E,
    opts: RegressionOptions,
    threshold: usize,
) -> NormalEqAccumulator {
    let n = data.len();
    debug_assert_eq!(bits.len(), n, "bitset universe mismatch");
    let words_per_chunk = GRAM_CHUNK / 64;
    let words = bits.words();
    let parts = map_chunks(n, threshold, |pack, c| {
        let first = c * words_per_chunk;
        let chunk_words = &words[first..(first + words_per_chunk).min(words.len())];
        accumulate_rows(data, ones_in_words(chunk_words, first), pack, opts)
    });
    merge_parts(parts, data.feature_len(), opts)
}

/// Matched windows as a bitset (no regression accumulation) — used for the
/// ensemble's incremental coverage union. Chunked and parallelized like
/// [`match_and_accumulate`].
pub fn match_bitset<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    threshold: usize,
) -> MatchBitset {
    let n = data.len();
    let parts = map_chunks(n, threshold, |_, c| {
        let start = c * GRAM_CHUNK;
        let end = (start + GRAM_CHUNK).min(n);
        let mut words = vec![0u64; (end - start).div_ceil(64)];
        for i in start..end {
            if condition.matches(data.features(i)) {
                let local = i - start;
                words[local / 64] |= 1u64 << (local % 64);
            }
        }
        words
    });
    let mut bits = MatchBitset::new(n);
    for (chunk, words) in parts.into_iter().enumerate() {
        bits.splice_words(chunk * (GRAM_CHUNK / 64), &words);
    }
    bits
}

/// Apply a prediction function over every window of a dataset in parallel.
/// `None` entries are abstentions.
pub fn batch_predict<E, F>(data: &E, threshold: usize, predict: F) -> Vec<Option<f64>>
where
    E: ExampleSet,
    F: Fn(&[f64]) -> Option<f64> + Sync,
{
    let n = data.len();
    if n < threshold {
        (0..n).map(|i| predict(data.features(i))).collect()
    } else {
        (0..n)
            .into_par_iter()
            .map(|i| predict(data.features(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Gene;
    use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};

    fn dataset(values: &[f64]) -> WindowedDataset<'_> {
        WindowSpec::new(3, 1).unwrap().dataset(values).unwrap()
    }

    fn big_series() -> Vec<f64> {
        (0..20_000)
            .map(|i| (i as f64 * 0.013).sin() * 40.0)
            .collect()
    }

    #[test]
    fn parallel_and_sequential_match_identically() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-10.0, 10.0),
            Gene::Wildcard,
            Gene::bounded(0.0, 40.0),
        ]);
        let seq = match_indices(&cond, &ds, usize::MAX);
        let par = match_indices(&cond, &ds, 1);
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
    }

    #[test]
    fn match_indices_are_sorted_and_correct() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let idx = match_indices(&cond, &ds, 1);
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted"
        );
        for &i in &idx {
            assert!(cond.matches(ds.window(i)));
        }
        // Complement check: unmatched windows really fail.
        let matched: std::collections::HashSet<usize> = idx.iter().copied().collect();
        for i in 0..ds.len() {
            if !matched.contains(&i) {
                assert!(!cond.matches(ds.window(i)));
            }
        }
    }

    #[test]
    fn batch_predict_parallel_equals_sequential() {
        let vals = big_series();
        let ds = dataset(&vals);
        let f = |w: &[f64]| {
            if w[0] > 0.0 {
                Some(w.iter().sum::<f64>())
            } else {
                None
            }
        };
        let seq = batch_predict(&ds, usize::MAX, f);
        let par = batch_predict(&ds, 1, f);
        assert_eq!(seq.len(), ds.len());
        assert_eq!(seq, par);
        assert!(seq.iter().any(Option::is_some));
        assert!(seq.iter().any(Option::is_none));
    }

    #[test]
    fn empty_match_set() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(1e6, 2e6),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        assert!(match_indices(&cond, &ds, 1).is_empty());
        assert!(match_indices(&cond, &ds, usize::MAX).is_empty());
    }

    #[test]
    fn fused_parallel_and_sequential_are_bit_identical() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-10.0, 10.0),
            Gene::Wildcard,
            Gene::bounded(0.0, 40.0),
        ]);
        let opts = RegressionOptions::fast();
        let (seq_bits, seq_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let (par_bits, par_acc) = match_and_accumulate(&cond, &ds, opts, 1);
        assert_eq!(seq_bits, par_bits);
        assert_eq!(seq_acc.count(), par_acc.count());
        assert_eq!(
            seq_acc.sum_targets().to_bits(),
            par_acc.sum_targets().to_bits()
        );
        let a = seq_acc.solve(opts.ridge_lambda).unwrap();
        let b = par_acc.solve(opts.ridge_lambda).unwrap();
        assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "parallel Gram must be bit-identical"
            );
        }
    }

    #[test]
    fn fused_bitset_agrees_with_match_indices() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (bits, acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let indices = match_indices(&cond, &ds, usize::MAX);
        assert_eq!(bits.to_indices(), indices);
        assert_eq!(acc.count(), indices.len());
        assert_eq!(match_bitset(&cond, &ds, usize::MAX), bits);
        assert_eq!(match_bitset(&cond, &ds, 1), bits);
    }

    #[test]
    fn sorted_index_accumulation_matches_fused_scan() {
        // The index path feeds accumulate_sorted_indices; its chunked merge
        // must reproduce the scan's sums bit-for-bit.
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-25.0, 25.0),
            Gene::bounded(-40.0, 40.0),
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (scan_bits, scan_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let indices = match_indices(&cond, &ds, usize::MAX);
        let (idx_bits, idx_acc) = accumulate_sorted_indices(&indices, &ds, opts);
        assert_eq!(scan_bits, idx_bits);
        let a = scan_acc.solve(opts.ridge_lambda).unwrap();
        let b = idx_acc.solve(opts.ridge_lambda).unwrap();
        assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bitset_accumulation_matches_fused_scan_bit_for_bit() {
        // The delta path hands an AND-derived bitset to
        // accumulate_from_bitset; its chunked merge must reproduce the fused
        // scan's sums exactly, sequentially and under rayon.
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-25.0, 25.0),
            Gene::bounded(-40.0, 40.0),
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (scan_bits, scan_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        for threshold in [usize::MAX, 1] {
            let acc = accumulate_from_bitset(&scan_bits, &ds, opts, threshold);
            assert_eq!(acc.count(), scan_acc.count());
            assert_eq!(
                acc.sum_targets().to_bits(),
                scan_acc.sum_targets().to_bits()
            );
            let a = acc.solve(opts.ridge_lambda).unwrap();
            let b = scan_acc.solve(opts.ridge_lambda).unwrap();
            assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
            for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bitset_accumulation_of_empty_set_is_empty() {
        let vals = big_series();
        let ds = dataset(&vals);
        let opts = RegressionOptions::fast();
        let empty = MatchBitset::new(ds.len());
        for threshold in [usize::MAX, 1] {
            let acc = accumulate_from_bitset(&empty, &ds, opts, threshold);
            assert_eq!(acc.count(), 0);
        }
    }

    #[test]
    fn fused_empty_match_set() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(1e6, 2e6),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (bits, acc) = match_and_accumulate(&cond, &ds, opts, 1);
        assert_eq!(bits.count_ones(), 0);
        assert_eq!(acc.count(), 0);
        let (bits2, acc2) = accumulate_sorted_indices(&[], &ds, opts);
        assert_eq!(bits2.count_ones(), 0);
        assert_eq!(acc2.count(), 0);
    }

    #[test]
    fn threshold_boundary_behaviour() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = dataset(&vals);
        let cond = Condition::all_wildcards(3);
        // n = 97 windows; thresholds straddling n give identical output.
        assert_eq!(match_indices(&cond, &ds, 97), match_indices(&cond, &ds, 98));
    }
}
