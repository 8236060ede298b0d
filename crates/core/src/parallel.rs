//! Rayon-parallel kernels.
//!
//! * **refit** — [`accumulate_from_bitset`] rebuilds an offspring's normal
//!   equations over the set bits of its (AND-derived) match set: the
//!   engine's per-generation Gram build, once per offspring.
//! * **batch prediction** — [`batch_predict`] evaluates a whole validation
//!   sweep.
//! * **reference matchers** — [`match_and_accumulate`] (match every window
//!   against the whole condition and accumulate in the same pass) and
//!   [`match_bitset`] (match only) recompute a match set from scratch. The
//!   engine never calls them; tests and benches use them as the oracle the
//!   delta path is pinned against.
//!
//! Every kernel keeps a sequential fallback below a size threshold: rayon's
//! task dispatch costs more than a few thousand windows of work. The
//! sequential and parallel paths return *identical* results — accumulation
//! is chunked by [`GRAM_CHUNK`], never by thread, and every parallel map
//! keeps window order; the tests below pin that bit for bit.

use crate::bitset::{ones_in_words, MatchBitset};
use crate::dataset::ExampleSet;
use crate::regress::GRAM_CHUNK;
use crate::rule::Condition;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions, RowPack};
use rayon::prelude::*;

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

/// Reference evaluation front half: match `condition` against every window
/// *and* accumulate the ridge normal equations over the matches, without
/// materializing a design matrix. Parallelized over [`GRAM_CHUNK`]-sized
/// chunks when the dataset has at least `threshold` windows. The engine's
/// delta path is tested and benchmarked against it.
///
/// The chunk structure — not the thread count — determines the
/// floating-point summation order: each chunk's rows go through the packed
/// kernel in ascending window order, and per-chunk accumulators always merge
/// in ascending chunk order, skipping empty chunks. So the sequential path,
/// the parallel path and [`accumulate_from_bitset`] return bit-identical
/// results.
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

/// Accumulate the normal equations over the set bits of an already-known
/// match set — the engine's refit, where the match set was produced by
/// ANDing per-gene bitsets rather than by rescanning rows. Each
/// [`GRAM_CHUNK`]'s set bits (chunk boundaries are word-aligned) go through
/// the same packing helper and merge as [`match_and_accumulate`], so the two
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

/// Matched windows as a bitset (no regression accumulation) — the test
/// reference for the engine's per-slot match sets. Chunked and parallelized
/// like [`match_and_accumulate`].
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
        let seq = match_bitset(&cond, &ds, usize::MAX);
        let par = match_bitset(&cond, &ds, 1);
        assert_eq!(seq, par);
        assert!(seq.count_ones() > 0);
    }

    #[test]
    fn match_bitset_is_exactly_the_matching_windows() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let bits = match_bitset(&cond, &ds, 1);
        for i in 0..ds.len() {
            assert_eq!(bits.contains(i), cond.matches(ds.window(i)), "window {i}");
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
        assert_eq!(match_bitset(&cond, &ds, 1).count_ones(), 0);
        assert_eq!(match_bitset(&cond, &ds, usize::MAX).count_ones(), 0);
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
    fn fused_bitset_agrees_with_match_bitset() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (bits, acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        assert_eq!(acc.count(), bits.count_ones());
        assert_eq!(match_bitset(&cond, &ds, usize::MAX), bits);
        assert_eq!(match_bitset(&cond, &ds, 1), bits);
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
    }

    #[test]
    fn threshold_boundary_behaviour() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = dataset(&vals);
        let cond = Condition::all_wildcards(3);
        // n = 97 windows; thresholds straddling n give identical output.
        assert_eq!(match_bitset(&cond, &ds, 97), match_bitset(&cond, &ds, 98));
    }
}
