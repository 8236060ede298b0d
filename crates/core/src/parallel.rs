//! The rayon-parallel refit: [`accumulate_from_bitset`] rebuilds an
//! offspring's normal equations over the set bits of its (AND-derived) match
//! set. It is the engine's per-generation Gram build, once per offspring.
//!
//! Below a size threshold it runs sequentially: rayon's task dispatch costs
//! more than a few thousand windows of work. The sequential and parallel
//! paths return *identical* results, because accumulation is chunked by
//! [`GRAM_CHUNK`], never by thread, and the chunk accumulators merge in
//! ascending chunk order. The literal training oracle in
//! `tests/common/train.rs` pins both paths bit for bit.

use crate::bitset::{ones_in_words, MatchBitset};
use crate::dataset::ExampleSet;
use crate::regress::GRAM_CHUNK;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions, RowPack};
use rayon::prelude::*;

/// Accumulate the normal equations over the set bits of an already-known
/// match set — the engine's refit, where the match set was produced by
/// ANDing per-gene bitsets rather than by rescanning rows. Each
/// [`GRAM_CHUNK`]'s set bits (chunk boundaries are word-aligned) go through
/// the packed, register-tiled Gram kernel
/// ([`NormalEqAccumulator::push_rows`]) into a fresh chunk accumulator, with
/// one [`RowPack`] per call (sequential) or per worker (parallel); non-empty
/// chunk accumulators then merge in ascending chunk order. Parallelized over
/// chunks when the dataset has at least `threshold` windows.
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
    let d = data.feature_len();
    let words_per_chunk = GRAM_CHUNK / 64;
    let words = bits.words();
    let chunk = |pack: &mut RowPack, c: usize| {
        let first = c * words_per_chunk;
        let chunk_words = &words[first..(first + words_per_chunk).min(words.len())];
        let mut part = NormalEqAccumulator::new(d, opts.intercept);
        part.push_rows(
            pack,
            ones_in_words(chunk_words, first).map(|i| {
                debug_assert!(
                    data.features(i).iter().all(|x| x.is_finite()) && data.target(i).is_finite(),
                    "non-finite example at index {i} reached the Gram kernel"
                );
                (data.features(i), data.target(i))
            }),
        );
        part
    };
    let chunks = n.div_ceil(GRAM_CHUNK);
    let parts: Vec<NormalEqAccumulator> = if n < threshold {
        let mut pack = RowPack::new();
        (0..chunks).map(|c| chunk(&mut pack, c)).collect()
    } else {
        (0..chunks)
            .into_par_iter()
            .map_init(RowPack::new, chunk)
            .collect()
    };
    let mut acc = NormalEqAccumulator::new(d, opts.intercept);
    for part in parts.iter().filter(|part| part.count() > 0) {
        acc.merge(part);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn sequential_and_parallel_accumulation_are_bit_identical() {
        // Five chunks, one of them empty: the chunked merge must give the
        // same sums whether the chunks run in order or under rayon.
        let vals = big_series();
        let ds = dataset(&vals);
        let mut bits = MatchBitset::new(ds.len());
        for i in (0..ds.len()).filter(|i| i % 3 != 0 && !(GRAM_CHUNK..2 * GRAM_CHUNK).contains(i)) {
            bits.set(i);
        }
        let opts = RegressionOptions::fast();
        let seq = accumulate_from_bitset(&bits, &ds, opts, usize::MAX);
        let par = accumulate_from_bitset(&bits, &ds, opts, 1);
        assert_eq!(seq.count(), bits.count_ones());
        assert_eq!(seq.count(), par.count());
        let to_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(seq.gram()), to_bits(par.gram()));
        assert_eq!(to_bits(seq.xty()), to_bits(par.xty()));
        assert_eq!(seq.sum_targets().to_bits(), par.sum_targets().to_bits());
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
}
