//! Core's worker threads, and the parallel refit that uses them.
//!
//! `map_ranges` is the one place `core` decides how to split independent
//! work across threads: it maps `0..n` over contiguous index ranges on
//! scoped threads and returns the results in index order, so parallel
//! results are identical to sequential ones whatever the worker count. Its
//! callers are the Gram build below, batched prediction
//! ([`crate::predict::RuleSetPredictor::predict_dataset`]) and the
//! supervisor's waves of executions.
//!
//! [`accumulate_from_bitset`] rebuilds an offspring's normal equations over
//! the set bits of its (AND-derived) match set. It is the engine's
//! per-generation Gram build, once per offspring. Below a size threshold it
//! runs sequentially: spawning workers costs more than a few thousand
//! windows of work. The sequential and parallel paths return *identical*
//! results, because accumulation is chunked by [`GRAM_CHUNK`], never by
//! thread, and the chunk accumulators merge in ascending chunk order. The
//! literal training oracle in `tests/common/train.rs` pins both paths bit
//! for bit.

use crate::bitset::{ones_in_words, MatchBitset};
use crate::dataset::ExampleSet;
use crate::regress::GRAM_CHUNK;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions, RowPack};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Most worker threads one [`map_ranges`] call uses.
const MAX_WORKERS: usize = 64;

/// The machine's parallelism, capped at [`MAX_WORKERS`]. Read once: the
/// query reads cgroup files, which costs more than a small parallel Gram.
fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_WORKERS)
    })
}

/// Map `f` over `0..n` in parallel and return the results in index order.
///
/// `0..n` is split into at most one contiguous range per available worker
/// (never more ranges than items); `init` makes one state per range, which
/// `f` borrows for every index of that range. The first range runs on the
/// calling thread. A panic in any range reaches the caller with its
/// original payload.
pub(crate) fn map_ranges<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    map_ranges_on(available_workers(), n, init, f)
}

/// [`map_ranges`] with an explicit worker count.
fn map_ranges_on<S, T, I, F>(workers: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let run = |range: Range<usize>| -> Vec<T> {
        let mut state = init();
        range.map(|i| f(&mut state, i)).collect()
    };
    if n == 0 {
        return Vec::new();
    }
    let len = n.div_ceil(workers.clamp(1, n));
    if len == n {
        return run(0..n);
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (len..n)
            .step_by(len)
            .map(|lo| scope.spawn(move || run(lo..(lo + len).min(n))))
            .collect();
        let mut out = run(0..len);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

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
        map_ranges(chunks, RowPack::new, chunk)
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

    /// Worker counts the helper must agree across for `n` items.
    fn worker_counts(n: usize) -> [usize; 5] {
        [1, 2, 3, 8, n + 1]
    }

    #[test]
    fn map_ranges_output_is_independent_of_worker_count() {
        let square = |_: &mut (), i: usize| (i as u64) * (i as u64) + 1;
        for n in [0, 1, 7, 1000] {
            let expected: Vec<u64> = (0..n).map(|i| square(&mut (), i)).collect();
            for workers in worker_counts(n) {
                let got = map_ranges_on(workers, n, || (), square);
                assert_eq!(got, expected, "n = {n}, workers = {workers}");
            }
            assert_eq!(map_ranges(n, || (), square), expected);
        }
    }

    #[test]
    fn map_ranges_runs_init_once_per_non_empty_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [0, 1, 7, 1000] {
            for workers in worker_counts(n) {
                let inits = AtomicUsize::new(0);
                let got = map_ranges_on(
                    workers,
                    n,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |state, i| (*state, i),
                );
                let inits = inits.into_inner();
                // Each state serves one contiguous block of indices, and
                // every state made serves at least one index.
                let mut states: Vec<usize> = got.iter().map(|&(s, _)| s).collect();
                states.dedup();
                assert_eq!(states.len(), inits, "n = {n}, workers = {workers}");
                assert!(inits <= workers.min(n), "n = {n}, workers = {workers}");
                let mut sorted = states.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), states.len(), "a state served two blocks");
                assert!(got.iter().map(|&(_, i)| i).eq(0..n));
            }
        }
    }

    #[test]
    fn map_ranges_re_raises_a_worker_panic_with_its_payload() {
        // Index 999 lies in the last range, so a spawned worker panics
        // (with one worker, the calling thread does).
        for workers in [1, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                map_ranges_on(
                    workers,
                    1000,
                    || (),
                    |_, i| {
                        if i == 999 {
                            std::panic::panic_any(format!("worker failed at {i}"));
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("worker failed at 999"),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn sequential_and_parallel_accumulation_are_bit_identical() {
        // Five chunks, one of them empty: the chunked merge must give the
        // same sums whether the chunks run in order or on workers.
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
