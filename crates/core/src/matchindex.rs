//! Sorted-projection index for per-gene matching.
//!
//! Delta re-evaluation recomputes the match bitset of every gene a mutation
//! rewrites. Most *evolved* genes are selective — the interval admits only a
//! small slice of the data — so a per-position sorted projection answers
//! the gene's query by two binary searches plus one bit per member:
//!
//! * **build** (once per run): sort `(value, window)` pairs per position —
//!   `O(D · N log N)`,
//! * **query** (per rewritten gene): binary-search the interval and set the
//!   bits of the candidate range — `O(log N + K)` for `K` members.
//!
//! Broad intervals (admitting [`SCAN_FRACTION`] of the windows or more) are
//! declined, and the caller falls back to the columnar sweep
//! ([`crate::dataset::fill_gene_bitset`]), which is faster there. Both routes
//! produce the exact member set — the tests pin that.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;

/// Decline the range query when the interval admits this fraction of the
/// windows or more.
pub const SCAN_FRACTION: f64 = 0.5;

/// Per-position sorted projections of an example set.
#[derive(Debug, Clone)]
pub struct MatchIndex {
    /// `projections[p]` = `(value at position p, window id)` sorted by value.
    projections: Vec<Vec<(f64, u32)>>,
    examples: usize,
}

impl MatchIndex {
    /// Build the index. `O(D · N log N)`; windows must fit in `u32`
    /// (4 × 10⁹ — far beyond any series here).
    ///
    /// # Panics
    /// Panics when the dataset exceeds `u32::MAX` examples.
    pub fn build<E: ExampleSet>(data: &E) -> MatchIndex {
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "dataset too large for the index");
        let d = data.feature_len();
        let mut projections = Vec::with_capacity(d);
        for p in 0..d {
            let mut column: Vec<(f64, u32)> =
                (0..n).map(|i| (data.features(i)[p], i as u32)).collect();
            column.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            projections.push(column);
        }
        MatchIndex {
            projections,
            examples: n,
        }
    }

    /// Fill `out` with the windows whose position-`p` value lies inside
    /// `[lo, hi]`, via a range query over the sorted projection. Returns
    /// `false` — leaving `out` untouched — when the interval admits
    /// [`SCAN_FRACTION`] of the windows or more: there the columnar sweep
    /// ([`crate::dataset::fill_gene_bitset`]) is cheaper than scattering that
    /// many random bits, and the caller should fall back to it.
    ///
    /// # Panics
    /// Panics when `out`'s universe differs from the indexed example count.
    pub fn fill_gene_bitset(&self, p: usize, lo: f64, hi: f64, out: &mut MatchBitset) -> bool {
        assert_eq!(out.len(), self.examples, "bitset universe mismatch");
        let column = &self.projections[p];
        let start = column.partition_point(|&(v, _)| v < lo);
        let end = column.partition_point(|&(v, _)| v <= hi);
        if ((end - start) as f64) >= SCAN_FRACTION * self.examples as f64 {
            return false;
        }
        out.clear();
        for &(_, id) in &column[start..end] {
            out.set(id as usize);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::fill_gene_bitset;
    use evoforecast_tsdata::gen::venice::VeniceTide;
    use evoforecast_tsdata::window::WindowSpec;
    use proptest::prelude::*;

    fn venice_windows(n: usize) -> (Vec<f64>, WindowSpec) {
        let series = VeniceTide::default().generate(n, 5).into_values();
        (series, WindowSpec::new(6, 1).unwrap())
    }

    /// Windows whose position-`p` value lies in `[lo, hi]`, by brute force.
    fn members<E: ExampleSet>(ds: &E, p: usize, lo: f64, hi: f64) -> Vec<usize> {
        (0..ds.len())
            .filter(|&i| (lo..=hi).contains(&ds.features(i)[p]))
            .collect()
    }

    #[test]
    fn gene_bitset_range_query_matches_brute_force() {
        let (values, spec) = venice_windows(3_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::new(ds.len());
        // Selective band: the range query must fill the exact member set.
        assert!(index.fill_gene_bitset(2, 60.0, 80.0, &mut out));
        let expect = members(&ds, 2, 60.0, 80.0);
        assert_eq!(out.to_indices(), expect);
        assert!(!expect.is_empty(), "band should match something");
    }

    #[test]
    fn gene_bitset_refill_leaves_no_stale_bits() {
        let (values, spec) = venice_windows(1_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::new(ds.len());
        assert!(index.fill_gene_bitset(0, 60.0, 80.0, &mut out));
        // Refill with a disjoint (empty) band: old bits must vanish.
        assert!(index.fill_gene_bitset(0, 1e6, 2e6, &mut out));
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn gene_bitset_declines_broad_intervals() {
        let (values, spec) = venice_windows(1_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::from_indices(ds.len(), &[7]);
        // An interval covering everything admits >= SCAN_FRACTION of the
        // windows: the query must decline and leave `out` untouched.
        assert!(!index.fill_gene_bitset(0, -1e6, 1e6, &mut out));
        assert_eq!(out.to_indices(), vec![7]);
    }

    #[test]
    fn boundary_values_included() {
        // Ramp windows: interval [3, 5] on position 0 matches windows 3..=5.
        let values: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let spec = WindowSpec::new(2, 1).unwrap();
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::new(ds.len());
        assert!(index.fill_gene_bitset(0, 3.0, 5.0, &mut out));
        assert_eq!(out.to_indices(), vec![3, 4, 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn range_query_always_agrees_with_column_sweep(
            seed in 0u64..500,
            p in 0usize..3,
            lo in -80.0..120.0f64,
            width in 0.1..80.0f64,
        ) {
            let series = VeniceTide::default().generate(800, seed).into_values();
            let ds = WindowSpec::new(3, 1).unwrap().dataset(&series).unwrap();
            let index = MatchIndex::build(&ds);
            let hi = lo + width;
            let mut sweep = MatchBitset::new(ds.len());
            let column: Vec<f64> = (0..ds.len()).map(|i| ds.features(i)[p]).collect();
            fill_gene_bitset(&column, lo, hi, &mut sweep);
            prop_assert_eq!(sweep.to_indices(), members(&ds, p, lo, hi));
            let mut query = MatchBitset::new(ds.len());
            if index.fill_gene_bitset(p, lo, hi, &mut query) {
                prop_assert_eq!(query, sweep);
            } else {
                prop_assert!(sweep.count_ones() as f64 >= SCAN_FRACTION * ds.len() as f64);
            }
        }
    }
}
