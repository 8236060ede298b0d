//! The example-set abstraction.
//!
//! The paper closes by noting the method "can be generalized for any problem
//! that requires a learning process based on examples" (§5). This trait is
//! that generalization: the engine, initializer, matcher and regression only
//! need *(feature vector, target)* pairs — windowed time series are one
//! source ([`evoforecast_tsdata::window::WindowedDataset`] implements the
//! trait), arbitrary tabular regression data ([`TabularExamples`]) is
//! another.

use crate::bitset::MatchBitset;
use crate::error::EvoError;
use evoforecast_linalg::Matrix;
use evoforecast_tsdata::window::WindowedDataset;

/// A finite set of `(features, target)` regression examples.
///
/// `Sync` is required so rule matching can fan out across worker threads.
pub trait ExampleSet: Sync {
    /// Number of examples.
    fn len(&self) -> usize;

    /// Dimensionality of the feature vectors (the rules' `D`).
    fn feature_len(&self) -> usize;

    /// Borrow the `i`-th feature vector.
    fn features(&self, i: usize) -> &[f64];

    /// The `i`-th target.
    fn target(&self, i: usize) -> f64;

    /// True when there are no examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow feature position `p` as a contiguous column (structure-of-
    /// arrays view): `column(p)[i] == features(i)[p]`. Implementations
    /// whose storage is not columnar return `None` and callers fall back to
    /// [`ColumnStore`], which materializes the columns once. Contiguous
    /// windowed series are zero-copy here — column `p` is just the series
    /// shifted by `p` — and [`TabularExamples`] stores columns explicitly.
    fn column(&self, _p: usize) -> Option<&[f64]> {
        None
    }

    /// Min/max over all feature values — drives mutation step sizes and the
    /// random initializer. The default scans every example once.
    fn feature_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.len() {
            for &x in self.features(i) {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if lo >= hi {
            // Constant features: synthesize a unit-wide range so random
            // intervals stay well-formed.
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        }
    }
}

impl ExampleSet for WindowedDataset<'_> {
    fn len(&self) -> usize {
        WindowedDataset::len(self)
    }

    fn feature_len(&self) -> usize {
        self.spec().window()
    }

    fn features(&self, i: usize) -> &[f64] {
        self.window(i)
    }

    fn target(&self, i: usize) -> f64 {
        WindowedDataset::target(self, i)
    }

    fn column(&self, p: usize) -> Option<&[f64]> {
        // Consecutive-tap windows overlap, so position p of every window is
        // the raw series shifted by p — a zero-copy column. Strided windows
        // (Δ > 1) are materialized row-major; let ColumnStore transpose.
        if self.spec().spacing() == 1 {
            let n = WindowedDataset::len(self);
            Some(&self.raw_values()[p..p + n])
        } else {
            None
        }
    }
}

/// Owned tabular regression examples: a dense feature matrix plus targets,
/// with a structure-of-arrays column copy and per-column min/max memoized at
/// construction (the columnar match kernels read the columns; the memoized
/// ranges make [`ExampleSet::feature_range`] `O(D)` instead of `O(N·D)`).
#[derive(Debug, Clone, PartialEq)]
pub struct TabularExamples {
    features: Matrix,
    targets: Vec<f64>,
    /// `columns[p][i] == features.row(i)[p]` — SoA mirror of `features`.
    columns: Vec<Vec<f64>>,
    /// Memoized overall feature range, widened when degenerate exactly as
    /// the trait default would widen it.
    range: (f64, f64),
}

impl TabularExamples {
    /// Build from a feature matrix (one example per row) and targets.
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] on shape mismatch, empty data, or
    /// non-finite values (naming the first offending row/column).
    pub fn new(features: Matrix, targets: Vec<f64>) -> Result<TabularExamples, EvoError> {
        if features.rows() != targets.len() {
            return Err(EvoError::InvalidConfig(format!(
                "{} feature rows vs {} targets",
                features.rows(),
                targets.len()
            )));
        }
        if features.rows() == 0 || features.cols() == 0 {
            return Err(EvoError::InvalidConfig(
                "tabular examples need at least one row and one column".into(),
            ));
        }
        for i in 0..features.rows() {
            if let Some(p) = features.row(i).iter().position(|x| !x.is_finite()) {
                return Err(EvoError::InvalidConfig(format!(
                    "non-finite feature at row {i}, column {p}"
                )));
            }
        }
        if let Some(i) = targets.iter().position(|t| !t.is_finite()) {
            return Err(EvoError::InvalidConfig(format!(
                "non-finite target at index {i}"
            )));
        }
        let (n, d) = (features.rows(), features.cols());
        let mut columns = vec![Vec::with_capacity(n); d];
        let mut column_ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
        for i in 0..n {
            let row = features.row(i);
            for (p, &x) in row.iter().enumerate() {
                columns[p].push(x);
                let (lo, hi) = column_ranges[p];
                column_ranges[p] = (lo.min(x), hi.max(x));
            }
        }
        let (lo, hi) = column_ranges
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &(lo, hi)| {
                (a.min(lo), b.max(hi))
            });
        // Same degenerate-range widening as the ExampleSet trait default.
        let range = if lo >= hi {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        Ok(TabularExamples {
            features,
            targets,
            columns,
            range,
        })
    }

    /// Min/max of the targets (used to size `EMAX` and initializer bins).
    pub(crate) fn target_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &t in &self.targets {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        (lo, hi)
    }

    /// Borrow the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }
}

impl ExampleSet for TabularExamples {
    fn len(&self) -> usize {
        self.targets.len()
    }

    fn feature_len(&self) -> usize {
        self.features.cols()
    }

    fn features(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    fn column(&self, p: usize) -> Option<&[f64]> {
        Some(&self.columns[p])
    }

    fn feature_range(&self) -> (f64, f64) {
        self.range
    }
}

/// Owned columnar fallback for example sets whose storage cannot expose
/// columns directly (e.g. strided delay-embedding windows). Built once per
/// engine run; [`ColumnStore::column`] prefers the dataset's native column
/// and only reads the transposed copy when there is none.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    owned: Vec<Vec<f64>>,
}

impl ColumnStore {
    /// Probe `data` for native columns; transpose into owned storage only
    /// when some position lacks one. `O(N·D)` in the fallback case, `O(D)`
    /// otherwise.
    pub fn build<E: ExampleSet>(data: &E) -> ColumnStore {
        let d = data.feature_len();
        if (0..d).all(|p| data.column(p).is_some()) {
            return ColumnStore { owned: Vec::new() };
        }
        let n = data.len();
        let mut owned = vec![Vec::with_capacity(n); d];
        for i in 0..n {
            for (p, &x) in data.features(i).iter().enumerate() {
                owned[p].push(x);
            }
        }
        ColumnStore { owned }
    }

    /// Column `p`: the dataset's native column when it has one, else the
    /// transposed copy.
    pub fn column<'a, E: ExampleSet>(&'a self, data: &'a E, p: usize) -> &'a [f64] {
        data.column(p).unwrap_or_else(|| &self.owned[p])
    }
}

/// Columnar single-gene match sweep: set bit `i` of `out` exactly when
/// `column[i] ∈ [lo, hi]` — the same predicate as
/// `Gene::accepts`, evaluated branch-free over one cache-
/// friendly column instead of striding across rows. `O(N)` compares and
/// `N/64` word stores; this is the delta path's gene-recompute kernel.
///
/// # Panics
/// Panics when `column` and `out` disagree on the universe size, and (in
/// debug builds) when the interval bounds are NaN — a NaN bound silently
/// matches nothing, which upstream validation should have caught.
pub fn fill_gene_bitset(column: &[f64], lo: f64, hi: f64, out: &mut MatchBitset) {
    assert_eq!(column.len(), out.len(), "column/bitset length mismatch");
    debug_assert!(!lo.is_nan() && !hi.is_nan(), "NaN gene interval bound");
    let words = out.words_mut();
    for (word, chunk) in words.iter_mut().zip(column.chunks(64)) {
        let mut w = 0u64;
        for (b, &x) in chunk.iter().enumerate() {
            w |= u64::from(x >= lo && x <= hi) << b;
        }
        *word = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Gene;
    use evoforecast_tsdata::gen::venice::VeniceTide;
    use evoforecast_tsdata::window::WindowSpec;
    use proptest::prelude::*;

    #[test]
    fn windowed_dataset_implements_example_set() {
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ds = WindowSpec::new(3, 2).unwrap().dataset(&vals).unwrap();
        assert_eq!(ExampleSet::len(&ds), 6); // 10 - (3 + 2 - 1)
        assert_eq!(ds.feature_len(), 3);
        assert_eq!(ExampleSet::features(&ds, 1), &[1.0, 2.0, 3.0]);
        assert_eq!(ExampleSet::target(&ds, 1), 5.0);
        let (lo, hi) = ds.feature_range();
        assert_eq!((lo, hi), (0.0, 7.0)); // windows cover values 0..=7
    }

    #[test]
    fn tabular_construction_validates() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(TabularExamples::new(m.clone(), vec![1.0]).is_err());
        assert!(TabularExamples::new(Matrix::zeros(0, 2), vec![]).is_err());
        assert!(TabularExamples::new(Matrix::zeros(2, 0), vec![1.0, 2.0]).is_err());
        let mut bad = m.clone();
        bad[(1, 0)] = f64::NAN;
        match TabularExamples::new(bad, vec![1.0, 2.0]) {
            Err(EvoError::InvalidConfig(msg)) => {
                assert!(msg.contains("row 1"), "{msg}");
                assert!(msg.contains("column 0"), "{msg}");
            }
            other => panic!("expected indexed non-finite error, got {other:?}"),
        }
        match TabularExamples::new(m.clone(), vec![1.0, f64::INFINITY]) {
            Err(EvoError::InvalidConfig(msg)) => {
                assert!(msg.contains("target at index 1"), "{msg}")
            }
            other => panic!("expected indexed non-finite error, got {other:?}"),
        }
        assert!(TabularExamples::new(m, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn tabular_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let t = TabularExamples::new(m, vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(ExampleSet::len(&t), 3);
        assert!(!t.is_empty());
        assert_eq!(t.feature_len(), 2);
        assert_eq!(t.features(1), &[3.0, 4.0]);
        assert_eq!(t.target(2), 30.0);
        assert_eq!(t.feature_range(), (1.0, 6.0));
        assert_eq!(t.target_range(), (10.0, 30.0));
        assert_eq!(t.targets(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn constant_feature_range_widened() {
        let m = Matrix::from_rows(&[&[2.0], &[2.0]]);
        let t = TabularExamples::new(m, vec![0.0, 1.0]).unwrap();
        let (lo, hi) = t.feature_range();
        assert!(lo < 2.0 && hi > 2.0);
    }

    #[test]
    fn columns_mirror_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let t = TabularExamples::new(m, vec![0.0, 0.0, 0.0]).unwrap();
        assert_eq!(t.column(0), Some(&[1.0, 3.0, 5.0][..]));
        assert_eq!(t.column(1), Some(&[2.0, 4.0, 6.0][..]));

        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let ds = WindowSpec::new(3, 1).unwrap().dataset(&vals).unwrap();
        for p in 0..3 {
            let col = ds.column(p).expect("contiguous windows expose columns");
            assert_eq!(col.len(), ExampleSet::len(&ds));
            for (i, &x) in col.iter().enumerate() {
                assert_eq!(x, ds.window(i)[p]);
            }
        }
    }

    #[test]
    fn column_store_prefers_native_and_transposes_strided() {
        // Contiguous windows: native columns, no owned copy.
        let vals: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ds = WindowSpec::new(4, 1).unwrap().dataset(&vals).unwrap();
        let store = ColumnStore::build(&ds);
        for p in 0..4 {
            assert_eq!(store.column(&ds, p), ds.column(p).unwrap());
        }

        // Strided delay embedding: no native column, the store transposes.
        let strided = WindowSpec::with_spacing(3, 1, 2)
            .unwrap()
            .dataset(&vals)
            .unwrap();
        assert!(ExampleSet::column(&strided, 0).is_none());
        let store = ColumnStore::build(&strided);
        for p in 0..3 {
            let col = store.column(&strided, p);
            assert_eq!(col.len(), ExampleSet::len(&strided));
            for (i, &x) in col.iter().enumerate() {
                assert_eq!(x, strided.window(i)[p]);
            }
        }
    }

    #[test]
    fn gene_bitset_fill_matches_interval_semantics() {
        let column = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN];
        let mut bits = MatchBitset::new(column.len());
        fill_gene_bitset(&column, 1.0, 3.0, &mut bits);
        // Closed interval, NaN excluded.
        assert_eq!(bits.to_indices(), vec![1, 2, 3]);
        // Refill overwrites every word — no stale bits survive.
        fill_gene_bitset(&column, 5.0, 9.0, &mut bits);
        assert_eq!(bits.to_indices(), vec![5]);
        // Long column exercises multiple words.
        let long: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let mut bits = MatchBitset::new(200);
        fill_gene_bitset(&long, 63.0, 130.0, &mut bits);
        assert_eq!(bits.to_indices(), (63..=130).collect::<Vec<_>>());
        // Ramp windows: [3, 5] on position 0 keeps both boundary windows.
        let ramp: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ds = WindowSpec::new(2, 1).unwrap().dataset(&ramp).unwrap();
        let mut bits = MatchBitset::new(ExampleSet::len(&ds));
        fill_gene_bitset(ds.column(0).unwrap(), 3.0, 5.0, &mut bits);
        assert_eq!(bits.to_indices(), vec![3, 4, 5]);
    }

    /// Windows whose position-`p` value the gene `[lo, hi]` accepts, by
    /// brute force over the rows.
    fn accepted<E: ExampleSet>(ds: &E, p: usize, lo: f64, hi: f64) -> Vec<usize> {
        let gene = Gene::Bounded { lo, hi };
        (0..ds.len())
            .filter(|&i| gene.accepts(ds.features(i)[p]))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The sweep fills exactly the [`Gene::accepts`] member set, through
        /// a native spacing-1 column and through a transposed strided one.
        #[test]
        fn sweep_agrees_with_gene_accepts(
            seed in 0u64..500,
            p in 0usize..3,
            lo in -80.0..120.0f64,
            width in 0.1..80.0f64,
        ) {
            let series = VeniceTide::default().generate(800, seed).into_values();
            let hi = lo + width;
            for spacing in [1, 3] {
                let ds = WindowSpec::with_spacing(3, 1, spacing)
                    .unwrap()
                    .dataset(&series)
                    .unwrap();
                prop_assert_eq!(ds.column(p).is_some(), spacing == 1);
                let store = ColumnStore::build(&ds);
                let mut bits = MatchBitset::new(ExampleSet::len(&ds));
                fill_gene_bitset(store.column(&ds, p), lo, hi, &mut bits);
                prop_assert_eq!(bits.to_indices(), accepted(&ds, p, lo, hi));
            }
        }
    }
}
