//! Least squares with an intercept, by ridge normal equations.
//!
//! This is the kernel behind every rule's predicting part: the paper fits the
//! hyperplane `v ≈ a_0 x_i + a_1 x_{i+1} + ... + a_{D-1} x_{i+D-1} + a_D`
//! over the windows matched by the rule's condition and takes the maximum
//! absolute residual as the rule's expected error.
//!
//! There is one solver, [`NormalEqAccumulator`]: rows are streamed into the
//! Gram matrix `XᵀX` and `Xᵀy` of the intercept-augmented design, and
//! [`NormalEqAccumulator::solve`] adds a small trace-scaled Tikhonov term and
//! solves `(XᵀX + λI) β = Xᵀy`. The ridge term keeps rank-deficient designs
//! solvable (a rule whose matched windows are collinear, or fewer windows
//! than inputs) and bounds the coefficients, which is exactly the behaviour
//! the evolutionary engine needs: a degenerate rule should still get *some*
//! prediction and a large-ish error rather than aborting the generation.
//! The crate-level docs show a fit end to end.

use crate::cholesky::CholeskyDecomposition;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::vector;

/// Options of the engine's regression solve.
#[derive(Debug, Clone, Copy)]
pub struct RegressionOptions {
    /// Ridge (Tikhonov) penalty, relative to the mean Gram diagonal; passed
    /// to [`NormalEqAccumulator::solve`].
    pub ridge_lambda: f64,
    /// Fit an intercept column (the paper's `a_D` term). Almost always true.
    pub intercept: bool,
}

impl RegressionOptions {
    /// Preset used by the evolutionary engine's offspring evaluation.
    pub fn fast() -> Self {
        RegressionOptions {
            ridge_lambda: 1e-6,
            intercept: true,
        }
    }
}

/// A fitted linear model `y ≈ coefficients · x + intercept`, as returned by
/// [`NormalEqAccumulator::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    coefficients: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    fn from_beta(mut beta: Vec<f64>, intercept: bool) -> Self {
        let b0 = if intercept {
            beta.pop().unwrap_or(0.0)
        } else {
            0.0
        };
        LinearRegression {
            coefficients: beta,
            intercept: b0,
        }
    }

    /// Slope coefficients (length = number of features).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Intercept term (the paper's `a_D`); `0.0` when fitted without one.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Predict a single observation.
    ///
    /// # Panics
    /// Panics in debug builds when `x.len()` differs from the feature count.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.coefficients.len(), "feature count mismatch");
        vector::dot_unchecked(&self.coefficients, x) + self.intercept
    }
}

/// Width of one register tile of the packed Gram kernel: a `4 x 4` tile is
/// 16 accumulators, eight SSE2 registers.
const TILE: usize = 4;

/// `f64`s in one packed row block (32 KiB, about one L1 data cache), so a
/// block stays cached while every tile streams over it.
const PACK_BLOCK_LEN: usize = 4096;

/// Packed row length for an augmented design of `p` columns: the columns,
/// the target, zero padding up to a multiple of [`TILE`].
fn packed_stride(p: usize) -> usize {
    (p + 1).next_multiple_of(TILE)
}

/// Rows per packed block for an augmented design of `p` columns.
fn block_rows(p: usize) -> usize {
    (PACK_BLOCK_LEN / packed_stride(p)).max(1)
}

/// Add every row's products for the tile at columns `(ca, cb)` to `tile`,
/// row by row. Kept out of line so the 16 accumulators get the registers to
/// themselves.
#[inline(never)]
fn stream_tile(
    mut tile: [[f64; TILE]; TILE],
    block: &[f64],
    stride: usize,
    ca: usize,
    cb: usize,
) -> [[f64; TILE]; TILE] {
    for row in block.chunks_exact(stride) {
        let a = &row[ca..ca + TILE];
        let b = &row[cb..cb + TILE];
        for i in 0..TILE {
            for j in 0..TILE {
                tile[i][j] += a[i] * b[j];
            }
        }
    }
    tile
}

/// Scratch for [`NormalEqAccumulator::push_rows`]: one block of packed rows.
///
/// The intercept `1.0`s and the zero padding are the same in every row of a
/// given shape, so they are written once when the shape changes and only
/// the features and targets are copied per row. One per thread, reused
/// across calls, allocates once per shape.
#[derive(Debug, Clone, Default)]
pub struct RowPack {
    /// `(d, intercept)` the buffer is laid out for.
    shape: Option<(usize, bool)>,
    buf: Vec<f64>,
}

impl RowPack {
    /// Empty scratch; the first [`NormalEqAccumulator::push_rows`] lays it
    /// out.
    pub fn new() -> RowPack {
        RowPack::default()
    }

    /// The block for `d` features, laid out afresh when the shape changed.
    fn block(&mut self, d: usize, intercept: bool) -> &mut [f64] {
        if self.shape != Some((d, intercept)) {
            let p = if intercept { d + 1 } else { d };
            let stride = packed_stride(p);
            self.buf.clear();
            self.buf.resize(block_rows(p) * stride, 0.0);
            if intercept {
                for row in self.buf.chunks_exact_mut(stride) {
                    row[d] = 1.0;
                }
            }
            self.shape = Some((d, intercept));
        }
        &mut self.buf
    }
}

/// Streaming accumulator for the ridge normal equations `(XᵀX + λI) β = Xᵀy`.
///
/// The fused evaluation kernel pushes each matched observation as it is
/// discovered, so the design matrix is never materialized: the state is one
/// `p x p` Gram triangle plus `Xᵀy`, `O(p²)` memory regardless of how many
/// rows match. Accumulators over disjoint row chunks can be [`merged`]
/// (entrywise sums), which makes the reduction order explicit — callers that
/// need bit-identical results across sequential/parallel/indexed paths merge
/// per-chunk accumulators in ascending chunk order.
///
/// Rows are added either one at a time by [`push_row`] (a rank-1 update, the
/// reference) or a block at a time by [`push_rows`] (the packed,
/// register-tiled kernel every evaluation path uses). On finite data the two
/// produce bit-identical sums: see [`push_rows`].
///
/// [`merged`]: NormalEqAccumulator::merge
/// [`push_row`]: NormalEqAccumulator::push_row
/// [`push_rows`]: NormalEqAccumulator::push_rows
#[derive(Debug, Clone)]
pub struct NormalEqAccumulator {
    /// Feature count `d` (excluding the intercept column).
    d: usize,
    /// Whether an all-ones intercept column is appended (`p = d + 1`).
    intercept: bool,
    /// Upper triangle of `XᵀX` over the augmented design, row-major `p x p`
    /// (entries below the diagonal stay zero until `solve` mirrors them).
    gram: Vec<f64>,
    /// `Xᵀy` over the augmented design.
    xty: Vec<f64>,
    /// Σ y, kept separately so the mean target is available even without an
    /// intercept column.
    sum_y: f64,
    /// Rows pushed (or merged) so far.
    count: usize,
    /// Scratch row holding `[features..., 1.0]`.
    row_buf: Vec<f64>,
}

impl NormalEqAccumulator {
    /// Empty accumulator for `d`-feature observations.
    pub fn new(d: usize, intercept: bool) -> NormalEqAccumulator {
        let p = if intercept { d + 1 } else { d };
        let mut row_buf = vec![0.0; p];
        if intercept {
            row_buf[d] = 1.0;
        }
        NormalEqAccumulator {
            d,
            intercept,
            gram: vec![0.0; p * p],
            xty: vec![0.0; p],
            sum_y: 0.0,
            count: 0,
            row_buf,
        }
    }

    /// Augmented-design column count (`d + 1` with an intercept).
    pub fn order(&self) -> usize {
        self.xty.len()
    }

    /// Rows accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of the accumulated targets (`Σ y`).
    pub fn sum_targets(&self) -> f64 {
        self.sum_y
    }

    /// The accumulated `XᵀX` over the augmented design: row-major
    /// `order() x order()`, upper triangle only (entries below the diagonal
    /// stay zero).
    pub fn gram(&self) -> &[f64] {
        &self.gram
    }

    /// The accumulated `Xᵀy` over the augmented design.
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }

    /// Rank-1 update with one observation.
    ///
    /// # Panics
    /// Panics in debug builds when `features.len() != d`.
    #[inline]
    pub fn push_row(&mut self, features: &[f64], target: f64) {
        debug_assert_eq!(features.len(), self.d, "feature count mismatch");
        let p = self.xty.len();
        self.row_buf[..self.d].copy_from_slice(features);
        for a in 0..p {
            let ra = self.row_buf[a];
            if ra == 0.0 {
                continue;
            }
            let grow = &mut self.gram[a * p..(a + 1) * p];
            for b in a..p {
                grow[b] += ra * self.row_buf[b];
            }
        }
        vector::axpy(target, &self.row_buf, &mut self.xty);
        self.sum_y += target;
        self.count += 1;
    }

    /// Accumulate `rows` of `(features, target)` in iteration order through
    /// the packed, register-tiled Gram kernel.
    ///
    /// Rows are copied into `pack` a block at a time, each as
    /// `[features…, 1.0, target]` (without the `1.0` when there is no
    /// intercept) and zero-padded to a multiple of the tile width. Each
    /// `4 x 4` tile of the upper triangle of `[X | y]ᵀ[X | y]` is then held
    /// in registers while the block's rows stream past, so the same pass
    /// yields the Gram triangle and, from the `y` column, `Xᵀy`.
    ///
    /// Every Gram and `Xᵀy` entry still adds its products one row at a
    /// time, in iteration order, starting from its current value, and Rust
    /// never fuses a multiply and an add into one FMA. So on finite data
    /// the result is bit-identical to calling [`push_row`] on each row in
    /// order. `push_row` skips the products of a zero feature; adding those
    /// `±0.0` products instead changes nothing, because every entry starts
    /// at `+0.0` and a round-to-nearest sum is `−0.0` only when both addends
    /// are, so no entry ever holds `−0.0`.
    ///
    /// `pack` is scratch: one per thread, reused across calls, keeps the
    /// kernel free of allocation once it has grown to its block size.
    ///
    /// # Panics
    /// Panics when a row's feature count differs from `d`.
    ///
    /// [`push_row`]: NormalEqAccumulator::push_row
    pub fn push_rows<'r, I>(&mut self, pack: &mut RowPack, rows: I)
    where
        I: IntoIterator<Item = (&'r [f64], f64)>,
    {
        let (d, p) = (self.d, self.xty.len());
        let stride = packed_stride(p);
        let block_rows = block_rows(p);
        let block = pack.block(d, self.intercept);
        let mut filled = 0;
        for (features, target) in rows {
            let row = &mut block[filled * stride..(filled + 1) * stride];
            row[..d].copy_from_slice(features);
            row[p] = target;
            self.sum_y += target;
            self.count += 1;
            filled += 1;
            if filled == block_rows {
                self.gram_block(block, stride);
                filled = 0;
            }
        }
        if filled > 0 {
            self.gram_block(&block[..filled * stride], stride);
        }
    }

    /// Add the products of one packed block (rows of `stride` values) to
    /// the Gram triangle and `Xᵀy`, one register tile at a time. Tiles
    /// whose rows start at or past the `y` column hold no entry we keep.
    fn gram_block(&mut self, block: &[f64], stride: usize) {
        let p = self.xty.len();
        for ca in (0..p).step_by(TILE) {
            for cb in (ca..stride).step_by(TILE) {
                let mut tile = [[0.0; TILE]; TILE];
                self.visit_kept(ca, cb, &mut tile, |slot, cell| *cell = *slot);
                let mut tile = stream_tile(tile, block, stride, ca, cb);
                self.visit_kept(ca, cb, &mut tile, |slot, cell| *slot = *cell);
            }
        }
    }

    /// Visit each cell of the tile at columns `(ca, cb)` of `[X | y]ᵀ[X | y]`
    /// that is kept — a Gram entry on or above the diagonal, or an `Xᵀy`
    /// entry — together with its slot. The other cells (below the diagonal,
    /// `yᵀy`, padding) are computed by the kernel and thrown away.
    fn visit_kept(
        &mut self,
        ca: usize,
        cb: usize,
        tile: &mut [[f64; TILE]; TILE],
        f: impl Fn(&mut f64, &mut f64),
    ) {
        let p = self.xty.len();
        for (a, cells) in (ca..p).zip(tile.iter_mut()) {
            let row = &mut self.gram[a * p..(a + 1) * p];
            for b in cb.max(a)..(cb + TILE).min(p) {
                f(&mut row[b], &mut cells[b - cb]);
            }
            if (cb..cb + TILE).contains(&p) {
                f(&mut self.xty[a], &mut cells[p - cb]);
            }
        }
    }

    /// Fold another accumulator (over a disjoint row chunk) into this one.
    ///
    /// # Panics
    /// Panics when the two accumulators have different shapes.
    pub fn merge(&mut self, other: &NormalEqAccumulator) {
        assert_eq!(self.d, other.d, "accumulator feature counts differ");
        assert_eq!(self.intercept, other.intercept, "intercept modes differ");
        for (g, o) in self.gram.iter_mut().zip(&other.gram) {
            *g += o;
        }
        for (x, o) in self.xty.iter_mut().zip(&other.xty) {
            *x += o;
        }
        self.sum_y += other.sum_y;
        self.count += other.count;
    }

    /// Solve `(XᵀX + λI) β = Xᵀy` over the accumulated rows, with
    /// `λ = ridge_lambda · max(trace(XᵀX) / p, 1)` so the regularization
    /// strength is relative to the data. Cholesky solves it (the system is
    /// SPD by construction), with a pivoted-LU fallback.
    ///
    /// # Errors
    /// * [`LinalgError::Empty`] when no rows were pushed,
    /// * [`LinalgError::NonFinite`] when the accumulated sums are not finite,
    /// * [`LinalgError::Singular`] when both solvers fail.
    pub fn solve(&self, ridge_lambda: f64) -> Result<LinearRegression, LinalgError> {
        if self.count == 0 {
            return Err(LinalgError::Empty);
        }
        let p = self.xty.len();
        if !vector::all_finite(&self.gram) || !vector::all_finite(&self.xty) {
            return Err(LinalgError::NonFinite);
        }

        // Mirror the upper triangle and add the trace-scaled ridge term.
        let mut trace = 0.0;
        for a in 0..p {
            trace += self.gram[a * p + a];
        }
        let lambda = ridge_lambda.max(f64::MIN_POSITIVE) * (trace / p as f64).max(1.0);
        let system = Matrix::from_fn(p, p, |a, b| {
            let v = if b >= a {
                self.gram[a * p + b]
            } else {
                self.gram[b * p + a]
            };
            if a == b {
                v + lambda
            } else {
                v
            }
        });

        let beta = match CholeskyDecomposition::new(&system).and_then(|ch| ch.solve(&self.xty)) {
            Ok(beta) => beta,
            Err(LinalgError::Singular) => {
                // Extreme scaling can push the ridge diagonal below the
                // positive-definiteness tolerance; retry with pivoting.
                LuDecomposition::new(&system)?.solve(&self.xty)?
            }
            Err(e) => return Err(e),
        };
        Ok(LinearRegression::from_beta(beta, self.intercept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A ridge small enough that exact data is recovered to ~1e-10.
    const TINY: f64 = 1e-12;

    /// Fit `rows` through the packed kernel, as every caller does.
    fn fit(rows: &[&[f64]], ys: &[f64], lambda: f64) -> Result<LinearRegression, LinalgError> {
        let mut acc = NormalEqAccumulator::new(rows[0].len(), true);
        acc.push_rows(
            &mut RowPack::new(),
            rows.iter().copied().zip(ys.iter().copied()),
        );
        acc.solve(lambda)
    }

    #[test]
    fn fits_exact_line() {
        let xs: [&[f64]; 4] = [&[0.0], &[1.0], &[2.0], &[3.0]];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = fit(&xs, &ys, TINY).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-10);
        assert!((fit.intercept() - 1.0).abs() < 1e-10);
        for (x, y) in xs.iter().zip(ys) {
            assert!((fit.predict(x) - y).abs() < 1e-10);
        }
    }

    #[test]
    fn fits_exact_plane_two_features() {
        // y = 3*x0 - 2*x1 + 0.5
        let xs: [&[f64]; 5] = [
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
        ];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 0.5).collect();
        let fit = fit(&xs, &ys, TINY).unwrap();
        assert!((fit.coefficients()[0] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients()[1] + 2.0).abs() < 1e-9);
        assert!((fit.intercept() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fast_preset_stays_near_the_true_line() {
        let xs: [&[f64]; 4] = [&[0.0], &[1.0], &[2.0], &[3.0]];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = fit(&xs, &ys, RegressionOptions::fast().ridge_lambda).unwrap();
        // Ridge shrinks slightly; still near the true line.
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-3);
        assert!((fit.intercept() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn ridge_carries_collinear_features() {
        // x1 = 2*x0 exactly: XᵀX is singular, the ridge term makes it SPD.
        let xs: [&[f64]; 4] = [&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0], &[4.0, 8.0]];
        let ys = [5.0, 10.0, 15.0, 20.0];
        let fit = fit(&xs, &ys, 1e-8).unwrap();
        for (x, y) in xs.iter().zip(ys) {
            assert!((fit.predict(x) - y).abs() < 1e-2);
        }
    }

    #[test]
    fn ridge_carries_a_constant_feature_column() {
        // A constant feature is collinear with the intercept.
        let xs: [&[f64]; 3] = [&[1.0], &[1.0], &[1.0]];
        let fit = fit(&xs, &[4.0, 4.0, 4.0], 1e-8).unwrap();
        assert!((fit.predict(&[1.0]) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        assert_eq!(
            fit(&[&[1.0], &[f64::NAN]], &[1.0, 2.0], TINY).unwrap_err(),
            LinalgError::NonFinite
        );
        assert_eq!(
            fit(&[&[1.0], &[2.0]], &[1.0, f64::INFINITY], TINY).unwrap_err(),
            LinalgError::NonFinite
        );
        let mut acc = NormalEqAccumulator::new(1, true);
        acc.push_row(&[f64::NEG_INFINITY], 1.0);
        assert_eq!(acc.solve(TINY).unwrap_err(), LinalgError::NonFinite);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let xs = Matrix::from_fn(20, 2, |i, j| ((i + 3 * j) as f64 * 0.31).sin() * 3.0);
        let ys: Vec<f64> = (0..20).map(|i| (i as f64 * 0.17).cos()).collect();

        let mut whole = NormalEqAccumulator::new(2, true);
        for i in 0..20 {
            whole.push_row(xs.row(i), ys[i]);
        }
        let mut merged = NormalEqAccumulator::new(2, true);
        for chunk in [(0, 7), (7, 13), (13, 20)] {
            let mut part = NormalEqAccumulator::new(2, true);
            for i in chunk.0..chunk.1 {
                part.push_row(xs.row(i), ys[i]);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.sum_targets() - whole.sum_targets()).abs() < 1e-12);
        let a = whole.solve(1e-6).unwrap();
        let b = merged.solve(1e-6).unwrap();
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert!((x - y).abs() < 1e-10);
        }
        assert!((a.intercept() - b.intercept()).abs() < 1e-10);
    }

    #[test]
    fn accumulator_without_intercept() {
        let xs = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let ys = [2.0, 4.0, 6.0];
        let mut acc = NormalEqAccumulator::new(1, false);
        for i in 0..3 {
            acc.push_row(xs.row(i), ys[i]);
        }
        let fit = acc.solve(1e-10).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-6);
        assert_eq!(fit.intercept(), 0.0);
        assert!((acc.sum_targets() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_refuses_to_solve() {
        let acc = NormalEqAccumulator::new(3, true);
        assert_eq!(acc.solve(1e-6).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn accumulator_handles_underdetermined_chunks() {
        // One row, two features + intercept: the ridge term must carry it.
        let mut acc = NormalEqAccumulator::new(2, true);
        acc.push_row(&[2.0, -1.0], 10.0);
        let fit = acc.solve(1e-6).unwrap();
        assert!(fit.coefficients().iter().all(|c| c.is_finite()));
        assert!((fit.predict(&[2.0, -1.0]) - 10.0).abs() < 1.0);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One kernel test value: an exact `0.0` or `-0.0` one time in eight
    /// each, otherwise a random mantissa in `[1, 10)` of either sign scaled
    /// by `10^e`, `e ∈ [-150, 150]`.
    fn kernel_value(state: &mut u64) -> f64 {
        let z = splitmix(state);
        match z % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let mantissa = 1.0 + (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * 9.0;
                let exponent = ((z >> 3) % 301) as i32 - 150;
                let sign = if z >> 63 == 0 { 1.0 } else { -1.0 };
                sign * mantissa * 10f64.powi(exponent)
            }
        }
    }

    fn assert_same_bits(
        packed: &NormalEqAccumulator,
        oracle: &NormalEqAccumulator,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(packed.count(), oracle.count());
        prop_assert_eq!(
            packed.sum_targets().to_bits(),
            oracle.sum_targets().to_bits()
        );
        for (k, (a, b)) in packed.gram().iter().zip(oracle.gram()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "gram[{}]: {} vs {}", k, a, b);
        }
        for (k, (a, b)) in packed.xty().iter().zip(oracle.xty()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "xty[{}]: {} vs {}", k, a, b);
        }
        Ok(())
    }

    #[test]
    fn packed_layout_pads_to_whole_tiles() {
        // D=24 with an intercept: 25 columns + y = 26, padded to 28.
        assert_eq!(packed_stride(25), 28);
        assert_eq!(packed_stride(3), 4);
        assert_eq!(packed_stride(4), 8);
        assert_eq!(block_rows(25), PACK_BLOCK_LEN / 28);
        assert_eq!(block_rows(PACK_BLOCK_LEN), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn packed_kernel_is_bit_identical_to_rank_one_updates(
            d in 1usize..=33,
            intercept in 0u8..2,
            shape in 0usize..7,
            extra in 0usize..5,
            split_at in 0.0..1.0f64,
            seed in 0u64..u64::MAX,
        ) {
            let intercept = intercept == 1;
            let block = block_rows(if intercept { d + 1 } else { d });
            let n = match shape {
                0 => 0,
                1 => 1,
                2 => block - 1,
                3 => block,
                4 => block + 1,
                5 => 2 * block + extra,
                _ => 3 * block + 1 + extra,
            };
            let mut state = seed;
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| kernel_value(&mut state)).collect())
                .collect();
            let ys: Vec<f64> = (0..n).map(|_| kernel_value(&mut state)).collect();

            let mut oracle = NormalEqAccumulator::new(d, intercept);
            for (x, &y) in xs.iter().zip(&ys) {
                oracle.push_row(x, y);
            }
            // Two calls on one accumulator, one shared pack: the second call
            // must continue every entry's sum where the first left it.
            let split = ((n as f64 * split_at) as usize).min(n);
            let rows = || xs.iter().map(Vec::as_slice).zip(ys.iter().copied());
            let mut pack = RowPack::new();
            let mut packed = NormalEqAccumulator::new(d, intercept);
            packed.push_rows(&mut pack, rows().take(split));
            packed.push_rows(&mut pack, rows().skip(split));
            assert_same_bits(&packed, &oracle)?;

            let mut merged_oracle = NormalEqAccumulator::new(d, intercept);
            merged_oracle.merge(&oracle);
            merged_oracle.merge(&oracle);
            let mut merged_packed = NormalEqAccumulator::new(d, intercept);
            merged_packed.merge(&packed);
            merged_packed.merge(&packed);
            assert_same_bits(&merged_packed, &merged_oracle)?;
        }

        #[test]
        fn recovers_planted_model(
            n in 6usize..40,
            d in 1usize..5,
            seed in 0u64..500,
        ) {
            prop_assume!(n > d + 1);
            // Distinct irrational frequency per column keeps the design well
            // conditioned for any (n, d) drawn by proptest.
            let xs = Matrix::from_fn(n, d, |i, j| {
                (i as f64 * (0.713 + 0.317 * j as f64) + seed as f64 * 0.01).sin() * 5.0
            });
            let true_coef: Vec<f64> = (0..d).map(|j| (j as f64) - 1.5).collect();
            let ys: Vec<f64> = (0..n)
                .map(|i| vector::dot_unchecked(xs.row(i), &true_coef) + 0.75)
                .collect();
            let rows: Vec<&[f64]> = (0..n).map(|i| xs.row(i)).collect();
            let fit = fit(&rows, &ys, TINY).unwrap();
            for (got, want) in fit.coefficients().iter().zip(true_coef.iter()) {
                prop_assert!((got - want).abs() < 1e-6);
            }
            prop_assert!((fit.intercept() - 0.75).abs() < 1e-6);
        }

        #[test]
        fn ols_beats_or_ties_mean_predictor(
            n in 4usize..30,
            seed in 0u64..500,
        ) {
            let xs: Vec<[f64; 1]> = (0..n)
                .map(|i| [((i as u64 ^ seed) as f64 * 0.37).sin() * 3.0])
                .collect();
            let ys: Vec<f64> = (0..n)
                .map(|i| ((i as u64 ^ seed.wrapping_mul(3)) as f64 * 0.53).cos())
                .collect();
            let rows: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
            let fit = fit(&rows, &ys, TINY).unwrap();
            let mse_fit = rows
                .iter()
                .zip(&ys)
                .map(|(x, y)| (y - fit.predict(x)).powi(2))
                .sum::<f64>()
                / n as f64;
            let mean = ys.iter().sum::<f64>() / n as f64;
            let mse_mean = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
            prop_assert!(mse_fit <= mse_mean + 1e-9);
        }
    }
}
