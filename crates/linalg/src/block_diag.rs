//! Block-diagonal Cholesky factorization with reusable workspace.
//!
//! The structured DSPP KKT system condenses to a matrix that is
//! block-diagonal over per-arc (or per-location) blocks plus a low-ish-rank
//! coupling handled elsewhere ([`crate::SchurComplement`]). This type owns
//! the block-diagonal part: `count` independent symmetric positive-definite
//! blocks of one common dimension, factored in place every interior-point
//! iteration and solved against long concatenated vectors.
//!
//! Every block is Jacobi-equilibrated (scaled to a unit diagonal) before
//! it is factored: interior-point barrier weights put
//! entries many decades apart on one block's diagonal, and a pivot
//! tolerance relative to the unscaled norm would reject the small pivots
//! of a perfectly well-posed block.
//!
//! Like [`crate::Cholesky`] (and the solver crate's Riccati workspace), all
//! storage is allocated once in [`BlockDiag::new`]; `refactor` and the
//! solve methods are allocation-free.

use crate::{Cholesky, LinalgError, Matrix, Vector};

/// Cholesky factorization of a block-diagonal SPD matrix
/// `diag(A_0, …, A_{count-1})` with equally sized blocks.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{BlockDiag, Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let blocks = vec![
///     Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?,
///     Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 4.0]])?,
/// ];
/// let mut bd = BlockDiag::new(2, 2);
/// bd.refactor(&blocks, 0.0)?;
/// let mut x = Vector::from(vec![3.0, 3.0, 4.0, 8.0]);
/// bd.solve_in_place(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// assert!((x[2] - 1.0).abs() < 1e-12 && (x[3] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockDiag {
    /// One Cholesky factor per block (of the equilibrated block), each of
    /// dimension `block_dim`.
    blocks: Vec<Cholesky>,
    block_dim: usize,
    /// Jacobi scale factors `1/√a_jj`, concatenated like the blocks.
    scales: Vec<f64>,
    /// Scratch column for [`BlockDiag::inverse_block_into`].
    col: Vector,
    /// All per-block refactors of the last [`BlockDiag::refactor`] succeeded.
    valid: bool,
}

impl BlockDiag {
    /// Allocates workspace for `count` blocks of dimension `block_dim`;
    /// no factorization happens until [`BlockDiag::refactor`].
    pub fn new(count: usize, block_dim: usize) -> Self {
        BlockDiag {
            blocks: vec![Cholesky::unfactored(block_dim); count],
            block_dim,
            scales: vec![1.0; count * block_dim],
            col: Vector::zeros(block_dim),
            valid: false,
        }
    }

    /// Number of diagonal blocks.
    pub fn count(&self) -> usize {
        self.blocks.len()
    }

    /// Dimension of each block.
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Total dimension `count · block_dim` of the block-diagonal matrix.
    pub fn dim(&self) -> usize {
        self.blocks.len() * self.block_dim
    }

    /// Whether the last [`BlockDiag::refactor`] completed successfully.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Factors every block of `mats` (each `block_dim × block_dim`) into
    /// the existing storage: each block is equilibrated to a unit diagonal
    /// and factored as `D A D + reg · I`, `D = diag(1/√a_jj)` (a unit scale
    /// where `a_jj` is not positive), so `reg` is relative to each row.
    ///
    /// On error the stored factors are unspecified; [`BlockDiag::is_valid`]
    /// reports `false` and the solve methods panic until a later `refactor`
    /// succeeds.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `mats.len() != count()` or a
    ///   block has the wrong dimension.
    /// * [`LinalgError::NotPositiveDefinite`] if some block is not PD; the
    ///   reported pivot is the offending row in the *concatenated* indexing
    ///   (`block · block_dim + local pivot`).
    pub fn refactor(&mut self, mats: &[Matrix], reg: f64) -> Result<(), LinalgError> {
        self.valid = false;
        if mats.len() != self.blocks.len() {
            return Err(LinalgError::DimensionMismatch(format!(
                "block-diag refactor: {} blocks supplied, workspace has {}",
                mats.len(),
                self.blocks.len()
            )));
        }
        let bd = self.block_dim;
        for (i, (chol, mat)) in self.blocks.iter_mut().zip(mats).enumerate() {
            chol.refactor_equilibrated(mat, &mut self.scales[i * bd..(i + 1) * bd], reg)
                .map_err(|e| match e {
                    LinalgError::NotPositiveDefinite { pivot } => {
                        LinalgError::NotPositiveDefinite {
                            pivot: i * self.block_dim + pivot,
                        }
                    }
                    other => other,
                })?;
        }
        self.valid = true;
        Ok(())
    }

    /// Solves block `i` against `b` (length `block_dim`) in place.
    ///
    /// # Panics
    ///
    /// Panics if the last refactor failed, `i` is out of range, or `b` has
    /// the wrong length.
    pub fn solve_block_in_place(&self, i: usize, b: &mut Vector) {
        self.solve_block_slice(i, b.as_mut_slice());
    }

    /// [`BlockDiag::solve_block_in_place`] on a raw slice.
    fn solve_block_slice(&self, i: usize, b: &mut [f64]) {
        assert!(self.valid, "block-diag solve: last refactor failed");
        let bd = self.block_dim;
        let scales = &self.scales[i * bd..(i + 1) * bd];
        for (v, d) in b.iter_mut().zip(scales) {
            *v *= d;
        }
        self.blocks[i].solve_slice_in_place(b);
        for (v, d) in b.iter_mut().zip(scales) {
            *v *= d;
        }
    }

    /// Solves the whole block-diagonal system against a concatenated vector
    /// of length [`BlockDiag::dim`] (block `i` occupying
    /// `[i·block_dim, (i+1)·block_dim)`) in place.
    ///
    /// # Panics
    ///
    /// Panics if the last refactor failed or `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut Vector) {
        assert!(self.valid, "block-diag solve: last refactor failed");
        assert_eq!(b.len(), self.dim(), "block-diag solve: rhs length");
        let bd = self.block_dim;
        for i in 0..self.blocks.len() {
            self.solve_block_slice(i, &mut b.as_mut_slice()[i * bd..(i + 1) * bd]);
        }
    }

    /// Writes the explicit inverse of block `i` into `out`
    /// (`block_dim × block_dim`), by solving against unit vectors.
    ///
    /// The structured KKT solver needs the small per-arc inverses explicitly
    /// to assemble the coupling-row Schur complement.
    ///
    /// # Panics
    ///
    /// Panics if the last refactor failed, `i` is out of range, or `out`
    /// has the wrong shape.
    pub fn inverse_block_into(&mut self, i: usize, out: &mut Matrix) {
        assert!(self.valid, "block-diag inverse: last refactor failed");
        let bd = self.block_dim;
        assert!(
            out.rows() == bd && out.cols() == bd,
            "block-diag inverse: output is {}x{}, expected {bd}x{bd}",
            out.rows(),
            out.cols()
        );
        let mut col = std::mem::replace(&mut self.col, Vector::zeros(0));
        for j in 0..bd {
            col.fill(0.0);
            col[j] = 1.0;
            self.solve_block_in_place(i, &mut col);
            for r in 0..bd {
                out[(r, j)] = col[r];
            }
        }
        self.col = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = next();
            }
        }
        let mut a = b.gram();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn block_solve_matches_per_block_dense_solve() {
        let mats: Vec<Matrix> = (0..4).map(|i| spd(3, 10 + i)).collect();
        let mut bd = BlockDiag::new(4, 3);
        bd.refactor(&mats, 0.0).unwrap();
        assert!(bd.is_valid());
        assert_eq!(bd.dim(), 12);
        let mut rhs: Vector = (0..12).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let expect: Vec<Vector> = mats
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let b: Vector = (0..3).map(|j| ((3 * i + j) as f64) * 0.3 - 1.0).collect();
                Cholesky::factor(m).unwrap().solve(&b)
            })
            .collect();
        bd.solve_in_place(&mut rhs);
        for i in 0..4 {
            for j in 0..3 {
                assert!((rhs[3 * i + j] - expect[i][j]).abs() < 1e-12, "block {i}");
            }
        }
        // Per-block solve agrees with the concatenated solve.
        let mut one: Vector = (0..3).map(|j| ((3 + j) as f64) * 0.3 - 1.0).collect();
        bd.solve_block_in_place(1, &mut one);
        for j in 0..3 {
            assert!((one[j] - expect[1][j]).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_block_reconstructs_identity() {
        let mats = vec![spd(4, 3), spd(4, 9)];
        let mut bd = BlockDiag::new(2, 4);
        bd.refactor(&mats, 0.0).unwrap();
        let mut inv = Matrix::zeros(4, 4);
        bd.inverse_block_into(1, &mut inv);
        let prod = mats[1].matmul(&inv);
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn failed_block_reports_global_pivot_and_invalidates() {
        let mut mats = vec![spd(2, 1), spd(2, 2), spd(2, 3)];
        mats[1] = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // indefinite
        let mut bd = BlockDiag::new(3, 2);
        match bd.refactor(&mats, 0.0) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => {
                // Block 1, local pivot 1 → global pivot 3.
                assert_eq!(pivot, 3, "pivot in concatenated indexing")
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert!(!bd.is_valid());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b = Vector::zeros(6);
            bd.solve_in_place(&mut b);
        }));
        assert!(res.is_err(), "solve after failed refactor must panic");
        // Recovery: enough regularization makes the indefinite block PD.
        bd.refactor(&mats, 10.0).unwrap();
        assert!(bd.is_valid());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut bd = BlockDiag::new(2, 2);
        assert!(matches!(
            bd.refactor(&[spd(2, 1)], 0.0),
            Err(LinalgError::DimensionMismatch(_))
        ));
        assert!(matches!(
            bd.refactor(&[spd(3, 1), spd(3, 2)], 0.0),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }
}
