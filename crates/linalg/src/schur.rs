//! Dense Schur-complement workspace for coupling-row elimination.
//!
//! Block elimination of a structured KKT system leaves one small dense
//! system over the coupling rows (the Schur complement). This type owns
//! that system's storage — an accumulation matrix, its Cholesky factor,
//! and a validity flag — so a solver can rebuild and refactor it every
//! interior-point iteration without allocating.
//!
//! The system is Jacobi-equilibrated before it is factored: the diagonal
//! of an interior-point Schur complement carries inverse barrier weights
//! from `~1e-14` (an active row) to `~1e25` (a slack "uncapacitated"
//! row), and only a unit-diagonal scaling lets one pivot tolerance serve
//! all of them.

use crate::{Cholesky, LinalgError, Matrix, Vector};

/// Workspace for a dense symmetric positive-definite Schur system:
/// accumulate `S` in place, factor it, and solve.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Matrix, SchurComplement, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let mut s = SchurComplement::new(2);
/// s.add_diag_entry(0, 2.0);
/// s.add_diag_entry(1, 2.0);
/// let cross = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
/// s.add_block(0, 0, 1.0, &cross);
/// s.refactor(0.0)?;
/// let mut x = Vector::from(vec![3.0, 3.0]);
/// s.solve_in_place(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SchurComplement {
    /// The accumulated Schur matrix `S`.
    mat: Matrix,
    /// Cholesky factor of the last successful [`SchurComplement::refactor`].
    chol: Cholesky,
    /// Jacobi scale factors of the last refactor.
    scales: Vec<f64>,
    valid: bool,
}

impl SchurComplement {
    /// Allocates a `dim × dim` Schur workspace, initially all zeros and
    /// unfactored.
    pub fn new(dim: usize) -> Self {
        SchurComplement {
            mat: Matrix::zeros(dim, dim),
            chol: Cholesky::unfactored(dim),
            scales: vec![1.0; dim],
            valid: false,
        }
    }

    /// Dimension of the Schur system.
    pub fn dim(&self) -> usize {
        self.mat.rows()
    }

    /// Whether the last [`SchurComplement::refactor`] succeeded.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Zeroes the accumulation matrix (start of a new assembly) and marks
    /// the factor stale.
    pub fn reset(&mut self) {
        self.valid = false;
        self.mat.as_mut_slice().fill(0.0);
    }

    /// Adds `scale · block` at offset `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block overruns the matrix.
    pub fn add_block(&mut self, r0: usize, c0: usize, scale: f64, block: &Matrix) {
        self.valid = false;
        assert!(
            r0 + block.rows() <= self.mat.rows() && c0 + block.cols() <= self.mat.cols(),
            "schur add_block: {}x{} block at ({r0},{c0}) overruns {}x{}",
            block.rows(),
            block.cols(),
            self.mat.rows(),
            self.mat.cols()
        );
        for i in 0..block.rows() {
            for j in 0..block.cols() {
                self.mat[(r0 + i, c0 + j)] += scale * block[(i, j)];
            }
        }
    }

    /// Adds `v` to the diagonal entry `i`.
    pub fn add_diag_entry(&mut self, i: usize, v: f64) {
        self.valid = false;
        self.mat[(i, i)] += v;
    }

    /// Fraction of structurally nonzero entries in the accumulated `S`
    /// (1.0 for a fully dense system, 0.0 for an empty one), exported as
    /// the `solver.lq.schur_fill` gauge. Counted on demand, an `O(dim²)`
    /// scan, so the per-iteration refactor does not pay for it.
    pub fn fill_ratio(&self) -> f64 {
        let n = self.mat.rows();
        if n == 0 {
            return 0.0;
        }
        let nnz = (0..n)
            .map(|i| self.mat.row(i).iter().filter(|v| **v != 0.0).count())
            .sum::<usize>();
        nnz as f64 / (n * n) as f64
    }

    /// Factors the equilibrated accumulated matrix `D S D + reg · I`,
    /// `D = diag(1/√s_ii)` (a unit scale where `s_ii` is not positive), so
    /// `reg` is a regularization *relative* to each row's own magnitude.
    ///
    /// On error the factor is unspecified; [`SchurComplement::is_valid`]
    /// reports `false` and [`SchurComplement::solve_in_place`] panics until
    /// a later refactor succeeds. The accumulation matrix itself is
    /// untouched, so a caller can retry with more regularization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if the accumulated system is
    /// not PD (within tolerance) — for a correctly assembled Schur
    /// complement of an SPD system this indicates severe ill-conditioning.
    pub fn refactor(&mut self, reg: f64) -> Result<(), LinalgError> {
        self.valid = false;
        self.chol
            .refactor_equilibrated(&self.mat, &mut self.scales, reg)?;
        self.valid = true;
        Ok(())
    }

    /// Solves `S x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics if the last refactor failed (or never ran) or `b` has the
    /// wrong length.
    pub fn solve_in_place(&self, b: &mut Vector) {
        assert!(self.valid, "schur solve: system is not factored");
        assert_eq!(b.len(), self.scales.len(), "schur solve: rhs length");
        for (v, d) in b.iter_mut().zip(&self.scales) {
            *v *= d;
        }
        self.chol.solve_in_place(b);
        for (v, d) in b.iter_mut().zip(&self.scales) {
            *v *= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_factor_solve_roundtrip() {
        let mut s = SchurComplement::new(3);
        for i in 0..3 {
            s.add_diag_entry(i, 4.0);
        }
        let block = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        s.add_block(1, 1, 0.5, &block);
        s.refactor(0.0).unwrap();
        assert!(s.is_valid());
        // S = [[4,0,0],[0,4,.5],[0,.5,4]].
        let a = Matrix::from_rows(&[&[4.0, 0.0, 0.0], &[0.0, 4.0, 0.5], &[0.0, 0.5, 4.0]]).unwrap();
        let x_true = Vector::from(vec![1.0, -2.0, 0.5]);
        let mut b = a.matvec(&x_true);
        s.solve_in_place(&mut b);
        assert!((&b - &x_true).norm_inf() < 1e-12);
        // 3 diag + 2 off-diag nonzeros out of 9.
        assert!((s.fill_ratio() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_accumulation() {
        let mut s = SchurComplement::new(2);
        s.add_diag_entry(0, 1.0);
        s.add_diag_entry(1, 1.0);
        s.refactor(0.0).unwrap();
        s.reset();
        assert!(!s.is_valid());
        // After reset the matrix is zero: only reg makes it factorable.
        assert!(s.refactor(0.0).is_err());
        assert!(!s.is_valid());
        s.refactor(1.0).unwrap();
        let mut b = Vector::from(vec![2.0, 3.0]);
        s.solve_in_place(&mut b);
        assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn regularization_is_relative_to_each_row() {
        // Diagonal 1e25 (an inactive "uncapacitated" row) next to 1e-14
        // (an active one): equilibrated, a 1e-9 regularization perturbs
        // both rows by 1e-9 relative, and the small one survives.
        let mut s = SchurComplement::new(2);
        s.add_diag_entry(0, 1e25);
        s.add_diag_entry(1, 1e-14);
        s.refactor(1e-9).unwrap();
        let mut b = Vector::from(vec![1e25, 1e-14]);
        s.solve_in_place(&mut b);
        assert!(
            (b[0] - 1.0).abs() < 1e-8 && (b[1] - 1.0).abs() < 1e-8,
            "{b:?}"
        );
    }

    #[test]
    fn empty_system_is_trivially_ok() {
        let mut s = SchurComplement::new(0);
        s.reset();
        s.refactor(0.0).unwrap();
        let mut b = Vector::zeros(0);
        s.solve_in_place(&mut b);
        assert_eq!(s.fill_ratio(), 0.0);
    }
}
