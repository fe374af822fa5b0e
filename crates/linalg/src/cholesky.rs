use crate::{LinalgError, Matrix, Vector};

/// Columns per panel of the factorization kernel: each trailing row is
/// updated by this many columns in one contiguous pass (`update_trailing`
/// is written out for four).
const PANEL: usize = 4;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Only the lower triangle of the input is read, so callers may pass a matrix
/// whose upper triangle is stale.
///
/// One kernel backs every factorization here and in
/// [`BlockDiag`](crate::BlockDiag) and
/// [`SchurComplement`](crate::SchurComplement). It is right-looking over
/// four-column panels: a finished panel's columns are mirrored into the
/// unused upper triangle of the factor's own storage, so each trailing row
/// is updated by one contiguous, vectorizable pass instead of a dot
/// product per entry. The factor is nevertheless **bitwise identical** to
/// the textbook left-looking loop's: every entry subtracts the same
/// products `l_ik·l_jk` in the same order `k = 0, 1, …`, and an indefinite
/// or non-finite input fails at the same pivot.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let f = Cholesky::factor(&a)?;
/// let x = f.solve(&Vector::from(vec![3.0, 3.0]));
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
    /// Whether `l` holds a completed factorization. Cleared at the start of
    /// every [`Cholesky::refactor`] and set only on success, so a factor
    /// left half-written by a failed refactor can never be solved with.
    valid: bool,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (within a small relative tolerance).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_regularized(a, 0.0)
    }

    /// Factors `a + reg * I`.
    ///
    /// Interior-point solvers use a small static regularization to keep the
    /// Newton system factorizable near the boundary of the feasible set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`].
    pub fn factor_regularized(a: &Matrix, reg: f64) -> Result<Self, LinalgError> {
        let mut chol = Cholesky::unfactored(a.rows());
        chol.refactor(a, reg)?;
        Ok(chol)
    }

    /// Storage for an `n × n` factor, invalid until the first refactor.
    pub(crate) fn unfactored(n: usize) -> Self {
        Cholesky {
            l: Matrix::zeros(n, n),
            valid: false,
        }
    }

    /// Re-factors `a + reg * I` into this factorization's existing storage
    /// (allocation-free [`Cholesky::factor_regularized`] for solvers that
    /// factor a same-sized matrix every iteration).
    ///
    /// On error the stored factor is unspecified; [`Cholesky::is_valid`]
    /// reports `false` and the solve methods panic until a later `refactor`
    /// succeeds, so a half-written factor cannot silently poison a solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`], plus
    /// [`LinalgError::DimensionMismatch`] if `a`'s dimension differs from
    /// the existing factor's.
    pub fn refactor(&mut self, a: &Matrix, reg: f64) -> Result<(), LinalgError> {
        self.check_dim(a)?;
        // Scale-aware tolerance for pivot positivity.
        let scale = a.norm_inf().max(reg).max(1.0);
        self.factor_entries(|i, j| a[(i, j)], scale, reg)
    }

    /// Re-factors the Jacobi-*equilibrated* matrix `D·a·D + reg·I`, with
    /// `D = diag(d)`, `d_i = 1/√a_ii` (1 where `a_ii` is not positive),
    /// writing `d` and reading the scaled entries on the fly (no scaled
    /// copy of `a` is formed).
    ///
    /// The scaled matrix has a unit diagonal, so the pivot tolerance —
    /// relative to the matrix norm — means the same for every row however
    /// unevenly `a` is scaled, and `reg` is relative to each row. Solving
    /// `a x = b` then takes `x = D·(DaD)⁻¹·(D b)`; the caller applies `D`
    /// on both sides.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::refactor`], plus
    /// [`LinalgError::DimensionMismatch`] if `d` does not match `a`.
    pub(crate) fn refactor_equilibrated(
        &mut self,
        a: &Matrix,
        d: &mut [f64],
        reg: f64,
    ) -> Result<(), LinalgError> {
        self.check_dim(a)?;
        let scale = jacobi_scales(a, d, reg)?;
        let d = &*d;
        self.factor_entries(|i, j| d[i] * a[(i, j)] * d[j], scale, reg)
    }

    fn check_dim(&self, a: &Matrix) -> Result<(), LinalgError> {
        if !a.is_square() || a.rows() != self.l.rows() {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky refactor: matrix is {}x{}, factor is {}x{}",
                a.rows(),
                a.cols(),
                self.l.rows(),
                self.l.rows()
            )));
        }
        Ok(())
    }

    /// The factorization kernel over `entry(i, j) + reg·δ_ij` (lower
    /// triangle only), with pivots required to exceed `scale · 1e-14`.
    ///
    /// Right-looking over panels of [`PANEL`] columns, inside `l`'s own
    /// storage. Each panel is factored column by column
    /// ([`factor_panel`]); after it, [`update_trailing`] mirrors its
    /// columns into the unused upper triangle, where each is one
    /// contiguous row, subtracts all four from every trailing row in one
    /// fused contiguous pass, and clears the mirror again.
    ///
    /// The first and the last panel read their entries straight from
    /// `entry`: no update precedes the first, and the last takes all of
    /// its updates as dot products over the finished rows, as it has no
    /// trailing rows to amortize a mirror over. A matrix of at most
    /// `PANEL` columns is only the first panel, the same loop as the
    /// textbook kernel, and up to `2·PANEL` columns no mirror or trailing
    /// pass runs either, so the many `W×W` chain blocks cost what they
    /// did. Everything after the first panel lives in [`factor_rest`].
    ///
    /// **Bit-identity.** Every entry `(i, j)` starts from
    /// `entry(i, j) + reg·δ_ij` and subtracts the same products
    /// `l[i, k]·l[j, k]` in the same order `k = 0, 1, …, j−1` as the
    /// textbook left-looking loop (one dot product per entry), before the
    /// same square root or division. No sum is reassociated, so the factor
    /// is bitwise equal to that loop's, and pivots are checked in the same
    /// ascending order: the same pivot fails first. The upper triangle is
    /// zero after every return.
    fn factor_entries(
        &mut self,
        entry: impl Fn(usize, usize) -> f64,
        scale: f64,
        reg: f64,
    ) -> Result<(), LinalgError> {
        self.valid = false;
        let n = self.l.rows();
        let l = self.l.as_mut_slice();
        let tol = scale * 1e-14;
        let diag = |_: &[f64], k| entry(k, k) + reg;
        factor_panel(l, n, 0..n.min(PANEL), 0, tol, diag, |_: &[f64], i, k| {
            entry(i, k)
        })?;
        if n > PANEL {
            factor_rest(l, n, tol, &entry, reg)?;
        }
        self.valid = true;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Whether the stored factor comes from a *successful* factorization.
    ///
    /// `false` exactly when the last [`Cholesky::refactor`] failed; retry
    /// loops that boost regularization must check this (or rely on the
    /// solve methods' panic) before reusing the factor.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Vector {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()` or if the last refactor failed
    /// ([`Cholesky::is_valid`] is `false`).
    pub fn solve_in_place(&self, b: &mut Vector) {
        self.solve_slice_in_place(b.as_mut_slice());
    }

    /// [`Cholesky::solve_in_place`] on a raw slice, so callers holding a
    /// long concatenated vector (block-diagonal solves) can solve one block
    /// without copying it out.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()` or if the last refactor failed.
    pub fn solve_slice_in_place(&self, b: &mut [f64]) {
        assert!(
            self.valid,
            "cholesky solve: factor is invalid (last refactor failed); refactor before solving"
        );
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve: rhs length {}", b.len());
        // Forward: L y = b.
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            for (k, lik) in row.iter().enumerate().take(i) {
                s -= lik * b[k];
            }
            b[i] = s / row[i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for (k, &bk) in b.iter().enumerate().take(n).skip(i + 1) {
                s -= self.l[(k, i)] * bk;
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Log-determinant of `A` (sum of `2 ln L_jj`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|j| 2.0 * self.l[(j, j)].ln()).sum()
    }
}

/// Writes the Jacobi scale factors `d_i = 1/√a_ii` of the square matrix
/// `a` into `d` (1 where `a_ii` is not positive and finite) and returns
/// the pivot-tolerance scale of `D·a·D + reg·I`: its ∞-norm, raised to at
/// least `reg` and 1.
fn jacobi_scales(a: &Matrix, d: &mut [f64], reg: f64) -> Result<f64, LinalgError> {
    let n = a.rows();
    if d.len() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "cholesky refactor_equilibrated: {} scale factors for a {n}x{n} matrix",
            d.len()
        )));
    }
    for (i, di) in d.iter_mut().enumerate() {
        let aii = a[(i, i)];
        *di = if aii > 0.0 && aii.is_finite() {
            1.0 / aii.sqrt()
        } else {
            1.0
        };
    }
    let mut norm = 0.0f64;
    for i in 0..n {
        let row: f64 = a.row(i).iter().zip(&*d).map(|(v, dj)| (v * dj).abs()).sum();
        norm = norm.max(row * d[i].abs());
    }
    Ok(norm.max(reg).max(1.0))
}

/// Factors columns `cols` of the `n × n` row-major factor `l`, one column
/// `k` at a time: each entry starts from `diag(l, k)` or `off(l, i, k)`,
/// its value with the updates of every column before `q0` applied,
/// subtracts `l[i, q]·l[k, q]` for `q = q0..k` in order, and then takes
/// the square root of the pivot or divides by it.
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] at the first pivot not above `tol`.
#[inline(always)]
fn factor_panel(
    l: &mut [f64],
    n: usize,
    cols: std::ops::Range<usize>,
    q0: usize,
    tol: f64,
    diag: impl Fn(&[f64], usize) -> f64,
    off: impl Fn(&[f64], usize, usize) -> f64,
) -> Result<(), LinalgError> {
    for k in cols {
        let mut d = diag(l, k);
        for q in q0..k {
            let lkq = l[k * n + q];
            d -= lkq * lkq;
        }
        // Written as a negated comparison so a NaN pivot (e.g. from a
        // non-finite input entry) is rejected instead of flowing into
        // `sqrt` and silently poisoning the factor.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(d > tol) {
            return Err(LinalgError::NotPositiveDefinite { pivot: k });
        }
        let dsqrt = d.sqrt();
        l[k * n + k] = dsqrt;
        // Indexed rather than zipped slices: these dot products are short
        // (from the panel start) or few (the last panel), and a vectorized
        // loop's setup costs more than the bounds checks on them.
        for i in k + 1..n {
            let mut s = off(l, i, k);
            for q in q0..k {
                s -= l[i * n + q] * l[k * n + q];
            }
            l[i * n + k] = s / dsqrt;
        }
    }
    Ok(())
}

/// Columns `PANEL..n` of [`Cholesky::factor_entries`], once the first
/// panel is factored. With `last` the first column of the last panel, the
/// entries of columns `PANEL..last`, the only ones a trailing update
/// reaches, are evaluated into `l` first; each panel before `last` is then
/// updated by the one before it and factored from the updated entries.
///
/// Out of line, so the loop a small factorization runs compiles without
/// this code's register pressure.
#[inline(never)]
fn factor_rest(
    l: &mut [f64],
    n: usize,
    tol: f64,
    entry: &impl Fn(usize, usize) -> f64,
    reg: f64,
) -> Result<(), LinalgError> {
    let last = (n - 1) / PANEL * PANEL;
    for i in PANEL..n {
        for j in PANEL..(i + 1).min(last) {
            l[i * n + j] = entry(i, j);
        }
        if i < last {
            l[i * n + i] += reg;
        }
    }
    let updated = |l: &[f64], i, j| l[i * n + j];
    let mut p = 0;
    while p + PANEL < last {
        update_trailing(l, n, p, last);
        p += PANEL;
        factor_panel(l, n, p..p + PANEL, p, tol, |l, k| updated(l, k, k), updated)?;
    }
    let diag = |_: &[f64], k| entry(k, k) + reg;
    factor_panel(l, n, last..n, 0, tol, diag, |_: &[f64], i, k| entry(i, k))
}

/// The trailing update of the finished panel at columns `p..p + PANEL`:
/// every row `i` below it subtracts `l[i, k]·l[j, k]` for the four panel
/// columns `k` in order, over `j` in `p + PANEL..min(i + 1, last)`.
///
/// The panel's columns are first mirrored to `l[k, j]`, so each row's
/// update is one fused, contiguous (and so vectorizable) pass; the mirror
/// is cleared afterwards.
#[inline(never)]
fn update_trailing(l: &mut [f64], n: usize, p: usize, last: usize) {
    let pe = p + PANEL;
    for j in pe..last {
        for k in p..pe {
            l[k * n + j] = l[j * n + k];
        }
    }
    let (panel, trailing) = l.split_at_mut(pe * n);
    let u = |k: usize| &panel[k * n + pe..k * n + last];
    let (u0, u1, u2, u3) = (u(p), u(p + 1), u(p + 2), u(p + 3));
    for (r, i) in (pe..n).enumerate() {
        let row = &mut trailing[r * n..r * n + (i + 1).min(last)];
        let (head, x) = row.split_at_mut(pe);
        let [l0, l1, l2, l3] = [head[p], head[p + 1], head[p + 2], head[p + 3]];
        let m = x.len();
        let (u0, u1, u2, u3) = (&u0[..m], &u1[..m], &u2[..m], &u3[..m]);
        for j in 0..m {
            x[j] = x[j] - l0 * u0[j] - l1 * u1[j] - l2 * u2[j] - l3 * u3[j];
        }
    }
    for k in p..pe {
        panel[k * n + pe..k * n + last].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // Build a random SPD matrix as BᵀB + n·I with a cheap LCG.
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

    /// The textbook left-looking kernel the panel kernel replaced, one dot
    /// product per entry: `factor_entries` must match it bit for bit, in
    /// its factors and in the pivot it fails at.
    fn textbook(
        n: usize,
        entry: impl Fn(usize, usize) -> f64,
        scale: f64,
        reg: f64,
    ) -> Result<Matrix, LinalgError> {
        let mut l = Matrix::zeros(n, n);
        let tol = scale * 1e-14;
        for j in 0..n {
            let mut d = entry(j, j) + reg;
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(d > tol) {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            for i in (j + 1)..n {
                let mut s = entry(i, j);
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        Ok(l)
    }

    /// `spd(n, seed)` congruence-scaled so its diagonal, when `wide`, is
    /// spread log-uniformly over 1e-14…1e25: the range of an interior-point
    /// Schur complement's inverse barrier weights.
    fn spread_spd(n: usize, seed: u64, wide: bool) -> Matrix {
        let mut a = spd(n, seed);
        if wide {
            let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
            let d: Vec<f64> = (0..n)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let t = -14.0 + 39.0 * ((state >> 11) as f64 / (1u64 << 53) as f64);
                    (10f64.powf(t) / a[(i, i)]).sqrt()
                })
                .collect();
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] *= d[i] * d[j];
                }
            }
        }
        a
    }

    /// Refactors `a` through both public entry points of the kernel and
    /// asserts each agrees with [`textbook`] bit for bit: the same factor,
    /// or the same failing pivot with the factor left invalid.
    fn assert_matches_textbook(a: &Matrix, reg: f64) {
        let n = a.rows();
        let scale = a.norm_inf().max(reg).max(1.0);
        let want = textbook(n, |i, j| a[(i, j)], scale, reg);
        let mut f = Cholesky::factor(&Matrix::identity(n)).unwrap();
        let got = f.refactor(a, reg);
        assert_same(n, "refactor", reg, got, &f, want);

        let mut d = vec![0.0; n];
        let scale = jacobi_scales(a, &mut d, reg).unwrap();
        let want = textbook(n, |i, j| d[i] * a[(i, j)] * d[j], scale, reg);
        let mut f = Cholesky::factor(&Matrix::identity(n)).unwrap();
        let mut d_got = vec![0.0; n];
        let got = f.refactor_equilibrated(a, &mut d_got, reg);
        assert_eq!(d_got, d);
        assert_same(n, "refactor_equilibrated", reg, got, &f, want);
    }

    fn assert_same(
        n: usize,
        path: &str,
        reg: f64,
        got: Result<(), LinalgError>,
        f: &Cholesky,
        want: Result<Matrix, LinalgError>,
    ) {
        match (got, want) {
            (Ok(()), Ok(l)) => {
                assert!(f.is_valid());
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            f.l()[(i, j)].to_bits(),
                            l[(i, j)].to_bits(),
                            "{path} n={n} reg={reg:e}: l[{i},{j}] = {:e}, textbook {:e}",
                            f.l()[(i, j)],
                            l[(i, j)]
                        );
                    }
                }
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{path} n={n} reg={reg:e}");
                assert!(!f.is_valid(), "{path} n={n}: failed refactor left valid");
            }
            (got, want) => panic!("{path} n={n} reg={reg:e}: got {got:?}, textbook {want:?}"),
        }
    }

    #[test]
    fn kernel_matches_textbook_at_schur_scale() {
        // W·L of the 100-DC instance (4·100) plus a remainder that is not a
        // multiple of the panel width.
        for wide in [false, true] {
            let a = spread_spd(402, 402, wide);
            for reg in [0.0, 1e-9] {
                assert_matches_textbook(&a, reg);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_kernel_matches_textbook_bit_for_bit(
            seed in 0u64..1_000_000,
            wide in 0usize..2,
            poison in 0usize..4,
            at in 0.0f64..1.0,
        ) {
            // Every size 1..=67: panels that divide n and panels that leave
            // a remainder, below and above the sizes that skip the update.
            for n in 1..=67usize {
                let mut a = spread_spd(n, seed + n as u64, wide == 1);
                let r = ((at * n as f64) as usize).min(n - 1);
                match poison {
                    1 => a[(r, r)] = -a[(r, r)],
                    2 => a[(r, r)] = f64::NAN,
                    3 if r > 0 => a[(r, r / 2)] = f64::NAN,
                    _ => {}
                }
                for reg in [0.0, 1e-9] {
                    assert_matches_textbook(&a, reg);
                }
            }
        }
    }

    #[test]
    fn factor_and_solve_small_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f = Cholesky::factor(&a).unwrap();
        let b = Vector::from(vec![10.0, 8.0]);
        let x = f.solve(&b);
        let r = &a.matvec(&x) - &b;
        assert!(r.norm_inf() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn regularization_rescues_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        assert!(Cholesky::factor_regularized(&a, 1e-6).is_ok());
    }

    #[test]
    fn equilibration_accepts_rows_many_decades_apart() {
        // An inverse barrier weight of 1e25 next to one of 1e-12: SPD, but
        // the norm-relative pivot tolerance (1e11) rejects the small pivot
        // until the diagonal is scaled to one.
        let a = Matrix::from_rows(&[&[1e25, 1e6], &[1e6, 1e-12]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let mut d = [0.0; 2];
        let mut f = Cholesky::unfactored(2);
        f.refactor_equilibrated(&a, &mut d, 0.0).unwrap();
        assert_eq!(d, [1e25f64.sqrt().recip(), 1e-12f64.sqrt().recip()]);
        // Solve a x = b as x = D (DaD)⁻¹ D b, for an x whose scaled
        // components are O(1).
        let x_true = [2.0 * d[0], -3.0 * d[1]];
        let mut x: Vec<f64> = (0..2)
            .map(|i| d[i] * (a[(i, 0)] * x_true[0] + a[(i, 1)] * x_true[1]))
            .collect();
        f.solve_slice_in_place(&mut x);
        for i in 0..2 {
            let xi = d[i] * x[i];
            assert!(
                (xi - x_true[i]).abs() <= 1e-12 * x_true[i].abs(),
                "x[{i}] = {xi}"
            );
        }
        assert!(matches!(
            f.refactor_equilibrated(&a, &mut d[..1], 0.0),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f_clean = Cholesky::factor(&a).unwrap();
        a[(0, 1)] = 999.0; // poison upper triangle
        let f_poisoned = Cholesky::factor(&a).unwrap();
        assert_eq!(f_clean.l(), f_poisoned.l());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = spd(5, 11);
        let b = spd(5, 29);
        let mut f = Cholesky::factor(&a).unwrap();
        f.refactor(&b, 0.0).unwrap();
        let fresh = Cholesky::factor(&b).unwrap();
        assert_eq!(f.l(), fresh.l());
        // Dimension changes are rejected, as is a non-PD refactor.
        assert!(f.refactor(&spd(4, 3), 0.0).is_err());
        let indef = Matrix::from_rows(&[&[1.0; 5]; 5].map(|r| &r[..])).unwrap();
        assert!(f.refactor(&indef, 0.0).is_err());
    }

    #[test]
    fn nan_input_is_rejected_not_silently_factored() {
        // Regression: `d <= tol` is false for a NaN pivot, so a non-finite
        // entry used to flow into sqrt and produce an all-NaN factor while
        // refactor reported success.
        let mut a = spd(3, 17);
        a[(1, 1)] = f64::NAN;
        let mut f = Cholesky::factor(&spd(3, 5)).unwrap();
        assert!(matches!(
            f.refactor(&a, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(!f.is_valid());
        // Fresh factorization of NaN data must fail the same way.
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn failed_refactor_invalidates_until_recovery() {
        let good = spd(4, 23);
        let mut f = Cholesky::factor(&good).unwrap();
        assert!(f.is_valid());
        let indef = Matrix::from_rows(&[&[1.0; 4]; 4].map(|r| &r[..])).unwrap();
        assert!(f.refactor(&indef, 0.0).is_err());
        assert!(!f.is_valid());
        // Solving with the invalidated factor panics instead of returning
        // garbage from the half-written storage.
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.solve(&Vector::zeros(4))));
        assert!(res.is_err(), "solve with an invalid factor must panic");
        // A later successful refactor restores the factor.
        f.refactor(&good, 0.0).unwrap();
        assert!(f.is_valid());
        let fresh = Cholesky::factor(&good).unwrap();
        assert_eq!(f.l(), fresh.l());
    }

    #[test]
    fn log_det_matches_known_value() {
        let a = Matrix::from_diag(&Vector::from(vec![2.0, 3.0]));
        let f = Cholesky::factor(&a).unwrap();
        assert!((f.log_det() - 6.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solves_moderate_random_spd_systems() {
        for n in [1usize, 3, 8, 25] {
            let a = spd(n, n as u64 + 7);
            let f = Cholesky::factor(&a).unwrap();
            let xtrue: Vector = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = a.matvec(&xtrue);
            let x = f.solve(&b);
            assert!(
                (&x - &xtrue).norm_inf() < 1e-8,
                "n={n}: residual {}",
                (&x - &xtrue).norm_inf()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_solve_inverts_matvec(seed in 0u64..500, n in 1usize..12) {
            let a = spd(n, seed);
            let f = Cholesky::factor(&a).unwrap();
            let x: Vector = (0..n).map(|i| (i as f64 * 0.7) - 2.0).collect();
            let b = a.matvec(&x);
            let got = f.solve(&b);
            prop_assert!((&got - &x).norm_inf() < 1e-7);
        }
    }
}
