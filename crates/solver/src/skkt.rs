//! Structure-exploiting interior-point path for DSPP-shaped problems.
//!
//! The dense path solves each Newton system by a Riccati recursion —
//! `O(W·n³)` per interior-point iteration, which at 100 data centers ×
//! 1000 locations (thousands of arcs) is minutes per solve and gigabytes
//! of stage matrices. This module exploits what [`StructuredLq`] records:
//! after eliminating inputs (`Δu_k = Δx_{k+1} − Δx_k`) and costates, the
//! condensed Newton system over `y = (Δx_1, …, Δx_W)` is
//!
//! ```text
//! H y = b,      H = T + Gᵀ W_c G,
//! ```
//!
//! where `T` is block-diagonal over *arcs* — one `W×W` tridiagonal chain
//! per arc, carrying the input Hessians, regularization, any diagonal
//! state Hessian and the barrier weights of the single-arc rows — and `G`
//! holds only the aggregate coupling rows (demand and capacity), `W_c`
//! their barrier weights. This module solves the equivalent *augmented*
//! system over `y` and the coupling-row multipliers `v`,
//!
//! ```text
//! [ T   Gᵀ    ] [y]   [b]
//! [ G  −W_c⁻¹ ] [v] = [0],      S = W_c⁻¹ + G T⁻¹ Gᵀ,
//! ```
//!
//! by eliminating `y`: `S v = G T⁻¹ b`, `y = T⁻¹(b − Gᵀ v)`. `S` itself is
//! a two-block "arrow": demand rows have disjoint arc supports (one row
//! per location), capacity rows likewise (one per data center), so
//! `S = [[D_A, F], [Fᵀ, D_B]]` with block-diagonal `D_A`, `D_B` and sparse
//! cross blocks `F`. Eliminating the (many) demand rows leaves one dense
//! SPD system of dimension `W · #capacity rows` — a few hundred even at
//! 100× scale — factored by [`dspp_linalg::SchurComplement`].
//! Per-iteration cost is `O(n·W³ + (W·L)³)` for `L` data centers:
//! near-linear in arcs, but at 100× scale (`n` = 3000 arcs, `W·L` = 400)
//! the `(W·L)³` dense factor of `S` is the larger term, not the chains.
//! With the textbook Cholesky loop it took ~51% of the solve, against ~8%
//! for the chains' assembly, factors and inverses; the panel kernel of
//! [`dspp_linalg::Cholesky`] cut it to ~19% (DESIGN.md §4.1).
//!
//! Numerics. Barrier weights span ~40 decades within one solve: a demand
//! row a warm start begins on, or a dark data center's zero-capacity row
//! and the non-negativity rows it pins, grow to `w = z/s ~ 1e14`, while
//! the "uncapacitated" 1e9 sentinel capacity row sits at `w ~ 1e-24`.
//! Three choices keep every Newton step accurate there:
//!
//! * the chains, the demand blocks and the capacity system are
//!   Jacobi-equilibrated before Cholesky, so pivots are judged relative
//!   to their own row (inverse weights from `1e-14` to `1e25` share one
//!   diagonal), and the regularization of `S` is relative to its rows;
//! * stiff rows stay in the augmented system instead of being folded
//!   into `H`: a row of weight `w` in `H` makes it ill-conditioned by `w`
//!   (fatally so next to a recovery slack's tiny Hessian), while in `S`
//!   it only contributes a vanishing `1/w`;
//! * iterative refinement runs on the augmented system, whose residual is
//!   commensurate with the data. The residual of `H y = b` carries every
//!   stiff row's weight as a factor, so refining against it chases
//!   amplified roundoff and diverges.
//!
//! This module is only the factorization and the Newton solve: the
//! interior-point iteration around it is the shared loop in `lq_ipm`,
//! reached through [`solve_structured`](crate::solve_structured).

use crate::lq_ipm::{KktSystem, Step};
use crate::structured::{StructuredLq, NO_ROW};
use crate::SolverError;
use dspp_linalg::{BlockDiag, LinalgError, Matrix, SchurComplement, Vector};
use dspp_telemetry::Recorder;

/// Refinement passes on the augmented system after the first solve.
const MAX_REFINEMENT: usize = 3;

/// Refinement stops once the augmented solve's componentwise backward
/// error is below this.
const REFINEMENT_TOL: f64 = 1e-14;

fn zero_mat(m: &mut Matrix) {
    for i in 0..m.rows() {
        for v in m.row_mut(i) {
            *v = 0.0;
        }
    }
}

/// Cross block between one group-A (demand) row and one group-B
/// (capacity) row it shares arcs with: `F = Σ c_A c_B T_e⁻¹` and the
/// eliminated product `K = D_A⁻¹ F`.
struct APair {
    jb: usize,
    f: Matrix,
    k: Matrix,
}

/// The Schur [`KktSystem`] over a [`StructuredLq`]: preallocated
/// factorization workspace for the condensed system, rebuilt by
/// [`SchurKkt::refactor`] every interior-point iteration without
/// allocating.
///
/// `y` vectors are arc-major (arc `e`'s chain occupies `[e·W, (e+1)·W)`);
/// multiplier vectors `v` hold the group-A rows' `W` slots first, then the
/// group-B rows'.
pub(crate) struct SchurKkt<'a> {
    slq: &'a StructuredLq,
    n: usize,
    w: usize,
    /// Single-arc rows per arc: arc `e`'s `(row, coefficient)` pairs are
    /// `diag[diag_start[e]..diag_start[e + 1]]`.
    diag_start: Vec<usize>,
    diag: Vec<(usize, f64)>,
    /// Per-arc `W×W` chain matrices and their block-Cholesky factors.
    t_mats: Vec<Matrix>,
    t_blocks: BlockDiag,
    /// Explicit per-arc chain inverses (needed to assemble `S`).
    t_invs: Vec<Matrix>,
    /// Group-A (demand-row) diagonal blocks of `S` and their factors.
    a_mats: Vec<Matrix>,
    a_blocks: BlockDiag,
    /// Per group-A row: cross blocks against overlapping group-B rows.
    pairs: Vec<Vec<APair>>,
    /// Final dense system over the group-B rows.
    s_cap: SchurComplement,
    // --- scratch ---
    tmp_mat: Matrix,
    col: Vector,
    v_b: Vector,
    corr: Vector,
    /// Right-hand side `(b, c)` of the augmented solve.
    rhs1: Vector,
    rhs2: Vector,
    /// Multipliers of the augmented solve, the refinement residuals and
    /// their scale, and the last refinement correction.
    v: Vector,
    r1: Vector,
    r2: Vector,
    r_scale: Vector,
    dy: Vector,
    dv: Vector,
    /// Modified state gradients `q̂_k` and the condensed right-hand side.
    q_hats: Vec<Vector>,
    y: Vector,
    /// Regularization of the last successful factorization.
    reg: f64,
    /// Whether the one-off size observations were emitted.
    sizes_reported: bool,
}

impl<'a> SchurKkt<'a> {
    pub fn new(slq: &'a StructuredLq) -> Self {
        let n = slq.n;
        let w = slq.w;
        let mut diag_start = vec![0; n + 1];
        for dr in &slq.diag_rows {
            diag_start[dr.arc + 1] += 1;
        }
        for e in 0..n {
            diag_start[e + 1] += diag_start[e];
        }
        let mut next = diag_start.clone();
        let mut diag = vec![(0, 0.0); slq.diag_rows.len()];
        for dr in &slq.diag_rows {
            diag[next[dr.arc]] = (dr.row, dr.coeff);
            next[dr.arc] += 1;
        }
        let pairs = slq
            .group_a
            .iter()
            .map(|cr| {
                let mut jbs: Vec<usize> = cr
                    .entries
                    .iter()
                    .filter_map(|&(e, _)| {
                        let (jb, _) = slq.arc_b[e];
                        (jb != NO_ROW).then_some(jb)
                    })
                    .collect();
                jbs.sort_unstable();
                jbs.dedup();
                jbs.into_iter()
                    .map(|jb| APair {
                        jb,
                        f: Matrix::zeros(w, w),
                        k: Matrix::zeros(w, w),
                    })
                    .collect()
            })
            .collect();
        let na = slq.group_a.len();
        let nb = slq.group_b.len();
        SchurKkt {
            slq,
            n,
            w,
            diag_start,
            diag,
            t_mats: vec![Matrix::zeros(w, w); n],
            t_blocks: BlockDiag::new(n, w),
            t_invs: vec![Matrix::zeros(w, w); n],
            a_mats: vec![Matrix::zeros(w, w); na],
            a_blocks: BlockDiag::new(na, w),
            pairs,
            s_cap: SchurComplement::new(nb * w),
            tmp_mat: Matrix::zeros(w, w),
            col: Vector::zeros(w),
            v_b: Vector::zeros(nb * w),
            corr: Vector::zeros(n * w),
            rhs1: Vector::zeros(n * w),
            rhs2: Vector::zeros((na + nb) * w),
            v: Vector::zeros((na + nb) * w),
            r1: Vector::zeros(n * w),
            r2: Vector::zeros((na + nb) * w),
            r_scale: Vector::zeros(n * w),
            dy: Vector::zeros(n * w),
            dv: Vector::zeros((na + nb) * w),
            q_hats: vec![Vector::zeros(n); w + 1],
            y: Vector::zeros(n * w),
            reg: 0.0,
            sizes_reported: false,
        }
    }

    /// Dimension of the final dense coupling system.
    fn dense_dim(&self) -> usize {
        self.s_cap.dim()
    }

    /// Rebuilds and refactors the whole condensed system for the current
    /// barrier weights `ws` (per slot, slot 0 empty) and regularization.
    fn refactor(&mut self, ws: &[Vector], reg: f64) -> Result<(), LinalgError> {
        let slq = self.slq;
        let w = self.w;
        // Per-arc tridiagonal chains: T_e = Σ_k R̃_k (y_{k+1}−y_k)² plus
        // the diagonal state Hessian and the diagonal barrier terms of the
        // single-arc rows.
        for e in 0..self.n {
            let m = &mut self.t_mats[e];
            zero_mat(m);
            #[allow(clippy::needless_range_loop)] // `k` is a stage index into several arrays
            for k in 1..=w {
                let i = k - 1;
                let mut d = slq.r_diags[k - 1][e] + reg + slq.q_diag[e];
                if k < w {
                    let rt = slq.r_diags[k][e] + reg;
                    d += rt;
                    m[(i, i + 1)] = -rt;
                    m[(i + 1, i)] = -rt;
                }
                for &(row, c) in &self.diag[self.diag_start[e]..self.diag_start[e + 1]] {
                    d += ws[k][row] * c * c;
                }
                m[(i, i)] = d;
            }
        }
        self.t_blocks.refactor(&self.t_mats, 0.0)?;
        for e in 0..self.n {
            self.t_blocks.inverse_block_into(e, &mut self.t_invs[e]);
        }
        // Group-A diagonal blocks D_A[j] = W_c⁻¹ + Σ c² T_e⁻¹.
        for (ja, cr) in slq.group_a.iter().enumerate() {
            let m = &mut self.a_mats[ja];
            zero_mat(m);
            for &(e, c) in &cr.entries {
                m.add_scaled(c * c, &self.t_invs[e]);
            }
            for k in 1..=w {
                m[(k - 1, k - 1)] += 1.0 / ws[k][cr.row];
            }
        }
        self.a_blocks.refactor(&self.a_mats, 0.0)?;
        // Cross blocks F (per shared arc) and K = D_A⁻¹ F.
        for (ja, cr) in slq.group_a.iter().enumerate() {
            for pair in self.pairs[ja].iter_mut() {
                zero_mat(&mut pair.f);
                for &(e, ca) in &cr.entries {
                    let (jb, cb) = slq.arc_b[e];
                    if jb == pair.jb {
                        pair.f.add_scaled(ca * cb, &self.t_invs[e]);
                    }
                }
                for j in 0..w {
                    pair.f.col_into(j, &mut self.col);
                    self.a_blocks.solve_block_in_place(ja, &mut self.col);
                    for i in 0..w {
                        pair.k[(i, j)] = self.col[i];
                    }
                }
            }
        }
        // Dense group-B system S_B = D_B − Fᵀ D_A⁻¹ F.
        self.s_cap.reset();
        for (jb, cr) in slq.group_b.iter().enumerate() {
            zero_mat(&mut self.tmp_mat);
            for &(e, c) in &cr.entries {
                self.tmp_mat.add_scaled(c * c, &self.t_invs[e]);
            }
            #[allow(clippy::needless_range_loop)] // `k` is a stage index, offset by one
            for k in 1..=w {
                self.tmp_mat[(k - 1, k - 1)] += 1.0 / ws[k][cr.row];
            }
            self.s_cap.add_block(jb * w, jb * w, 1.0, &self.tmp_mat);
        }
        for prs in &self.pairs {
            for p in prs {
                for q in prs {
                    zero_mat(&mut self.tmp_mat);
                    p.f.matmul_t_acc(1.0, &q.k, &mut self.tmp_mat);
                    self.s_cap
                        .add_block(p.jb * w, q.jb * w, -1.0, &self.tmp_mat);
                }
            }
        }
        self.s_cap.refactor(reg)
    }

    /// Solves the augmented system `[[T, Gᵀ], [G, −W_c⁻¹]] [y; v] = [r₁; r₂]`
    /// in place — `y` holds `r₁` on entry and `y` on exit, `v` holds `r₂`
    /// on entry and `v` on exit — using the last successful
    /// [`SchurKkt::refactor`]. With `r₂ = 0` this is `H y = r₁`.
    fn solve_in_place(&mut self, y: &mut Vector, v: &mut Vector) {
        let slq = self.slq;
        let w = self.w;
        let na = slq.group_a.len();
        // g = T⁻¹ r₁, then the right-hand side of S v = G g − r₂.
        self.t_blocks.solve_in_place(y);
        for (j, cr) in slq.group_a.iter().chain(&slq.group_b).enumerate() {
            for i in 0..w {
                let mut acc = 0.0;
                for &(e, c) in &cr.entries {
                    acc += c * y[e * w + i];
                }
                v[j * w + i] = acc - v[j * w + i];
            }
        }
        // Demand rows: h = D_A⁻¹ h_A (in place in v's group-A part).
        for ja in 0..na {
            for i in 0..w {
                self.col[i] = v[ja * w + i];
            }
            self.a_blocks.solve_block_in_place(ja, &mut self.col);
            for i in 0..w {
                v[ja * w + i] = self.col[i];
            }
        }
        // Capacity rows: S_B v_B = h_B − Fᵀ h.
        for (ja, prs) in self.pairs.iter().enumerate() {
            for p in prs {
                for j in 0..w {
                    let mut acc = 0.0;
                    for i in 0..w {
                        acc += p.f[(i, j)] * v[ja * w + i];
                    }
                    v[(na + p.jb) * w + j] -= acc;
                }
            }
        }
        for (i, x) in self.v_b.iter_mut().enumerate() {
            *x = v[na * w + i];
        }
        self.s_cap.solve_in_place(&mut self.v_b);
        for (i, x) in self.v_b.iter().enumerate() {
            v[na * w + i] = *x;
        }
        // Back-substitute the demand rows: v_A = h − K v_B.
        for (ja, prs) in self.pairs.iter().enumerate() {
            for p in prs {
                for i in 0..w {
                    let mut acc = 0.0;
                    for j in 0..w {
                        acc += p.k[(i, j)] * v[(na + p.jb) * w + j];
                    }
                    v[ja * w + i] -= acc;
                }
            }
        }
        // y = g − T⁻¹ Gᵀ v.
        self.corr.fill(0.0);
        for (j, cr) in slq.group_a.iter().chain(&slq.group_b).enumerate() {
            for &(e, c) in &cr.entries {
                for i in 0..w {
                    self.corr[e * w + i] += c * v[j * w + i];
                }
            }
        }
        self.t_blocks.solve_in_place(&mut self.corr);
        y.axpy(-1.0, &self.corr);
    }

    /// Residual of the augmented system at `(y, v)` for the right-hand
    /// side `(b, c)` in `rhs1`/`rhs2`, against the exact matrices
    /// [`SchurKkt::refactor`] factored (including regularization):
    /// `r₁ = b − T y − Gᵀ v` and `r₂ = c − G y + W_c⁻¹ v`. Returns the
    /// componentwise relative backward error `max_i |r_i| / (|K| |x| +
    /// |rhs|)_i` (Oettli–Prager), which judges every row against its own
    /// magnitude however far apart the rows' barrier weights are.
    fn residual(
        &self,
        ws: &[Vector],
        y: &Vector,
        v: &Vector,
        r1: &mut Vector,
        r2: &mut Vector,
        scale: &mut Vector,
    ) -> f64 {
        let slq = self.slq;
        let w = self.w;
        // `scale` accumulates |K||x| + |rhs| for the first block.
        for e in 0..self.n {
            let t = &self.t_mats[e];
            for i in 0..w {
                let (mut acc, mut abs) = (0.0, 0.0);
                for j in 0..w {
                    let tij = t[(i, j)] * y[e * w + j];
                    acc += tij;
                    abs += tij.abs();
                }
                r1[e * w + i] = self.rhs1[e * w + i] - acc;
                scale[e * w + i] = self.rhs1[e * w + i].abs() + abs;
            }
        }
        let mut worst = 0.0f64;
        let ratio = |r: f64, s: f64| if s > 0.0 { r.abs() / s } else { r.abs() };
        for (j, cr) in slq.group_a.iter().chain(&slq.group_b).enumerate() {
            for i in 0..w {
                let vi = v[j * w + i];
                let (mut gy, mut gy_abs) = (0.0, 0.0);
                for &(e, c) in &cr.entries {
                    gy += c * y[e * w + i];
                    gy_abs += (c * y[e * w + i]).abs();
                    r1[e * w + i] -= c * vi;
                    scale[e * w + i] += (c * vi).abs();
                }
                let vw = vi / ws[i + 1][cr.row];
                let rhs = self.rhs2[j * w + i];
                r2[j * w + i] = rhs - gy + vw;
                worst = worst.max(ratio(r2[j * w + i], rhs.abs() + gy_abs + vw.abs()));
            }
        }
        for i in 0..r1.len() {
            worst = worst.max(ratio(r1[i], scale[i]));
        }
        worst
    }

    /// Solves the augmented system for right-hand side `(y, rhs2)` in
    /// place (`y` on exit, the multipliers in `self.v`), then refines it
    /// until its backward error reaches roundoff, stops shrinking, or
    /// [`MAX_REFINEMENT`] passes are spent. Each pass costs two chain
    /// solves and one small dense solve — negligible next to the
    /// refactorization.
    fn solve_refined(&mut self, ws: &[Vector], y: &mut Vector) {
        self.rhs1.copy_from(y);
        let mut v = std::mem::replace(&mut self.v, Vector::zeros(0));
        let mut r1 = std::mem::replace(&mut self.r1, Vector::zeros(0));
        let mut r2 = std::mem::replace(&mut self.r2, Vector::zeros(0));
        let mut scale = std::mem::replace(&mut self.r_scale, Vector::zeros(0));
        v.copy_from(&self.rhs2);
        self.solve_in_place(y, &mut v);
        let mut last = f64::INFINITY;
        for _ in 0..MAX_REFINEMENT {
            let resid = self.residual(ws, y, &v, &mut r1, &mut r2, &mut scale);
            if resid >= last {
                // The previous correction made things worse: undo it.
                y.axpy(-1.0, &self.dy);
                v.axpy(-1.0, &self.dv);
                break;
            }
            if resid <= REFINEMENT_TOL {
                break;
            }
            last = resid;
            self.solve_in_place(&mut r1, &mut r2);
            y.axpy(1.0, &r1);
            v.axpy(1.0, &r2);
            self.dy.copy_from(&r1);
            self.dv.copy_from(&r2);
        }
        self.v = v;
        self.r1 = r1;
        self.r2 = r2;
        self.r_scale = scale;
    }
}

impl KktSystem for SchurKkt<'_> {
    const BACKEND: &'static str = "structured";
    const FACTOR_SECONDS: &'static str = "solver.lq.schur_factor_seconds";
    type FactorError = LinalgError;

    fn horizon(&self) -> usize {
        self.w
    }

    fn state_dim(&self) -> usize {
        self.n
    }

    fn input_dim(&self, _k: usize) -> usize {
        self.n
    }

    /// Slot 0 (the fixed `x_0`) carries no rows; slots `1..=W` carry the
    /// shared `m_rows` each.
    fn slot_rows(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.slq.m_rows
        }
    }

    fn rhs(&self, k: usize) -> &Vector {
        &self.slq.ds[k - 1]
    }

    fn rollout(&self, us: &[Vector]) -> Vec<Vector> {
        self.slq.rollout(us)
    }

    fn scale(&self) -> f64 {
        self.slq.scale()
    }

    fn objective(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        self.slq.objective(xs, us)
    }

    fn slot_lhs(&self, k: usize, xs: &[Vector], _us: &[Vector], out: &mut Vector) {
        self.slq.row_lhs_into(&xs[k], out);
    }

    fn stationarity(
        &self,
        xs: &[Vector],
        us: &[Vector],
        lams: &[Vector],
        zs: &[Vector],
        r_xs: &mut [Vector],
        r_us: &mut [Vector],
    ) {
        let slq = self.slq;
        let w = self.w;
        // Stationarity in x: q_k + Q x_k + Cᵀz_k + λ_k − λ_{k−1} (A = I,
        // Q diagonal); terminal drops the λ_k term.
        for k in 1..=w {
            let r = &mut r_xs[k];
            for e in 0..self.n {
                r[e] = slq.qs[k - 1][e] + slq.q_diag[e] * xs[k][e];
            }
            slq.row_t_acc(&zs[k], r);
            if k < w {
                r.axpy(1.0, &lams[k]);
            }
            r.axpy(-1.0, &lams[k - 1]);
        }
        // Stationarity in u: R_k u_k + r_k + λ_k (B = I, no input rows).
        for k in 0..w {
            let r = &mut r_us[k];
            for e in 0..self.n {
                r[e] = slq.r_diags[k][e] * us[k][e] + slq.r_vecs[k][e] + lams[k][e];
            }
        }
    }

    fn factor(&mut self, ws: &[Vector], reg: f64, telemetry: &Recorder) -> Result<(), LinalgError> {
        self.refactor(ws, reg)?;
        self.reg = reg;
        telemetry.incr("solver.lq.schur_factor", 1);
        if !self.sizes_reported && telemetry.is_enabled() {
            self.sizes_reported = true;
            telemetry.observe("solver.lq.schur_block_size", self.w as f64);
            telemetry.observe("solver.lq.schur_dense_dim", self.dense_dim() as f64);
            telemetry.observe("solver.lq.schur_fill", self.s_cap.fill_ratio());
        }
        Ok(())
    }

    fn factor_failed(err: LinalgError) -> SolverError {
        SolverError::NumericalFailure(format!("structured KKT factorization failed: {err}"))
    }

    /// Builds the condensed right-hand side, solves `H y = b`, and
    /// recovers `Δx/Δu/Δλ`.
    #[allow(clippy::needless_range_loop)] // `k`, `e` index stages and arcs of several arrays
    fn newton(
        &mut self,
        ws: &[Vector],
        ts: &[Vector],
        r_xs: &[Vector],
        r_us: &[Vector],
        step: &mut Step,
        telemetry: &Recorder,
    ) {
        let slq = self.slq;
        let w = self.w;
        let n = self.n;
        // q̂_k = r_x,k + C_dᵀ t_k over the single-arc rows (r̂_k is just
        // r_u,k: no input rows). The coupling rows' t_k stays out of `H`:
        // it is the second block's right-hand side −W_c⁻¹ t of the
        // augmented system, whose solution v is then exactly their Δz.
        for k in 1..=w {
            let qh = &mut self.q_hats[k];
            qh.copy_from(&r_xs[k]);
            for e in 0..n {
                for &(row, c) in &self.diag[self.diag_start[e]..self.diag_start[e + 1]] {
                    qh[e] += c * ts[k][row];
                }
            }
        }
        for (j, cr) in slq.group_a.iter().chain(&slq.group_b).enumerate() {
            for k in 1..=w {
                self.rhs2[j * w + k - 1] = -ts[k][cr.row] / ws[k][cr.row];
            }
        }
        // Condensed RHS, arc-major: b_k = −q̂_k + r̂_k − r̂_{k−1} (r̂_W ≡ 0).
        let mut y = std::mem::replace(&mut self.y, Vector::zeros(0));
        for e in 0..n {
            for k in 1..=w {
                let mut b = -self.q_hats[k][e] - r_us[k - 1][e];
                if k < w {
                    b += r_us[k][e];
                }
                y[e * w + k - 1] = b;
            }
        }
        telemetry.time("solver.lq.schur_solve_seconds", || {
            self.solve_refined(ws, &mut y);
        });
        // Recover the trajectory step: Δx_0 = 0, Δu_k = Δx_{k+1} − Δx_k,
        // Δλ_k = −r̂_k − R̃_k Δu_k.
        step.dxs[0].fill(0.0);
        for k in 1..=w {
            for e in 0..n {
                step.dxs[k][e] = y[e * w + k - 1];
            }
        }
        for k in 0..w {
            for e in 0..n {
                let du = step.dxs[k + 1][e] - step.dxs[k][e];
                step.dus[k][e] = du;
                step.dlams[k][e] = -r_us[k][e] - (slq.r_diags[k][e] + self.reg) * du;
            }
        }
        self.y = y;
    }

    /// The coupling rows' `Δz` is the augmented solve's `v`: recomputing
    /// it from `Δx` as `W (C Δx) + t` would multiply the step's roundoff
    /// by a stiff row's weight.
    fn dual_step(&self, k: usize, dz: &mut Vector) {
        let w = self.w;
        for (j, cr) in self.slq.group_a.iter().chain(&self.slq.group_b).enumerate() {
            dz[cr.row] = self.v[j * w + k - 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::{CouplingRow, DiagRow};
    use crate::{solve_lq, solve_lq_warm_traced, solve_structured, IpmSettings, SolverError};
    use proptest::prelude::*;

    /// A small DSPP-shaped instance: `dcs × locs` grid with every arc
    /// usable, demand floors per location, capacity caps per DC,
    /// non-negativity per arc.
    fn instance(dcs: usize, locs: usize, w: usize, demand: f64, cap: f64) -> StructuredLq {
        let n = dcs * locs; // arc (l, v) at index l * locs + v
        let m_rows = locs + dcs + n;
        let diag_rows = (0..n)
            .map(|e| DiagRow {
                row: locs + dcs + e,
                arc: e,
                coeff: -1.0,
            })
            .collect();
        let group_a = (0..locs)
            .map(|v| CouplingRow {
                row: v,
                entries: (0..dcs)
                    .map(|l| (l * locs + v, -(1.0 + 0.1 * l as f64)))
                    .collect(),
            })
            .collect();
        let group_b = (0..dcs)
            .map(|l| CouplingRow {
                row: locs + l,
                entries: (0..locs).map(|v| (l * locs + v, 1.0)).collect(),
            })
            .collect();
        let mut d = Vector::zeros(m_rows);
        for v in 0..locs {
            d[v] = -demand;
        }
        for l in 0..dcs {
            d[locs + l] = cap;
        }
        let qs: Vec<Vector> = (0..w)
            .map(|k| (0..n).map(|e| 1.0 + 0.3 * ((e + k) % 5) as f64).collect())
            .collect();
        StructuredLq::new(
            Vector::zeros(n),
            Vector::zeros(n),
            qs,
            vec![Vector::filled(n, 0.2); w],
            vec![Vector::zeros(n); w],
            vec![d; w],
            diag_rows,
            group_a,
            group_b,
            m_rows,
        )
        .unwrap()
    }

    fn solve(slq: &StructuredLq) -> Result<crate::LqSolution, SolverError> {
        solve_structured(slq, &IpmSettings::default(), None, &Recorder::disabled())
    }

    /// The factorization itself: solve `H y = b` for random barrier
    /// weights and verify `H y` reconstructs `b` through the explicit
    /// definition `H = T + CᵀWC` (chain part plus full barrier part).
    #[test]
    fn schur_solve_satisfies_the_condensed_system() {
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let (n, w, m) = (slq.n, slq.w, slq.m_rows);
        let reg = 1e-9;
        // Deterministic pseudo-random positive weights and rhs.
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 + 0.01
        };
        let mut ws: Vec<Vector> = vec![Vector::zeros(0)];
        for _ in 1..=w {
            ws.push((0..m).map(|_| next() * 3.0).collect());
        }
        let b: Vector = (0..n * w).map(|_| next() - 1.0).collect();
        let mut kkt = SchurKkt::new(&slq);
        kkt.refactor(&ws, reg).unwrap();
        kkt.reg = reg;
        let mut y = b.clone();
        let mut v = Vector::zeros(slq.num_coupling_rows() * w);
        kkt.solve_in_place(&mut y, &mut v);
        // Reconstruct H y slot by slot.
        let mut worst = 0.0f64;
        let mut scratch = Vector::zeros(m);
        let mut wk = Vector::zeros(m);
        for k in 1..=w {
            let yk: Vector = (0..n).map(|e| y[e * w + k - 1]).collect();
            // Chain part: R̃ terms only (diag-row barrier goes via CᵀWC).
            let mut hy = Vector::zeros(n);
            for e in 0..n {
                let r_prev = slq.r_diags[k - 1][e] + reg;
                let mut v = r_prev * yk[e];
                if k > 1 {
                    v -= r_prev * y[e * w + k - 2];
                }
                if k < w {
                    let r_next = slq.r_diags[k][e] + reg;
                    v += r_next * yk[e] - r_next * y[e * w + k];
                }
                hy[e] = v;
            }
            // Barrier part CᵀW(Cy) over every row of the slot.
            slq.row_lhs_into(&yk, &mut scratch);
            for i in 0..m {
                wk[i] = ws[k][i] * scratch[i];
            }
            slq.row_t_acc(&wk, &mut hy);
            for e in 0..n {
                worst = worst.max((hy[e] - b[e * w + k - 1]).abs());
            }
        }
        assert!(worst < 1e-8, "H y deviates from b by {worst:.3e}");
    }

    #[test]
    fn structured_matches_dense_on_a_dspp_instance() {
        let slq = instance(3, 4, 4, 5.0, 40.0);
        let dense = solve_lq(&slq.to_lq(), &IpmSettings::default()).unwrap();
        let structured = solve(&slq).unwrap();
        assert!(
            (structured.objective - dense.objective).abs() <= 1e-8 * (1.0 + dense.objective.abs()),
            "objectives diverge: structured {} vs dense {}",
            structured.objective,
            dense.objective
        );
        for (a, b) in structured.xs.iter().zip(&dense.xs) {
            assert!((a - b).norm_inf() < 1e-6);
        }
        // Duals agree too (they feed the game's capacity prices).
        for (a, b) in structured.stage_duals.iter().zip(&dense.stage_duals) {
            assert!((a - b).norm_inf() < 1e-5);
        }
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let warm_solve = |guess: &[Vector]| {
            solve_structured(
                &slq,
                &IpmSettings::default(),
                Some(guess),
                &Recorder::disabled(),
            )
        };
        let cold = solve(&slq).unwrap();
        let warm = warm_solve(&cold.us).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
        let bad = vec![Vector::zeros(1); 3];
        assert!(matches!(
            warm_solve(&bad),
            Err(SolverError::InvalidProblem(_))
        ));
    }

    #[test]
    fn infeasible_demand_is_certified() {
        // Total demand 3 locations × 50 against one DC capping at 10.
        let slq = instance(1, 3, 3, 50.0, 10.0);
        let err = solve(&slq).unwrap_err();
        assert!(
            matches!(err, SolverError::Infeasible { .. }),
            "expected a certificate, got {err}"
        );
    }

    #[test]
    fn traced_solve_reports_schur_metrics() {
        let telemetry = Recorder::enabled();
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let sol = solve_structured(&slq, &IpmSettings::default(), None, &telemetry).unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("solver.lq.solves"), 1);
        assert_eq!(snap.counter("solver.lq.status.optimal"), 1);
        // One factorization per iteration (no reg boosts on this instance).
        assert_eq!(
            snap.counter("solver.lq.schur_factor"),
            sol.iterations as u64
        );
        assert_eq!(snap.counter("solver.lq.reg_boosts"), 0);
        let bs = snap.histogram("solver.lq.schur_block_size").unwrap();
        assert_eq!(bs.count, 1);
        let dd = snap.histogram("solver.lq.schur_dense_dim").unwrap();
        // 2 capacity rows × horizon 3.
        assert_eq!(dd.count, 1);
        assert!(snap.histogram("solver.lq.schur_fill").unwrap().count == 1);
        assert!(
            snap.histogram("solver.lq.schur_factor_seconds")
                .unwrap()
                .count
                >= 1
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The two backends must agree to 1e-8 on random DSPP-shaped
        /// instances across horizons and grid sizes.
        #[test]
        fn prop_structured_agrees_with_dense(
            dcs in 1usize..4,
            locs in 1usize..5,
            w in 1usize..5,
            demand in 1.0f64..8.0,
            cap_slack in 1.2f64..3.0,
        ) {
            // Keep the instance feasible: total capacity comfortably above
            // total demand (worst-coefficient conversion is ≤ 1 server per
            // unit of demand here).
            let cap = demand * locs as f64 * cap_slack / dcs as f64;
            let slq = instance(dcs, locs, w, demand, cap);
            let dense = solve_lq(&slq.to_lq(), &IpmSettings::default()).unwrap();
            let structured = solve(&slq).unwrap();
            prop_assert!(
                (structured.objective - dense.objective).abs()
                    <= 1e-8 * (1.0 + dense.objective.abs()),
                "objectives diverge: structured {} vs dense {}",
                structured.objective,
                dense.objective
            );
            for (a, b) in structured.xs.iter().zip(&dense.xs) {
                prop_assert!((a - b).norm_inf() < 1e-6);
            }
        }

        /// Warm-start bookkeeping is backend-independent: the tracker
        /// counters must be identical whichever backend solves.
        #[test]
        fn prop_warm_hit_counters_match_across_backends(
            dcs in 1usize..3,
            locs in 1usize..4,
            demand in 1.0f64..6.0,
        ) {
            use crate::WarmStartTracker;
            let cap = demand * locs as f64 * 2.0 / dcs as f64;
            let slq = instance(dcs, locs, 3, demand, cap);
            let problem = slq.to_lq();
            let settings = IpmSettings::default();
            let run = |structured: bool| {
                let telemetry = Recorder::enabled();
                let solve = |warm: Option<&[Vector]>| {
                    if structured {
                        solve_structured(&slq, &settings, warm, &telemetry)
                    } else {
                        solve_lq_warm_traced(&problem, &settings, warm, &telemetry)
                    }
                    .unwrap()
                };
                let mut tracker = WarmStartTracker::new();
                let cold = solve(None);
                tracker.record(false, cold.iterations, &telemetry);
                let warm = solve(Some(&cold.us));
                tracker.record(true, warm.iterations, &telemetry);
                let snap = telemetry.snapshot().unwrap();
                (
                    snap.counter("solver.lq.solves"),
                    snap.counter("solver.lq.warm_starts"),
                    snap.counter("solver.lq.warm_hits"),
                )
            };
            prop_assert_eq!(run(true), run(false));
        }
    }
}
