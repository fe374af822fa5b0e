//! Structure-exploiting interior-point path for DSPP-shaped problems.
//!
//! The dense path solves each Newton system by a Riccati recursion —
//! `O(W·n³)` per interior-point iteration, which at 100 data centers ×
//! 1000 locations (thousands of arcs) is minutes per solve and gigabytes
//! of stage matrices. This module exploits what [`StructuredLq`] records:
//! after eliminating inputs (`Δu_k = Δx_{k+1} − Δx_k`) and costates, the
//! condensed Newton system `H y = b` over `y = (Δx_1, …, Δx_W)` has
//!
//! ```text
//! H = T + Gᵀ W_c G
//! ```
//!
//! where `T` is block-diagonal over *arcs* — one `W×W` tridiagonal chain
//! per arc, carrying the input Hessians, regularization, and the barrier
//! weights of the single-arc rows — and `G` holds only the aggregate
//! coupling rows (demand and capacity), `W_c` their barrier weights. By
//! the Woodbury identity,
//!
//! ```text
//! y = T⁻¹b − T⁻¹ Gᵀ S⁻¹ G T⁻¹ b,      S = W_c⁻¹ + G T⁻¹ Gᵀ,
//! ```
//!
//! and `S` itself is a two-block "arrow": demand rows have disjoint arc
//! supports (one row per location), capacity rows likewise (one per data
//! center), so `S = [[D_A, F], [Fᵀ, D_B]]` with block-diagonal `D_A`,
//! `D_B` and sparse cross blocks `F`. Eliminating the (many) demand rows
//! leaves one dense SPD system of dimension `W · #capacity rows` — a few
//! hundred even at 100× scale — factored by
//! [`dspp_linalg::SchurComplement`]. Per-iteration cost is `O(n·W³ +
//! (W·L)³)` for `L` data centers: near-linear in arcs.
//!
//! This module is only the factorization and the Newton solve: the
//! interior-point iteration around it is the shared loop in `lq_ipm`,
//! reached through [`solve_structured`](crate::solve_structured).

use crate::lq_ipm::{KktSystem, Step};
use crate::structured::StructuredLq;
use crate::SolverError;
use dspp_linalg::{BlockDiag, LinalgError, Matrix, SchurComplement, Vector};
use dspp_telemetry::Recorder;

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
pub(crate) struct SchurKkt<'a> {
    slq: &'a StructuredLq,
    n: usize,
    w: usize,
    /// Per arc: the single-arc rows touching it (row index, coefficient).
    diag_by_arc: Vec<Vec<(usize, f64)>>,
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
    h_a: Vector,
    u_b: Vector,
    corr: Vector,
    rhs_copy: Vector,
    resid: Vector,
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
        let mut diag_by_arc: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for dr in &slq.diag_rows {
            diag_by_arc[dr.arc].push((dr.row, dr.coeff));
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
                        (jb != crate::structured::NO_ROW).then_some(jb)
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
            diag_by_arc,
            t_mats: vec![Matrix::zeros(w, w); n],
            t_blocks: BlockDiag::new(n, w),
            t_invs: vec![Matrix::zeros(w, w); n],
            a_mats: vec![Matrix::zeros(w, w); na],
            a_blocks: BlockDiag::new(na, w),
            pairs,
            s_cap: SchurComplement::new(nb * w),
            tmp_mat: Matrix::zeros(w, w),
            col: Vector::zeros(w),
            h_a: Vector::zeros(na * w),
            u_b: Vector::zeros(nb * w),
            corr: Vector::zeros(n * w),
            rhs_copy: Vector::zeros(n * w),
            resid: Vector::zeros(n * w),
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
        // the diagonal barrier terms of the single-arc rows.
        for e in 0..self.n {
            let m = &mut self.t_mats[e];
            zero_mat(m);
            #[allow(clippy::needless_range_loop)] // `k` is a stage index into several arrays
            for k in 1..=w {
                let i = k - 1;
                let mut d = slq.r_diags[k - 1][e] + reg;
                if k < w {
                    let rt = slq.r_diags[k][e] + reg;
                    d += rt;
                    m[(i, i + 1)] = -rt;
                    m[(i + 1, i)] = -rt;
                }
                for &(row, c) in &self.diag_by_arc[e] {
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

    /// Solves `H y = b` in place (`y` in arc-major layout: arc `e`'s
    /// chain occupies `[e·W, (e+1)·W)`), using the last successful
    /// [`SchurKkt::refactor`].
    fn solve_in_place(&mut self, y: &mut Vector) {
        let slq = self.slq;
        let w = self.w;
        // g = T⁻¹ b.
        self.t_blocks.solve_in_place(y);
        // h = D_A⁻¹ (G_A g).
        for (ja, cr) in slq.group_a.iter().enumerate() {
            for i in 0..w {
                self.col[i] = 0.0;
            }
            for &(e, c) in &cr.entries {
                for i in 0..w {
                    self.col[i] += c * y[e * w + i];
                }
            }
            self.a_blocks.solve_block_in_place(ja, &mut self.col);
            for i in 0..w {
                self.h_a[ja * w + i] = self.col[i];
            }
        }
        // rhs_B = G_B g − Fᵀ h.
        for (jb, cr) in slq.group_b.iter().enumerate() {
            for i in 0..w {
                let mut acc = 0.0;
                for &(e, c) in &cr.entries {
                    acc += c * y[e * w + i];
                }
                self.u_b[jb * w + i] = acc;
            }
        }
        for (ja, prs) in self.pairs.iter().enumerate() {
            for p in prs {
                for j in 0..w {
                    let mut acc = 0.0;
                    for i in 0..w {
                        acc += p.f[(i, j)] * self.h_a[ja * w + i];
                    }
                    self.u_b[p.jb * w + j] -= acc;
                }
            }
        }
        self.s_cap.solve_in_place(&mut self.u_b);
        // Back-substitute the demand rows: u_A = h − K u_B.
        for (ja, prs) in self.pairs.iter().enumerate() {
            for p in prs {
                for i in 0..w {
                    let mut acc = 0.0;
                    for j in 0..w {
                        acc += p.k[(i, j)] * self.u_b[p.jb * w + j];
                    }
                    self.h_a[ja * w + i] -= acc;
                }
            }
        }
        // y = g − T⁻¹ Gᵀ u.
        self.corr.fill(0.0);
        for (ja, cr) in slq.group_a.iter().enumerate() {
            for &(e, c) in &cr.entries {
                for i in 0..w {
                    self.corr[e * w + i] += c * self.h_a[ja * w + i];
                }
            }
        }
        for (jb, cr) in slq.group_b.iter().enumerate() {
            for &(e, c) in &cr.entries {
                for i in 0..w {
                    self.corr[e * w + i] += c * self.u_b[jb * w + i];
                }
            }
        }
        self.t_blocks.solve_in_place(&mut self.corr);
        y.axpy(-1.0, &self.corr);
    }

    /// `out = H v` for the condensed matrix `H = T + CᵀWC` (the exact
    /// matrix [`SchurKkt::refactor`] factored, including regularization).
    /// The chains `t_mats` already carry the single-arc barrier rows, so
    /// only the coupling rows are applied explicitly.
    fn apply_h(&self, ws: &[Vector], v: &Vector, out: &mut Vector) {
        let slq = self.slq;
        let w = self.w;
        for e in 0..self.n {
            let t = &self.t_mats[e];
            for i in 0..w {
                let mut acc = 0.0;
                for j in 0..w {
                    acc += t[(i, j)] * v[e * w + j];
                }
                out[e * w + i] = acc;
            }
        }
        for cr in slq.group_a.iter().chain(slq.group_b.iter()) {
            for i in 0..w {
                let mut acc = 0.0;
                for &(e, c) in &cr.entries {
                    acc += c * v[e * w + i];
                }
                acc *= ws[i + 1][cr.row];
                for &(e, c) in &cr.entries {
                    out[e * w + i] += c * acc;
                }
            }
        }
    }

    /// [`SchurKkt::solve_in_place`] followed by two steps of iterative
    /// refinement against the true `H`. Late interior-point iterations
    /// push the barrier weights to ~1e14 and the condensed system's
    /// condition number with them; the raw two-level solve then loses
    /// enough digits that the recovered duals diverge. Refinement is two
    /// extra block solves — negligible next to the refactorization — and
    /// keeps the step residual at roundoff level throughout.
    fn solve_refined(&mut self, ws: &[Vector], y: &mut Vector) {
        self.rhs_copy.copy_from(y);
        self.solve_in_place(y);
        let mut resid = std::mem::replace(&mut self.resid, Vector::zeros(0));
        for _ in 0..2 {
            self.apply_h(ws, y, &mut resid);
            for i in 0..resid.len() {
                resid[i] = self.rhs_copy[i] - resid[i];
            }
            self.solve_in_place(&mut resid);
            y.axpy(1.0, &resid);
        }
        self.resid = resid;
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
        _xs: &[Vector],
        us: &[Vector],
        lams: &[Vector],
        zs: &[Vector],
        r_xs: &mut [Vector],
        r_us: &mut [Vector],
    ) {
        let slq = self.slq;
        let w = self.w;
        // Stationarity in x: q_k + Cᵀz_k + λ_k − λ_{k−1} (A = I, Q = 0);
        // terminal drops the λ_k term.
        for k in 1..=w {
            let r = &mut r_xs[k];
            r.copy_from(&slq.qs[k - 1]);
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
        // q̂_k = r_x,k + Cᵀ t_k  (r̂_k is just r_u,k: no input rows).
        for k in 1..=w {
            let qh = &mut self.q_hats[k];
            qh.copy_from(&r_xs[k]);
            slq.row_t_acc(&ts[k], qh);
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
        let mut y = b.clone();
        kkt.solve_in_place(&mut y);
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
