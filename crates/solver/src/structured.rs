//! Compact representation of DSPP-shaped stage-structured problems.
//!
//! The horizon-truncated placement problem is almost entirely structure:
//! identity dynamics `x⁺ = x + u` over the per-(l,v) arc states, diagonal
//! quadratic input costs, linear state costs, and per-period constraint
//! rows that are either *diagonal* (touching one arc: non-negativity,
//! per-arc caps) or *aggregate coupling* rows (demand rows summing over a
//! location's arcs, capacity rows summing over a data center's arcs). A
//! dense [`LqProblem`] stores the identity `A`/`B` and the mostly-zero
//! constraint matrix explicitly — `O(n²)` per stage — which caps the dense
//! path at a few hundred arcs. [`StructuredLq`] stores exactly the nonzero
//! data: `O(n + rows)` per stage, so 100 DCs × 1000 locations fits in a
//! few megabytes.
//!
//! [`StructuredLq::new`] builds one directly — the DSPP horizon builder
//! in `dspp-core` emits its rows straight into this form —
//! [`solve_structured`](crate::solve_structured) solves it with
//! Schur-condensed Newton steps, [`StructuredLq::relax_demand`] adds the
//! recovery solve's demand slack as pseudo-arcs so it stays in this form,
//! and [`StructuredLq::to_lq`] expands it to the equivalent dense problem
//! for the Riccati backend and for cross-validation.

use crate::{LqProblem, LqSolution, LqStage, LqTerminal, SoftSpec, SolverError};
use dspp_linalg::{Matrix, Vector};

/// A constraint row touching exactly one arc: `coeff · x_arc ≤ d_row`.
///
/// Folded straight into the per-arc tridiagonal KKT blocks — diagonal rows
/// never enter the Schur system.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagRow {
    /// Index of this row within each constrained slot's row order.
    pub row: usize,
    /// The arc (state index) the row constrains.
    pub arc: usize,
    /// The row's coefficient (e.g. `-1` for non-negativity).
    pub coeff: f64,
}

/// An aggregate coupling row `Σ_e coeff_e · x_e ≤ d_row` over several arcs
/// (a demand row over one location's arcs, or a capacity row over one data
/// center's arcs).
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingRow {
    /// Index of this row within each constrained slot's row order.
    pub row: usize,
    /// `(arc, coefficient)` pairs; arcs are distinct within a row.
    pub entries: Vec<(usize, f64)>,
}

/// A DSPP-shaped LQ problem in compact form; see the module docs.
///
/// Slots `1..=W` (stages `1..W-1` plus the terminal) each carry the same
/// `m_rows` constraint rows — the same sparsity *and* coefficients, with
/// only the right-hand sides varying per slot — split into diagonal rows
/// and two groups of coupling rows whose supports are disjoint *within*
/// each group (demand rows partition arcs by location; capacity rows by
/// data center). That two-group "arrow" structure is what the structured
/// KKT factorization eliminates in two levels.
#[derive(Debug, Clone)]
pub struct StructuredLq {
    /// Arc count `n` (state and input dimension).
    pub(crate) n: usize,
    /// Horizon `W` (stage count; slots `1..=W` are constrained).
    pub(crate) w: usize,
    /// Initial state.
    pub(crate) x0: Vector,
    /// Stage-0 linear state cost on the *fixed* `x0` (a constant in the
    /// objective, kept so objectives match the dense problem exactly).
    pub(crate) q0: Vector,
    /// Linear state costs per slot `k = 1..=W` (index `k-1`).
    pub(crate) qs: Vec<Vector>,
    /// Diagonal state Hessian `Q`, shared by slots `1..=W` (zero except
    /// on the slack arcs of [`StructuredLq::relax_demand`]).
    pub(crate) q_diag: Vector,
    /// Input cost Hessian diagonals `R_k` per stage `k = 0..W-1` (zero
    /// only on slack arcs).
    pub(crate) r_diags: Vec<Vector>,
    /// Linear input costs per stage.
    pub(crate) r_vecs: Vec<Vector>,
    /// Constraint rows per constrained slot.
    pub(crate) m_rows: usize,
    /// Right-hand sides per slot `k = 1..=W` (index `k-1`), original row
    /// order.
    pub(crate) ds: Vec<Vector>,
    /// Single-arc rows.
    pub(crate) diag_rows: Vec<DiagRow>,
    /// First coupling group (disjoint supports; demand rows in DSPP).
    pub(crate) group_a: Vec<CouplingRow>,
    /// Second coupling group (disjoint supports; capacity rows in DSPP).
    pub(crate) group_b: Vec<CouplingRow>,
    /// Arc `e` → index into `group_b` of the row containing it (or
    /// [`NO_ROW`]), plus that row's coefficient on `e`; the structured
    /// factorization uses it to find the capacity row each arc feeds.
    pub(crate) arc_b: Vec<(usize, f64)>,
}

/// Marker for "arc not in any row of this group".
pub(crate) const NO_ROW: usize = usize::MAX;

impl StructuredLq {
    /// Builds a structured problem from its compact parts.
    ///
    /// Shapes: `x0`, `q0`, every entry of `qs`/`r_diags`/`r_vecs` have
    /// length `n`; `qs`, `r_vecs` and `ds` have one entry per slot
    /// `1..=W`, `r_diags` one per stage `0..W-1` (the two counts are both
    /// `W`); every `ds[k]` has length `m_rows`. Row indices of
    /// `diag_rows` ∪ `group_a` ∪ `group_b` must partition `0..m_rows`,
    /// and each group's rows must have pairwise-disjoint arc supports. A
    /// coupling row may be empty — a data center no location reaches —
    /// and then stays in the layout as the vacuous row `0 ≤ d`.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] describing the first violated
    /// requirement.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        x0: Vector,
        q0: Vector,
        qs: Vec<Vector>,
        r_diags: Vec<Vector>,
        r_vecs: Vec<Vector>,
        ds: Vec<Vector>,
        diag_rows: Vec<DiagRow>,
        group_a: Vec<CouplingRow>,
        group_b: Vec<CouplingRow>,
        m_rows: usize,
    ) -> Result<Self, SolverError> {
        let bad = |msg: String| Err(SolverError::InvalidProblem(msg));
        let n = x0.len();
        let w = qs.len();
        if n == 0 {
            return bad("structured problem needs at least one arc".into());
        }
        if w == 0 {
            return bad("structured problem needs a positive horizon".into());
        }
        if r_diags.len() != w || r_vecs.len() != w || ds.len() != w {
            return bad(format!(
                "per-slot series disagree: qs {w}, r_diags {}, r_vecs {}, ds {}",
                r_diags.len(),
                r_vecs.len(),
                ds.len()
            ));
        }
        if !x0.is_finite() || !q0.is_finite() || q0.len() != n {
            return bad("x0/q0 must be finite vectors of the arc dimension".into());
        }
        for (k, (q, (r, rv))) in qs.iter().zip(r_diags.iter().zip(&r_vecs)).enumerate() {
            if q.len() != n || r.len() != n || rv.len() != n {
                return bad(format!("slot {k}: cost vectors must have length {n}"));
            }
            if !q.is_finite() || !rv.is_finite() {
                return bad(format!("slot {k}: non-finite cost data"));
            }
            if r.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                return bad(format!("stage {k}: input cost diagonal must be positive"));
            }
        }
        for (k, d) in ds.iter().enumerate() {
            if d.len() != m_rows {
                return bad(format!(
                    "slot {}: rhs has {} rows, expected {m_rows}",
                    k + 1,
                    d.len()
                ));
            }
            if !d.is_finite() {
                return bad(format!("slot {}: non-finite rhs", k + 1));
            }
        }
        let mut row_seen = vec![false; m_rows];
        let mut claim_row = |row: usize| -> Result<(), SolverError> {
            if row >= m_rows {
                return Err(SolverError::InvalidProblem(format!(
                    "row index {row} out of range (m_rows = {m_rows})"
                )));
            }
            if row_seen[row] {
                return Err(SolverError::InvalidProblem(format!(
                    "row {row} classified twice"
                )));
            }
            row_seen[row] = true;
            Ok(())
        };
        for dr in &diag_rows {
            claim_row(dr.row)?;
            if dr.arc >= n || !dr.coeff.is_finite() || dr.coeff == 0.0 {
                return bad(format!("diagonal row {} has invalid arc/coeff", dr.row));
            }
        }
        let mut arc_a = vec![(NO_ROW, 0.0); n];
        let mut arc_b = vec![(NO_ROW, 0.0); n];
        for (group, map, name) in [(&group_a, &mut arc_a, "A"), (&group_b, &mut arc_b, "B")] {
            for (gi, c) in group.iter().enumerate() {
                claim_row(c.row)?;
                for &(e, coeff) in &c.entries {
                    if e >= n || !coeff.is_finite() || coeff == 0.0 {
                        return bad(format!("coupling row {} has invalid entry", c.row));
                    }
                    if map[e].0 != NO_ROW {
                        return bad(format!(
                            "group {name}: arc {e} appears in two rows — supports must be disjoint"
                        ));
                    }
                    map[e] = (gi, coeff);
                }
            }
        }
        if let Some(row) = row_seen.iter().position(|&s| !s) {
            return bad(format!("row {row} is not classified"));
        }
        Ok(StructuredLq {
            n,
            w,
            x0,
            q0,
            qs,
            q_diag: Vector::zeros(n),
            r_diags,
            r_vecs,
            m_rows,
            ds,
            diag_rows,
            group_a,
            group_b,
            arc_b,
        })
    }

    /// The always-feasible relaxation of the group-A (demand) rows: one
    /// slack pseudo-arc `σ_j ≥ 0` per group-A row `j`,
    ///
    /// ```text
    /// Σ_e c_e x_e − σ_j ≤ d_j,      σ_j ≥ 0,
    /// ```
    ///
    /// penalized by `ρ_j σ_j + ε σ_j²` in every slot `1..=W` — the same
    /// exact-penalty relaxation [`crate::relax_lq_slots`] builds on the
    /// dense form, but kept in the compact form so the Schur backend
    /// solves it. Slack arc `j` is state `n + j`: it appears in its own
    /// group-A row (coefficient `−1`) and in one non-negativity row
    /// (appended after the original rows, in group-A order), in no
    /// group-B row, and carries linear cost `ρ_j`, diagonal state Hessian
    /// `2ε` and no input cost, so each slot's slack is independent of the
    /// others. [`StructuredLq::strip_slack`] maps a solution back.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] unless `spec` has one positive,
    /// finite penalty per group-A row and a positive, finite quadratic.
    pub fn relax_demand(&self, spec: &SoftSpec) -> Result<StructuredLq, SolverError> {
        let na = self.group_a.len();
        if spec.penalties.len() != na
            || !spec.penalties.is_finite()
            || spec.penalties.iter().any(|&p| p <= 0.0)
        {
            return Err(SolverError::InvalidProblem(format!(
                "demand relaxation needs {na} positive, finite penalties"
            )));
        }
        if !(spec.quadratic.is_finite() && spec.quadratic > 0.0) {
            return Err(SolverError::InvalidProblem(
                "demand relaxation: quadratic slack penalty must be positive".into(),
            ));
        }
        let n = self.n;
        // Every per-arc vector gains the slack arcs' entries; `zero` pads
        // with zeros.
        let pad = |v: &Vector, tail: &Vector| -> Vector {
            v.iter().chain(tail.iter()).copied().collect()
        };
        let zero = Vector::zeros(na);
        let mut diag_rows = self.diag_rows.clone();
        let mut group_a = self.group_a.clone();
        for (j, row) in group_a.iter_mut().enumerate() {
            row.entries.push((n + j, -1.0));
            diag_rows.push(DiagRow {
                row: self.m_rows + j,
                arc: n + j,
                coeff: -1.0,
            });
        }
        let mut arc_b = self.arc_b.clone();
        arc_b.resize(n + na, (NO_ROW, 0.0));
        Ok(StructuredLq {
            n: n + na,
            w: self.w,
            x0: pad(&self.x0, &zero),
            q0: pad(&self.q0, &zero),
            qs: self.qs.iter().map(|q| pad(q, &spec.penalties)).collect(),
            q_diag: pad(&self.q_diag, &Vector::filled(na, 2.0 * spec.quadratic)),
            r_diags: self.r_diags.iter().map(|r| pad(r, &zero)).collect(),
            r_vecs: self.r_vecs.iter().map(|r| pad(r, &zero)).collect(),
            m_rows: self.m_rows + na,
            ds: self.ds.iter().map(|d| pad(d, &zero)).collect(),
            diag_rows,
            group_a,
            group_b: self.group_b.clone(),
            arc_b,
        })
    }

    /// Maps a solution of [`StructuredLq::relax_demand`]`(self)` back onto
    /// this problem: trajectories without the slack arcs, slot duals
    /// truncated to this problem's rows, and the objective *without* the
    /// slack penalty. What the placement leaves unserved is then
    /// [`StructuredLq::group_a_violations`] of the returned states.
    ///
    /// # Panics
    ///
    /// Panics if `sol` does not come from this problem's relaxation.
    pub fn strip_slack(&self, sol: &LqSolution) -> LqSolution {
        let n = self.n;
        assert!(
            sol.xs.len() == self.w + 1 && sol.xs.iter().all(|x| x.len() == n + self.group_a.len()),
            "solution does not come from this problem's demand relaxation"
        );
        let head = |v: &Vector, len: usize| -> Vector { v.iter().copied().take(len).collect() };
        let xs: Vec<Vector> = sol.xs.iter().map(|x| head(x, n)).collect();
        let us: Vec<Vector> = sol.us.iter().map(|u| head(u, n)).collect();
        LqSolution {
            objective: self.objective(&xs, &us),
            xs,
            us,
            stage_duals: sol
                .stage_duals
                .iter()
                .map(|z| head(z, self.m_rows))
                .collect(),
            iterations: sol.iterations,
            status: sol.status,
        }
    }

    /// Expands to the equivalent dense [`LqProblem`]: identity dynamics,
    /// diagonal `R`, an unconstrained stage 0 and the same `m_rows` state
    /// rows on every later slot. This is what the Riccati backend solves,
    /// and the bridge for cross-validation.
    ///
    /// # Panics
    ///
    /// Does not panic: by construction the expansion always validates.
    pub fn to_lq(&self) -> LqProblem {
        let n = self.n;
        let mut cx = Matrix::zeros(self.m_rows, n);
        for dr in &self.diag_rows {
            cx[(dr.row, dr.arc)] = dr.coeff;
        }
        for c in self.group_a.iter().chain(&self.group_b) {
            for &(e, coeff) in &c.entries {
                cx[(c.row, e)] = coeff;
            }
        }
        let mut stages = Vec::with_capacity(self.w);
        for k in 0..self.w {
            let mut st = LqStage::identity_dynamics(n);
            st.r_mat = Matrix::from_diag(&self.r_diags[k]);
            st.r_vec = self.r_vecs[k].clone();
            if k == 0 {
                st.q_vec = self.q0.clone();
            } else {
                st.q_mat = Matrix::from_diag(&self.q_diag);
                st.q_vec = self.qs[k - 1].clone();
                st = st.with_constraints(
                    cx.clone(),
                    Matrix::zeros(self.m_rows, n),
                    self.ds[k - 1].clone(),
                );
            }
            stages.push(st);
        }
        let mut terminal = LqTerminal::free(n)
            .with_state_cost(self.qs[self.w - 1].clone())
            .with_constraints(cx, self.ds[self.w - 1].clone());
        terminal.q_mat = Matrix::from_diag(&self.q_diag);
        LqProblem::new(self.x0.clone(), stages, terminal).expect("structured expansion is valid")
    }

    /// How far the slot-`k` state `x` (`k = 1..=W`) violates each group-A
    /// row, `max(0, Σ_e c_e x_e − d_j)` in group-A order. For the DSPP
    /// horizon that is the demand a placement leaves unserved per
    /// location — zero exactly where it is covered, unlike a relaxation's
    /// slack variable, which an interior-point solve leaves a
    /// barrier-sized distance above zero.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=W` or `x` has the wrong length.
    pub fn group_a_violations(&self, k: usize, x: &Vector) -> Vector {
        assert!((1..=self.w).contains(&k), "slot {k} is not constrained");
        assert_eq!(x.len(), self.n, "state has the wrong dimension");
        let d = &self.ds[k - 1];
        self.group_a
            .iter()
            .map(|row| {
                let lhs: f64 = row.entries.iter().map(|&(e, c)| c * x[e]).sum();
                (lhs - d[row.row]).max(0.0)
            })
            .collect()
    }

    /// Arc count (state and input dimension).
    pub fn state_dim(&self) -> usize {
        self.n
    }

    /// Horizon `W`.
    pub fn horizon(&self) -> usize {
        self.w
    }

    /// Constraint rows per constrained slot.
    pub fn num_rows(&self) -> usize {
        self.m_rows
    }

    /// Number of coupling rows (both groups) per slot — the rows the
    /// Schur complement eliminates.
    pub fn num_coupling_rows(&self) -> usize {
        self.group_a.len() + self.group_b.len()
    }

    /// Simulates `x⁺ = x + u` from `x0`.
    pub(crate) fn rollout(&self, us: &[Vector]) -> Vec<Vector> {
        let mut xs = Vec::with_capacity(self.w + 1);
        xs.push(self.x0.clone());
        for u in us {
            let mut xn = xs.last().expect("nonempty").clone();
            xn.axpy(1.0, u);
            xs.push(xn);
        }
        xs
    }

    /// Constraint left-hand side `C x` for one slot, written into `out`
    /// (length `m_rows`).
    pub(crate) fn row_lhs_into(&self, x: &Vector, out: &mut Vector) {
        out.fill(0.0);
        for dr in &self.diag_rows {
            out[dr.row] = dr.coeff * x[dr.arc];
        }
        for c in self.group_a.iter().chain(&self.group_b) {
            let mut acc = 0.0;
            for &(e, coeff) in &c.entries {
                acc += coeff * x[e];
            }
            out[c.row] = acc;
        }
    }

    /// Constraint-transpose accumulation `out += Cᵀ t` for one slot.
    pub(crate) fn row_t_acc(&self, t: &Vector, out: &mut Vector) {
        for dr in &self.diag_rows {
            out[dr.arc] += dr.coeff * t[dr.row];
        }
        for c in self.group_a.iter().chain(&self.group_b) {
            let tr = t[c.row];
            for &(e, coeff) in &c.entries {
                out[e] += coeff * tr;
            }
        }
    }

    /// Objective of a trajectory, matching [`LqProblem::objective`] on the
    /// expanded problem.
    #[allow(clippy::needless_range_loop)] // `k` is a stage index, offset by one
    pub(crate) fn objective(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        let mut j = self.q0.dot(&xs[0]);
        for k in 1..=self.w {
            j += self.qs[k - 1].dot(&xs[k]);
            for e in 0..self.n {
                j += 0.5 * self.q_diag[e] * xs[k][e] * xs[k][e];
            }
        }
        for k in 0..self.w {
            let u = &us[k];
            let r = &self.r_diags[k];
            for e in 0..self.n {
                j += 0.5 * r[e] * u[e] * u[e];
            }
            j += self.r_vecs[k].dot(u);
        }
        j
    }

    /// Problem scale for the stopping test, matching the dense path.
    pub(crate) fn scale(&self) -> f64 {
        let mut scale: f64 = 1.0;
        scale = scale.max(self.q0.norm_inf());
        for q in &self.qs {
            scale = scale.max(q.norm_inf());
        }
        for r in &self.r_vecs {
            scale = scale.max(r.norm_inf());
        }
        for d in &self.ds {
            scale = scale.max(d.norm_inf());
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two DCs × two locations, every arc usable: 4 arcs, 2 demand rows
    /// (group A), 2 capacity rows (group B), 4 non-negativity diag rows.
    fn dspp_like(w: usize) -> StructuredLq {
        let n = 4; // arcs: (dc0,v0) (dc0,v1) (dc1,v0) (dc1,v1)
        let m_rows = 2 + 2 + n;
        let diag_rows = (0..n)
            .map(|e| DiagRow {
                row: 4 + e,
                arc: e,
                coeff: -1.0,
            })
            .collect();
        let group_a = vec![
            CouplingRow {
                row: 0,
                entries: vec![(0, -1.0), (2, -1.2)],
            },
            CouplingRow {
                row: 1,
                entries: vec![(1, -0.8), (3, -1.0)],
            },
        ];
        let group_b = vec![
            CouplingRow {
                row: 2,
                entries: vec![(0, 1.0), (1, 1.0)],
            },
            CouplingRow {
                row: 3,
                entries: vec![(2, 1.0), (3, 1.0)],
            },
        ];
        let mut d = Vector::zeros(m_rows);
        d[0] = -5.0;
        d[1] = -3.0;
        d[2] = 40.0;
        d[3] = 40.0;
        StructuredLq::new(
            Vector::zeros(n),
            Vector::zeros(n),
            vec![Vector::from(vec![1.0, 2.0, 3.0, 1.5]); w],
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

    #[test]
    fn row_products_match_dense_matrices() {
        let slq = dspp_like(2);
        let dense = slq.to_lq();
        let cx = &dense.terminal.cx;
        let x: Vector = (0..4).map(|e| e as f64 * 0.7 - 1.0).collect();
        let mut lhs = Vector::zeros(slq.num_rows());
        slq.row_lhs_into(&x, &mut lhs);
        let want = cx.matvec(&x);
        assert!((&lhs - &want).norm_inf() < 1e-15);
        let t: Vector = (0..slq.num_rows()).map(|i| i as f64 * 0.3 - 1.1).collect();
        let mut acc = Vector::zeros(4);
        slq.row_t_acc(&t, &mut acc);
        let want_t = cx.matvec_t(&t);
        assert!((&acc - &want_t).norm_inf() < 1e-15);
    }

    #[test]
    fn rollout_and_objective_match_dense() {
        let slq = dspp_like(3);
        let dense = slq.to_lq();
        let us: Vec<Vector> = (0..3)
            .map(|k| (0..4).map(|e| (k + e) as f64 * 0.4 - 0.5).collect())
            .collect();
        let xs = slq.rollout(&us);
        let dense_xs = dense.rollout(&us);
        for (a, b) in xs.iter().zip(&dense_xs) {
            assert!((a - b).norm_inf() < 1e-15);
        }
        assert!((slq.objective(&xs, &us) - dense.objective(&xs, &us)).abs() < 1e-12);
    }

    #[test]
    fn empty_coupling_row_stays_a_vacuous_row() {
        // A third capacity row over no arcs: a data center no location
        // reaches. It keeps its row index and expands to a zero row.
        let ok = dspp_like(2);
        let mut group_b = ok.group_b.clone();
        group_b.push(CouplingRow {
            row: 8,
            entries: Vec::new(),
        });
        let ds: Vec<Vector> = ok
            .ds
            .iter()
            .map(|d| d.iter().copied().chain([40.0]).collect())
            .collect();
        let slq = StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            ok.r_diags.clone(),
            ok.r_vecs.clone(),
            ds,
            ok.diag_rows.clone(),
            ok.group_a.clone(),
            group_b,
            9,
        )
        .unwrap();
        assert_eq!(slq.num_coupling_rows(), 5);
        let dense = slq.to_lq();
        assert_eq!(dense.terminal.d.len(), 9);
        assert!((0..4).all(|e| dense.terminal.cx[(8, e)] == 0.0));
    }

    #[test]
    fn demand_relaxation_sheds_exactly_the_deficit_on_both_backends() {
        use crate::{solve_lq, solve_structured, IpmSettings, SolveStatus};
        use dspp_telemetry::Recorder;
        // Location 0 needs 5 demand units, location 1 needs 3. DC 1 is
        // dark and DC 0 has 2 servers, which serve 1 demand unit each at
        // location 0 but only 0.8 at location 1: the optimum serves 2
        // units at location 0 and sheds the other 3 + 3.
        let strict = dspp_like(2);
        let mut ds = strict.ds.clone();
        for d in &mut ds {
            d[2] = 2.0;
            d[3] = 0.0;
        }
        let strict = StructuredLq::new(
            strict.x0.clone(),
            strict.q0.clone(),
            strict.qs.clone(),
            strict.r_diags.clone(),
            strict.r_vecs.clone(),
            ds,
            strict.diag_rows.clone(),
            strict.group_a.clone(),
            strict.group_b.clone(),
            strict.m_rows,
        )
        .unwrap();
        let relaxed = strict
            .relax_demand(&SoftSpec::uniform(2, 1e3, 1e-4))
            .unwrap();
        assert_eq!(relaxed.state_dim(), 6);
        assert_eq!(relaxed.num_rows(), strict.num_rows() + 2);
        let settings = IpmSettings::default();
        let schur = solve_structured(&relaxed, &settings, None, &Recorder::disabled()).unwrap();
        let dense = solve_lq(&relaxed.to_lq(), &settings).unwrap();
        assert_eq!(schur.status, SolveStatus::Optimal);
        assert!((schur.objective - dense.objective).abs() <= 1e-8 * dense.objective.abs());
        for sol in [&schur, &dense] {
            let placement = strict.strip_slack(sol);
            assert_eq!(placement.xs[1].len(), 4);
            for k in 1..=2 {
                let x = &placement.xs[k];
                assert!((x[0] - 2.0).abs() < 1e-6, "DC 0 misplaced: {x:?}");
                assert!(x[1].abs() + x[2].abs() + x[3].abs() < 1e-6, "{x:?}");
                let unserved = strict.group_a_violations(k, x);
                assert!((unserved[0] - 3.0).abs() < 1e-6 && (unserved[1] - 3.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn constructor_rejects_malformed_input() {
        let ok = dspp_like(2);
        // Overlapping supports within one group.
        let mut group_a = ok.group_a.clone();
        group_a[1].entries[0].0 = 0; // arc 0 already in row 0's support
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            ok.r_diags.clone(),
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows.clone(),
            group_a,
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
        // Unclassified row.
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            ok.r_diags.clone(),
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows[1..].to_vec(),
            ok.group_a.clone(),
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
        // Non-positive input cost.
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            vec![Vector::zeros(4); 2],
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows.clone(),
            ok.group_a.clone(),
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
    }
}
