//! Preflight feasibility analysis for DSPP horizon problems.
//!
//! Solving an infeasible horizon QP wastes a full interior-point run just
//! to learn that no placement exists. The preflight implemented here costs
//! one pass over the compact constraint rows and certifies the cheapest
//! necessary condition: per period, the SLA-scaled aggregate demand
//! `Σ_v D_k^v · min_l (a^{lv} · s)` cannot exceed the total capacity
//! `Σ_l C^l`. The bound ignores how demand splits across data centers, so
//! a clean report does not *guarantee* feasibility — but any reported
//! deficit is a true lower bound on the SLA shortfall that every
//! relaxation (see [`crate::relax_lq_slots`]) must incur, which is exactly
//! the contract the recovery solve and its tests rely on.
//!
//! The check reads a [`StructuredLq`] under the DSPP row convention of the
//! core crate's horizon builder: group A holds the demand rows
//! (`-Σ_e x_e/a_e ≤ -D_v`), group B the capacity rows (`Σ_e s·x_e ≤ C_l`);
//! single-arc rows (non-negativity) are ignored.

use crate::structured::NO_ROW;
use crate::StructuredLq;

/// Aggregate demand-versus-capacity balance of one period (stage slot).
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodFeasibility {
    /// Stage slot index within the horizon (the terminal slot is the
    /// horizon length).
    pub period: usize,
    /// Minimum aggregate resource the period's demand requires,
    /// `Σ_v D_v · min_e(resource per served demand unit via arc e)`.
    pub required: f64,
    /// Total capacity across the period's capacity rows, `Σ_l C^l`.
    pub available: f64,
    /// Aggregate capacity deficit `max(0, required − available)`; zero for
    /// a period that passes the check, infinite when a positive demand has
    /// no serving arc at all.
    pub deficit: f64,
}

/// Result of the aggregate preflight over a whole horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    /// One entry per constrained stage slot, in horizon order.
    pub periods: Vec<PeriodFeasibility>,
}

impl FeasibilityReport {
    /// `true` when no period shows an aggregate deficit. A `true` report
    /// is necessary but not sufficient for feasibility of the full QP.
    pub fn is_feasible(&self) -> bool {
        self.periods.iter().all(|p| p.deficit <= 0.0)
    }

    /// The period with the largest deficit, if any period has one.
    pub fn worst(&self) -> Option<&PeriodFeasibility> {
        self.periods
            .iter()
            .filter(|p| p.deficit > 0.0)
            .max_by(|a, b| a.deficit.total_cmp(&b.deficit))
    }

    /// The first period (in horizon order) with a positive deficit.
    pub fn first_infeasible(&self) -> Option<&PeriodFeasibility> {
        self.periods.iter().find(|p| p.deficit > 0.0)
    }

    /// Sum of all per-period deficits.
    pub fn total_deficit(&self) -> f64 {
        self.periods.iter().map(|p| p.deficit).sum()
    }

    /// Per-period deficits in horizon order.
    pub fn deficits(&self) -> Vec<f64> {
        self.periods.iter().map(|p| p.deficit).collect()
    }
}

impl StructuredLq {
    /// Runs the aggregate preflight, one period per constrained slot
    /// `1..=W`.
    ///
    /// For every slot the check computes, per demand row, the cheapest
    /// resource cost of serving one demand unit over the arcs in the row
    /// — the arc's capacity-row coefficient divided by its demand-row rate
    /// — and compares the summed requirement against the summed capacity
    /// right-hand sides.
    pub fn preflight(&self) -> FeasibilityReport {
        let periods = self
            .ds
            .iter()
            .enumerate()
            .map(|(t, d)| {
                let mut required = 0.0f64;
                for row in &self.group_a {
                    let demand = -d[row.row];
                    if demand <= 0.0 {
                        continue;
                    }
                    let mut best: Option<f64> = None;
                    for &(e, coeff) in &row.entries {
                        let rate = -coeff;
                        if rate <= 0.0 {
                            continue;
                        }
                        let (jb, cb) = self.arc_b[e];
                        let resource = if jb == NO_ROW { 0.0 } else { cb.max(0.0) };
                        let cost = resource / rate;
                        best = Some(best.map_or(cost, |b: f64| b.min(cost)));
                    }
                    match best {
                        Some(cost) => required += demand * cost,
                        // Positive demand with no serving arc: structurally
                        // unservable, regardless of capacity.
                        None => required = f64::INFINITY,
                    }
                }
                let available: f64 = self.group_b.iter().map(|row| d[row.row]).sum();
                PeriodFeasibility {
                    period: t + 1,
                    required,
                    available,
                    deficit: (required - available).max(0.0),
                }
            })
            .collect();
        FeasibilityReport { periods }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CouplingRow, DiagRow, StructuredLq};
    use dspp_linalg::Vector;

    /// One DC (capacity `cap`), one location, arc coefficient `a`,
    /// server size 1: demand row `-x/a ≤ -demand`, capacity row `x ≤ cap`,
    /// non-negativity `-x ≤ 0`, one slot per entry of `demands`.
    fn one_arc_problem(a: f64, cap: f64, demands: &[f64], serving: bool) -> StructuredLq {
        let w = demands.len();
        let entries = |c: f64| if serving { vec![(0, c)] } else { Vec::new() };
        StructuredLq::new(
            Vector::zeros(1),
            Vector::zeros(1),
            vec![Vector::zeros(1); w],
            vec![Vector::filled(1, 0.2); w],
            vec![Vector::zeros(1); w],
            demands
                .iter()
                .map(|&dem| Vector::from(vec![-dem, cap, 0.0]))
                .collect(),
            vec![DiagRow {
                row: 2,
                arc: 0,
                coeff: -1.0,
            }],
            vec![CouplingRow {
                row: 0,
                entries: entries(-1.0 / a),
            }],
            vec![CouplingRow {
                row: 1,
                entries: entries(1.0),
            }],
            3,
        )
        .unwrap()
    }

    #[test]
    fn feasible_horizon_reports_zero_deficit() {
        let report = one_arc_problem(0.5, 10.0, &[8.0, 12.0, 16.0], true).preflight();
        assert!(report.is_feasible());
        assert_eq!(report.periods.len(), 3);
        // Period 1 needs 0.5 · 8 = 4 servers of 10.
        assert_eq!(report.periods[0].period, 1);
        assert!((report.periods[0].required - 4.0).abs() < 1e-12);
        assert!((report.periods[0].available - 10.0).abs() < 1e-12);
        assert_eq!(report.worst(), None);
        assert_eq!(report.total_deficit(), 0.0);
    }

    #[test]
    fn overload_reports_exact_deficit() {
        // Demand 30 at a = 0.5 needs 15 servers; only 10 exist.
        let report = one_arc_problem(0.5, 10.0, &[8.0, 30.0, 8.0], true).preflight();
        assert!(!report.is_feasible());
        let worst = report.worst().unwrap();
        assert_eq!(worst.period, 2);
        assert!((worst.deficit - 5.0).abs() < 1e-12);
        assert_eq!(report.first_infeasible().unwrap().period, 2);
        assert!((report.total_deficit() - 5.0).abs() < 1e-12);
        assert_eq!(report.deficits(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn unservable_demand_is_an_infinite_deficit() {
        // Demand and capacity rows over no arc at all.
        let report = one_arc_problem(0.5, 10.0, &[5.0], false).preflight();
        assert_eq!(report.periods.len(), 1);
        assert!(report.periods[0].deficit.is_infinite());
    }
}
