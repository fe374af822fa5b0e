//! Output checks, applied to every period of every run.
//!
//! Each executed period yields a [`PeriodRecord`] — the ledger the program
//! exposes after `IngestLoop::step` — and [`check_period`] verifies:
//!
//! * integer conservation: generated = admitted + dropped + carry backlog
//!   (cumulative, as the loop's totals are);
//! * no admitted event sits on an arc whose DC has zero capacity in that
//!   period;
//! * the controller's allocation is non-negative and within each DC's
//!   capacity for that period.
//!
//! Any violation fails the run.

/// Relative slack allowed on the capacity bound (interior-point
/// solutions approach it from the inside up to the solver tolerance).
const CAPACITY_RTOL: f64 = 1e-6;
/// Absolute slack on the capacity bound, servers.
const CAPACITY_ATOL: f64 = 1e-6;

/// What one executed period left behind, as seen from outside.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Period index.
    pub period: usize,
    /// Requests generated so far (cumulative).
    pub generated: u64,
    /// Requests admitted so far (cumulative).
    pub admitted: u64,
    /// Requests dropped so far (cumulative).
    pub dropped: u64,
    /// Carry backlog summed over cities after the period.
    pub backlog: u64,
    /// Admitted events of this period per arc.
    pub arc_counts: Vec<u64>,
    /// DC of every arc.
    pub arc_dc: Vec<usize>,
    /// Per-DC capacity in force this period, servers.
    pub capacity: Vec<f64>,
    /// The controller's allocation after the period's step, per arc.
    pub allocation: Vec<f64>,
}

/// Checks one period. Returns every violated property.
pub fn check_period(r: &PeriodRecord) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let p = r.period;
    if r.generated != r.admitted + r.dropped + r.backlog {
        violations.push(format!(
            "period {p}: conservation broken: generated {} != admitted {} + dropped {} + backlog {}",
            r.generated, r.admitted, r.dropped, r.backlog
        ));
    }
    if r.arc_counts.len() != r.arc_dc.len() || r.allocation.len() != r.arc_dc.len() {
        violations.push(format!(
            "period {p}: ledger shape: {} arc counts, {} allocations, {} arcs",
            r.arc_counts.len(),
            r.allocation.len(),
            r.arc_dc.len()
        ));
        return Err(violations);
    }
    let mut per_dc = vec![0.0; r.capacity.len()];
    for (a, &dc) in r.arc_dc.iter().enumerate() {
        let Some(&cap) = r.capacity.get(dc) else {
            violations.push(format!("period {p}: arc {a} names unknown DC {dc}"));
            continue;
        };
        if cap <= 0.0 && r.arc_counts[a] > 0 {
            violations.push(format!(
                "period {p}: {} events admitted on arc {a} of dark DC {dc}",
                r.arc_counts[a]
            ));
        }
        let x = r.allocation[a];
        if x.is_nan() || x < 0.0 {
            violations.push(format!("period {p}: arc {a} has allocation {x}"));
        }
        per_dc[dc] += x;
    }
    for (dc, (&x, &cap)) in per_dc.iter().zip(&r.capacity).enumerate() {
        if x > cap * (1.0 + CAPACITY_RTOL) + CAPACITY_ATOL {
            violations.push(format!(
                "period {p}: DC {dc} holds {x} servers over its capacity {cap}"
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> PeriodRecord {
        PeriodRecord {
            period: 3,
            generated: 100,
            admitted: 90,
            dropped: 4,
            backlog: 6,
            arc_counts: vec![50, 40, 0],
            arc_dc: vec![0, 0, 1],
            capacity: vec![10.0, 0.0],
            allocation: vec![6.0, 4.0, 0.0],
        }
    }

    #[test]
    fn a_consistent_ledger_passes() {
        assert_eq!(check_period(&clean()), Ok(()));
    }

    #[test]
    fn doctored_conservation_fails() {
        let mut r = clean();
        r.admitted += 1;
        assert!(check_period(&r).is_err());
    }

    #[test]
    fn events_on_a_dark_dc_fail() {
        let mut r = clean();
        r.arc_counts[2] = 1;
        let err = check_period(&r).unwrap_err();
        assert!(err[0].contains("dark DC 1"), "{err:?}");
    }

    #[test]
    fn negative_or_over_capacity_allocations_fail() {
        let mut r = clean();
        r.allocation[2] = -0.5;
        assert!(check_period(&r).is_err());
        let mut r = clean();
        r.allocation[0] = 6.5;
        let err = check_period(&r).unwrap_err();
        assert!(err[0].contains("over its capacity"), "{err:?}");
        let mut r = clean();
        r.allocation[1] = f64::NAN;
        assert!(check_period(&r).is_err());
    }
}
