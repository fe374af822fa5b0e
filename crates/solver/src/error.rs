use dspp_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Errors produced by the QP solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// The problem description is structurally invalid (shape mismatch,
    /// non-finite data, empty horizon, ...).
    InvalidProblem(String),
    /// The interior-point iteration hit its iteration limit before reaching
    /// the requested tolerances. Carries the best duality-gap measure seen.
    MaxIterations {
        /// Configured iteration limit.
        limit: usize,
        /// Complementarity measure `sᵀz/m` at the final iterate.
        gap: f64,
    },
    /// The iteration stalled or produced non-finite values; the problem is
    /// likely primal or dual infeasible, or catastrophically ill-conditioned.
    NumericalFailure(String),
    /// The problem is primal infeasible: the interior-point iterates produced
    /// a Farkas-style certificate (diverging inequality multipliers pricing a
    /// constraint row whose violation never shrank). Unlike
    /// [`SolverError::MaxIterations`], this is a property of the *problem*,
    /// not of the iteration budget, and callers can react by re-solving a
    /// relaxation (see `relax_lq_slots`).
    Infeasible {
        /// Stage (period) index of the certified row; the terminal slot is
        /// reported as the horizon length.
        period: usize,
        /// Constraint row index within that stage.
        constraint: usize,
        /// Persistent violation of that row, `(Cx·x + Cu·u − d)_row`, at the
        /// least-infeasible iterate seen.
        shortfall: f64,
    },
    /// A linear-algebra kernel failed irrecoverably.
    Linalg(LinalgError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            SolverError::MaxIterations { limit, gap } => {
                write!(
                    f,
                    "no convergence within {limit} iterations (gap {gap:.3e})"
                )
            }
            SolverError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            SolverError::Infeasible {
                period,
                constraint,
                shortfall,
            } => write!(
                f,
                "primal infeasible: period {period} constraint {constraint} \
                 cannot be met (shortfall {shortfall:.6})"
            ),
            SolverError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for SolverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolverError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SolverError {
    fn from(e: LinalgError) -> Self {
        SolverError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SolverError::MaxIterations {
            limit: 50,
            gap: 1e-3,
        };
        assert!(e.to_string().contains("50"));
        let e = SolverError::from(LinalgError::Singular { pivot: 2 });
        assert!(e.to_string().contains("singular"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverError>();
    }
}
