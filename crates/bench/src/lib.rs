//! The `dspp-bench` perf harness: shared fixtures plus the [`baseline`]
//! recorder and regression gate over the committed `BENCH_BASELINE.json`
//! (the `dspp-bench` binary).
//!
//! The one `benches/` target, `telemetry`, checks the < 5 % no-op
//! telemetry overhead contract with interleaved std-only timing.

pub mod baseline;

/// Allocation counting behind the deterministic baseline counters.
///
/// The crate installs a counting wrapper around the system allocator so
/// `dspp-bench` can report allocation counts per workload. Unlike
/// wall-clock throughput, an allocation count is exactly reproducible for
/// a fixed build, which lets CI *enforce* it (see `compare-metrics`).
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The system allocator plus a relaxed atomic allocation counter.
    pub struct CountingAllocator;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    // SAFETY: every call delegates directly to the system allocator; the
    // only addition is a relaxed counter increment with no side effects
    // on the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Total allocations made by this process so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns its result plus the number of allocations it
    /// made. Only meaningful for single-threaded sections (the counter is
    /// process-wide).
    pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocations();
        let value = f();
        (value, allocations() - before)
    }
}

use dspp_core::{Dspp, DsppBuilder};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::{LqProblem, LqStage, LqTerminal};

/// A DSPP-shaped LQ problem with `n` arcs and `stages` stages: demand
/// floor, non-negativity, linear prices, PD reconfiguration cost.
pub fn lq_fixture(n: usize, stages: usize, demand: f64) -> LqProblem {
    let price: Vector = (0..n).map(|j| 1.0 + 0.3 * (j as f64)).collect();
    let weights = Vector::filled(n, 0.2);
    let mut floor = Matrix::zeros(1, n);
    for j in 0..n {
        floor[(0, j)] = -1.0;
    }
    let mut nonneg = Matrix::zeros(n, n);
    for j in 0..n {
        nonneg[(j, j)] = -1.0;
    }
    let free = LqStage::identity_dynamics(n)
        .with_state_cost(price.clone())
        .with_input_penalty(&weights);
    let constrained = free
        .clone()
        .with_constraints(
            floor.clone(),
            Matrix::zeros(1, n),
            Vector::from(vec![-demand]),
        )
        .with_constraints(nonneg, Matrix::zeros(n, n), Vector::zeros(n));
    let mut all = vec![free];
    for _ in 1..stages {
        all.push(constrained.clone());
    }
    LqProblem::new(
        Vector::zeros(n),
        all,
        LqTerminal::free(n)
            .with_state_cost(price)
            .with_constraints(floor, Vector::from(vec![-demand])),
    )
    .expect("valid fixture")
}

/// A single-DC problem for controller benchmarks.
pub fn single_dc_problem(periods: usize) -> Dspp {
    DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, 0.001)
        .price_trace(0, vec![0.004; periods])
        .build()
        .expect("valid problem")
}

/// The single-DC problem with its capacity starved far below demand:
/// every strict horizon QP is infeasible, so an MPC step must run the
/// recovery (soft-constraint) solve. Used by the `controller.recovery_step`
/// baseline workload.
pub fn starved_single_dc_problem(periods: usize) -> Dspp {
    DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, 0.001)
        .price_trace(0, vec![0.004; periods])
        .capacity(0, 10.0)
        .build()
        .expect("valid problem")
}

/// A 4-DC × `v` locations problem with all-usable arcs.
pub fn multi_dc_problem(v: usize, periods: usize) -> Dspp {
    let latency: Vec<Vec<f64>> = (0..4)
        .map(|l| {
            (0..v)
                .map(|j| 0.008 + 0.004 * (((l + j) % 5) as f64))
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(4, v)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    for l in 0..4 {
        builder = builder
            .price_trace(l, vec![0.004 + 0.001 * l as f64; periods])
            .reconfiguration_weight(l, 0.001);
    }
    builder.build().expect("valid problem")
}

/// A 100×-scale placement instance: `dcs` data centers × `locs` front-end
/// locations, with each location reaching exactly three nearby DCs under
/// the SLA (the rest of the latency matrix is far beyond the deadline, so
/// the builder prunes those arcs). The sparse arc set is what the
/// structured KKT path exploits; the dense Riccati path would see a
/// `3·locs`-dimensional state and cube it.
///
/// Prices cycle over seven tariff levels so the optimizer has real
/// choices, and capacities are tight enough that the cheap DCs bind.
pub fn huge_problem(dcs: usize, locs: usize) -> Dspp {
    let latency: Vec<Vec<f64>> = (0..dcs)
        .map(|l| {
            (0..locs)
                .map(|v| {
                    let near = l == v % dcs || l == (v + 31) % dcs || l == (v + 57) % dcs;
                    if near {
                        0.010
                    } else {
                        0.200
                    }
                })
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(dcs, locs)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    for l in 0..dcs {
        builder = builder
            .price_trace(l, vec![0.004 + 0.002 * ((l % 7) as f64); 8])
            .reconfiguration_weight(l, 0.001)
            .capacity(l, 150.0);
    }
    builder.build().expect("valid problem")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_solver::{solve_lq, IpmSettings};

    #[test]
    fn fixtures_are_solvable() {
        let p = lq_fixture(4, 6, 20.0);
        assert!(solve_lq(&p, &IpmSettings::default()).is_ok());
        assert_eq!(single_dc_problem(10).num_arcs(), 1);
        assert_eq!(multi_dc_problem(6, 10).num_arcs(), 24);
    }

    #[test]
    fn huge_problem_has_three_arcs_per_location() {
        let p = huge_problem(10, 40);
        assert_eq!(p.num_arcs(), 3 * 40);
        for v in 0..40 {
            assert_eq!(p.arcs_for_location(v).len(), 3);
        }
    }
}
