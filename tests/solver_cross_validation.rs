//! Property-based cross-validation of the independent QP solvers: the
//! Riccati-structured interior point and the dense Mehrotra interior point
//! must agree on randomized stage-structured problems, and the two KKT
//! backends of the stage-structured interior point (Riccati on the dense
//! expansion, Schur condensation on the compact form) must agree on
//! randomized DSPP horizons.

use dspp::core::{Allocation, Dspp, DsppBuilder, HorizonProblem};
use dspp::linalg::{Matrix, Vector};
use dspp::solver::{
    flatten_lq, relax_lq_slots, solve_lq, solve_lq_warm, solve_qp, solve_structured, IpmSettings,
    LqProblem, LqStage, LqTerminal, SoftSpec, SolveStatus, SolverError, StructuredLq,
};
use dspp::telemetry::Recorder;
use proptest::prelude::*;

/// Builds a random but well-posed DSPP-shaped LQ problem: identity
/// dynamics, linear state costs (prices), PD input costs, a demand floor
/// plus non-negativity at every stage past the first.
fn random_problem(
    n: usize,
    stages: usize,
    prices: &[f64],
    reconfig: &[f64],
    demand: f64,
    x0: &[f64],
) -> LqProblem {
    let price = Vector::from(prices[..n].to_vec());
    let weights = Vector::from(reconfig[..n].to_vec());
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
        Vector::from(x0[..n].to_vec()),
        all,
        LqTerminal::free(n)
            .with_state_cost(price)
            .with_constraints(floor, Vector::from(vec![-demand])),
    )
    .expect("valid problem")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn structured_and_dense_agree_on_random_problems(
        n in 1usize..4,
        stages in 2usize..5,
        prices in prop::collection::vec(0.1f64..3.0, 4),
        reconfig in prop::collection::vec(0.05f64..1.0, 4),
        demand in 1.0f64..20.0,
        x0 in prop::collection::vec(0.0f64..5.0, 4),
    ) {
        let problem = random_problem(n, stages, &prices, &reconfig, demand, &x0);
        let settings = IpmSettings::default();
        let sol_lq = solve_lq(&problem, &settings).expect("structured solve");
        let flat = flatten_lq(&problem).expect("flatten");
        let sol_qp = solve_qp(&flat.qp, &settings).expect("dense solve");

        // Objectives agree (up to the constant stage-0 offset).
        let dense_obj = sol_qp.objective + flat.offset;
        prop_assert!(
            (sol_lq.objective - dense_obj).abs() <= 1e-4 * (1.0 + dense_obj.abs()),
            "objective mismatch: structured {} vs dense {}",
            sol_lq.objective, dense_obj
        );

        // Trajectories agree.
        let us = flat.extract_inputs(&sol_qp);
        for (k, u) in us.iter().enumerate() {
            prop_assert!(
                (u - &sol_lq.us[k]).norm_inf() < 2e-3,
                "u[{k}] mismatch: {} vs {}", u, sol_lq.us[k]
            );
        }

        // Both are feasible for the original problem.
        let xs = problem.rollout(&sol_lq.us);
        prop_assert!(problem.max_violation(&xs, &sol_lq.us) < 1e-5);
    }
}

#[test]
fn structured_solver_handles_long_horizons() {
    // 40 stages × 6 states: far beyond what the dense path is comfortable
    // with, quick for the Riccati path.
    let prices = [1.0, 2.0, 0.5, 1.5, 0.8, 1.2];
    let reconfig = [0.2; 6];
    let x0 = [0.0; 6];
    let problem = random_problem(6, 40, &prices, &reconfig, 30.0, &x0);
    let sol = solve_lq(&problem, &IpmSettings::default()).expect("solve");
    let xs = problem.rollout(&sol.us);
    assert!(problem.max_violation(&xs, &sol.us) < 1e-5);
    // The demand floor binds: total capability ≈ demand at late stages
    // (cheapest-variable concentration plus floor activity).
    let last = xs.last().expect("non-empty");
    assert!(last.sum() >= 30.0 - 1e-4);
}

#[test]
fn duals_are_consistent_across_solvers() {
    let prices = [1.0, 3.0];
    let reconfig = [0.3, 0.3];
    let x0 = [0.0, 0.0];
    let problem = random_problem(2, 3, &prices, &reconfig, 10.0, &x0);
    let settings = IpmSettings::default();
    let sol_lq = solve_lq(&problem, &settings).expect("structured");
    let flat = flatten_lq(&problem).expect("flatten");
    let sol_qp = solve_qp(&flat.qp, &settings).expect("dense");
    let mut flat_duals = Vec::new();
    for duals in &sol_lq.stage_duals {
        flat_duals.extend(duals.iter().copied());
    }
    assert_eq!(flat_duals.len(), sol_qp.z.len());
    for (i, (a, b)) in flat_duals.iter().zip(sol_qp.z.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-3 * (1.0 + b.abs()),
            "dual {i}: {a} vs {b}"
        );
    }
}

#[test]
fn rate_limited_problems_cross_validate_with_input_rows() {
    // Exercises the Cu (input-constraint) path of both solvers: the DSPP
    // horizon with a reconfiguration rate limit flattens to a dense QP with
    // non-zero Cu rows.
    use dspp::core::{Allocation, DsppBuilder, HorizonProblem};

    let problem = DsppBuilder::new(2, 1)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010], vec![0.020]])
        .reconfiguration_weights(vec![0.1, 0.1])
        .price_trace(0, vec![1.0])
        .price_trace(1, vec![2.0])
        .build()
        .expect("spec");
    let x0 = Allocation::zeros(&problem);
    let horizon = HorizonProblem::build_full(
        &problem,
        &x0,
        &[vec![20.0, 40.0, 60.0]],
        &[vec![1.0; 3], vec![2.0; 3]],
        None,
        Some(0.35),
    )
    .expect("horizon");
    let settings = IpmSettings::default();
    let lq = horizon.to_lq();
    let sol_lq = solve_lq(&lq, &settings).expect("structured");
    let flat = flatten_lq(&lq).expect("flatten");
    let sol_qp = solve_qp(&flat.qp, &settings).expect("dense");
    assert!(
        (sol_lq.objective - (sol_qp.objective + flat.offset)).abs() < 1e-4,
        "objective mismatch: {} vs {}",
        sol_lq.objective,
        sol_qp.objective + flat.offset
    );
    // The rate limit binds and is respected by both.
    for (k, u) in sol_lq.us.iter().enumerate() {
        for e in 0..2 {
            assert!(u[e].abs() <= 0.35 + 1e-6, "stage {k}: |u| = {}", u[e].abs());
        }
    }
    let us = flat.extract_inputs(&sol_qp);
    for (k, u) in us.iter().enumerate() {
        assert!(
            (u - &sol_lq.us[k]).norm_inf() < 2e-3,
            "u[{k}] mismatch between solvers"
        );
    }
}

/// The instance families of the backend differential test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Case {
    /// Random reach and latencies under a per-stage capacity schedule
    /// where every live DC could host all demand alone.
    Generic,
    /// As `Generic`, with no demand anywhere.
    ZeroDemand,
    /// As `Generic`, with every DC posting the same prices.
    TiedPrices,
    /// Every location reaches every DC at the same latency, and capacity
    /// exceeds the aggregate requirement by 2%.
    NearCapacity,
    /// As `Generic`, plus one DC that no location reaches: an empty
    /// capacity row.
    DarkDc,
    /// As `NearCapacity`, but one period gets 60% of the requirement.
    Infeasible,
    /// As `Generic`, with no capacity schedule: every DC keeps the
    /// builder's 1e9 "uncapacitated" sentinel capacity.
    Sentinel,
    /// One DC serving one location: a single arc.
    SingleArc,
    /// Every location reaches every DC; DC 0 is down (capacity 0, its
    /// arcs pinned at zero) and DC 1 is degraded to 99.5% of the others.
    Outage,
    /// As `Generic`, with each arc's latency set so that its conversion
    /// coefficient `a^{lv}` is log-uniform over three decades, 1.25e-2 to
    /// 12.5 servers per unit of demand.
    WideCoefficients,
}

const CASES: [Case; 9] = [
    Case::Generic,
    Case::ZeroDemand,
    Case::TiedPrices,
    Case::NearCapacity,
    Case::DarkDc,
    Case::Infeasible,
    Case::Sentinel,
    Case::SingleArc,
    Case::Outage,
];

impl Case {
    /// Whether the optimal multipliers are unique, so that both backends
    /// must report the same duals: zero demand, tied prices and a pinned
    /// dark DC leave degenerate active sets whose multipliers are not.
    fn unique_duals(self) -> bool {
        matches!(
            self,
            Case::Generic | Case::Sentinel | Case::SingleArc | Case::WideCoefficients
        )
    }
}

/// The data of one differential horizon, kept so the next period's
/// horizon can be built from it.
struct Instance {
    problem: Dspp,
    x0: Allocation,
    demand: Vec<Vec<f64>>,
    prices: Vec<Vec<f64>>,
    caps: Option<Vec<Vec<f64>>>,
}

impl Instance {
    fn horizon(&self) -> HorizonProblem {
        HorizonProblem::build_full(
            &self.problem,
            &self.x0,
            &self.demand,
            &self.prices,
            self.caps.as_deref(),
            None,
        )
        .expect("horizon")
    }

    /// The next period's instance: start from `x1`, every forecast and
    /// capacity series shifted one period (the last entry repeated).
    fn shifted(&self, x1: &Vector) -> Instance {
        let shift = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|r| r[1..].iter().chain(r.last()).copied().collect())
                .collect()
        };
        let caps = self.caps.as_ref().map(|c| {
            let mut next = c[1..].to_vec();
            next.push(c[c.len() - 1].clone());
            next
        });
        Instance {
            problem: self.problem.clone(),
            x0: Allocation::from_arc_values(&self.problem, x1.iter().map(|v| v.max(0.0)).collect()),
            demand: shift(&self.demand),
            prices: shift(&self.prices),
            caps,
        }
    }
}

/// A small random DSPP horizon of `case`'s family, built twice: once with
/// ample capacity to read the per-period requirement off the preflight,
/// then with the case's capacity schedule.
fn differential_instance(case: Case, dcs: usize, locs: usize, w: usize, seed: u64) -> Instance {
    let (dcs, locs) = if case == Case::SingleArc {
        (1, 1)
    } else {
        (dcs, locs)
    };
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let uniform = matches!(
        case,
        Case::NearCapacity | Case::Infeasible | Case::Outage | Case::SingleArc
    );
    let dark = usize::from(case == Case::DarkDc);
    let live = dcs - dark;
    let latency: Vec<Vec<f64>> = (0..dcs)
        .map(|l| {
            (0..locs)
                .map(|v| {
                    let reach = l < live && (uniform || l == v % live || unit() < 0.6);
                    match (reach, uniform) {
                        (false, _) => 0.200,
                        (true, true) => 0.010,
                        (true, false) if case == Case::WideCoefficients => {
                            // a = 1/(μ − 1/(d̄ − d)) with μ = 100, d̄ = 60 ms.
                            let a = 1.25e-2 * 10f64.powf(3.0 * unit());
                            0.060 - 1.0 / (100.0 - 1.0 / a)
                        }
                        (true, false) => 0.005 + 0.030 * unit(),
                    }
                })
                .collect()
        })
        .collect();
    let tied = case == Case::TiedPrices;
    let base_price = 0.5 + unit();
    let mut builder = DsppBuilder::new(dcs, locs)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    let mut prices = Vec::with_capacity(dcs);
    for l in 0..dcs {
        let series: Vec<f64> = (0..w)
            .map(|_| if tied { base_price } else { 0.5 + unit() })
            .collect();
        builder = builder
            .price_trace(l, series.clone())
            .reconfiguration_weight(l, 0.01 + 0.1 * unit());
        prices.push(series);
    }
    let problem = builder.build().expect("valid spec");
    let demand: Vec<Vec<f64>> = (0..locs)
        .map(|_| {
            (0..w)
                .map(|_| {
                    if case == Case::ZeroDemand {
                        0.0
                    } else {
                        100.0 + 1_900.0 * unit()
                    }
                })
                .collect()
        })
        .collect();
    let x0 = Allocation::from_arc_values(
        &problem,
        (0..problem.num_arcs()).map(|_| 2.0 * unit()).collect(),
    );
    let mut instance = Instance {
        problem,
        x0,
        demand,
        prices,
        caps: Some(vec![vec![1e6; dcs]; w]),
    };
    let required: Vec<f64> = instance
        .horizon()
        .preflight()
        .expect("preflight")
        .periods
        .iter()
        .map(|p| p.required)
        .collect();
    let short = (unit() * w as f64) as usize;
    let caps: Vec<Vec<f64>> = required
        .iter()
        .enumerate()
        .map(|(t, &req)| {
            (0..dcs)
                .map(|l| match case {
                    Case::NearCapacity => 1.02 * req / live as f64,
                    Case::Infeasible if t == short => 0.6 * req / live as f64,
                    Case::Infeasible => 1.02 * req / live as f64,
                    Case::Outage if l == 0 => 0.0,
                    Case::Outage if l == 1 => 0.995 * 1.5 * req / (dcs - 1) as f64,
                    Case::Outage => 1.5 * req / (dcs - 1) as f64,
                    _ => (1.0 + unit()) * req.max(1.0),
                })
                .collect()
        })
        .collect();
    instance.caps = (case != Case::Sentinel).then_some(caps);
    instance
}

#[test]
fn wide_coefficient_instances_span_three_decades() {
    let instance = differential_instance(Case::WideCoefficients, 4, 5, 2, 7);
    let coeffs: Vec<f64> = (0..instance.problem.num_arcs())
        .map(|e| instance.problem.arc_coeff(e))
        .collect();
    let lo = coeffs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = coeffs.iter().copied().fold(0.0, f64::max);
    assert!(
        lo >= 1.25e-2 * (1.0 - 1e-9) && hi <= 12.5 * (1.0 + 1e-9),
        "{coeffs:?}"
    );
    assert!(hi / lo >= 100.0, "a^lv spans only {lo:e}..{hi:e}");
}

/// Asserts two per-row dual vectors agree to `tol` relative.
fn assert_duals_agree(what: &str, schur: &[f64], riccati: &[f64], tol: f64) {
    for (i, (a, b)) in schur.iter().zip(riccati).enumerate() {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{what} dual {i}: schur {a} vs riccati {b}"
        );
    }
}

/// Total unserved demand per horizon slot of a solution of
/// `slq.relax_demand(..)` mapped back onto `slq`.
fn unserved(slq: &StructuredLq, sol: &dspp::solver::LqSolution) -> Vec<f64> {
    (1..=slq.horizon())
        .map(|k| slq.group_a_violations(k, &sol.xs[k]).iter().sum())
        .collect()
}

/// One differential check: the Schur backend on the compact form and the
/// Riccati backend on its dense expansion reach the same objective to 1e-8
/// — cold, and warm-started on the next period's horizon from the shifted
/// solution — with the same capacity and demand duals to 1e-6 where those
/// are unique, or both certify the same horizon infeasible. On an
/// infeasible or outage horizon both backends' recovery solves, and the
/// dense slack-input relaxation, shed the same demand.
fn assert_kkt_backends_agree(case: Case, dcs: usize, locs: usize, w: usize, seed: u64) {
    let instance = differential_instance(case, dcs, locs, w, seed);
    let horizon = instance.horizon();
    let settings = IpmSettings::default();
    let schur = solve_structured(horizon.slq(), &settings, None, &Recorder::disabled());
    let riccati = solve_lq(&horizon.to_lq(), &settings);
    let feasible = horizon.preflight().expect("preflight").is_feasible();
    assert_eq!(feasible, case != Case::Infeasible);
    match (case, schur, riccati) {
        (Case::Infeasible, schur, riccati) => {
            assert!(
                matches!(schur, Err(SolverError::Infeasible { .. })),
                "schur: {:?}",
                schur.map(|s| s.objective)
            );
            assert!(
                matches!(riccati, Err(SolverError::Infeasible { .. })),
                "riccati: {:?}",
                riccati.map(|s| s.objective)
            );
        }
        (_, Ok(schur), Ok(riccati)) => {
            assert!(
                (schur.objective - riccati.objective).abs()
                    <= 1e-8 * (1.0 + riccati.objective.abs()),
                "{:?}: schur {} vs riccati {}",
                case,
                schur.objective,
                riccati.objective
            );
            if case.unique_duals() {
                assert_duals_agree(
                    "capacity",
                    &horizon.capacity_duals(&schur),
                    &horizon.capacity_duals(&riccati),
                    1e-6,
                );
                assert_duals_agree(
                    "demand",
                    &horizon.demand_duals(&schur),
                    &horizon.demand_duals(&riccati),
                    1e-6,
                );
            }
            // Next period, warm-started from the shifted solution.
            let next = instance.shifted(&schur.xs[1]).horizon();
            let mut guess = schur.us[1..].to_vec();
            guess.push(Vector::zeros(schur.us[0].len()));
            let warm_schur =
                solve_structured(next.slq(), &settings, Some(&guess), &Recorder::disabled());
            let warm_riccati = solve_lq_warm(&next.to_lq(), &settings, Some(&guess));
            match (warm_schur, warm_riccati) {
                (Ok(s), Ok(r)) => assert!(
                    (s.objective - r.objective).abs() <= 1e-8 * (1.0 + r.objective.abs()),
                    "{:?} warm: schur {} vs riccati {}",
                    case,
                    s.objective,
                    r.objective
                ),
                (s, r) => panic!(
                    "{:?} warm: schur {:?} / riccati {:?}",
                    case,
                    s.map(|s| s.objective),
                    r.map(|r| r.objective)
                ),
            }
        }
        (_, schur, riccati) => panic!(
            "{:?}: schur {:?} / riccati {:?}",
            case,
            schur.map(|s| s.objective),
            riccati.map(|s| s.objective)
        ),
    }
    if matches!(case, Case::Infeasible | Case::Outage) {
        let slq = horizon.slq();
        let spec = SoftSpec::uniform(instance.demand.len(), 1e4, 1e-4);
        let relaxed = slq.relax_demand(&spec).expect("relaxation");
        let schur = solve_structured(&relaxed, &settings, None, &Recorder::disabled())
            .expect("schur recovery");
        let schur_shed = unserved(slq, &slq.strip_slack(&schur));
        if case == Case::Outage {
            // Feasible despite the outage: nothing to shed. (The
            // pinned dark DC has no strictly feasible point, so its
            // multipliers are unbounded and the solve may end
            // `AlmostOptimal`; the placement must still be exact.)
            assert!(
                schur_shed.iter().all(|&s| s <= 1e-6),
                "outage recovery shed {:?}",
                schur_shed
            );
        } else {
            assert_eq!(schur.status, SolveStatus::Optimal);
        }
        // The dense references: Riccati on the same relaxation's
        // expansion, and on the slack-input relaxation. Only their
        // `Optimal` answers are held to the Schur one — a pinned dark
        // DC or a zero-Hessian slack can stall the Riccati recursion
        // into a degraded `AlmostOptimal` iterate that sheds demand it
        // could serve.
        let lq = horizon.to_lq();
        let mut soften = vec![true; w + 1];
        soften[0] = false;
        let inputs = relax_lq_slots(&lq, &spec, &soften).expect("slack-input relaxation");
        let references = [
            solve_lq(&relaxed.to_lq(), &settings).map(|sol| (sol.status, slq.strip_slack(&sol))),
            solve_lq(&inputs.problem, &settings)
                .map(|sol| (sol.status, inputs.split_solution(&lq, &sol).solution)),
        ];
        for (status, sol) in references.into_iter().flatten() {
            if status != SolveStatus::Optimal {
                continue;
            }
            let shed = unserved(slq, &sol);
            for k in 0..w {
                assert!(
                    (schur_shed[k] - shed[k]).abs() <= 1e-6 * (1.0 + shed[k]),
                    "slot {}: schur sheds {:?}, dense {:?}",
                    k + 1,
                    schur_shed,
                    shed
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]
    /// [`assert_kkt_backends_agree`] on every instance family.
    #[test]
    fn kkt_backends_agree_on_random_dspp_horizons(
        case in 0usize..9,
        dcs in 2usize..5,
        locs in 1usize..6,
        w in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        assert_kkt_backends_agree(CASES[case], dcs, locs, w, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    /// [`assert_kkt_backends_agree`], tolerances unchanged, on horizons
    /// whose conversion coefficients span three decades: the per-arc
    /// scales meet in the same capacity and demand rows.
    #[test]
    fn kkt_backends_agree_across_three_decades_of_coefficients(
        dcs in 2usize..5,
        locs in 1usize..6,
        w in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        assert_kkt_backends_agree(Case::WideCoefficients, dcs, locs, w, seed);
    }
}
