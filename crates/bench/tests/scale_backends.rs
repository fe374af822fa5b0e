//! Which KKT backend the horizon solves take at scale: the Schur backend
//! for strict and recovery solves, up to full 100×-scale controller steps
//! through a DC outage, and a counted dense fallback only for
//! rate-limited solves.

use dspp_bench::huge_problem;
use dspp_core::{Allocation, HorizonProblem, MpcController, MpcSettings, RecoverySettings};
use dspp_predict::LastValue;
use dspp_solver::IpmSettings;
use dspp_telemetry::{AttrValue, Recorder, Snapshot, SpanRecord, TraceRecord, Tracer};

const RATE_LIMIT: &str = "solver.lq.dense_fallback.rate_limit";

/// Sum of every `solver.lq.dense_fallback.*` counter.
fn dense_fallbacks(snap: &Snapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|(name, _)| name.starts_with("solver.lq.dense_fallback."))
        .map(|(_, v)| *v)
        .sum()
}

/// Per-location demand in the range the `solver.lq_solve.large` workload
/// uses: well inside aggregate capacity.
fn demand(locs: usize, w: usize) -> Vec<Vec<f64>> {
    (0..locs)
        .map(|v| vec![1_600.0 + 40.0 * ((v % 11) as f64); w])
        .collect()
}

fn traced() -> Recorder {
    Recorder::enabled().with_tracer(Tracer::enabled(4_096))
}

/// The finished `solver.lq.solve` spans.
fn solve_spans(telemetry: &Recorder) -> Vec<SpanRecord> {
    telemetry
        .tracer()
        .records()
        .into_iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) if s.name == "solver.lq.solve" => Some(s),
            _ => None,
        })
        .collect()
}

fn attr(span: &SpanRecord, key: &str) -> Option<String> {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            AttrValue::Str(s) => s.clone(),
            other => format!("{other:?}"),
        })
}

/// `(backend, backend_reason)` of the only solve span, plus the
/// rate-limit fallback counter and all fallback counters together.
fn outcome(telemetry: &Recorder) -> ((Option<String>, Option<String>), (u64, u64)) {
    let spans = solve_spans(telemetry);
    assert_eq!(spans.len(), 1, "one solve per recorder");
    let snap = telemetry.snapshot().expect("enabled recorder");
    (
        (
            attr(&spans[0], "backend"),
            attr(&spans[0], "backend_reason"),
        ),
        (snap.counter(RATE_LIMIT), dense_fallbacks(&snap)),
    )
}

#[test]
fn dense_fallbacks_at_scale_are_counted() {
    let problem = huge_problem(20, 70);
    assert_eq!(problem.num_arcs(), 210);
    let w = 2;
    let x0 = Allocation::zeros(&problem);
    let demand = demand(problem.num_locations(), w);
    let prices: Vec<Vec<f64>> = (0..problem.num_dcs())
        .map(|l| vec![problem.price(l, 0); w])
        .collect();
    let ipm = IpmSettings::fast();
    let strict = HorizonProblem::build(&problem, &x0, &demand, &prices).expect("horizon");

    let telemetry = traced();
    strict
        .solve_warm_traced(&ipm, None, &telemetry)
        .expect("strict solve");
    assert_eq!(
        outcome(&telemetry),
        ((Some("structured".into()), None), (0, 0))
    );
    assert!(
        telemetry
            .snapshot()
            .unwrap()
            .counter("solver.lq.schur_factor")
            > 0
    );

    // Recovery carries its slack as pseudo-arcs of the compact form, so
    // it stays on the Schur backend too.
    let telemetry = traced();
    strict
        .solve_recovery(&ipm, &RecoverySettings::default(), None, &telemetry)
        .expect("recovery solve");
    assert_eq!(
        outcome(&telemetry),
        ((Some("structured".into()), None), (0, 0))
    );

    let limited = HorizonProblem::build_full(&problem, &x0, &demand, &prices, None, Some(50.0))
        .expect("rate-limited horizon");
    let telemetry = traced();
    limited
        .solve_warm_traced(&ipm, None, &telemetry)
        .expect("rate-limited solve");
    assert_eq!(
        outcome(&telemetry),
        ((Some("dense".into()), Some("rate_limit".into())), (1, 1))
    );
    let snap = telemetry.snapshot().unwrap();
    assert_eq!(snap.counter("solver.lq.backend.dense"), 1);
    assert_eq!(snap.counter("solver.lq.backend.structured"), 0);
}

#[test]
fn controller_step_at_100x_runs_on_the_schur_backend() {
    let problem = huge_problem(100, 1_000);
    let nl = problem.num_dcs();
    let telemetry = traced();
    let mut controller = MpcController::new(
        problem.clone(),
        Box::new(LastValue),
        MpcSettings {
            horizon: 4,
            ipm: IpmSettings::fast(),
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        },
    )
    .expect("controller");
    // DC 0 at half capacity for the whole horizon.
    let mut halved = problem.capacities().to_vec();
    halved[0] *= 0.5;
    controller.set_capacity_schedule(vec![halved; 8]);
    let observed: Vec<f64> = demand(problem.num_locations(), 1)
        .into_iter()
        .map(|d| d[0])
        .collect();
    let outcome = controller.step(&observed).expect("controller step");
    assert!(
        outcome.recovery.is_none(),
        "the halved schedule passes preflight"
    );
    let per_dc = outcome.allocation.per_dc(&problem);
    assert_eq!(per_dc.len(), nl);
    assert!(per_dc[0] <= 0.5 * problem.capacity(0) + 1e-6);

    let spans = solve_spans(&telemetry);
    assert_eq!(spans.len(), 1);
    assert_eq!(attr(&spans[0], "backend").as_deref(), Some("structured"));
    let snap = telemetry.snapshot().expect("enabled recorder");
    assert!(snap.counter("solver.lq.schur_factor") > 0);
    assert_eq!(snap.counter("controller.preflight_infeasible"), 0);
    assert_eq!(dense_fallbacks(&snap), 0);
}

/// The 100× chaos drill: 10 of 100 DCs dark and one more at half
/// capacity, under demand no surviving neighbourhood can absorb. Every
/// DC that is up saturates, so the aggregate preflight bound is tight:
/// the recovery solve — on the Schur backend, with no dense fallback —
/// must shed exactly the preflight deficit in every horizon period.
#[test]
fn chaos_at_100x_recovers_on_the_schur_backend() {
    let problem = huge_problem(100, 1_000);
    let w = 4;
    let telemetry = traced();
    let mut controller = MpcController::new(
        problem.clone(),
        Box::new(LastValue),
        MpcSettings {
            horizon: w,
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        },
    )
    .expect("controller");
    let mut caps = problem.capacities().to_vec();
    for cap in caps.iter_mut().take(10) {
        *cap = 0.0;
    }
    caps[10] *= 0.5;
    controller.set_capacity_schedule(vec![caps.clone(); 8]);
    // 2.5× the solver workload's demand: ~1.5× the surviving capacity.
    let observed: Vec<f64> = demand(problem.num_locations(), 1)
        .into_iter()
        .map(|d| 2.5 * d[0])
        .collect();
    let outcome = controller.step(&observed).expect("controller step");

    let forecast: Vec<Vec<f64>> = observed.iter().map(|&d| vec![d; w]).collect();
    let prices: Vec<Vec<f64>> = (0..problem.num_dcs())
        .map(|l| (1..=w).map(|t| problem.price(l, t)).collect())
        .collect();
    let stage_caps = vec![caps.clone(); w];
    let preflight = HorizonProblem::build_full(
        &problem,
        &Allocation::zeros(&problem),
        &forecast,
        &prices,
        Some(&stage_caps),
        None,
    )
    .expect("horizon")
    .preflight()
    .expect("preflight");
    let deficits = preflight.deficits();
    assert!(
        deficits.iter().all(|&d| d > 1_000.0),
        "deficits {deficits:?}"
    );
    let info = outcome
        .recovery
        .expect("the outage forces a recovery solve");
    assert_eq!(info.horizon_resource_shortfall.len(), w);
    for (t, (shed, deficit)) in info
        .horizon_resource_shortfall
        .iter()
        .zip(&deficits)
        .enumerate()
    {
        assert!(
            (shed - deficit).abs() <= 1e-6,
            "period {t}: shed {shed} servers vs preflight deficit {deficit}"
        );
    }
    let per_dc = outcome.allocation.per_dc(&problem);
    for (l, (&x, &cap)) in per_dc.iter().zip(&caps).enumerate() {
        assert!(x <= cap + 1e-6, "DC {l}: {x} servers over capacity {cap}");
    }

    let spans = solve_spans(&telemetry);
    assert!(spans
        .iter()
        .all(|s| attr(s, "backend").as_deref() == Some("structured")));
    let snap = telemetry.snapshot().expect("enabled recorder");
    assert_eq!(snap.counter("controller.recovery_solves"), 1);
    assert_eq!(snap.counter("solver.lq.backend.dense"), 0);
    assert_eq!(dense_fallbacks(&snap), 0);
}
