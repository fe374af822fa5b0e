//! The probes measure without changing what they measure, the traced
//! breakdown accounts for the period, and the output checks bite on a real
//! ledger.

use dspp_telemetry::{Recorder, Tracer};
use periodbench::breakdown::{Breakdown, PERIOD_SPAN, SOLVE_SPAN};
use periodbench::check::{check_period, PeriodRecord};
use periodbench::run::{drive, Budget};
use periodbench::workload::{setup, Bench, Options, Workload};

fn build(workload: Workload, seed: u64, probes: bool) -> Bench {
    let opts = Options {
        telemetry: Recorder::enabled(),
        probes,
    };
    setup(workload, seed, &opts).expect("workload builds")
}

#[test]
fn decorated_and_undecorated_runs_are_identical() {
    // 14 periods of paper-outage reach the recovery solves and the first
    // masked republish.
    for (workload, periods) in [(Workload::PaperMpc, 6), (Workload::PaperOutage, 14)] {
        let mut plain = build(workload, 7, false);
        let mut probed = build(workload, 7, true);
        let a = drive(&mut plain, Budget::Periods(periods));
        let b = drive(&mut probed, Budget::Periods(periods));
        assert!(
            a.correct() && b.correct(),
            "{:?} {:?}",
            a.problems,
            b.problems
        );
        assert_eq!(
            plain.ingest.sealed_matrix_csv(),
            probed.ingest.sealed_matrix_csv(),
            "{}: sealed ledger differs under the probes",
            workload.name()
        );
        assert_eq!(
            plain.ingest.totals().step_cost.to_bits(),
            probed.ingest.totals().step_cost.to_bits(),
            "{}: step cost differs under the probes",
            workload.name()
        );
        let log = probed.log.lock().unwrap();
        assert_eq!(log.steps.len(), periods, "one sample per controller step");
        assert_eq!(log.forecasts_s.len(), periods, "one forecast per MPC step");
    }
}

#[test]
fn traced_self_times_account_for_the_period() {
    let tracer = Tracer::enabled(1 << 16);
    let opts = Options::production(Recorder::enabled().with_tracer(tracer.clone()));
    let mut bench = setup(Workload::PaperMpc, 3, &opts).expect("workload builds");
    let log = drive(&mut bench, Budget::Periods(6));
    assert!(log.correct(), "{:?}", log.problems);
    assert_eq!(tracer.dropped(), 0);

    let b = Breakdown::from_records(&tracer.records());
    assert_eq!(b.span(PERIOD_SPAN).count, 6);
    let wall_ns = 1e9 * log.sum(|s| s.wall_s);
    let self_ns = b.self_ns() as f64;
    assert!(
        (self_ns / wall_ns - 1.0).abs() < 0.05,
        "layer self times {self_ns} ns vs timed periods {wall_ns} ns"
    );
    for layer in [
        "ingest.period",
        "controller.step",
        SOLVE_SPAN,
        "bench.forecast",
    ] {
        assert!(b.span(layer).self_ns > 0, "{layer} recorded no self time");
    }
    // Paper scale stays on the dense backend and every solve is optimal.
    assert_eq!(b.solves_on("dense"), 6);
    assert_eq!(b.solves_on("structured"), 0);
    assert_eq!(b.nonoptimal_solves(), 0);
}

#[test]
fn a_doctored_real_ledger_fails_the_checks() {
    let mut bench = build(Workload::PaperOutage, 5, true);
    // Run into the first outage window (periods 10..13, shifted by the
    // seed's jitter of at most one period).
    let log = drive(&mut bench, Budget::Periods(12));
    assert!(log.correct(), "{:?}", log.problems);
    let k = 11;
    let sealed = &bench.ingest.sealed()[k];
    let capacity = bench.capacity_at(k).to_vec();
    let dark = capacity
        .iter()
        .position(|&c| c == 0.0)
        .expect("a DC is dark in period 11");
    let totals = bench.ingest.totals();
    let record = PeriodRecord {
        period: k,
        generated: totals.generated,
        admitted: totals.admitted,
        dropped: totals.dropped,
        backlog: bench.ingest.carry_backlog().iter().sum(),
        arc_counts: sealed.arc_counts.clone(),
        arc_dc: bench.arc_dc.clone(),
        capacity,
        allocation: bench.ingest.controller().allocation().arc_values().to_vec(),
    };
    assert_eq!(check_period(&record), Ok(()));

    let mut lost = record.clone();
    lost.generated += 1;
    assert!(check_period(&lost).is_err(), "a lost event must fail");

    let mut misrouted = record.clone();
    let arc = bench.arc_dc.iter().position(|&l| l == dark).unwrap();
    misrouted.arc_counts[arc] += sealed.arc_counts.iter().sum::<u64>().max(1);
    assert!(
        check_period(&misrouted).is_err(),
        "events on a dark DC must fail"
    );

    let mut over = record;
    over.allocation[arc] = 1.0;
    assert!(
        check_period(&over).is_err(),
        "servers on a dark DC must fail"
    );
}
