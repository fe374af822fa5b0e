//! Two short runs of a workload at one seed give identical counts, and a
//! second seed changes the event counts — the seed reaches the generator.

use dspp_telemetry::Recorder;
use periodbench::run::{drive, Budget};
use periodbench::workload::{setup, Options, Workload};

/// The deterministic counts of a short run.
#[derive(Debug, PartialEq)]
struct Counts {
    generated: u64,
    admitted: u64,
    deferred: u64,
    dropped: u64,
    unroutable: u64,
    ipm_iterations: u64,
    recovery_solves: u64,
    snapshot_republishes: u64,
    cost_bits: u64,
}

fn counts(workload: Workload, seed: u64, periods: usize) -> Counts {
    let telemetry = Recorder::enabled();
    let mut bench =
        setup(workload, seed, &Options::production(telemetry.clone())).expect("workload builds");
    let log = drive(&mut bench, Budget::Periods(periods));
    assert!(log.correct(), "{}: {:?}", workload.name(), log.problems);
    assert_eq!(log.samples.len(), periods);
    let snap = telemetry.snapshot().expect("enabled recorder");
    let t = bench.ingest.totals();
    Counts {
        generated: t.generated,
        admitted: t.admitted,
        deferred: t.deferred,
        dropped: t.dropped,
        unroutable: t.unroutable,
        ipm_iterations: snap
            .histogram("solver.lq.iterations")
            .map_or(0, |h| h.sum as u64),
        recovery_solves: snap.counter("controller.recovery_solves"),
        snapshot_republishes: snap.counter("ingest.snapshot_republishes"),
        cost_bits: t.step_cost.to_bits(),
    }
}

fn check(workload: Workload, periods: usize) -> Counts {
    let a = counts(workload, 11, periods);
    let b = counts(workload, 11, periods);
    assert_eq!(a, b, "{}: same seed, different counts", workload.name());
    let other = counts(workload, 12, periods);
    assert_ne!(
        a.generated,
        other.generated,
        "{}: the seed must reach the event generator",
        workload.name()
    );
    a
}

#[test]
fn paper_mpc_is_deterministic() {
    let c = check(Workload::PaperMpc, 4);
    assert!(c.ipm_iterations > 0);
}

#[test]
fn ingest_heavy_is_deterministic() {
    let c = check(Workload::IngestHeavy, 3);
    assert_eq!(c.ipm_iterations, 0, "the closed-form policy runs no IPM");
}

#[test]
fn paper_outage_is_deterministic() {
    // Through the first outage: recovery solves and masked republishes.
    let c = check(Workload::PaperOutage, 14);
    assert!(c.recovery_solves > 0 && c.snapshot_republishes > 0, "{c:?}");
}

#[test]
fn period_100x_is_deterministic() {
    let c = check(Workload::Period100x, 1);
    assert!(c.ipm_iterations > 0);
}
