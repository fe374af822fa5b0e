//! Telemetry overhead benchmark: the traced solver entry point with a
//! *disabled* recorder must cost essentially the same as the untraced one
//! (< 5 % on the structured solver benchmark) — the contract that lets
//! every hot path ship permanently instrumented.

use dspp_bench::lq_fixture;
use dspp_solver::{solve_lq, solve_lq_traced, IpmSettings};
use dspp_telemetry::Recorder;
use std::time::{Duration, Instant};

/// Largest tolerated no-op (disabled-recorder) overhead, as a fraction.
const MAX_NOOP_OVERHEAD: f64 = 0.05;

/// Interleaved rounds for the contract check (one solve per variant each).
const CONTRACT_ROUNDS: usize = 200;

fn main() {
    let settings = IpmSettings::fast();
    let problem = lq_fixture(6, 20, 30.0);
    let disabled = Recorder::disabled();

    // Timing each variant in its own window lets machine-load drift
    // between windows dwarf a sub-percent true overhead. Interleave the
    // two variants round-by-round instead — drift then hits both equally —
    // and compare fastest-of-N: both loops run the identical solve, so any
    // true overhead must show up in the fastest run.
    let mut best_untraced = Duration::MAX;
    let mut best_disabled = Duration::MAX;
    for _ in 0..CONTRACT_ROUNDS {
        let t = Instant::now();
        solve_lq(&problem, &settings).expect("solve");
        best_untraced = best_untraced.min(t.elapsed());
        let t = Instant::now();
        solve_lq_traced(&problem, &settings, &disabled).expect("solve");
        best_disabled = best_disabled.min(t.elapsed());
    }
    let overhead = best_disabled.as_secs_f64() / best_untraced.as_secs_f64() - 1.0;
    println!(
        "no-op telemetry overhead: {:+.2}% (untraced min {best_untraced:?}, \
         traced-disabled min {best_disabled:?}, {CONTRACT_ROUNDS} interleaved rounds)",
        overhead * 100.0,
    );
    assert!(
        overhead < MAX_NOOP_OVERHEAD,
        "disabled-recorder overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_NOOP_OVERHEAD * 100.0
    );
}
