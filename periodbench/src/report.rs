//! Metric definitions and the result line.
//!
//! End-to-end metrics come from an untraced run in the production
//! configuration (metrics recorder and SLO engine on, span tracer off).
//! Per-layer metrics come from the traced run; the few that describe the
//! whole period (`period_ms.p90`, peak RSS, cost, loss and shortfall
//! totals) come from the untraced half of that run, never from the traced
//! one.

use std::time::Instant;

use dspp_ingest::generate_city_period;
use dspp_telemetry::Snapshot;

use crate::breakdown::{Breakdown, SOLVE_SPAN};
use crate::run::{median, quantile, RunLog};
use crate::workload::{Bench, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Σ step cost over the periods every run of `workload` completes.
pub fn cost_total(workload: Workload, log: &RunLog) -> f64 {
    log.samples
        .iter()
        .take(workload.min_periods())
        .map(|s| s.cost)
        .sum()
}

/// Admitted events ÷ summed period wall time.
fn events_per_s(log: &RunLog) -> f64 {
    log.sum(|s| s.admitted as f64) / log.sum(|s| s.wall_s)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], log: &RunLog) -> Vec<Metric> {
    vec![
        m("setup_s", median(setup_s), "s"),
        m(
            "period_ms.p50",
            1e3 * median(&log.series(|s| s.wall_s)),
            "ms",
        ),
        m("events_per_s", events_per_s(log), "events/s"),
    ]
}

/// Re-times event generation alone on the `(seed, city, period)` streams
/// of up to 24 of `log`'s periods, single-threaded. Returns the per-period
/// times in ms, and an error when a regenerated stream's size differs
/// from what the loop generated.
pub fn retime_generation(bench: &Bench, log: &RunLog) -> Result<Vec<f64>, String> {
    let stride = log.samples.len().div_ceil(24).max(1);
    let mut scratch = Vec::new();
    let mut times = Vec::new();
    for s in log.samples.iter().step_by(stride) {
        let t0 = Instant::now();
        let mut generated = 0;
        for (city, rates) in bench.rates.iter().enumerate() {
            generated += generate_city_period(
                bench.ingest_seed,
                city,
                s.period,
                rates[s.period],
                bench.period_seconds as f64,
                &mut scratch,
            );
        }
        times.push(1e3 * t0.elapsed().as_secs_f64());
        if generated != s.generated {
            return Err(format!(
                "period {}: regenerated {generated} events, the loop generated {}",
                s.period, s.generated
            ));
        }
    }
    Ok(times)
}

/// Inputs of the per-layer metrics.
pub struct Layers<'a> {
    /// The workload measured.
    pub workload: Workload,
    /// The untraced half of the traced run.
    pub untraced: &'a RunLog,
    /// Peak resident set at the end of the untraced half, MB.
    pub peak_rss_mb: f64,
    /// The traced half.
    pub traced: &'a RunLog,
    /// Span breakdown of the traced half.
    pub breakdown: &'a Breakdown,
    /// Metrics recorder snapshot of the traced half.
    pub snapshot: &'a Snapshot,
    /// Per-period generation re-timing, ms.
    pub generate_ms: &'a [f64],
}

/// The per-layer metrics of a traced run.
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    let (u, t, b, snap) = (l.untraced, l.traced, l.breakdown, l.snapshot);
    let ms = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<f64>>();
    let periods = t.samples.len().max(1) as f64;
    let untraced_wall = u.series(|s| s.wall_s);
    let p90 = quantile(&untraced_wall, 0.9);
    let beyond_p90 = untraced_wall.iter().filter(|&&w| w > p90).count();
    let solve = b.span(SOLVE_SPAN);
    let solves = solve.count.max(1) as f64;
    let generated = t.sum(|s| s.generated as f64);
    let loss = u.sum(|s| (s.dropped + s.unroutable) as f64) / u.sum(|s| s.generated as f64);
    let steps = t.series(|s| s.controller_s);
    vec![
        m("period_ms.p90", 1e3 * p90, "ms"),
        m("period_ms.p90_beyond", beyond_p90 as f64, "count"),
        m(
            "ingest.fanout_ms.p50",
            1e3 * median(&t.series(|s| s.fanout_s)),
            "ms",
        ),
        m(
            "ingest.fanout_share",
            t.sum(|s| s.fanout_s) / t.sum(|s| s.wall_s),
            "fraction",
        ),
        m("ingest.generate_ms.p50", median(l.generate_ms), "ms"),
        m(
            "ingest.close_ms.p50",
            1e3 * median(&t.series(|s| s.wall_s - s.fanout_s - s.controller_s)),
            "ms",
        ),
        m("ingest.events_generated", generated, "count"),
        m(
            "ingest.events_admitted",
            t.sum(|s| s.admitted as f64),
            "count",
        ),
        m(
            "ingest.events_deferred",
            t.sum(|s| s.deferred as f64),
            "count",
        ),
        m(
            "ingest.events_dropped",
            t.sum(|s| s.dropped as f64),
            "count",
        ),
        m(
            "ingest.events_unroutable",
            t.sum(|s| s.unroutable as f64),
            "count",
        ),
        m(
            "ingest.snapshot_republishes",
            snap.counter("ingest.snapshot_republishes") as f64,
            "count",
        ),
        m(
            "ingest.channel_blocked",
            snap.counter("ingest.channel_blocked") as f64,
            "count",
        ),
        m(
            "ingest.carry_backlog_max",
            t.samples.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
            "count",
        ),
        m(
            "ingest.admit_ratio",
            t.sum(|s| s.admitted as f64) / (generated + t.sum(|s| s.carried_in as f64)),
            "fraction",
        ),
        m(
            "predict.forecast_us.p50",
            1e6 * median(&t.series(|s| s.forecast_s)),
            "us",
        ),
        m("controller.step_ms.p50", 1e3 * median(&steps), "ms"),
        m("controller.step_ms.p90", 1e3 * quantile(&steps, 0.9), "ms"),
        m(
            "controller.self_ms.p50",
            median(&ms(&b.span("controller.step").self_samples_ns)),
            "ms",
        ),
        m(
            "controller.allocs_per_step",
            t.sum(|s| s.controller_allocs as f64) / periods,
            "count",
        ),
        m(
            "controller.recovery_solves",
            snap.counter("controller.recovery_solves") as f64,
            "count",
        ),
        m(
            "controller.preflight_infeasible",
            snap.counter("controller.preflight_infeasible") as f64,
            "count",
        ),
        m("solver.solve_ms.p50", median(&ms(&solve.samples_ns)), "ms"),
        m(
            "solver.period_share",
            solve.total_ns as f64 / b.period_ns().max(1) as f64,
            "fraction",
        ),
        m(
            "solver.ipm_iterations",
            snap.histogram("solver.lq.iterations")
                .map_or(0.0, |h| h.sum),
            "count",
        ),
        m(
            "solver.reg_boosts",
            snap.counter("solver.lq.reg_boosts") as f64,
            "count",
        ),
        m(
            "solver.schur_factor",
            snap.counter("solver.lq.schur_factor") as f64,
            "count",
        ),
        m(
            "solver.warm_starts",
            snap.counter("solver.lq.warm_starts") as f64,
            "count",
        ),
        m("solver.dense_solves", b.solves_on("dense") as f64, "count"),
        m(
            "solver.structured_solves",
            b.solves_on("structured") as f64,
            "count",
        ),
        m(
            "solver.nonoptimal_ratio",
            if solve.count == 0 {
                0.0
            } else {
                b.nonoptimal_solves() as f64 / solves
            },
            "fraction",
        ),
        m(
            "telemetry.trace_overhead_pct",
            100.0 * (median(&t.series(|s| s.wall_s)) / median(&untraced_wall) - 1.0),
            "%",
        ),
        m(
            "alloc.per_period",
            t.sum(|s| s.allocs as f64) / periods,
            "count",
        ),
        m("peak_rss_mb", l.peak_rss_mb, "MB"),
        m("cost_total", cost_total(l.workload, u), "USD"),
        m("shortfall_total", u.sum(|s| s.shortfall), "server-periods"),
        m("event_loss_ratio", loss, "fraction"),
        m(
            "failed_periods",
            u.failed as f64 / u.attempted().max(1) as f64,
            "fraction",
        ),
        m(
            "breakdown.coverage",
            b.self_ns() as f64 / b.period_ns().max(1) as f64,
            "fraction",
        ),
    ]
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric without data reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
