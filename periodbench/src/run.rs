//! Closed-loop stepping of a workload, and the samples it yields.
//!
//! One period is in flight at a time: each `IngestLoop::step` starts when
//! the previous one has published. Every period is timed from outside,
//! its ledger is checked, and the decorator samples and `totals()` deltas
//! attributed to it.

use std::time::{Duration, Instant};

use dspp_bench::alloc_count;
use dspp_ingest::IngestTotals;

use crate::breakdown::PERIOD_SPAN;
use crate::check::{check_period, PeriodRecord};
use crate::workload::Bench;

/// One executed period, measured from outside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeriodSample {
    /// Period index.
    pub period: usize,
    /// Wall time of `IngestLoop::step`, seconds.
    pub wall_s: f64,
    /// Generate + route + aggregate wall time (`route_wall_seconds`
    /// delta), seconds.
    pub fanout_s: f64,
    /// Wall time of the decorated controller step, seconds.
    pub controller_s: f64,
    /// Wall time of the forecasts inside that step, seconds.
    pub forecast_s: f64,
    /// Allocations inside the decorated controller step.
    pub controller_allocs: u64,
    /// Allocations anywhere in the process during the period.
    pub allocs: u64,
    /// Requests generated this period.
    pub generated: u64,
    /// Requests admitted this period (carried-in included).
    pub admitted: u64,
    /// Carried-in requests re-entering this period.
    pub carried_in: u64,
    /// Deferral decisions this period.
    pub deferred: u64,
    /// Requests dropped this period.
    pub dropped: u64,
    /// Admitted requests with no routable arc.
    pub unroutable: u64,
    /// Carry backlog after the period.
    pub backlog: u64,
    /// Hosting + reconfiguration cost of the period's step.
    pub cost: f64,
    /// Servers of demand shed by a recovery solve.
    pub shortfall: f64,
}

/// How long a drive lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many periods.
    Periods(usize),
    /// At least `min_periods`, then until `seconds` of stepping elapsed,
    /// rounded up to a whole number of `cycle`-period cycles.
    Timed {
        /// Periods every run completes.
        min_periods: usize,
        /// Stepping time, seconds.
        seconds: f64,
        /// The run ends on a multiple of this many periods.
        cycle: usize,
    },
}

/// Everything a drive produced.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    /// Successful periods, in order.
    pub samples: Vec<PeriodSample>,
    /// Periods whose `step` returned an error (the drive stops at the
    /// first).
    pub failed: usize,
    /// Step errors and check violations, as text.
    pub problems: Vec<String>,
}

impl RunLog {
    /// Periods attempted.
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.failed
    }

    /// Whether every period passed the output checks.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Values of `f` over the samples.
    pub fn series(&self, f: impl Fn(&PeriodSample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// Sum of `f` over the samples.
    pub fn sum(&self, f: impl Fn(&PeriodSample) -> f64) -> f64 {
        self.samples.iter().map(f).sum()
    }
}

/// Runs periods of `bench` within `budget`, checking every one.
pub fn drive(bench: &mut Bench, budget: Budget) -> RunLog {
    let tracer = bench.telemetry.tracer().clone();
    let mut log = RunLog::default();
    let start = Instant::now();
    loop {
        let done = log.attempted();
        let more = match budget {
            Budget::Periods(n) => done < n,
            Budget::Timed {
                min_periods,
                seconds,
                cycle,
            } => {
                done < min_periods
                    || done % cycle.max(1) != 0
                    || start.elapsed() < Duration::from_secs_f64(seconds)
            }
        };
        if !more || bench.ingest.cursor() >= bench.ingest.periods() {
            break;
        }
        let k = bench.ingest.cursor();
        let before: IngestTotals = *bench.ingest.totals();
        let (steps_before, forecasts_before) = {
            let probes = bench.log.lock().expect("probe log poisoned");
            (probes.steps.len(), probes.forecasts_s.len())
        };
        let allocs_before = alloc_count::allocations();
        let span = tracer.span(PERIOD_SPAN);
        let t0 = Instant::now();
        let outcome = bench.ingest.step().map(|_| ());
        let wall_s = t0.elapsed().as_secs_f64();
        drop(span);
        let allocs = alloc_count::allocations() - allocs_before;
        if let Err(e) = outcome {
            log.failed += 1;
            log.problems.push(format!("period {k}: step failed: {e}"));
            break;
        }

        let after = *bench.ingest.totals();
        let sealed = bench
            .ingest
            .sealed()
            .last()
            .expect("a successful step seals its period");
        let backlog: u64 = bench.ingest.carry_backlog().iter().sum();
        let probes = bench.log.lock().expect("probe log poisoned");
        let steps = &probes.steps[steps_before..];
        log.samples.push(PeriodSample {
            period: k,
            wall_s,
            fanout_s: after.route_wall_seconds - before.route_wall_seconds,
            controller_s: steps.iter().map(|s| s.wall_s).sum(),
            forecast_s: probes.forecasts_s[forecasts_before..].iter().sum(),
            controller_allocs: steps.iter().map(|s| s.allocs).sum(),
            allocs,
            generated: after.generated - before.generated,
            admitted: after.admitted - before.admitted,
            carried_in: sealed.carried_in,
            deferred: after.deferred - before.deferred,
            dropped: after.dropped - before.dropped,
            unroutable: after.unroutable - before.unroutable,
            backlog,
            cost: after.step_cost - before.step_cost,
            shortfall: steps.iter().map(|s| s.shortfall).sum(),
        });
        drop(probes);

        let record = PeriodRecord {
            period: k,
            generated: after.generated,
            admitted: after.admitted,
            dropped: after.dropped,
            backlog,
            arc_counts: sealed.arc_counts.clone(),
            arc_dc: bench.arc_dc.clone(),
            capacity: bench.capacity_at(k).to_vec(),
            allocation: bench.ingest.controller().allocation().arc_values().to_vec(),
        };
        if let Err(violations) = check_period(&record) {
            log.problems.extend(violations);
        }
    }
    log
}

/// Interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }
}
