//! Outside-in layer probes.
//!
//! The program is measured through its public entry points only: these
//! decorators wrap the [`PlacementController`] handed to `IngestLoop` and
//! the [`Predictor`] handed to `MpcController::new`, time every call,
//! count the allocations made inside the controller step, and — when the
//! recorder carries an enabled tracer — open a benchmark-side span around
//! the call. They forward everything else untouched, so a decorated run
//! makes exactly the decisions an undecorated one makes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dspp_bench::alloc_count;
use dspp_core::{
    Allocation, ControllerCheckpoint, CoreError, Dspp, PlacementController, StepOutcome,
};
use dspp_predict::Predictor;
use dspp_telemetry::{Recorder, Tracer};

/// One decorated controller step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Wall time of the inner `step`, seconds.
    pub wall_s: f64,
    /// Allocations the inner `step` made.
    pub allocs: u64,
    /// Servers of demand the step shed through a recovery solve
    /// (`RecoveryInfo::resource_shortfall`; 0 for a strict solve).
    pub shortfall: f64,
}

/// What the decorators recorded, in call order.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// One entry per controller step.
    pub steps: Vec<StepSample>,
    /// Wall time of each forecast, seconds.
    pub forecasts_s: Vec<f64>,
}

/// The log shared between the decorators (owned by the program) and the
/// benchmark's period loop.
pub type SharedLog = Arc<Mutex<ProbeLog>>;

impl ProbeLog {
    /// A fresh shared log.
    pub fn shared() -> SharedLog {
        Arc::new(Mutex::new(ProbeLog::default()))
    }
}

fn push(log: &SharedLog, f: impl FnOnce(&mut ProbeLog)) {
    f(&mut log.lock().expect("probe log poisoned by a panicking step"));
}

/// Timing and allocation-counting decorator around a placement policy.
pub struct ProbedController {
    inner: Box<dyn PlacementController>,
    log: SharedLog,
    tracer: Tracer,
}

impl ProbedController {
    /// Wraps `inner`; samples go to `log`, spans to `tracer`.
    pub fn new(inner: Box<dyn PlacementController>, log: SharedLog, tracer: Tracer) -> Self {
        ProbedController { inner, log, tracer }
    }
}

impl PlacementController for ProbedController {
    fn initial_placement(&self) -> Allocation {
        self.inner.initial_placement()
    }

    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        let span = self.tracer.span("bench.controller");
        let allocs_before = alloc_count::allocations();
        let t0 = Instant::now();
        let outcome = self.inner.step(observed_demand);
        let wall_s = t0.elapsed().as_secs_f64();
        let allocs = alloc_count::allocations() - allocs_before;
        drop(span);
        let sample = StepSample {
            wall_s,
            allocs,
            shortfall: outcome
                .as_ref()
                .ok()
                .and_then(|o| o.recovery.as_ref())
                .map_or(0.0, |r| r.resource_shortfall),
        };
        push(&self.log, |log| log.steps.push(sample));
        outcome
    }

    fn allocation(&self) -> &Allocation {
        self.inner.allocation()
    }

    fn problem(&self) -> &Dspp {
        self.inner.problem()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.inner.attach_telemetry(telemetry);
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        self.inner.restore(checkpoint)
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        self.inner.note_fallback(observed_demand);
    }

    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        self.inner.set_capacity_schedule(schedule);
    }
}

/// Timing decorator around a demand predictor.
pub struct ProbedPredictor {
    inner: Box<dyn Predictor>,
    log: SharedLog,
    tracer: Tracer,
}

impl ProbedPredictor {
    /// Wraps `inner`; samples go to `log`, spans to `tracer`.
    pub fn new(inner: Box<dyn Predictor>, log: SharedLog, tracer: Tracer) -> Self {
        ProbedPredictor { inner, log, tracer }
    }
}

impl Predictor for ProbedPredictor {
    fn forecast_all(&self, histories: &[Vec<f64>], horizon: usize) -> Vec<Vec<f64>> {
        let span = self.tracer.span("bench.forecast");
        let t0 = Instant::now();
        let forecast = self.inner.forecast_all(histories, horizon);
        let wall_s = t0.elapsed().as_secs_f64();
        drop(span);
        push(&self.log, |log| log.forecasts_s.push(wall_s));
        forecast
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
