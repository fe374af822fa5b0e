//! The four period workloads and their set-up.
//!
//! Every workload drives the production period path,
//! [`IngestLoop::step`]: fan-out → seal → controller step → snapshot
//! publish → SLO. The workload seed is a benchmark argument; the demand
//! model seed, the ingest seed and the fault-plan jitter all derive from
//! it, and the program only receives the generated rate plan and
//! capacity schedule.

use dspp_core::policy::ProportionalGreedy;
use dspp_core::{Dspp, MpcController, MpcSettings, PlacementController};
use dspp_experiments::scenario::{populations, wide_area_problem, SLA_LATENCY};
use dspp_ingest::{stream_seed, BackpressureBudget, IngestConfig, IngestLoop};
use dspp_predict::{ArPredictor, Predictor};
use dspp_runtime::FaultPlan;
use dspp_telemetry::{Recorder, SloEngine, SloSpec};
use dspp_workload::{DemandModel, DiurnalProfile, FlashCrowd};

use crate::probe::{ProbeLog, ProbedController, ProbedPredictor, SharedLog};

/// Control periods per simulated day (hourly control, as in the paper).
pub const DAY: usize = 24;

/// `paper-outage` injects its faults on the first day of every cycle of
/// this many periods (four days), so fault periods stay a minority.
pub const FAULT_CYCLE: usize = 4 * DAY;

/// Shard threads of the ingest fan-out.
pub const JOBS: usize = 2;

/// The benchmark's workloads. See `periodbench/README.md` for why each
/// exists and which layer it isolates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, W-MPC with the AR predictor: the IPM solve dominates.
    PaperMpc,
    /// Paper topology at 10× the event volume, closed-form policy: the
    /// ingest fan-out dominates and no IPM runs.
    IngestHeavy,
    /// `PaperMpc` plus DC outages, a degrade, a flash crowd and a finite
    /// admission budget: recovery solves, masked republishes, drops.
    PaperOutage,
    /// 100 DCs × 1000 locations, W-MPC on the structured KKT backend.
    Period100x,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMpc,
        Workload::IngestHeavy,
        Workload::PaperOutage,
        Workload::Period100x,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMpc => "paper-mpc",
            Workload::IngestHeavy => "ingest-heavy",
            Workload::PaperOutage => "paper-outage",
            Workload::Period100x => "period-100x",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Periods every run completes whatever its time budget; `cost_total`
    /// sums exactly these, so it is a deterministic function of the seed.
    pub fn min_periods(self) -> usize {
        match self {
            Workload::Period100x => 2,
            _ => self.cycle(),
        }
    }

    /// A timed run stops only at a multiple of this many periods, so every
    /// run covers whole cycles and the same mix of day phases and faults.
    pub fn cycle(self) -> usize {
        match self {
            Workload::Period100x => 1,
            Workload::PaperOutage => FAULT_CYCLE,
            _ => DAY,
        }
    }

    /// Length of the generated rate plan: longer than any run reaches.
    fn plan_periods(self) -> usize {
        match self {
            Workload::Period100x => 64,
            _ => 32 * DAY,
        }
    }
}

/// A workload ready to step, plus what the checks and probes need.
pub struct Bench {
    /// The production period path under test.
    pub ingest: IngestLoop,
    /// Samples written by the controller and predictor decorators.
    pub log: SharedLog,
    /// The rate plan handed to the loop (`[city][period]`, req/s, after
    /// demand spikes).
    pub rates: Vec<Vec<f64>>,
    /// The capacity schedule handed to the loop, if the workload has
    /// capacity faults (`[period][dc]`).
    pub schedule: Option<Vec<Vec<f64>>>,
    /// Nominal per-DC capacities (in force outside the schedule).
    pub nominal_capacity: Vec<f64>,
    /// The DC of every arc.
    pub arc_dc: Vec<usize>,
    /// Root seed of the event streams.
    pub ingest_seed: u64,
    /// Event-time length of one period, seconds.
    pub period_seconds: u64,
    /// The recorder handed to the loop.
    pub telemetry: Recorder,
}

impl Bench {
    /// The per-DC capacity in force in period `k`.
    pub fn capacity_at(&self, k: usize) -> &[f64] {
        match &self.schedule {
            Some(s) if k < s.len() => &s[k],
            _ => &self.nominal_capacity,
        }
    }
}

/// How to instrument a set-up. The SLO engine is always attached, as in
/// production.
#[derive(Debug, Clone)]
pub struct Options {
    /// The recorder handed to the loop (and through it to the controller
    /// and solver). End-to-end runs pass `Recorder::enabled()` without a
    /// tracer; traced runs add an enabled tracer.
    pub telemetry: Recorder,
    /// Wrap the controller and predictor in the timing decorators.
    pub probes: bool,
}

impl Options {
    /// The benchmark's configuration: probes on, span tracer as given by
    /// `telemetry`.
    pub fn production(telemetry: Recorder) -> Self {
        Options {
            telemetry,
            probes: true,
        }
    }
}

/// Derives an independent sub-seed for `purpose` from the workload seed.
fn derive(seed: u64, purpose: usize) -> u64 {
    stream_seed(seed, purpose, 0x5eed)
}

/// Builds `workload` at `seed`: problem, predictor, policy, fault
/// schedule and `IngestLoop::new`, up to (not including) the first step.
///
/// # Errors
///
/// Any construction error of the program, as text.
pub fn setup(workload: Workload, seed: u64, opts: &Options) -> Result<Bench, String> {
    let log = ProbeLog::shared();
    let periods = workload.plan_periods();
    let demand_seed = derive(seed, 1);
    let ingest_seed = derive(seed, 2);
    let jitter = (derive(seed, 3) % 2) as usize;

    let (problem, rates, plan, budget, period_seconds) = match workload {
        Workload::PaperMpc | Workload::IngestHeavy | Workload::PaperOutage => {
            let cities: Vec<usize> = (0..DAY).collect();
            // The MPC reads posted prices up to its horizon past the plan.
            let problem = wide_area_problem(&cities, periods + 8, 0.001, SLA_LATENCY)
                .map_err(|e| e.to_string())?;
            let scale = if workload == Workload::IngestHeavy {
                10.0
            } else {
                1.0
            };
            let mut rates = diurnal_rates(
                &populations(),
                6_000.0 * scale,
                1_500.0 * scale,
                demand_seed,
                periods,
            );
            let (plan, budget) = if workload == Workload::PaperOutage {
                outage_plan(&problem, &mut rates, jitter)
            } else {
                (FaultPlan::new(), BackpressureBudget::unlimited())
            };
            (problem, rates, plan, budget, 60)
        }
        Workload::Period100x => {
            let problem = dspp_bench::huge_problem(100, 1_000);
            // ~250k events per period over a 1 s window: a light event
            // volume, but ~1 server of demand per location.
            let weights: Vec<f64> = (0..1_000).map(|v| 1.0 + 0.05 * (v % 11) as f64).collect();
            let rates = diurnal_rates(&weights, 330_000.0, 170_000.0, demand_seed, periods);
            (
                problem,
                rates,
                FaultPlan::new(),
                BackpressureBudget::unlimited(),
                1,
            )
        }
    };

    let nominal_capacity = problem.capacities().to_vec();
    let arc_dc: Vec<usize> = problem.arcs().iter().map(|&(l, _)| l).collect();
    let schedule = plan.capacity_schedule(&problem, periods);
    let controller = policy(workload, problem, opts, &log)?;
    let config = IngestConfig::new(ingest_seed)
        .with_period_seconds(period_seconds)
        .with_jobs(JOBS)
        .with_budget(budget);
    let mut ingest =
        IngestLoop::new(controller, rates.clone(), config).map_err(|e| e.to_string())?;
    if let Some(s) = &schedule {
        ingest = ingest
            .with_capacity_schedule(s.clone())
            .map_err(|e| e.to_string())?;
    }
    let mut slos = SloSpec::default_set();
    slos.push(SloSpec::ingest_backpressure());
    let ingest = ingest
        .with_telemetry(opts.telemetry.clone())
        .with_slos(SloEngine::new(slos, opts.telemetry.clone()));
    Ok(Bench {
        ingest,
        log,
        rates,
        schedule,
        nominal_capacity,
        arc_dc,
        ingest_seed,
        period_seconds,
        telemetry: opts.telemetry.clone(),
    })
}

/// A population-weighted diurnal rate plan, `[location][period]` in
/// req/s: the working-hours profile scaled so the weights' total runs
/// from `off` to `peak`, with 5 % multiplicative noise drawn from `seed`.
fn diurnal_rates(weights: &[f64], peak: f64, off: f64, seed: u64, periods: usize) -> Vec<Vec<f64>> {
    let total: f64 = weights.iter().sum();
    DemandModel::new(DiurnalProfile::working_hours(peak, off))
        .with_population_weights(weights.iter().map(|w| w / total).collect())
        .with_noise(0.05)
        .with_seed(seed)
        .generate(periods, 1.0)
        .into_rows()
}

/// The W-MPC predictor of the paper's experiments: AR(2) over a sliding
/// window, clamped against runaway roots.
fn ar_predictor() -> ArPredictor {
    ArPredictor::new(2)
        .with_window(10)
        .with_stability_clamp(3.0)
}

/// Builds the workload's placement policy, decorated when asked.
fn policy(
    workload: Workload,
    problem: Dspp,
    opts: &Options,
    log: &SharedLog,
) -> Result<Box<dyn PlacementController>, String> {
    let tracer = opts.telemetry.tracer().clone();
    let mpc = |problem: Dspp, horizon: usize| -> Result<Box<dyn PlacementController>, String> {
        let predictor: Box<dyn Predictor> = if opts.probes {
            Box::new(ProbedPredictor::new(
                Box::new(ar_predictor()),
                log.clone(),
                tracer.clone(),
            ))
        } else {
            Box::new(ar_predictor())
        };
        let settings = MpcSettings {
            horizon,
            ..MpcSettings::default()
        };
        Ok(Box::new(
            MpcController::new(problem, predictor, settings).map_err(|e| e.to_string())?,
        ))
    };
    let inner = match workload {
        Workload::PaperMpc | Workload::PaperOutage => mpc(problem, 6)?,
        Workload::Period100x => mpc(problem, 4)?,
        Workload::IngestHeavy => {
            Box::new(ProportionalGreedy::new(problem).map_err(|e| e.to_string())?)
        }
    };
    Ok(if opts.probes {
        Box::new(ProbedController::new(inner, log.clone(), tracer))
    } else {
        inner
    })
}

/// The `paper-outage` fault plan, repeated on the first day of every
/// [`FAULT_CYCLE`]: the two DCs that single-home the most cities go dark
/// one after the other mid-day, a third DC degrades to a handful of
/// servers, and the second-largest city sees a 3× flash crowd. The seed
/// shifts the outages by up to one period. The admission budget is
/// finite, and its carry bound is reached by the stranded and flash-crowd
/// mass.
fn outage_plan(
    problem: &Dspp,
    rates: &mut [Vec<f64>],
    jitter: usize,
) -> (FaultPlan, BackpressureBudget) {
    let dcs = problem.num_dcs();
    let mut single_homed = vec![0usize; dcs];
    for v in 0..problem.num_locations() {
        if let [e] = problem.arcs_for_location(v)[..] {
            single_homed[problem.arcs()[e].0] += 1;
        }
    }
    let mut order: Vec<usize> = (0..dcs).collect();
    order.sort_by_key(|&l| (std::cmp::Reverse(single_homed[l]), l));
    let periods = rates.first().map_or(0, Vec::len);
    let plan = (0..periods)
        .step_by(FAULT_CYCLE)
        .fold(FaultPlan::new(), |plan, day| {
            plan.dc_outage(order[0], day + 10 + jitter, 3)
                .dc_outage(order[1], day + 14 + jitter, 2)
                .capacity_degrade(order[2], 0.005, day + 9, 9)
                .demand_spike(FlashCrowd::new((day + 11) as f64, 4.0, 3.0).at_location(1))
        });
    plan.apply_to_demand(rates);
    (plan, BackpressureBudget::new(100_000, 20_000))
}
