//! End-to-end control-period benchmark for the DSPP workspace.
//!
//! The unit of work is one control period of Algorithm 1 as production
//! runs it: `IngestLoop::step` — event fan-out, seal, controller step
//! (forecast, horizon build, preflight, interior-point solve, routing),
//! snapshot publish and SLO evaluation. The benchmark drives that path
//! closed-loop on four workloads ([`workload`]), checks every period's
//! outputs ([`check`]), and measures each layer from outside the program:
//! decorators around the controller and predictor ([`probe`]), deltas of
//! `IngestLoop::totals()` ([`run`]), and the spans and counters the
//! program already emits ([`breakdown`]). `README.md` in this directory
//! documents the metrics and how to read them.

pub mod breakdown;
pub mod check;
pub mod probe;
pub mod report;
pub mod run;
pub mod workload;
