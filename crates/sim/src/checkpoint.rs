//! Checkpoint/resume for [`crate::ClosedLoopSim`].
//!
//! A [`SimCheckpoint`] freezes everything a closed-loop run has produced
//! and the controller's internal state ([`ControllerCheckpoint`]) into
//! plain data with a lossless JSON round-trip, written and read with the
//! workspace's one JSON codec (`dspp_telemetry::json`; the controller
//! state via [`ControllerCheckpoint::push_json`]). Because every solve in
//! this workspace is deterministic, restoring a checkpoint into a freshly
//! built simulation reproduces the interrupted run exactly (the
//! `dspp-runtime` crate's resume tests pin this).
//!
//! Non-finite floats (an overloaded arc reports `worst_latency = ∞`) are
//! encoded as the codec's JSON strings `"inf"`, `"-inf"` and `"nan"`.

use std::fmt::Write as _;

use dspp_core::{ControllerCheckpoint, PeriodCost};
use dspp_telemetry::json::{self, JsonValue};

use crate::{SimPeriod, SlaReport};

/// Schema version of the checkpoint JSON document.
///
/// Version history: 1 — initial layout; 2 — adds the per-period
/// `sla_shortfall` recovery field.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 2;

/// A frozen mid-run closed-loop simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Schema version (see [`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Name of the controller driving the run (sanity-checked on restore).
    pub controller: String,
    /// Next period index to execute.
    pub cursor: usize,
    /// Periods executed before the checkpoint.
    pub periods: Vec<SimPeriod>,
    /// The controller's internal state.
    pub controller_state: ControllerCheckpoint,
}

impl SimCheckpoint {
    /// Serializes the checkpoint as a single JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"controller\":",
            self.schema_version
        );
        json::push_string(&mut out, &self.controller);
        let _ = write!(out, ",\"cursor\":{},\"periods\":[", self.cursor);
        for (i, p) in self.periods.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"period\":{},\"observed_demand\":", p.period);
            json::push_f64_array(&mut out, &p.observed_demand);
            out.push_str(",\"realized_demand\":");
            json::push_f64_array(&mut out, &p.realized_demand);
            out.push_str(",\"per_dc\":");
            json::push_f64_array(&mut out, &p.per_dc);
            for (key, v) in [
                ("total_servers", p.total_servers),
                ("reconfig_magnitude", p.reconfig_magnitude),
                ("hosting", p.cost.hosting),
                ("reconfiguration", p.cost.reconfiguration),
            ] {
                let _ = write!(out, ",\"{key}\":");
                json::push_f64(&mut out, v);
            }
            let _ = write!(
                out,
                ",\"sla\":{{\"violated_arcs\":{},\"loaded_arcs\":{},\"worst_latency\":",
                p.sla.violated_arcs, p.sla.loaded_arcs
            );
            json::push_f64(&mut out, p.sla.worst_latency);
            out.push_str(",\"served_fraction\":");
            json::push_f64(&mut out, p.sla.served_fraction);
            out.push_str("},\"sla_shortfall\":");
            json::push_f64(&mut out, p.sla_shortfall);
            out.push('}');
        }
        out.push_str("],\"controller_state\":");
        self.controller_state.push_json(&mut out);
        out.push('}');
        out
    }

    /// Parses a checkpoint previously written by [`SimCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema version, or a
    /// missing/mistyped field.
    pub fn from_json(input: &str) -> Result<SimCheckpoint, String> {
        let root = json::parse(input).map_err(|e| format!("checkpoint JSON: {e}"))?;
        let version = json::get_u64(&root, "schema_version")?;
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema_version {version} \
                 (expected {CHECKPOINT_SCHEMA_VERSION})"
            ));
        }
        Ok(SimCheckpoint {
            schema_version: version,
            controller: json::get_str(&root, "controller")?.to_string(),
            cursor: json::get_usize(&root, "cursor")?,
            periods: json::field(&root, "periods", |v| json::parse_array(v, parse_period))?,
            controller_state: json::field(
                &root,
                "controller_state",
                ControllerCheckpoint::from_json_value,
            )?,
        })
    }
}

fn parse_period(p: &JsonValue) -> Result<SimPeriod, String> {
    let f64_field = |key| json::field(p, key, json::parse_f64);
    Ok(SimPeriod {
        period: json::get_usize(p, "period")?,
        observed_demand: json::field(p, "observed_demand", json::parse_f64_array)?,
        realized_demand: json::field(p, "realized_demand", json::parse_f64_array)?,
        per_dc: json::field(p, "per_dc", json::parse_f64_array)?,
        total_servers: f64_field("total_servers")?,
        reconfig_magnitude: f64_field("reconfig_magnitude")?,
        cost: PeriodCost {
            hosting: f64_field("hosting")?,
            reconfiguration: f64_field("reconfiguration")?,
        },
        sla: json::field(p, "sla", |sla| {
            Ok(SlaReport {
                violated_arcs: json::get_usize(sla, "violated_arcs")?,
                loaded_arcs: json::get_usize(sla, "loaded_arcs")?,
                worst_latency: json::field(sla, "worst_latency", json::parse_f64)?,
                served_fraction: json::field(sla, "served_fraction", json::parse_f64)?,
            })
        })?,
        sla_shortfall: f64_field("sla_shortfall")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimCheckpoint {
        SimCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            controller: "mpc".into(),
            cursor: 2,
            periods: vec![
                SimPeriod {
                    period: 0,
                    observed_demand: vec![40.0],
                    realized_demand: vec![60.0],
                    per_dc: vec![0.875_000_000_000_123],
                    total_servers: 0.875_000_000_000_123,
                    reconfig_magnitude: 0.875,
                    cost: PeriodCost {
                        hosting: 1.0 / 3.0,
                        reconfiguration: 2e-17,
                    },
                    sla: SlaReport {
                        violated_arcs: 0,
                        loaded_arcs: 1,
                        worst_latency: 0.031,
                        served_fraction: 1.0,
                    },
                    sla_shortfall: 0.0,
                },
                SimPeriod {
                    period: 1,
                    observed_demand: vec![60.0],
                    realized_demand: vec![90.0],
                    per_dc: vec![1.25],
                    total_servers: 1.25,
                    reconfig_magnitude: 0.375,
                    cost: PeriodCost {
                        hosting: 1.25,
                        reconfiguration: 0.01,
                    },
                    sla: SlaReport {
                        violated_arcs: 1,
                        loaded_arcs: 1,
                        worst_latency: f64::INFINITY,
                        served_fraction: 1.0,
                    },
                    sla_shortfall: 2.625,
                },
            ],
            controller_state: ControllerCheckpoint {
                period: 2,
                allocation: vec![1.25],
                history: vec![vec![40.0, 60.0]],
                warm_us: Some(vec![vec![0.1], vec![0.0]]),
            },
        }
    }

    /// The exact bytes `sample()` serializes to. Pinned so codec
    /// refactors cannot silently change the on-disk format.
    const SAMPLE_GOLDEN: &str = concat!(
        r#"{"schema_version":2,"controller":"mpc","cursor":2,"periods":[{"period":0"#,
        r#","observed_demand":[40],"realized_demand":[60],"per_dc":[0.875000000000123]"#,
        r#","total_servers":0.875000000000123,"reconfig_magnitude":0.875"#,
        r#","hosting":0.3333333333333333,"reconfiguration":0.00000000000000002"#,
        r#","sla":{"violated_arcs":0,"loaded_arcs":1,"worst_latency":0.031"#,
        r#","served_fraction":1},"sla_shortfall":0},{"period":1,"observed_demand":[60]"#,
        r#","realized_demand":[90],"per_dc":[1.25],"total_servers":1.25"#,
        r#","reconfig_magnitude":0.375,"hosting":1.25,"reconfiguration":0.01"#,
        r#","sla":{"violated_arcs":1,"loaded_arcs":1,"worst_latency":"inf""#,
        r#","served_fraction":1},"sla_shortfall":2.625}],"controller_state":{"period":2"#,
        r#","allocation":[1.25],"history":[[40,60]],"warm_us":[[0.1],[0]]}}"#,
    );

    #[test]
    fn sample_serializes_to_golden_bytes() {
        assert_eq!(sample().to_json(), SAMPLE_GOLDEN);
    }

    #[test]
    fn json_round_trips_losslessly() {
        let ck = sample();
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed, ck);
    }

    #[test]
    fn round_trips_non_finite_and_none_warm_start() {
        let mut ck = sample();
        ck.controller_state.warm_us = None;
        ck.periods[0].sla.worst_latency = f64::NEG_INFINITY;
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed.controller_state.warm_us, None);
        assert_eq!(parsed.periods[0].sla.worst_latency, f64::NEG_INFINITY);
        assert_eq!(parsed.periods[1].sla.worst_latency, f64::INFINITY);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(SimCheckpoint::from_json("not json").is_err());
        assert!(SimCheckpoint::from_json("{\"schema_version\":99}").is_err());
        let mut ck = sample();
        ck.schema_version = CHECKPOINT_SCHEMA_VERSION;
        let text = ck.to_json().replace("\"cursor\":2", "\"cursor\":\"x\"");
        assert!(SimCheckpoint::from_json(&text).is_err());
        // A v1 document (no sla_shortfall) is rejected by version check.
        let old = ck
            .to_json()
            .replace("\"schema_version\":2", "\"schema_version\":1");
        assert!(SimCheckpoint::from_json(&old).is_err());
    }

    #[test]
    fn controller_name_with_quotes_escapes() {
        let mut ck = sample();
        ck.controller = "weird \"name\"\n".into();
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed.controller, ck.controller);
    }
}
