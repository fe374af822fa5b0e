//! Loader robustness: every hand-written JSON loader turns corrupted input
//! into `Err` (or some value) and never panics.
//!
//! Each loader gets a valid document produced by the workspace's own
//! writers, then three kinds of damage: every truncation, random bit flips
//! that keep the input valid UTF-8, and type swaps (number ↔ string ↔
//! array ↔ null) on every object field. A checkpoint that still parses
//! must then be either accepted or refused by `restore` — and refused
//! whenever its shapes disagree with the run it is restored into.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use dspp::core::{DsppBuilder, MpcController, MpcSettings};
use dspp::ingest::{BackpressureBudget, IngestCheckpoint, IngestConfig, IngestLoop};
use dspp::predict::{LastValue, OraclePredictor};
use dspp::sim::{ClosedLoopSim, SimCheckpoint};
use dspp::telemetry::analyze::{analyze_jsonl, AnalyzeOptions};
use dspp::telemetry::json::{self, JsonValue};
use dspp::telemetry::{Recorder, Snapshot, Tracer};
use proptest::prelude::*;

const SIM_DEMAND: [f64; 6] = [40.0, 60.0, 90.0, 120.0, 90.0, 60.0];
const INGEST_PERIODS: usize = 6;

fn sim() -> ClosedLoopSim {
    let demand = vec![SIM_DEMAND.to_vec()];
    let problem = DsppBuilder::new(1, 1)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weights(vec![0.02])
        .price_trace(0, vec![1.0])
        .build()
        .expect("problem");
    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon: 2,
            ..MpcSettings::default()
        },
    )
    .expect("controller");
    ClosedLoopSim::new(Box::new(controller), demand).expect("sim")
}

fn capacity_schedule() -> Vec<Vec<f64>> {
    (0..INGEST_PERIODS)
        .map(|k| {
            if k == 1 {
                vec![0.0, 500.0]
            } else {
                vec![500.0, 500.0]
            }
        })
        .collect()
}

fn ingest_loop() -> IngestLoop {
    let problem = DsppBuilder::new(2, 2)
        .service_rate(100.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010, 0.015], vec![0.020, 0.012]])
        .price_rows(vec![
            vec![1.0; INGEST_PERIODS + 3],
            vec![1.2; INGEST_PERIODS + 3],
        ])
        .build()
        .expect("problem");
    let controller = MpcController::new(
        problem,
        Box::new(LastValue),
        MpcSettings {
            horizon: 2,
            ..MpcSettings::default()
        },
    )
    .expect("controller");
    IngestLoop::new(
        Box::new(controller),
        vec![vec![30.0; INGEST_PERIODS], vec![15.0; INGEST_PERIODS]],
        IngestConfig::new(9)
            .with_period_seconds(10)
            .with_jobs(1)
            .with_budget(BackpressureBudget::new(800, 200)),
    )
    .expect("loop")
    .with_capacity_schedule(capacity_schedule())
    .expect("schedule")
}

/// The valid documents every corruption starts from.
struct Docs {
    generic: String,
    sim: String,
    ingest: String,
    snapshot: String,
    events: String,
}

fn docs() -> &'static Docs {
    static DOCS: OnceLock<Docs> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut s = sim();
        s.run_until(3).expect("sim run");
        let mut l = ingest_loop();
        for _ in 0..2 {
            l.step().expect("ingest step");
        }
        let recorder = Recorder::enabled();
        recorder.incr("loader.count", 3);
        recorder.gauge("loader.gauge", f64::NAN);
        recorder.observe("loader.hist", 0.25);
        recorder.observe("loader.hist", 4.0);
        let tracer = Tracer::enabled(256);
        {
            let mut root = tracer.span("sim.period");
            root.attr("period", 0u64);
            let child = tracer.span("controller.step");
            tracer.event_with("solver.iteration", [("mu", 0.5.into())]);
            drop(child);
        }
        Docs {
            generic: r#"{"a":[1,-2.5e3,{"b":null,"c":true}],"s":"x\"\\\u0001y","e":{}}"#.into(),
            sim: s.checkpoint().expect("sim checkpoint").to_json(),
            ingest: l.checkpoint().expect("ingest checkpoint").to_json(),
            snapshot: recorder.snapshot().expect("enabled recorder").to_json(),
            events: tracer.to_jsonl(),
        }
    })
}

fn load_json(input: &str) {
    let _ = json::parse(input);
}

fn load_sim(input: &str) {
    if let Ok(ck) = SimCheckpoint::from_json(input) {
        let wrong_shape = ck.controller_state.allocation.len() != 1
            || ck.controller_state.history.len() != 1
            || ck.periods.len() != ck.cursor;
        let restored = sim().restore(&ck);
        assert!(
            !(wrong_shape && restored.is_ok()),
            "sim restore accepted a wrong-shaped checkpoint: {input}"
        );
    }
}

fn load_ingest(input: &str) {
    if let Ok(ck) = IngestCheckpoint::from_json(input) {
        let wrong_shape = ck.controller_state.allocation.len() != 4
            || ck.controller_state.history.len() != 2
            || ck.carry.len() != 2
            || ck.sealed.len() != ck.cursor;
        let restored = ingest_loop().restore(&ck);
        assert!(
            !(wrong_shape && restored.is_ok()),
            "ingest restore accepted a wrong-shaped checkpoint: {input}"
        );
    }
}

fn load_snapshot(input: &str) {
    let _ = Snapshot::from_json(input);
}

fn load_events(input: &str) {
    let _ = analyze_jsonl(input, &AnalyzeOptions::default());
}

type Loader = fn(&str);

/// Every loader, paired with its valid document.
fn cases() -> [(&'static str, Loader, &'static str); 5] {
    let d = docs();
    [
        ("json::parse", load_json as Loader, d.generic.as_str()),
        ("SimCheckpoint", load_sim, d.sim.as_str()),
        ("IngestCheckpoint", load_ingest, d.ingest.as_str()),
        ("Snapshot", load_snapshot, d.snapshot.as_str()),
        ("analyze_jsonl", load_events, d.events.as_str()),
    ]
}

/// Runs `loader` on `input`, failing with the loader name and input on a
/// panic.
fn must_not_panic(name: &str, loader: Loader, input: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| loader(input)));
    assert!(outcome.is_ok(), "{name} panicked on input {input:?}");
}

/// Serializes a parsed value back to JSON (object keys in sorted order —
/// every loader is order-insensitive).
fn to_text(v: &JsonValue) -> String {
    let mut out = String::new();
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => json::push_f64(&mut out, *n),
        JsonValue::String(s) => json::push_string(&mut out, s),
        JsonValue::Array(items) => {
            let items: Vec<String> = items.iter().map(to_text).collect();
            out = format!("[{}]", items.join(","));
        }
        JsonValue::Object(members) => {
            let members: Vec<String> = members
                .iter()
                .map(|(key, item)| {
                    let mut member = String::new();
                    json::push_string(&mut member, key);
                    format!("{member}:{}", to_text(item))
                })
                .collect();
            out = format!("{{{}}}", members.join(","));
        }
    }
    out
}

/// Every copy of `v` with one object field, anywhere in the tree,
/// replaced by a number, string, array or null of a different type.
fn type_swaps(v: &JsonValue) -> Vec<JsonValue> {
    let mut out = Vec::new();
    match v {
        JsonValue::Object(members) => {
            for (key, item) in members {
                let replacements = [
                    JsonValue::Number(7.0),
                    JsonValue::String("x".into()),
                    JsonValue::Array(Vec::new()),
                    JsonValue::Null,
                ]
                .into_iter()
                .filter(|r| std::mem::discriminant(r) != std::mem::discriminant(item));
                for swapped in replacements.chain(type_swaps(item)) {
                    let mut copy = members.clone();
                    copy.insert(key.clone(), swapped);
                    out.push(JsonValue::Object(copy));
                }
            }
        }
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for swapped in type_swaps(item) {
                    let mut copy = items.clone();
                    copy[i] = swapped;
                    out.push(JsonValue::Array(copy));
                }
            }
        }
        _ => {}
    }
    out
}

#[test]
fn valid_documents_load() {
    assert!(json::parse(&docs().generic).is_ok());
    let sim_ck = SimCheckpoint::from_json(&docs().sim).expect("sim checkpoint");
    sim().restore(&sim_ck).expect("sim restore");
    let ingest_ck = IngestCheckpoint::from_json(&docs().ingest).expect("ingest checkpoint");
    ingest_loop().restore(&ingest_ck).expect("ingest restore");
    assert!(Snapshot::from_json(&docs().snapshot).is_ok());
    analyze_jsonl(&docs().events, &AnalyzeOptions::default()).expect("events");
}

#[test]
fn every_truncation_is_handled() {
    for (name, loader, doc) in cases() {
        for (cut, _) in doc.char_indices() {
            must_not_panic(name, loader, &doc[..cut]);
        }
    }
}

#[test]
fn type_swaps_on_every_field_are_handled() {
    for (name, loader, doc) in cases() {
        // The event dump holds one JSON document per line.
        let lines: Vec<&str> = doc.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for swapped in type_swaps(&json::parse(line).expect("valid document")) {
                let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                edited[i] = to_text(&swapped);
                must_not_panic(name, loader, &edited.join("\n"));
            }
        }
    }
}

/// Rewrites the field at `path` of a valid document and re-serializes it.
fn edit(doc: &str, path: &[&str], edit: impl FnOnce(&mut JsonValue)) -> String {
    let mut root = json::parse(doc).expect("valid document");
    let mut v = &mut root;
    for key in path {
        v = match v {
            JsonValue::Object(members) => members.get_mut(*key).expect("field exists"),
            _ => panic!("{key} is not inside an object"),
        };
    }
    edit(v);
    to_text(&root)
}

fn push_copy_of_first(v: &mut JsonValue) {
    if let JsonValue::Array(items) = v {
        items.push(items[0].clone());
    }
}

#[test]
fn wrong_shapes_are_refused_on_restore() {
    let d = docs();
    let sim_docs = [
        edit(
            &d.sim,
            &["controller_state", "allocation"],
            push_copy_of_first,
        ),
        edit(&d.sim, &["controller_state", "history"], push_copy_of_first),
        edit(&d.sim, &["cursor"], |v| *v = JsonValue::Number(2.0)),
    ];
    for text in &sim_docs {
        let ck = SimCheckpoint::from_json(text).expect("still a valid document");
        assert!(sim().restore(&ck).is_err(), "accepted {text}");
    }
    let ingest_docs = [
        edit(
            &d.ingest,
            &["controller_state", "allocation"],
            push_copy_of_first,
        ),
        edit(
            &d.ingest,
            &["controller_state", "history"],
            push_copy_of_first,
        ),
        edit(&d.ingest, &["carry"], push_copy_of_first),
        edit(&d.ingest, &["cursor"], |v| *v = JsonValue::Number(1.0)),
    ];
    for text in &ingest_docs {
        let ck = IngestCheckpoint::from_json(text).expect("still a valid document");
        assert!(ingest_loop().restore(&ck).is_err(), "accepted {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flipping one bit anywhere (keeping the input valid UTF-8) yields
    /// `Err` or a value, never a panic.
    #[test]
    fn bit_flips_are_handled(which in 0usize..5, at in 0.0f64..1.0, bit in 0u32..8) {
        let (name, loader, doc) = cases()[which];
        let mut bytes = doc.as_bytes().to_vec();
        let pos = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        if let Ok(flipped) = String::from_utf8(bytes) {
            must_not_panic(name, loader, &flipped);
        }
    }
}
