//! Per-layer self times from a traced run.
//!
//! A span's self time is its duration minus the part of its interval its
//! child spans cover. The benchmark opens `bench.period` around each
//! `IngestLoop::step`, `bench.controller` around the decorated controller
//! step and `bench.forecast` around the forecast; the program contributes
//! `ingest.period` → `controller.step` → `solver.lq.solve`. Under one
//! `bench.period` root the self times of all descendants add up to the
//! root's duration, so the table reads as a partition of period time:
//!
//! | span | self time is |
//! |---|---|
//! | `ingest.period` | fan-out, seal, snapshot compile/publish, SLO |
//! | `controller.step` | horizon build, preflight, routing, cost |
//! | `bench.forecast` | the predictor |
//! | `solver.lq.solve` | the interior-point solve |
//! | `bench.period`, `bench.controller` | the benchmark's own wrappers |

use std::collections::BTreeMap;

use dspp_telemetry::{AttrValue, SpanRecord, TraceRecord};

/// Name of the benchmark's root span around `IngestLoop::step`.
pub const PERIOD_SPAN: &str = "bench.period";
/// The solver span the program emits per solve.
pub const SOLVE_SPAN: &str = "solver.lq.solve";

/// Totals of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Each span's self time, ns, in record order.
    pub self_samples_ns: Vec<u64>,
    /// Each span's duration, ns, in record order.
    pub samples_ns: Vec<u64>,
}

/// The breakdown of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Per span name, for spans under a `bench.period` root.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// `solver.lq.solve` spans counted by `(backend, status)`.
    pub solves: BTreeMap<(String, String), u64>,
}

fn attr_str(span: &SpanRecord, key: &str) -> String {
    match span.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::Str(s))) => s.clone(),
        Some((_, other)) => format!("{other:?}"),
        None => "unset".to_string(),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Whether `span` is, or descends from, a `bench.period` root.
fn under_period<'a>(mut span: &'a SpanRecord, by_id: &BTreeMap<u64, &'a SpanRecord>) -> bool {
    loop {
        if span.name == PERIOD_SPAN {
            return true;
        }
        match span.parent.and_then(|p| by_id.get(&p)) {
            Some(parent) => span = parent,
            None => return false,
        }
    }
}

impl Breakdown {
    /// Builds the breakdown from flight-recorder records. Spans outside
    /// any `bench.period` root (set-up, other tracers) are ignored.
    pub fn from_records(records: &[TraceRecord]) -> Breakdown {
        let spans: Vec<&SpanRecord> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                TraceRecord::Event(_) => None,
            })
            .collect();
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, *s)).collect();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = Breakdown::default();
        for s in spans.iter().filter(|s| under_period(s, &by_id)) {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            let self_ns = s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns);
            let t = out.spans.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
            t.self_samples_ns.push(self_ns);
            t.samples_ns.push(s.duration_ns());
            if s.name == SOLVE_SPAN {
                *out.solves
                    .entry((attr_str(s, "backend"), attr_str(s, "status")))
                    .or_default() += 1;
            }
        }
        out
    }

    /// Totals of span `name` (empty when none was recorded).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Summed `bench.period` durations, ns.
    pub fn period_ns(&self) -> u64 {
        self.span(PERIOD_SPAN).total_ns
    }

    /// Summed self times of every span under the period roots, ns.
    pub fn self_ns(&self) -> u64 {
        self.spans.values().map(|t| t.self_ns).sum()
    }

    /// Solves on `backend`, any status.
    pub fn solves_on(&self, backend: &str) -> u64 {
        self.solves
            .iter()
            .filter(|((b, _), _)| b == backend)
            .map(|(_, n)| n)
            .sum()
    }

    /// Solves whose status is not `optimal`.
    pub fn nonoptimal_solves(&self) -> u64 {
        self.solves
            .iter()
            .filter(|((_, s), _)| s != "optimal")
            .map(|(_, n)| n)
            .sum()
    }

    /// The breakdown as a plain-text table.
    pub fn render(&self, title: &str) -> String {
        let period = self.period_ns().max(1) as f64;
        let mut out = format!("{title}\n");
        out.push_str(&format!(
            "{:<18} {:>7} {:>12} {:>12} {:>8}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        ));
        let mut rows: Vec<(&&str, &SpanTotals)> = self.spans.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<18} {:>7} {:>12.3} {:>12.3} {:>8.2}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / period
            ));
        }
        out.push_str(&format!(
            "self times cover {:.2}% of {:.3} ms traced period time\n",
            100.0 * self.self_ns() as f64 / period,
            period / 1e6
        ));
        out.push_str("solver.lq.solve spans by backend/status:\n");
        for ((backend, status), n) in &self.solves {
            out.push_str(&format!("  {backend:<12} {status:<18} {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> TraceRecord {
        TraceRecord::Span(SpanRecord {
            id,
            parent,
            thread: 1,
            name,
            start_ns: s,
            end_ns: e,
            attrs: if name == SOLVE_SPAN {
                vec![
                    ("backend", AttrValue::from("dense")),
                    ("status", AttrValue::from("optimal")),
                ]
            } else {
                Vec::new()
            },
        })
    }

    #[test]
    fn self_times_partition_the_root() {
        let records = vec![
            span(4, Some(3), SOLVE_SPAN, 30, 80),
            span(3, Some(2), "controller.step", 20, 90),
            span(2, Some(1), "ingest.period", 5, 95),
            span(1, None, PERIOD_SPAN, 0, 100),
            span(9, None, "setup", 0, 1000),
        ];
        let b = Breakdown::from_records(&records);
        assert_eq!(b.span(SOLVE_SPAN).self_ns, 50);
        assert_eq!(b.span("controller.step").self_ns, 20);
        assert_eq!(b.span("ingest.period").self_ns, 20);
        assert_eq!(b.span(PERIOD_SPAN).self_ns, 10);
        assert_eq!(b.self_ns(), b.period_ns());
        assert_eq!(b.span("setup").count, 0);
        assert_eq!(b.solves_on("dense"), 1);
        assert_eq!(b.nonoptimal_solves(), 0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(vec![(10, 30), (20, 40), (50, 60)], 0, 55), 35);
    }
}
