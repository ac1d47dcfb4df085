//! What one run of one workload produces, as plain numbers, and the span
//! recorder the benchmark wraps around its calls into the program.

use crate::json::Json;
use crate::measure::Cpu;
use std::collections::BTreeMap;
use std::time::Instant;

/// Result of one run of one workload in one process.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the generator was due to submit.
    pub attempted: u64,
    /// Operations completed: updates committed at their origin site plus
    /// snapshot queries answered.
    pub completed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub setup_s: f64,
    /// Last completion − first submission, seconds of the workload's clock.
    pub clock_span_s: f64,
    pub commit_p50_ms: f64,
    pub commit_p99_ms: f64,
    /// Samples in the commit-latency distribution (failed updates included).
    pub latency_samples: u64,
    /// Process CPU over the timed phase.
    pub cpu: Cpu,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Share of the timed phase the live generator spent blocked inside
    /// `submit` (0 on `sim-*`, whose generator is never late by
    /// construction: arrivals fire on the simulated clock).
    pub generator_blocked_share: f64,
    /// Per-layer observations (A) and process accounting (C), by metric
    /// name. Filled by the traced pass only.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.completed)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn tps(&self) -> f64 {
        self.completed as f64 / self.clock_span_s.max(f64::MIN_POSITIVE)
    }

    pub fn cpu_us_per_txn(&self) -> f64 {
        self.cpu.total_s() * 1e6 / self.completed.max(1) as f64
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Lifecycle stages of a transaction, in the benchmark's own numbering:
/// `adapter.rs` maps the program's stages onto these, so the analysis needs
/// no program type and does not depend on the program's variant order.
pub mod stage {
    pub const ADMISSION_WAIT: u8 = 0;
    pub const SUBMIT: u8 = 1;
    pub const BROADCAST: u8 = 2;
    pub const RELAY_WAIT: u8 = 3;
    pub const OPT_DELIVER: u8 = 4;
    pub const TO_DELIVER: u8 = 5;
    pub const EXECUTE: u8 = 6;
    pub const COMMIT: u8 = 7;
    pub const ABORT: u8 = 8;
}

/// One lifecycle observation: transaction `(origin, seq)` reached `stage`
/// at `site` at `at_ns` of the workload's clock.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    pub at_ns: u64,
    pub site: u16,
    pub origin: u16,
    pub seq: u64,
    pub stage: u8,
}

/// One span: a call (or an aggregate of `count` calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls or operations the span covers.
    pub count: u64,
    /// Time inside the span. Equals `end − start` for a single call; for an
    /// aggregate it is the sum over its calls.
    pub busy_ns: u64,
}

/// Spans of one process, kept in memory and written out at the end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span; children opened by `f` nest under it.
    /// Returns `f`'s value and the span's duration in nanoseconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].busy_ns = end_ns - start_ns;
        (out, end_ns - start_ns)
    }

    /// Sets the operation count of the innermost open span.
    pub fn count(&mut self, count: u64) {
        if let Some(id) = self.open.last() {
            self.spans[*id].count = count;
        }
    }

    /// Records an aggregate of `count` calls that spent `busy_ns` in total,
    /// as a child of the innermost open span (the program made the calls
    /// while that span was running; the benchmark summed them).
    pub fn aggregate(&mut self, name: &str, layer: &'static str, count: u64, busy_ns: u64) {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) =
            parent.map(|p| (self.spans[p].start_ns, self.now_ns())).unwrap_or((0, self.now_ns()));
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns,
            parent,
            count,
            busy_ns,
        });
    }

    /// The span file: every span with its self time (busy − children's busy).
    pub fn to_json(&self) -> Json {
        let mut children_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_busy[p] += s.busy_ns;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("layer", Json::Str(s.layer.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("count", Json::Num(s.count as f64)),
                        ("busy_ns", Json::Num(s.busy_ns as f64)),
                        ("self_ns", Json::Num(s.busy_ns.saturating_sub(children_busy[id]) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.scope("outer", "bench", |s| {
            s.scope("inner", "simnet", |s| s.count(7));
            s.aggregate("calls", "storage", 3, 10);
        });
        let doc = spans.to_json();
        let rows = doc.as_arr();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(rows[1].get("count").and_then(Json::as_f64), Some(7.0));
        assert_eq!(rows[2].get("busy_ns").and_then(Json::as_f64), Some(10.0));
        let outer_busy = rows[0].get("busy_ns").and_then(Json::as_f64).unwrap();
        let outer_self = rows[0].get("self_ns").and_then(Json::as_f64).unwrap();
        assert!(outer_self <= outer_busy);
    }
}
