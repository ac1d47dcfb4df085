//! Transaction-lifecycle stages, trace events, and the sink trait.
//!
//! A trace is a flat stream of [`TraceEvent`]s: *this transaction reached
//! this [`Stage`] at this site at this instant*. Stage semantics follow
//! the paper's commit path — submission, broadcast, optimistic delivery,
//! definitive (TO) delivery, execution, commit/abort — plus the two
//! waiting stages the extended system adds: the cross-group relay wait
//! (sharded sim clusters) and the admission-window wait (threaded
//! runtime backpressure).

use std::fmt;
use std::sync::Mutex;

use otp_simnet::net::SiteId;
use otp_simnet::time::SimTime;

/// A point in a transaction's lifecycle.
///
/// The discriminant order is the canonical *presentation* order, not a
/// claim about time: in OTP mode execution starts at Opt-delivery, so
/// `Execute` timestamps precede `ToDeliver` ones. What is time-monotone
/// in both modes — and what the live-driver smoke test asserts — is the
/// delivery chain `Submit ≤ Broadcast ≤ OptDeliver ≤ ToDeliver ≤ Commit`
/// with `Execute` bracketed by `OptDeliver` and `Commit`/`Abort`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The client's submit was accepted after waiting on the admission
    /// window (threaded runtime only; timestamp = wait start, so
    /// `Submit − AdmissionWait` is the wait duration).
    AdmissionWait,
    /// The client's submit was accepted by the driver.
    Submit,
    /// The transaction entered its ordering group's broadcast stream
    /// (at the gateway member for forwarded cross-site submits).
    Broadcast,
    /// A cross-group sub-transaction was admitted by the relay stream
    /// into its group (sharded clusters only).
    RelayWait,
    /// Optimistically (tentatively) delivered at a site.
    OptDeliver,
    /// Definitively TO-delivered at a site (order is final).
    ToDeliver,
    /// A stored-procedure execution attempt started at a site.
    Execute,
    /// Committed at a site.
    Commit,
    /// Aborted (definitively rejected) at a site.
    Abort,
}

impl Stage {
    /// Stable short identifier used in JSONL renderings.
    pub const fn id(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::Submit => "submit",
            Stage::Broadcast => "broadcast",
            Stage::RelayWait => "relay_wait",
            Stage::OptDeliver => "opt_deliver",
            Stage::ToDeliver => "to_deliver",
            Stage::Execute => "execute",
            Stage::Commit => "commit",
            Stage::Abort => "abort",
        }
    }

    /// Position in the canonical stage order (0-based).
    pub const fn rank(self) -> usize {
        self as usize
    }

    /// All stages in canonical order.
    pub const fn all() -> [Stage; 9] {
        [
            Stage::AdmissionWait,
            Stage::Submit,
            Stage::Broadcast,
            Stage::RelayWait,
            Stage::OptDeliver,
            Stage::ToDeliver,
            Stage::Execute,
            Stage::Commit,
            Stage::Abort,
        ]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lifecycle observation.
///
/// Transaction identity is carried as raw `(origin, seq)` so the crate
/// stays below `otp-txn` in the dependency order; drivers convert their
/// `TxnId` when recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Instant of the observation: virtual time in the simulator,
    /// nanoseconds since cluster start in the threaded runtime.
    pub at: SimTime,
    /// Site that observed the stage.
    pub site: SiteId,
    /// Origin half of the transaction id.
    pub origin: SiteId,
    /// Sequence half of the transaction id.
    pub seq: u64,
    /// Ordering group (order-domain index; 0 when unsharded).
    pub group: u16,
    /// The stage reached.
    pub stage: Stage,
}

impl TraceEvent {
    /// Renders the event as one deterministic JSONL line (no trailing
    /// newline). Integer formatting only — byte-stable across runs.
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"t\":{},\"site\":{},\"txn\":\"N{}:{}\",\"group\":{},\"stage\":\"{}\"}}",
            self.at.as_nanos(),
            self.site.raw(),
            self.origin.raw(),
            self.seq,
            self.group,
            self.stage.id()
        )
    }
}

/// Receiver of trace events.
///
/// Implementations must not perturb the caller: no RNG access, no
/// panics, no observable feedback into event ordering. `record` takes
/// `&self` so one sink can be shared across driver threads. Drivers
/// represent "tracing off" as the *absence* of a sink (`Option::None`,
/// one branch on the hot path), never as a sink that drops events.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, ev: TraceEvent);
}

/// In-memory sink that keeps every event in arrival order.
///
/// The simulated cluster is single-threaded, so arrival order is the
/// deterministic event-loop order and [`MemSink::dump_jsonl`] is a
/// byte-stable artifact of the (config, seed, schedule) triple.
#[derive(Debug, Default)]
pub struct MemSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out every recorded event, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders all events as JSONL, one event per line.
    pub fn dump_jsonl(&self) -> String {
        let events = self.events.lock().expect("trace sink poisoned");
        let mut out = String::with_capacity(events.len() * 64);
        for ev in events.iter() {
            out.push_str(&ev.jsonl());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemSink {
    fn record(&self, ev: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(ev);
    }
}

/// First divergence between two trace dumps (see [`diff_traces`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// That line in the left trace (`None` = left ended first).
    pub left: Option<String>,
    /// That line in the right trace (`None` = right ended first).
    pub right: Option<String>,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traces diverge at line {}:", self.line)?;
        match &self.left {
            Some(l) => writeln!(f, "  left : {l}")?,
            None => writeln!(f, "  left : <end of trace>")?,
        }
        match &self.right {
            Some(r) => write!(f, "  right: {r}"),
            None => write!(f, "  right: <end of trace>"),
        }
    }
}

/// Compares two JSONL trace dumps line by line; returns the first
/// divergence, or `None` when they are identical. Backs the
/// `otp-lab trace-diff` binary.
pub fn diff_traces(left: &str, right: &str) -> Option<TraceDivergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some(TraceDivergence {
                    line,
                    left: a.map(str::to_owned),
                    right: b.map(str::to_owned),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(t),
            site: SiteId::new(1),
            origin: SiteId::new(0),
            seq: 7,
            group: 2,
            stage,
        }
    }

    #[test]
    fn stage_order_is_canonical() {
        let all = Stage::all();
        for w in all.windows(2) {
            assert!(w[0] < w[1], "{:?} must precede {:?}", w[0], w[1]);
            assert!(w[0].rank() < w[1].rank());
        }
        assert_eq!(all[0], Stage::AdmissionWait);
        assert_eq!(all[8], Stage::Abort);
    }

    #[test]
    fn jsonl_rendering_is_exact() {
        let line = ev(123_456, Stage::Commit).jsonl();
        assert_eq!(
            line,
            "{\"t\":123456,\"site\":1,\"txn\":\"N0:7\",\"group\":2,\"stage\":\"commit\"}"
        );
    }

    #[test]
    fn mem_sink_preserves_order_and_dumps_lines() {
        let sink = MemSink::new();
        assert!(sink.is_empty());
        sink.record(ev(5, Stage::Submit));
        sink.record(ev(9, Stage::Commit));
        assert_eq!(sink.len(), 2);
        let dump = sink.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"submit\""));
        assert!(lines[1].contains("\"stage\":\"commit\""));
    }

    #[test]
    fn diff_finds_first_divergence() {
        assert_eq!(diff_traces("a\nb\n", "a\nb\n"), None);
        let d = diff_traces("a\nb\nc\n", "a\nx\nc\n").expect("diverges");
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("x"));
    }

    #[test]
    fn diff_detects_length_mismatch() {
        let d = diff_traces("a\n", "a\nb\n").expect("diverges");
        assert_eq!(d.line, 2);
        assert_eq!(d.left, None);
        assert_eq!(d.right.as_deref(), Some("b"));
        let shown = d.to_string();
        assert!(shown.contains("line 2"));
        assert!(shown.contains("<end of trace>"));
    }
}
