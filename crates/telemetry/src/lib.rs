//! # otp-telemetry — lifecycle tracing, metrics registry, flight recorder
//!
//! Driver-agnostic observability for the OTP stack. Three pieces, each
//! usable on its own (DESIGN.md §12 has the full architecture):
//!
//! * [`trace`] — per-transaction lifecycle [`Stage`] timestamps recorded
//!   through the [`TraceSink`] trait. The simulated cluster attaches a
//!   [`MemSink`] (deterministic, sim-time ordered); the threaded runtime
//!   attaches a [`FlightRecorder`] ring. Both drivers default to *no sink
//!   at all* — call sites guard on `Option<Arc<dyn TraceSink>>`, so the
//!   disabled hot path is a single pointer-is-none branch.
//! * [`registry`] — the unified [`MetricsRegistry`]: named, optionally
//!   site/group/epoch-scoped [`Counter`]s and [`Gauge`]s handed out as
//!   `Arc` handles. Components bump their own handle lock-free; the
//!   registry snapshots every metric at any instant in deterministic
//!   (BTreeMap) order.
//! * [`recorder`] — the [`FlightRecorder`]: last-N trace events per site
//!   in a ring, dumped as JSONL next to a chaos reproducer when an
//!   invariant trips or a watchdog fires.
//!
//! Determinism contract: recording a trace event never touches an RNG,
//! never reorders an event queue, and renders to bytes via integer
//! formatting only — so two runs of the same simulation seed produce
//! byte-identical trace dumps, and a trace is a diffable artifact
//! (`otp-lab trace-diff`).

pub mod recorder;
pub mod registry;
pub mod trace;

pub use recorder::FlightRecorder;
pub use registry::{Counter, Gauge, MetricKey, MetricsRegistry, MetricsSnapshot, Scope};
pub use trace::{diff_traces, MemSink, Stage, TraceDivergence, TraceEvent, TraceSink};
