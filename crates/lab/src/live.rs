//! The live column of the lab: cross-driver conformance runs.
//!
//! The simulator and the threaded runtime host the *same* engine/replica
//! state machines; this module proves it behaviorally. One seed generates
//! one single-fault [`NemesisSchedule`] (via [`conformance_schedule`]) and
//! one workload, and [`run_conformance`] pushes both through
//!
//! * the virtual-time [`otp_core::Cluster`] (via
//!   [`crate::runner::run_cell_with_schedule`]), and
//! * the wall-clock [`otp_core::runtime::LiveCluster`] (via
//!   [`LiveCluster::inject_nemesis`]),
//!
//! then judges both ends with the *identical* invariant bundle
//! ([`otp_core::check_invariants`]): 1-copy-serializability, uniform
//! commit order, state convergence and liveness-after-heal.
//!
//! The fault vocabulary spans both drivers' common ground (crash,
//! partition) *and* the live-only events (thread stall, channel-pressure
//! spike) the simulator deliberately ignores — for those the sim leg
//! doubles as the fault-free control.
//!
//! Live crash semantics differ from the simulator's on purpose: the live
//! driver freezes the victim's thread while the shared fault rules say it
//! is down, parking what is sent to it (fail-stop, no state loss), while
//! the simulator loses state and recovers by state transfer. Both must end in the same place — that is the point of the
//! conformance check; the simulator remains the oracle for the recovery
//! protocol itself.

use crate::grid::{EngineChoice, GridCell, Intensity};
use crate::runner::{
    run_cell_with_schedule, CellOutcome, CellSpec, DEFAULT_CLASSES, DEFAULT_SITES,
};
use otp_core::runtime::{LiveCluster, LiveConfig};
use otp_core::{InvariantReport, Mode};
use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
use otp_simnet::{SimRng, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, Value};
use otp_telemetry::FlightRecorder;
use otp_workload::StandardProcs;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual-time fault window, mapped 1 ns : 1 ns onto the wall clock by
/// the live leg (mirrors the sim runner's horizon).
const HORIZON: SimTime = SimTime::from_millis(400);
/// Wall-clock spacing between workload submissions in the live leg (same
/// value the sim runner uses in virtual time).
const SPACING: Duration = Duration::from_millis(4);
/// Wall-clock margin after the schedule's quiescent point before the
/// liveness probes go in.
const PROBE_MARGIN: Duration = Duration::from_millis(250);
/// Shutdown deadline of the live leg (the quiesce loop normally exits in
/// milliseconds; the cap only matters if something is wedged).
const LIVE_DEADLINE: Duration = Duration::from_secs(30);

/// Default live-leg workload size — smaller than the sim default because
/// the live leg pays real wall-clock pacing per transaction.
pub const DEFAULT_LIVE_TXNS: u64 = 40;

/// The single fault a conformance run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveFault {
    /// Crash + recover one site (sim: state loss + transfer; live:
    /// frozen while down, then thawed).
    Crash,
    /// Partition one site away from the majority, then heal.
    Partition,
    /// Stall one site's worker thread (live-only; sim ignores it).
    Stall,
    /// Channel-pressure spike on one site (live-only; sim ignores it).
    Pressure,
}

impl LiveFault {
    /// Stable id used by the `--live-fault` flag.
    pub fn id(&self) -> &'static str {
        match self {
            LiveFault::Crash => "crash",
            LiveFault::Partition => "partition",
            LiveFault::Stall => "stall",
            LiveFault::Pressure => "pressure",
        }
    }

    /// Parses a `--live-fault` flag value.
    ///
    /// # Errors
    ///
    /// Returns a description naming the valid ids on unknown input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "crash" => Ok(LiveFault::Crash),
            "partition" => Ok(LiveFault::Partition),
            "stall" => Ok(LiveFault::Stall),
            "pressure" => Ok(LiveFault::Pressure),
            other => Err(format!("unknown live fault {other:?} (crash|partition|stall|pressure)")),
        }
    }

    /// All fault kinds, in conformance-matrix order.
    pub fn all() -> [LiveFault; 4] {
        [LiveFault::Crash, LiveFault::Partition, LiveFault::Stall, LiveFault::Pressure]
    }
}

/// Generates the single-fault schedule a conformance run injects into
/// *both* drivers: one `fault` window with seed-jittered placement
/// (begin in 10–25 % of the horizon, duration 20–40 %), victim site drawn
/// from the same stream. Survivable by construction — the window closes
/// (recover/heal, or the one-shot's own duration runs out) and
/// `quiet_from` covers it, so post-quiescence probes must commit.
pub fn conformance_schedule(
    fault: LiveFault,
    seed: u64,
    sites: usize,
    horizon: SimTime,
) -> NemesisSchedule {
    assert!(sites > 1, "conformance needs a majority to survive the fault");
    let mut rng = SimRng::seed_from(seed ^ 0x0063_6f6e_666f_726d); // "conform"
    let span = horizon.as_nanos();
    let begin = SimTime::from_nanos(span / 10 + rng.uniform_range(0, span * 15 / 100));
    let duration = otp_simnet::SimDuration::from_nanos(span / 5 + rng.uniform_range(0, span / 5));
    let end = begin + duration;
    let site = SiteId::new(rng.uniform_range(0, sites as u64) as u16);
    let events = match fault {
        LiveFault::Crash => {
            vec![(begin, NemesisEvent::Crash { site }), (end, NemesisEvent::Recover { site })]
        }
        LiveFault::Partition => vec![
            (begin, NemesisEvent::PartitionHalves { group_a: vec![site] }),
            (end, NemesisEvent::Heal),
        ],
        LiveFault::Stall => vec![(begin, NemesisEvent::ThreadStall { site, duration })],
        LiveFault::Pressure => {
            vec![(begin, NemesisEvent::PressureSpike { site, drain_limit: 1, duration })]
        }
    };
    NemesisSchedule { events, quiet_from: end }
}

/// Everything one conformance run depends on. Same spec → same schedule
/// and same workload in both drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceSpec {
    /// Master seed: drives the schedule, victim choice and both clusters.
    pub seed: u64,
    /// The injected fault kind.
    pub fault: LiveFault,
    /// Number of sites.
    pub sites: usize,
    /// Number of conflict classes.
    pub classes: usize,
    /// Main-workload transactions (excluding per-site probes).
    pub txns: u64,
}

impl ConformanceSpec {
    /// A spec with the default shape (4 sites × 3 classes ×
    /// [`DEFAULT_LIVE_TXNS`] transactions).
    pub fn new(seed: u64, fault: LiveFault) -> Self {
        ConformanceSpec {
            seed,
            fault,
            sites: DEFAULT_SITES,
            classes: DEFAULT_CLASSES,
            txns: DEFAULT_LIVE_TXNS,
        }
    }

    /// Sets the main-workload size.
    pub fn with_txns(mut self, txns: u64) -> Self {
        self.txns = txns;
        self
    }

    /// The one-line command reproducing this run (both legs).
    pub fn reproducer(&self) -> String {
        let mut cmd = format!(
            "cargo run -p otp-lab --bin swarm -- --live-fault {} --seed {}",
            self.fault.id(),
            self.seed
        );
        if self.txns != DEFAULT_LIVE_TXNS {
            let _ = write!(cmd, " --txns {}", self.txns);
        }
        if self.sites != DEFAULT_SITES {
            let _ = write!(cmd, " --sites {}", self.sites);
        }
        if self.classes != DEFAULT_CLASSES {
            let _ = write!(cmd, " --classes {}", self.classes);
        }
        cmd
    }
}

/// Both legs' verdicts for one conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceOutcome {
    /// The spec that produced this outcome.
    pub spec: ConformanceSpec,
    /// The simulated leg (full cell outcome; its invariant report is the
    /// verdict that counts).
    pub sim: CellOutcome,
    /// The live leg's invariant verdict.
    pub live: InvariantReport,
    /// Whether the live leg's shutdown proved quiescence.
    pub live_quiesced: bool,
    /// Wires the live leg still held behind an unhealed cut at stop
    /// (zero for every conformance schedule — they all heal).
    pub live_undelivered: u64,
    /// Commit events across all live-leg sites.
    pub live_commits: u64,
    /// One-line command reproducing this run.
    pub reproducer: String,
    /// Live-leg flight-recorder dump (last trace events per site as
    /// JSONL), captured only when the run failed.
    pub live_flight: Option<String>,
}

impl ConformanceOutcome {
    /// True when both drivers passed the whole invariant bundle and the
    /// live leg shut down provably quiescent with nothing held back.
    pub fn passed(&self) -> bool {
        self.sim.passed() && self.live.is_ok() && self.live_quiesced && self.live_undelivered == 0
    }

    /// Multi-line failure description (empty string when passing).
    pub fn describe_failure(&self) -> String {
        if self.passed() {
            return String::new();
        }
        let mut out = String::new();
        if !self.sim.passed() {
            let _ = writeln!(out, "sim leg: {}", self.sim.report);
        }
        if !self.live.is_ok() {
            let _ = writeln!(out, "live leg: {}", self.live);
        }
        if !self.live_quiesced {
            let _ = writeln!(out, "live leg: shutdown did not quiesce");
        }
        if self.live_undelivered != 0 {
            let _ = writeln!(out, "live leg: {} wires held at stop", self.live_undelivered);
        }
        out
    }
}

/// Runs one conformance check: the same schedule + workload through the
/// simulator and through the threaded runtime, both judged by the
/// identical invariant bundle. See the [module docs](self).
pub fn run_conformance(spec: &ConformanceSpec) -> ConformanceOutcome {
    let schedule = conformance_schedule(spec.fault, spec.seed, spec.sites, HORIZON);

    // Sim leg. The cell's intensity is irrelevant (the schedule is
    // supplied); Calm documents that no *generated* faults ride along.
    let cell = GridCell { engine: EngineChoice::Opt, mode: Mode::Otp, intensity: Intensity::Calm };
    let sim = run_cell_with_schedule(
        &CellSpec::new(spec.seed, cell).with_shape(spec.sites, spec.classes).with_txns(spec.txns),
        &schedule,
    );

    // Live leg: same fault plan on the wall clock.
    let (registry, procs) = StandardProcs::registry();
    let mut initial = Vec::new();
    for c in 0..spec.classes as u32 {
        initial.push((ObjectId::new(c, 0), Value::Int(0)));
    }
    let config = LiveConfig::new(spec.sites, spec.classes).with_seed(spec.seed);
    // The live leg flies with a bounded per-site trace ring (each ring is
    // written only by its own site thread); a failed run carries its last
    // moments in the outcome.
    let recorder = Arc::new(FlightRecorder::with_default_capacity(spec.sites));
    let cluster = LiveCluster::start_traced(config, registry, initial, Some(recorder.clone()));
    let start = Instant::now();
    let nemesis = cluster.inject_nemesis(&schedule);

    // Same workload layout as the sim leg, paced on the wall clock. The
    // blocking submit keeps the pacing honest under a pressure spike.
    for i in 0..spec.txns {
        sleep_until(start + SPACING * i as u32);
        cluster
            .submit(
                SiteId::new((i % spec.sites as u64) as u16),
                ClassId::new((i % spec.classes as u64) as u32),
                procs.add,
                vec![Value::Int(0), Value::Int(1)],
            )
            .expect("conformance workload admitted");
    }

    // Probes once the fault plan is quiescent on the wall clock.
    sleep_until(start + Duration::from_nanos(schedule.quiet_from.as_nanos()) + PROBE_MARGIN);
    nemesis.join();
    let mut probes = Vec::new();
    for s in 0..spec.sites as u16 {
        let id = cluster
            .submit(
                SiteId::new(s),
                ClassId::new((s as u32) % spec.classes as u32),
                procs.add,
                vec![Value::Int(0), Value::Int(1)],
            )
            .expect("probe admitted");
        probes.push(id);
    }

    let report = cluster.shutdown(LIVE_DEADLINE);
    let live = report.check_invariants(&probes);
    let mut outcome = ConformanceOutcome {
        spec: *spec,
        sim,
        live,
        live_quiesced: report.quiesced,
        live_undelivered: report.undelivered_at_stop,
        live_commits: report.committed_total,
        reproducer: spec.reproducer(),
        live_flight: None,
    };
    if !outcome.passed() {
        outcome.live_flight = Some(recorder.dump_jsonl());
    }
    outcome
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_survivable() {
        for seed in 1..=20u64 {
            for fault in LiveFault::all() {
                let a = conformance_schedule(fault, seed, 4, HORIZON);
                let b = conformance_schedule(fault, seed, 4, HORIZON);
                assert_eq!(a.events, b.events, "seed {seed} {fault:?}");
                assert_eq!(a.quiet_from, b.quiet_from);
                assert!(!a.events.is_empty());
                for (t, _) in &a.events {
                    assert!(*t <= a.quiet_from, "quiet_from covers every event");
                }
                assert!(a.quiet_from < HORIZON + otp_simnet::SimDuration::from_millis(1));
            }
        }
    }

    #[test]
    fn paired_faults_open_and_close() {
        let crash = conformance_schedule(LiveFault::Crash, 7, 4, HORIZON);
        assert_eq!(crash.events.len(), 2);
        assert!(matches!(crash.events[0].1, NemesisEvent::Crash { .. }));
        assert!(matches!(crash.events[1].1, NemesisEvent::Recover { .. }));
        let cut = conformance_schedule(LiveFault::Partition, 7, 4, HORIZON);
        assert!(
            matches!(cut.events[0].1, NemesisEvent::PartitionHalves { ref group_a } if group_a.len() == 1)
        );
        assert!(matches!(cut.events[1].1, NemesisEvent::Heal));
    }

    #[test]
    fn one_shot_faults_carry_their_duration() {
        for fault in [LiveFault::Stall, LiveFault::Pressure] {
            let s = conformance_schedule(fault, 3, 4, HORIZON);
            assert_eq!(s.events.len(), 1);
            let (t, ev) = &s.events[0];
            let d = match ev {
                NemesisEvent::ThreadStall { duration, .. } => *duration,
                NemesisEvent::PressureSpike { duration, .. } => *duration,
                other => panic!("unexpected event {other:?}"),
            };
            assert!(d > otp_simnet::SimDuration::ZERO);
            assert_eq!(*t + d, s.quiet_from, "quiet_from covers the one-shot");
        }
    }

    #[test]
    fn fault_ids_round_trip() {
        for f in LiveFault::all() {
            assert_eq!(LiveFault::parse(f.id()), Ok(f));
        }
        assert!(LiveFault::parse("gamma-ray").unwrap_err().contains("unknown live fault"));
    }

    #[test]
    fn reproducer_is_one_self_contained_line() {
        let spec = ConformanceSpec::new(9, LiveFault::Stall).with_txns(12);
        let line = spec.reproducer();
        assert!(line.contains("--live-fault stall"), "{line}");
        assert!(line.contains("--seed 9"), "{line}");
        assert!(line.contains("--txns 12"), "{line}");
        assert!(!line.contains('\n'));
    }
}
