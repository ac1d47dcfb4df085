//! One chaos run: workload + nemesis + probes + invariants + fingerprint.
//!
//! [`run_cell`] is a pure function of its [`CellSpec`]: the cluster seed,
//! the nemesis schedule, the workload and the probe times all derive from
//! `spec.seed`, so two invocations produce byte-identical
//! [`CellOutcome::stats_digest`]s. On an invariant violation the outcome
//! carries a one-line [`CellOutcome::reproducer`] command.

use crate::grid::GridCell;
use otp_core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, InvariantReport};
use otp_simnet::{SimDuration, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, Value};
use otp_telemetry::FlightRecorder;
use otp_txn::txn::TxnId;
use otp_workload::StandardProcs;
use std::fmt::Write as _;
use std::sync::Arc;

/// Virtual-time window in which the nemesis may inject faults.
const CHAOS_HORIZON: SimTime = SimTime::from_millis(400);
/// First submission of the main workload.
pub(crate) const WORKLOAD_START: SimTime = SimTime::from_millis(1);
/// Inter-submission spacing of the main workload.
pub(crate) const WORKLOAD_SPACING: SimDuration = SimDuration::from_millis(4);
/// Margin after the schedule's quiescent point before liveness probes.
const PROBE_MARGIN: SimDuration = SimDuration::from_millis(250);
/// How long after the probes the run may keep processing events.
const DRAIN_BUDGET: SimDuration = SimDuration::from_secs(60);

/// A deliberate fault in the *checker* (not the system under test), used
/// to prove the violation-to-reproducer pipeline end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Adds a probe id that was never submitted: the liveness invariant
    /// must fire at every live site.
    PhantomProbe,
}

impl Sabotage {
    /// Stable id used by the `--sabotage` flag.
    pub fn id(&self) -> &'static str {
        match self {
            Sabotage::PhantomProbe => "phantom-probe",
        }
    }

    /// Parses a `--sabotage` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "phantom-probe" => Ok(Sabotage::PhantomProbe),
            other => Err(format!("unknown sabotage {other:?} (phantom-probe)")),
        }
    }
}

/// Everything one cell run depends on. Same spec → same outcome, byte for
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Master seed: drives the cluster, the workload layout and the
    /// nemesis schedule.
    pub seed: u64,
    /// Grid cell (engine × mode × intensity).
    pub cell: GridCell,
    /// Number of sites.
    pub sites: usize,
    /// Number of conflict classes.
    pub classes: usize,
    /// Number of sequencing groups the class space is sharded into
    /// (defaults to the cell's engine column: 2 for `sharded`, else 1).
    pub groups: usize,
    /// Main-workload transactions (excluding the per-site probes).
    pub txns: u64,
    /// Optional checker sabotage (see [`Sabotage`]).
    pub sabotage: Option<Sabotage>,
}

/// Default number of sites (the paper's testbed shape).
pub const DEFAULT_SITES: usize = 4;
/// Default number of conflict classes.
pub const DEFAULT_CLASSES: usize = 3;
/// Default main-workload size.
pub const DEFAULT_TXNS: u64 = 80;

impl CellSpec {
    /// A spec with the default workload shape.
    pub fn new(seed: u64, cell: GridCell) -> Self {
        CellSpec {
            seed,
            cell,
            sites: DEFAULT_SITES,
            classes: DEFAULT_CLASSES,
            groups: cell.engine.groups(),
            txns: DEFAULT_TXNS,
            sabotage: None,
        }
    }

    /// Sets the main-workload size.
    pub fn with_txns(mut self, txns: u64) -> Self {
        self.txns = txns;
        self
    }

    /// Sets the cluster shape.
    pub fn with_shape(mut self, sites: usize, classes: usize) -> Self {
        self.sites = sites;
        self.classes = classes;
        self
    }

    /// Sets the number of sequencing groups.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Arms a checker sabotage.
    pub fn with_sabotage(mut self, s: Sabotage) -> Self {
        self.sabotage = Some(s);
        self
    }

    /// The one-line command reproducing this run. Non-default workload
    /// knobs are included so the line is self-contained.
    pub fn reproducer(&self) -> String {
        let mut cmd = format!(
            "cargo run -p otp-lab --bin swarm -- --seed {} --grid-cell {}",
            self.seed,
            self.cell.id()
        );
        if self.txns != DEFAULT_TXNS {
            let _ = write!(cmd, " --txns {}", self.txns);
        }
        if self.sites != DEFAULT_SITES {
            let _ = write!(cmd, " --sites {}", self.sites);
        }
        if self.classes != DEFAULT_CLASSES {
            let _ = write!(cmd, " --classes {}", self.classes);
        }
        // A sharded run always names its group count: reproducing a
        // relay-gate violation without the sharding is meaningless.
        if self.groups != 1 {
            let _ = write!(cmd, " --groups {}", self.groups);
        }
        if let Some(s) = self.sabotage {
            let _ = write!(cmd, " --sabotage {}", s.id());
        }
        cmd
    }
}

/// The result of one cell run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The spec that produced this outcome.
    pub spec: CellSpec,
    /// The invariant bundle's verdict.
    pub report: InvariantReport,
    /// Transactions committed at their origin site.
    pub completed: u64,
    /// Aborts observed cluster-wide (OTP mismatch reschedules).
    pub aborts: u64,
    /// Events the run popped off the scheduler.
    pub events: u64,
    /// FNV-1a hash over every site's `(index, txn)` commit log, site by
    /// site ([`commit_hash`]): a moved schedule that keeps the completed
    /// and abort counts still moves this.
    pub commit_hash: u64,
    /// Canonical multi-line rendering of the run statistics; byte-identical
    /// across replays of the same spec.
    pub stats_digest: String,
    /// FNV-1a hash of [`CellOutcome::stats_digest`].
    pub fingerprint: u64,
    /// One-line command reproducing this run.
    pub reproducer: String,
    /// Flight-recorder dump: the last trace events per site as JSONL,
    /// captured only when the invariant bundle was violated (the crash
    /// context that rides along with the reproducer line).
    pub flight_dump: Option<String>,
}

impl CellOutcome {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.report.is_ok()
    }
}

/// Runs one grid cell deterministically. See the [module docs](self).
pub fn run_cell(spec: &CellSpec) -> CellOutcome {
    let schedule = spec.cell.intensity.schedule(spec.seed, spec.sites, CHAOS_HORIZON);
    run_cell_with_schedule(spec, &schedule)
}

/// Runs one grid cell against an *externally supplied* nemesis schedule
/// instead of the one `spec.cell.intensity` would generate. This is the
/// entry the cross-driver conformance harness uses: the same schedule is
/// pushed through this simulated run and through a [`crate::live`] run,
/// and both must pass the identical invariant bundle.
///
/// The outcome's [`CellOutcome::reproducer`] reproduces the *cell* (its
/// intensity-derived schedule), not a custom schedule — conformance
/// outcomes carry their own reproducer line.
pub fn run_cell_with_schedule(
    spec: &CellSpec,
    schedule: &otp_simnet::nemesis::NemesisSchedule,
) -> CellOutcome {
    let (registry, procs) = StandardProcs::registry();
    let mut initial = Vec::new();
    for c in 0..spec.classes as u32 {
        initial.push((ObjectId::new(c, 0), Value::Int(0)));
    }
    let config = ClusterConfig::new(spec.sites, spec.classes)
        .with_engine(spec.cell.engine.engine_kind())
        .with_mode(spec.cell.mode)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
        .with_delivery_quantum(spec.cell.engine.delivery_quantum())
        .with_groups(spec.groups)
        .with_seed(spec.seed);
    // Every chaos run flies with a bounded per-site trace ring; the run
    // stays deterministic (recording is pure observation) and a violated
    // run dumps its last moments next to the reproducer line.
    let recorder = Arc::new(FlightRecorder::with_default_capacity(spec.sites));
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(initial)
        .trace_sink(recorder.clone())
        .build();

    // Main workload: increments round-robined over sites and classes,
    // spread across the chaos window. A sharded run routes each update
    // to a member of its class's group and turns every 8th submission
    // into a cross-group transaction (one sub per group) so the relay
    // gate is under fire throughout the nemesis schedule.
    let sites_per_group = spec.sites / spec.groups;
    let mut t = WORKLOAD_START;
    for i in 0..spec.txns {
        if spec.groups > 1 && i % 8 == 7 {
            let parts = (0..spec.groups)
                .map(|g| (ClassId::new(g as u32), procs.add, vec![Value::Int(0), Value::Int(1)]))
                .collect();
            cluster.schedule_cross_update(t, SiteId::new((i % spec.sites as u64) as u16), parts);
        } else {
            let class = (i % spec.classes as u64) as u32;
            let site = if spec.groups > 1 {
                let g = class as usize % spec.groups;
                (g * sites_per_group + i as usize % sites_per_group) as u16
            } else {
                (i % spec.sites as u64) as u16
            };
            cluster.schedule_update(
                t,
                SiteId::new(site),
                ClassId::new(class),
                procs.add,
                vec![Value::Int(0), Value::Int(1)],
            );
        }
        t += WORKLOAD_SPACING;
    }

    cluster.schedule_nemesis(schedule);

    // Liveness probes once every fault has ended (the workload may still
    // be in flight — probes are ordinary transactions).
    let probe_at = schedule.quiet_from.max(t) + PROBE_MARGIN;
    let mut probes = Vec::new();
    for s in 0..spec.sites as u16 {
        probes.push(cluster.schedule_update(
            probe_at,
            SiteId::new(s),
            ClassId::new((s as u32) % spec.classes as u32),
            procs.add,
            vec![Value::Int(0), Value::Int(1)],
        ));
    }

    let events = cluster.run_until(probe_at + DRAIN_BUDGET);

    if let Some(Sabotage::PhantomProbe) = spec.sabotage {
        probes.push(TxnId::new(SiteId::new(0), 0xdead_beef));
    }
    let report = cluster.check_invariants(&probes);
    let stats_digest = stats_digest(&cluster);
    let fingerprint = fnv1a(stats_digest.as_bytes());
    let stats = cluster.stats();
    let flight_dump = (!report.is_ok()).then(|| recorder.dump_jsonl());
    CellOutcome {
        spec: *spec,
        report,
        completed: stats.completed,
        aborts: stats.counters.get("abort"),
        events,
        commit_hash: commit_hash(&cluster),
        stats_digest,
        fingerprint,
        reproducer: spec.reproducer(),
        flight_dump,
    }
}

/// Canonical, deterministic rendering of a finished run: stats, counters,
/// latency summaries and per-site commit-log hashes. Two runs of the same
/// [`CellSpec`] must produce byte-identical digests — the chaos swarm's
/// determinism test asserts exactly that.
pub fn stats_digest(cluster: &Cluster) -> String {
    let mut stats = cluster.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "completed={} frames={} cross_frames={}",
        stats.completed, stats.network_frames, stats.cross_group_frames
    );
    let _ = writeln!(out, "now_ns={}", stats.now.as_nanos());
    let mut counters: Vec<(String, u64)> =
        stats.counters.iter().map(|(n, v)| (n.to_string(), v)).collect();
    counters.sort();
    for (name, value) in counters {
        let _ = writeln!(out, "counter.{name}={value}");
    }
    for (label, h) in [
        ("commit", &mut stats.commit_latency),
        ("global", &mut stats.global_commit_latency),
        ("query", &mut stats.query_latency),
    ] {
        let _ = writeln!(
            out,
            "latency.{label}: n={} mean_ns={} min_ns={} p50_ns={} p99_ns={} max_ns={}",
            h.len(),
            h.mean().as_nanos(),
            h.min().as_nanos(),
            h.quantile(0.5).as_nanos(),
            h.quantile(0.99).as_nanos(),
            h.max().as_nanos(),
        );
    }
    for (i, log) in cluster.committed_ids().iter().enumerate() {
        let mut h = FNV_OFFSET;
        for id in log {
            h = fnv1a_step(h, &id.origin.raw().to_le_bytes());
            h = fnv1a_step(h, &id.seq.to_le_bytes());
        }
        let _ = writeln!(out, "site{i}: commits={} log_hash={h:016x}", log.len());
    }
    out
}

/// FNV-1a over every site's commit log, site by site: each entry's
/// definitive index, then its transaction id.
pub fn commit_hash(cluster: &Cluster) -> u64 {
    let mut h = FNV_OFFSET;
    for replica in &cluster.replicas {
        for (txn, index) in replica.commit_log() {
            h = fnv1a_step(h, &index.raw().to_le_bytes());
            h = fnv1a_step(h, &txn.origin.raw().to_le_bytes());
            h = fnv1a_step(h, &txn.seq.to_le_bytes());
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over a byte string (stable across platforms and runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{EngineChoice, Intensity};
    use otp_core::Mode;

    fn cell(engine: EngineChoice, intensity: Intensity) -> GridCell {
        GridCell { engine, mode: Mode::Otp, intensity }
    }

    #[test]
    fn calm_cell_commits_everything() {
        let spec = CellSpec::new(3, cell(EngineChoice::Opt, Intensity::Calm)).with_txns(20);
        let out = run_cell(&spec);
        assert!(out.passed(), "{}", out.report);
        assert_eq!(out.completed, 20 + DEFAULT_SITES as u64, "workload + probes");
    }

    #[test]
    fn sharded_calm_cell_commits_workload_crosses_and_probes() {
        let spec = CellSpec::new(3, cell(EngineChoice::Sharded, Intensity::Calm)).with_txns(24);
        assert_eq!(spec.groups, 2, "sharded column defaults to two groups");
        let out = run_cell(&spec);
        assert!(out.passed(), "{}", out.report);
        // 24 submissions: 3 are cross-group (i = 7, 15, 23), each worth
        // two sub-transactions, plus the 4 probes.
        assert_eq!(out.completed, 21 + 3 * 2 + 4);
        assert!(out.reproducer.contains("--groups 2"), "{}", out.reproducer);
    }

    #[test]
    fn sharded_rough_cell_survives_faults() {
        let spec = CellSpec::new(6, cell(EngineChoice::Sharded, Intensity::Rough)).with_txns(24);
        let out = run_cell(&spec);
        assert!(out.passed(), "{}", out.report);
    }

    #[test]
    fn same_spec_same_fingerprint() {
        let spec = CellSpec::new(11, cell(EngineChoice::Scramble, Intensity::Rough)).with_txns(24);
        let a = run_cell(&spec);
        let b = run_cell(&spec);
        assert_eq!(a.stats_digest, b.stats_digest, "byte-identical replay");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!((a.events, a.commit_hash), (b.events, b.commit_hash));
        assert!(a.events > 0);
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let c = cell(EngineChoice::Opt, Intensity::Rough);
        let a = run_cell(&CellSpec::new(1, c).with_txns(24));
        let b = run_cell(&CellSpec::new(2, c).with_txns(24));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.commit_hash, b.commit_hash);
    }

    #[test]
    fn phantom_probe_sabotage_fails_with_reproducer() {
        let spec = CellSpec::new(5, cell(EngineChoice::Opt, Intensity::Rough))
            .with_txns(16)
            .with_sabotage(Sabotage::PhantomProbe);
        let out = run_cell(&spec);
        assert!(!out.passed(), "sabotage must trip the liveness invariant");
        assert!(out.reproducer.contains("--seed 5"), "{}", out.reproducer);
        assert!(out.reproducer.contains("--grid-cell opt-otp-rough"), "{}", out.reproducer);
        assert!(out.reproducer.contains("--sabotage phantom-probe"), "{}", out.reproducer);
        assert!(out.reproducer.contains("--txns 16"), "{}", out.reproducer);
        assert!(!out.reproducer.contains('\n'), "single line");
    }

    #[test]
    fn reproducer_omits_defaults() {
        let spec = CellSpec::new(9, cell(EngineChoice::Seq, Intensity::Calm));
        assert_eq!(
            spec.reproducer(),
            "cargo run -p otp-lab --bin swarm -- --seed 9 --grid-cell seq-otp-calm"
        );
    }
}
