//! Wall-clock soak harness over the threaded [`LiveCluster`].
//!
//! Where `perf` measures the *simulated* matrix deterministically, `soak`
//! pushes hundreds of thousands of real transactions through the threaded
//! runtime — N submitter threads against one OS thread per site — and
//! reports wall-clock throughput and commit-latency quantiles. Numbers
//! from this harness are hardware-dependent by construction: they are
//! reported **alongside** the simulated matrix and never gate CI.
//!
//! What *is* checked (and should hold on any machine): the run converges
//! (every site reaches the identical committed state), it quiesces (no
//! in-flight work lost at shutdown), and memory stays bounded (every
//! queue in the runtime is bounded and admission control backpressures
//! the submitters).

use otp_core::runtime::{LiveCluster, LiveConfig, SubmitError};
use otp_core::{EngineKind, Mode};
use otp_simnet::nemesis::{NemesisKnobs, NemesisSchedule};
use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ObjectId, Value};
use otp_telemetry::registry::MetricValue;
use otp_telemetry::MetricsSnapshot;
use otp_workload::{ClassSelection, StandardProcs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Schema version of `SOAK.json`.
pub const SOAK_SCHEMA: u64 = 1;

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Number of site threads.
    pub sites: usize,
    /// Number of conflict classes.
    pub classes: usize,
    /// Objects per class.
    pub objects_per_class: u64,
    /// Total transactions to submit (across all submitters).
    pub txns: u64,
    /// Broadcast engine.
    pub engine: EngineKind,
    /// Processing mode.
    pub mode: Mode,
    /// Class-selection skew of the offered load.
    pub selection: ClassSelection,
    /// Stored-procedure execution time.
    pub exec_time: Duration,
    /// Base one-way network delay.
    pub net_delay: Duration,
    /// Uniform network jitter (0..jitter).
    pub net_jitter: Duration,
    /// Number of OS threads submitting transactions.
    pub submitters: usize,
    /// Admission window (transactions in flight before `submit` blocks).
    pub max_in_flight: usize,
    /// Site channel capacity.
    pub site_queue: usize,
    /// Adaptive drain bound per receive-batch.
    pub drain_limit: usize,
    /// Completion deadline handed to [`LiveCluster::shutdown`] (shutdown
    /// returns as soon as the system quiesces, so a generous value costs
    /// nothing on a healthy run).
    pub deadline: Duration,
    /// Master seed (jitter, class selection).
    pub seed: u64,
    /// Fault plan injected while the submitters run (`None` = fault-free
    /// soak). The intensity's knob preset generates a survivable
    /// [`NemesisSchedule`] over [`SoakConfig::nemesis_horizon`] from the
    /// master seed, delivered by [`LiveCluster::inject_nemesis`].
    pub nemesis: Option<SoakNemesis>,
    /// Wall-clock window the fault plan is spread over (maps 1 ns : 1 ns
    /// from the schedule's virtual times).
    pub nemesis_horizon: Duration,
    /// Interval between periodic metrics-registry snapshots taken while
    /// the submitters run (`None` = no sampling). When enabled, one final
    /// post-shutdown snapshot is always appended — it is the only one
    /// guaranteed to exist on a run shorter than the interval, and the
    /// only one that can carry `undelivered_at_stop`.
    pub snapshot_every: Option<Duration>,
}

/// Nemesis intensity of a soak run (the `--nemesis` CLI knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakNemesis {
    /// No fault windows (schedule generation control).
    Calm,
    /// One partition, one crash, one loss burst.
    Rough,
    /// Two partitions, two crashes, two loss bursts, one jitter spike.
    Hostile,
    /// The live-runtime preset: partition + crash + thread stall +
    /// channel-pressure spike (the two live-only fault kinds).
    Live,
}

impl SoakNemesis {
    /// Stable id used by the `--nemesis` flag and the JSON artifact.
    pub fn id(&self) -> &'static str {
        match self {
            SoakNemesis::Calm => "calm",
            SoakNemesis::Rough => "rough",
            SoakNemesis::Hostile => "hostile",
            SoakNemesis::Live => "live",
        }
    }

    /// Parses a `--nemesis` flag value.
    ///
    /// # Errors
    ///
    /// Returns a description naming the valid ids on unknown input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "calm" => Ok(SoakNemesis::Calm),
            "rough" => Ok(SoakNemesis::Rough),
            "hostile" => Ok(SoakNemesis::Hostile),
            "live" => Ok(SoakNemesis::Live),
            other => Err(format!("unknown nemesis {other:?} (calm|rough|hostile|live)")),
        }
    }

    fn knobs(&self) -> NemesisKnobs {
        match self {
            SoakNemesis::Calm => NemesisKnobs::calm(),
            SoakNemesis::Rough => NemesisKnobs::rough(),
            SoakNemesis::Hostile => NemesisKnobs::hostile(),
            SoakNemesis::Live => NemesisKnobs::live(),
        }
    }

    /// The schedule this intensity injects for `(seed, sites, horizon)`.
    pub fn schedule(&self, seed: u64, sites: usize, horizon: Duration) -> NemesisSchedule {
        let horizon = SimTime::from_nanos(horizon.as_nanos() as u64);
        NemesisSchedule::generate(seed, sites, horizon, &self.knobs())
    }
}

impl SoakConfig {
    /// Defaults tuned so the acceptance-scale run (8 sites × 100k txns)
    /// finishes in minutes on a laptop: optimistic engine, OTP mode,
    /// uniform classes, 100µs execution, 50µs ± 100µs network.
    pub fn new(sites: usize, classes: usize, txns: u64) -> Self {
        SoakConfig {
            sites,
            classes,
            objects_per_class: 8,
            txns,
            engine: EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) },
            mode: Mode::Otp,
            selection: ClassSelection::Uniform,
            exec_time: Duration::from_micros(100),
            net_delay: Duration::from_micros(50),
            net_jitter: Duration::from_micros(100),
            submitters: 4,
            max_in_flight: 4096,
            site_queue: 2048,
            drain_limit: 128,
            deadline: Duration::from_secs(600),
            seed: 42,
            nemesis: None,
            nemesis_horizon: Duration::from_secs(2),
            snapshot_every: Some(Duration::from_millis(500)),
        }
    }
}

/// Parses an engine name (`opt`, `optbatch`, `seq`, `seqbatch`,
/// `scramble`) into an [`EngineKind`] with real-clock-scale parameters.
pub fn parse_engine(name: &str) -> Result<EngineKind, String> {
    match name {
        "opt" => Ok(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) }),
        "optbatch" => Ok(EngineKind::OptBatched {
            consensus_timeout: SimDuration::from_millis(100),
            batch_delay: SimDuration::from_micros(500),
        }),
        "seq" => Ok(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }),
        "seqbatch" => {
            Ok(EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(500) })
        }
        "scramble" => Ok(EngineKind::Scrambled {
            agreement_delay: SimDuration::from_millis(2),
            swap_probability: 0.01,
        }),
        other => {
            Err(format!("unknown engine {other:?} (expected opt|optbatch|seq|seqbatch|scramble)"))
        }
    }
}

/// Parses a mode name (`otp`, `conservative`).
pub fn parse_mode(name: &str) -> Result<Mode, String> {
    match name {
        "otp" => Ok(Mode::Otp),
        "conservative" => Ok(Mode::Conservative),
        other => Err(format!("unknown mode {other:?} (expected otp|conservative)")),
    }
}

/// Result of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Wall-clock time from first submission to full shutdown.
    pub wall: Duration,
    /// Transactions admitted (equals the configured count — `submit`
    /// blocks rather than drops).
    pub accepted: u64,
    /// Commit events across all sites (`accepted × sites` when quiesced).
    pub committed_total: u64,
    /// Origin commits per wall-clock second.
    pub throughput_per_sec: f64,
    /// Median submit→origin-commit latency.
    pub p50_commit: Duration,
    /// Tail submit→origin-commit latency.
    pub p99_commit: Duration,
    /// Mean submit→origin-commit latency.
    pub mean_commit: Duration,
    /// Optimistic executions aborted (transient, re-executed) — summed
    /// over all replicas.
    pub aborts: u64,
    /// Times a submitter was pushed back (window or queue full).
    pub backpressure_events: u64,
    /// All sites reached the identical committed state.
    pub converged: bool,
    /// Shutdown drained to provable idleness (no wire lost).
    pub quiesced: bool,
    /// Periodic registry snapshots (see [`SoakConfig::snapshot_every`]),
    /// in sample order; the last one is the post-shutdown snapshot.
    pub snapshots: Vec<SoakSnapshot>,
}

/// One point-in-time view of the runtime's metrics registry during a
/// soak run.
#[derive(Debug, Clone)]
pub struct SoakSnapshot {
    /// Wall-clock offset from the first submission (the scheduled sample
    /// time for periodic samples, the measured run length for the final
    /// post-shutdown one).
    pub at: Duration,
    /// Every registered metric at that instant.
    pub metrics: MetricsSnapshot,
}

/// Runs one soak: `cfg.submitters` threads drive `cfg.txns` transactions
/// through a [`LiveCluster`], then shutdown drains and the report is
/// reduced to a [`SoakOutcome`].
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let (registry, procs) = StandardProcs::registry();
    let mut initial = Vec::new();
    for c in 0..cfg.classes as u32 {
        for k in 0..cfg.objects_per_class {
            initial.push((ObjectId::new(c, k), Value::Int(1000)));
        }
    }
    let mut live = LiveConfig::new(cfg.sites, cfg.classes)
        .with_engine(cfg.engine)
        .with_mode(cfg.mode)
        .with_exec_time(cfg.exec_time)
        .with_seed(cfg.seed);
    live.net_delay = cfg.net_delay;
    live.net_jitter = cfg.net_jitter;
    live.max_in_flight = cfg.max_in_flight;
    live.site_queue = cfg.site_queue;
    live.drain_limit = cfg.drain_limit;
    let cluster = LiveCluster::start(live, registry, initial);
    let nemesis = cfg
        .nemesis
        .map(|n| cluster.inject_nemesis(&n.schedule(cfg.seed, cfg.sites, cfg.nemesis_horizon)));

    let t0 = Instant::now();
    let submitters = cfg.submitters.max(1);
    let sampling = AtomicBool::new(true);
    let snapshots = Mutex::new(Vec::new());
    std::thread::scope(|outer| {
        // The sampler rides in the outer scope so it keeps observing the
        // registry while the fault plan finishes draining, after the
        // submitters are already joined.
        if let Some(every) = cfg.snapshot_every {
            let metrics = cluster.metrics();
            let (sampling, snapshots) = (&sampling, &snapshots);
            outer.spawn(move || {
                let mut next = every;
                while sampling.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(5).min(every));
                    if t0.elapsed() >= next {
                        snapshots
                            .lock()
                            .expect("soak snapshots poisoned")
                            .push(SoakSnapshot { at: next, metrics: metrics.snapshot() });
                        next += every;
                    }
                }
            });
        }
        std::thread::scope(|s| {
            for t in 0..submitters {
                let cluster = &cluster;
                let sampler = cfg.selection.sampler(cfg.classes);
                let mut rng = SimRng::seed_from(cfg.seed ^ (0x50a4_0000 + t as u64));
                s.spawn(move || {
                    // Submitter t drives global indices t, t+S, t+2S, …
                    let mut i = t as u64;
                    while i < cfg.txns {
                        let site = SiteId::new((i % cfg.sites as u64) as u16);
                        let class = sampler.pick(&mut rng);
                        let key = rng.uniform_range(0, cfg.objects_per_class) as i64;
                        let delta = 1 + rng.uniform_range(0, 10) as i64;
                        match cluster.submit(
                            site,
                            class,
                            procs.add,
                            vec![Value::Int(key), Value::Int(delta)],
                        ) {
                            Ok(_) => i += submitters as u64,
                            Err(SubmitError::ShuttingDown) => break,
                            Err(e) => unreachable!("submit blocks on backpressure: {e}"),
                        }
                    }
                });
            }
        });
        // Let the fault plan run to its quiescent point even if the
        // submitters finished early — shutdown must not race a live cut.
        if let Some(n) = nemesis {
            n.join();
        }
        sampling.store(false, Ordering::Release);
    });
    let backpressure_events = cluster.backpressure_events();
    let metrics = cluster.metrics();
    let report = cluster.shutdown(cfg.deadline);
    let wall = t0.elapsed();
    let mut snapshots = snapshots.into_inner().expect("soak snapshots poisoned");
    if cfg.snapshot_every.is_some() {
        // The post-shutdown snapshot: quiescent totals, and the only
        // sample that can carry `undelivered_at_stop`.
        snapshots.push(SoakSnapshot { at: wall, metrics: metrics.snapshot() });
    }

    let mut hist = report.commit_latency;
    let to_wall = |d: SimDuration| Duration::from_nanos(d.as_nanos());
    SoakOutcome {
        wall,
        accepted: report.accepted,
        committed_total: report.committed_total,
        throughput_per_sec: report.accepted as f64 / wall.as_secs_f64().max(f64::EPSILON),
        p50_commit: to_wall(hist.quantile(0.50)),
        p99_commit: to_wall(hist.quantile(0.99)),
        mean_commit: to_wall(hist.mean()),
        aborts: report.counters.get("abort"),
        backpressure_events,
        converged: report.converged,
        quiesced: report.quiesced,
        snapshots,
    }
}

/// Renders the machine-readable `SOAK.json` document (artifact shape,
/// mirroring the wall-clock side files of the perf harness: recorded,
/// uploaded, never gated).
pub fn soak_report_json(cfg: &SoakConfig, outcome: &SoakOutcome) -> Json {
    let engine = match cfg.engine {
        EngineKind::Opt { .. } => "opt",
        EngineKind::OptBatched { .. } => "optbatch",
        EngineKind::SequencerBatched { order_delay } if order_delay == SimDuration::ZERO => "seq",
        EngineKind::SequencerBatched { .. } => "seqbatch",
        EngineKind::Scrambled { .. } => "scramble",
    };
    let mode = match cfg.mode {
        Mode::Otp => "otp",
        Mode::Conservative => "conservative",
    };
    Json::Obj(vec![
        ("schema".into(), Json::int(SOAK_SCHEMA)),
        ("tool".into(), Json::Str("otp-bench soak".into())),
        (
            "config".into(),
            Json::Obj(vec![
                ("sites".into(), Json::int(cfg.sites as u64)),
                ("classes".into(), Json::int(cfg.classes as u64)),
                ("txns".into(), Json::int(cfg.txns)),
                ("engine".into(), Json::Str(engine.into())),
                ("mode".into(), Json::Str(mode.into())),
                ("submitters".into(), Json::int(cfg.submitters as u64)),
                ("exec_time_us".into(), Json::int(cfg.exec_time.as_micros() as u64)),
                ("net_delay_us".into(), Json::int(cfg.net_delay.as_micros() as u64)),
                ("net_jitter_us".into(), Json::int(cfg.net_jitter.as_micros() as u64)),
                ("max_in_flight".into(), Json::int(cfg.max_in_flight as u64)),
                ("site_queue".into(), Json::int(cfg.site_queue as u64)),
                ("drain_limit".into(), Json::int(cfg.drain_limit as u64)),
                ("seed".into(), Json::int(cfg.seed)),
                ("nemesis".into(), Json::Str(cfg.nemesis.map(|n| n.id()).unwrap_or("none").into())),
                ("nemesis_horizon_ms".into(), Json::int(cfg.nemesis_horizon.as_millis() as u64)),
                (
                    "snapshot_every_ms".into(),
                    Json::int(cfg.snapshot_every.map_or(0, |d| d.as_millis() as u64)),
                ),
            ]),
        ),
        (
            "results".into(),
            Json::Obj(vec![
                ("wall_seconds".into(), Json::fixed(outcome.wall.as_secs_f64(), 3)),
                ("accepted".into(), Json::int(outcome.accepted)),
                ("committed_total".into(), Json::int(outcome.committed_total)),
                ("throughput_per_sec".into(), Json::fixed(outcome.throughput_per_sec, 1)),
                ("p50_commit_ns".into(), Json::int(outcome.p50_commit.as_nanos() as u64)),
                ("p99_commit_ns".into(), Json::int(outcome.p99_commit.as_nanos() as u64)),
                ("mean_commit_ns".into(), Json::int(outcome.mean_commit.as_nanos() as u64)),
                ("aborts".into(), Json::int(outcome.aborts)),
                ("backpressure_events".into(), Json::int(outcome.backpressure_events)),
                ("converged".into(), Json::Bool(outcome.converged)),
                ("quiesced".into(), Json::Bool(outcome.quiesced)),
            ]),
        ),
        (
            "snapshots".into(),
            Json::Arr(
                outcome
                    .snapshots
                    .iter()
                    .map(|s| {
                        let metrics = s
                            .metrics
                            .entries
                            .iter()
                            .map(|(k, v)| {
                                let v = match v {
                                    MetricValue::Counter(c) => Json::Num(c.to_string()),
                                    MetricValue::Gauge(g) => Json::Num(g.to_string()),
                                };
                                (k.to_string(), v)
                            })
                            .collect();
                        Json::Obj(vec![
                            ("t_ms".into(), Json::int(s.at.as_millis() as u64)),
                            ("metrics".into(), Json::Obj(metrics)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One-paragraph human summary of a soak outcome.
pub fn summarize(outcome: &SoakOutcome) -> String {
    format!(
        "{} txns in {:.2?}: {:.0} txn/s, commit latency p50 {:.2?} / p99 {:.2?} \
         (mean {:.2?}), {} aborts (transient), {} backpressure events, \
         converged={}, quiesced={}",
        outcome.accepted,
        outcome.wall,
        outcome.throughput_per_sec,
        outcome.p50_commit,
        outcome.p99_commit,
        outcome.mean_commit,
        outcome.aborts,
        outcome.backpressure_events,
        outcome.converged,
        outcome.quiesced,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_telemetry::Scope;

    /// Tier-1 smoke: a tiny soak completes, converges and quiesces.
    #[test]
    fn mini_soak_converges() {
        let mut cfg = SoakConfig::new(3, 2, 300);
        cfg.exec_time = Duration::from_micros(50);
        cfg.submitters = 2;
        let outcome = run_soak(&cfg);
        assert_eq!(outcome.accepted, 300);
        assert!(outcome.converged);
        assert!(outcome.quiesced);
        assert_eq!(outcome.committed_total, 300 * 3);
        assert!(outcome.throughput_per_sec > 0.0);
        // Sampling is on by default: however short the run, the final
        // post-shutdown snapshot exists and carries the quiescent totals.
        let last = outcome.snapshots.last().expect("post-shutdown snapshot");
        assert_eq!(last.metrics.get("accepted", Scope::global()), Some(300));
        assert_eq!(last.metrics.get("committed_total", Scope::global()), Some(900));
        assert_eq!(last.metrics.get("in_flight", Scope::global()), Some(0));
        let json = soak_report_json(&cfg, &outcome);
        assert_eq!(json.get("schema").and_then(Json::as_f64), Some(1.0));
        let snaps = json.get("snapshots").and_then(Json::as_arr).expect("snapshots key");
        assert_eq!(snaps.len(), outcome.snapshots.len());
        assert!(json.to_pretty().contains("\"committed_total\": 900"));
        // The artifact names each engine by its command-line name; a zero
        // order window is the plain sequencer, `seq`.
        for name in ["opt", "optbatch", "seq", "seqbatch", "scramble"] {
            let cfg = SoakConfig { engine: parse_engine(name).unwrap(), ..cfg.clone() };
            let rendered = soak_report_json(&cfg, &outcome).to_pretty();
            assert!(rendered.contains(&format!("\"engine\": \"{name}\"")), "{rendered}");
        }

        // Sampling off: no snapshots, no rows in the artifact.
        cfg.snapshot_every = None;
        let outcome = run_soak(&cfg);
        assert!(outcome.snapshots.is_empty());
        let json = soak_report_json(&cfg, &outcome);
        assert_eq!(json.get("snapshots").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }

    /// A nemesis-flavored soak still meets the correctness obligations:
    /// every admitted transaction commits everywhere once the faults heal.
    #[test]
    fn mini_soak_survives_live_nemesis() {
        let mut cfg = SoakConfig::new(4, 2, 400);
        cfg.exec_time = Duration::from_micros(50);
        cfg.submitters = 2;
        cfg.nemesis = Some(SoakNemesis::Live);
        cfg.nemesis_horizon = Duration::from_millis(300);
        let outcome = run_soak(&cfg);
        assert_eq!(outcome.accepted, 400);
        assert!(outcome.converged, "sites diverged under nemesis");
        assert!(outcome.quiesced, "shutdown failed to quiesce after heal");
        assert_eq!(outcome.committed_total, 400 * 4);
        let json = soak_report_json(&cfg, &outcome);
        let rendered = json.to_pretty();
        assert!(rendered.contains("\"nemesis\": \"live\""), "{rendered}");
    }
}
