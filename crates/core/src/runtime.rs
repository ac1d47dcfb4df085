//! Threaded (wall-clock) runtime — the library outside the simulator.
//!
//! [`LiveCluster`] runs one OS thread per site and no other: the site
//! threads *are* the network. Each thread hosts the same engine + replica
//! state machines the simulator drives, fed from a *bounded* crossbeam
//! channel. Each thread drives one [`otp_simnet::sched::Sched`] over all
//! sites, of which only its own is local, on the wall clock: it moves the
//! scheduler's clock to now before each step. A wire leaves its sender
//! stamped with the instant it is due (the scheduler's
//! [`otp_simnet::sched::Links::Jittered`]: a configurable real-time delay
//! plus jitter, so spontaneous order — and its violations — happen for
//! real) and goes straight into its destination's channel; the
//! destination's scheduler keeps it, beside the site's timers and
//! executions, until that instant. Stored-procedure "execution time" is
//! modeled the same way as in the simulator: effects apply at submission,
//! the completion fires after the configured delay.
//!
//! Each site thread runs the site layer the simulated [`crate::Cluster`]
//! runs (`site.rs`): the same engine factory over [`EngineKind`],
//! the same replica over [`Mode`], and the same code handing deliveries to
//! the replica and tracing lifecycle stages — so the one deep copy per
//! transaction happens at Opt-delivery, exactly as in the simulator. This
//! file supplies only the thread's inputs to the site's one entry point,
//! `SiteNode::handle`, and carries out its outputs (wires to the peers'
//! channels; wires, timers and executions on the scheduler; commit
//! counters). Every wire due by now, up to the next timer or completion,
//! goes to [`otp_broadcast::AtomicBroadcast::on_receive_batch`] as one
//! batch (the real-clock analogue of the delivery quantum), and payloads
//! stay `Arc`-shared end to end.
//!
//! # Flow control and shutdown
//!
//! Every queue is bounded. [`LiveCluster::submit`] applies admission
//! control (a global in-flight-transaction window plus the site queue
//! capacity) and blocks the *caller* under overload;
//! [`LiveCluster::try_submit`] is the non-blocking variant. A site thread
//! never blocks on a peer: a full peer queue makes it keep the wire in its
//! own scheduler and retry after a small backoff, and every site thread keeps
//! draining its own channel, so the bounded channels cannot deadlock.
//!
//! Shutdown is a two-phase quiescence protocol built on exact in-flight
//! work accounting (one shared counter covering queued channel messages,
//! wires in transit wherever they wait, and armed timers): phase one
//! halts admissions and waits for the counter to hit zero — which is
//! *provable* idleness, not a heuristic commit count — and phase two stops
//! the threads, which at that point have empty queues and no timers, so no
//! wire can be lost. See DESIGN.md §9.
//!
//! # Faults
//!
//! [`LiveCluster::apply_fault`] and [`LiveCluster::inject_nemesis`] put
//! faults in force under the simulator's own rules: one
//! [`otp_simnet::Faults`] value, shared behind a lock, of which each site
//! thread's scheduler keeps a copy it refreshes when the shared version
//! moves. A cut or a down destination holds a wire (still counted in
//! flight) until it can cross; loss and jitter stretch a wire's due
//! instant; a down site is frozen, not crashed: its scheduler sets aside
//! what comes due for it until it is up, and still carries its wires to
//! the peers. See DESIGN.md §10.
//!
//! This runtime exists to demonstrate that nothing in `otp-core` depends
//! on virtual time: the state machines and the site layer feeding them
//! are the simulator's own code, and wall time reaches that code only as
//! the trace clock the thread hands each step. For experiments use the
//! simulator — it is deterministic and much faster. For wall-clock scale
//! numbers, `otp-bench soak` drives this runtime.
//!
//! # Example
//!
//! ```
//! use otp_core::runtime::{LiveCluster, LiveConfig};
//! use otp_storage::{ClassId, ObjectId, ObjectKey, ProcId, ProcRegistry, Value};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut reg = ProcRegistry::new();
//! reg.register_fn("set", |ctx, args| {
//!     ctx.write(ObjectKey::new(0), args[0].clone())?;
//!     Ok(())
//! });
//! let cluster = LiveCluster::start(
//!     LiveConfig::new(2, 1),
//!     Arc::new(reg),
//!     vec![(ObjectId::new(0, 0), Value::Int(0))],
//! );
//! cluster
//!     .submit(otp_simnet::SiteId::new(0), ClassId::new(0), ProcId::new(0),
//!             vec![Value::Int(9)])
//!     .expect("admitted");
//! let report = cluster.shutdown(Duration::from_secs(5));
//! assert_eq!(report.committed[0].len(), 1);
//! assert!(report.converged);
//! assert!(report.quiesced);
//! ```

use crate::cluster::{EngineKind, Mode, TxnPayload};
use crate::invariants::{InvariantReport, RunHistories};
use crate::replica::Replica;
use crate::site::{
    record_stage, replicas, EngineFactory, Env, SiteData, SiteNode, SiteOutputs, SiteReport,
    SiteSubmit,
};
use crossbeam::channel::TrySendError;
use otp_broadcast::{OrderDomain, Wire};
use otp_simnet::faults::{Faults, Todo};
use otp_simnet::metrics::{Counters, Histogram};
use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
use otp_simnet::sched::{Arrival, Input, Links, Output, Sched};
use otp_simnet::{DurationDist, SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, Database, ObjectId, ProcId, ProcRegistry, TxnIndex, Value};
use otp_telemetry::{Counter, Gauge, MetricsRegistry, Scope, Stage, TraceSink};
use otp_txn::history::HistoryLog;
use otp_txn::txn::{TxnId, TxnRequest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a site thread sleeps in `recv_timeout` with nothing due —
/// bounds how fast it notices the stop flag and control messages.
const IDLE_TICK: Duration = Duration::from_millis(20);
/// Retry delay of a wire whose destination queue was full (a site thread
/// never blocks on a peer).
const FULL_RETRY: SimDuration = SimDuration::from_micros(500);
/// Backoff of the blocking [`LiveCluster::submit`] under backpressure.
const SUBMIT_RETRY: Duration = Duration::from_micros(100);
/// Pause a site thread inserts between drains while a pressure spike is
/// active (on top of the shrunken drain budget), so its bounded queue
/// actually saturates instead of the smaller batches just running hotter.
const PRESSURE_PAUSE: Duration = Duration::from_micros(200);
/// Configuration of the live runtime.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of site threads.
    pub sites: usize,
    /// Number of conflict classes.
    pub classes: usize,
    /// Broadcast engine (same axis as the simulated cluster).
    pub engine: EngineKind,
    /// Processing mode (OTP or conservative baseline).
    pub mode: Mode,
    /// Base one-way message delay between sites.
    pub net_delay: Duration,
    /// Uniform jitter added on top of `net_delay` (0..jitter).
    pub net_jitter: Duration,
    /// Simulated stored-procedure execution time.
    pub exec_time: Duration,
    /// Capacity of each site's inbound channel (wires + submissions).
    pub site_queue: usize,
    /// Admission window: maximum transactions accepted but not yet
    /// committed at their origin. `submit` blocks (and `try_submit`
    /// rejects) past this. The window is checked optimistically, so
    /// concurrent submitters can overshoot it by at most their count.
    pub max_in_flight: usize,
    /// Upper bound of one adaptive channel drain: at most this many
    /// queued messages are handed to the engine as a single
    /// [`otp_broadcast::AtomicBroadcast::on_receive_batch`] call. Bounds
    /// per-batch latency; the drain never *waits* for the limit to fill.
    pub drain_limit: usize,
    /// Extra time [`LiveCluster::shutdown`] spends draining in-flight
    /// work after the caller's deadline, so admitted transactions are not
    /// dropped on the floor by a tight deadline.
    pub quiesce_grace: Duration,
    /// Seed for network jitter and the scramble oracle.
    pub seed: u64,
}

impl LiveConfig {
    /// Defaults: optimistic engine (100ms consensus patience), OTP mode,
    /// a wire due 200µs + U(0, 300µs) after it is sent, 1ms execution,
    /// 1024-deep site queues.
    pub fn new(sites: usize, classes: usize) -> Self {
        LiveConfig {
            sites,
            classes,
            engine: EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) },
            mode: Mode::Otp,
            net_delay: Duration::from_micros(200),
            net_jitter: Duration::from_micros(300),
            exec_time: Duration::from_millis(1),
            site_queue: 1024,
            max_in_flight: 1024,
            drain_limit: 128,
            quiesce_grace: Duration::from_secs(5),
            seed: 42,
        }
    }

    /// Sets the broadcast engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the processing mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the stored-procedure execution time.
    pub fn with_exec_time(mut self, d: Duration) -> Self {
        self.exec_time = d;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

pub use crate::cluster::SubmitError;

/// `d` on the scheduler's timeline.
fn sim(d: Duration) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64)
}

enum SiteMsg {
    /// A wire in transit, due at `due` on the cluster's timeline.
    Wire {
        due: SimTime,
        arrival: Arrival<Wire<TxnPayload>>,
    },
    Submit {
        request: TxnRequest,
    },
}

/// State shared between the controller and the site threads.
struct Shared {
    /// Admission gate: `submit` refuses once this flips false.
    running: AtomicBool,
    /// Phase-2 stop signal: threads exit once set (after draining).
    stop: AtomicBool,
    /// Exact count of pending work units: queued channel messages,
    /// undelivered wires wherever they wait, armed timers. The invariant is
    /// increment-before-enqueue, decrement-after-processing (with the
    /// units a message spawns counted first), so zero ⇔ the system is
    /// quiescent — no thread can produce another event. A registry gauge
    /// handle with the same `AcqRel`/`Acquire` discipline the bespoke
    /// atomic used — the quiescence argument (DESIGN.md §9) is unchanged.
    in_flight: Arc<Gauge>,
    /// Transactions admitted by `submit`/`try_submit`.
    accepted: Arc<Counter>,
    /// Admitted transactions that committed at their origin site.
    origin_committed: Arc<Counter>,
    /// Commit events across all sites.
    committed_total: Arc<Counter>,
    /// Rejections due to a full window or site queue.
    backpressure: Arc<Counter>,
    /// The registry all of the above live in, snapshotable at any
    /// instant via [`LiveCluster::metrics`] (soak harness, watchdogs).
    metrics: Arc<MetricsRegistry>,
    /// The fault rules in force (DESIGN.md §10), changed only by
    /// [`Shared::apply_fault`]. They are topology, not payload: a wire
    /// never leaves the in-flight accounting, it is only parked (still
    /// counted) or delayed.
    faults: Mutex<Faults>,
    /// Bumped, under the lock, on every change of `faults`: a site thread
    /// keeps a private copy and copies again, under the lock, when this
    /// moves, so a wire takes no lock. The lock publishes the rules; the
    /// counter only says when to read them.
    version: AtomicU64,
    /// Wires parked behind a cut or at a down site. Every parked wire is
    /// still counted in `in_flight`; shutdown treats `in_flight == held`
    /// as quiescent-modulo-undeliverable.
    held: AtomicI64,
    /// Each site thread's control channel: stalls and pressure spikes.
    ctrl: Vec<crossbeam::channel::Sender<SiteCtrl>>,
}

impl Shared {
    /// Puts one fault in force now (DESIGN.md §10). A crash or a recovery
    /// needs nothing more: a site is frozen while the faults say it is
    /// down.
    fn apply_fault(&self, ev: &NemesisEvent) {
        let todo = {
            let mut faults = self.faults.lock();
            let todo = faults.apply(ev);
            self.version.fetch_add(1, Ordering::AcqRel);
            todo
        };
        let wall = |d: SimDuration| Duration::from_nanos(d.as_nanos());
        let (site, msg) = match todo {
            Todo::Stall { site, duration } => (site, SiteCtrl::Stall(wall(duration))),
            Todo::Pressure { site, drain_limit, duration } => {
                (site, SiteCtrl::Pressure { drain_limit, dur: wall(duration) })
            }
            Todo::Nothing | Todo::Crash(_) | Todo::Recover(_) => return,
        };
        let _ = self.ctrl[site.index()].send(msg);
    }
}

/// Control-plane message to one site thread. Deliberately *not* counted in
/// `Shared::in_flight`: control messages carry no transaction work, and a
/// stall only delays the worker's decrements — it can never skip one — so
/// the accounting invariant is untouched (DESIGN.md §10).
enum SiteCtrl {
    /// Sleep mid-drain for the duration (thread stall).
    Stall(Duration),
    /// Shrink the effective drain budget and pause between drains for the
    /// duration (channel pressure spike).
    Pressure {
        /// Effective per-batch drain budget during the spike.
        drain_limit: usize,
        /// Spike length.
        dur: Duration,
    },
}

/// Final report returned by [`LiveCluster::shutdown`].
#[derive(Debug)]
pub struct LiveReport {
    /// Committed transaction ids per site, in local commit order.
    pub committed: Vec<Vec<TxnId>>,
    /// Whether all sites reached the same committed database state.
    pub converged: bool,
    /// Final database copies.
    pub dbs: Vec<Database>,
    /// Whether shutdown drained every *deliverable* work unit before
    /// stopping the threads. Wires parked behind a partition or isolation
    /// still active at shutdown are never deliverable; they are excluded
    /// from this verdict and counted in
    /// [`LiveReport::undelivered_at_stop`] instead. The run was fully
    /// lossless iff `quiesced && undelivered_at_stop == 0`.
    pub quiesced: bool,
    /// Wires still parked behind an unhealed cut or isolation when the
    /// threads stopped (zero on any run whose faults all ended).
    pub undelivered_at_stop: u64,
    /// Transactions admitted over the cluster's lifetime.
    pub accepted: u64,
    /// Commit events across all sites (`accepted × sites` when quiesced
    /// with nothing undelivered).
    pub committed_total: u64,
    /// Submit→origin-commit wall-clock latency, merged over all sites.
    pub commit_latency: Histogram,
    /// Replica protocol counters, merged over all sites.
    pub counters: Counters,
    /// Per-site committed histories (read/write sets + serialization
    /// positions) for the driver-agnostic invariant bundle, as each site
    /// recorded them.
    pub histories: Vec<HistoryLog>,
    /// Per-site commit logs with definitive indexes.
    pub commit_logs: Vec<Vec<(TxnId, TxnIndex)>>,
}

impl LiveReport {
    /// Reduces this report to the driver-agnostic [`RunHistories`] the
    /// invariant bundle consumes. All sites count as live (a live "crash"
    /// is a freeze: the thread rejoined and caught up before shutdown) and
    /// the threaded runtime installs no views, so the epoch checks pass
    /// trivially.
    pub fn run_histories(&self) -> RunHistories {
        RunHistories {
            histories: self.histories.iter().map(HistoryLog::to_vec).collect(),
            commit_logs: self.commit_logs.clone(),
            dbs: self.dbs.clone(),
            live: SiteId::all(self.dbs.len()).collect(),
            epoch_history: vec![Vec::new(); self.dbs.len()],
            site_group: vec![0; self.dbs.len()],
            txn_group: std::collections::HashMap::new(),
            cross_of: std::collections::HashMap::new(),
        }
    }

    /// Runs the same invariant bundle the simulated driver is checked
    /// against (see [`crate::invariants`]) over this run's histories.
    pub fn check_invariants(&self, probes: &[TxnId]) -> InvariantReport {
        crate::invariants::check_invariants(&self.run_histories(), probes)
    }
}

struct SiteOutcome {
    log: Vec<TxnId>,
    commit_log: Vec<(TxnId, TxnIndex)>,
    history: HistoryLog,
    db: Database,
    latency: Histogram,
    counters: Counters,
}

/// A running threaded cluster. See the [module docs](self).
pub struct LiveCluster {
    site_txs: Vec<crossbeam::channel::Sender<SiteMsg>>,
    handles: Vec<JoinHandle<SiteOutcome>>,
    shared: Arc<Shared>,
    next_seq: Mutex<Vec<u64>>,
    /// Per-origin-site submit timestamps, keyed by local sequence number.
    submit_times: Vec<Arc<Mutex<HashMap<u64, Instant>>>>,
    max_in_flight: u64,
    quiesce_grace: Duration,
    /// Lifecycle trace sink shared with the site threads; the controller
    /// records the [`Stage::AdmissionWait`] span of a blocking submit.
    trace: Option<Arc<dyn TraceSink>>,
    /// Wall-clock zero of the trace timeline.
    anchor: Instant,
}

/// A running real-clock fault injector (see
/// [`LiveCluster::inject_nemesis`]). Join it before shutdown so every
/// scheduled heal/recover has fired; an injector still running when
/// admissions halt exits without applying further events (deliberate: a
/// heal racing the shutdown accounting would be indistinguishable from a
/// lost wire).
pub struct LiveNemesis {
    handle: JoinHandle<()>,
}

impl LiveNemesis {
    /// Blocks until the whole schedule has been applied (or the injector
    /// exited early because the cluster began shutting down).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// Read-only diagnostics handle that outlives [`LiveCluster::shutdown`]
/// (which consumes the cluster) — watchdogs hold one to print the
/// accounting state of a wedged run.
#[derive(Clone)]
pub struct LiveDiag {
    shared: Arc<Shared>,
}

impl LiveDiag {
    /// One-line snapshot of the live accounting counters.
    pub fn snapshot(&self) -> String {
        format!(
            "in_flight={} held={} accepted={} origin_committed={} committed_total={} \
             backpressure={} admissions_open={} stop={}",
            self.shared.in_flight.get(),
            self.shared.held.load(Ordering::Acquire),
            self.shared.accepted.get(),
            self.shared.origin_committed.get(),
            self.shared.committed_total.get(),
            self.shared.backpressure.get(),
            self.shared.running.load(Ordering::Acquire),
            self.shared.stop.load(Ordering::Acquire),
        )
    }
}

impl LiveCluster {
    /// Spawns the site threads.
    pub fn start(
        config: LiveConfig,
        registry: Arc<ProcRegistry>,
        initial_data: Vec<(ObjectId, Value)>,
    ) -> Self {
        Self::start_traced(config, registry, initial_data, None)
    }

    /// [`LiveCluster::start`] with a lifecycle-trace sink attached. Every
    /// site thread records stage events ([`Stage`]) into `trace`;
    /// timestamps are nanoseconds since cluster start. Pass an
    /// `Arc<FlightRecorder>` to keep a bounded per-site ring (each ring
    /// has exactly one writer — its site thread — so the per-ring lock is
    /// never contended), or a `MemSink` for unbounded capture in tests.
    pub fn start_traced(
        config: LiveConfig,
        registry: Arc<ProcRegistry>,
        initial_data: Vec<(ObjectId, Value)>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        assert!(config.sites > 0, "need at least one site");
        let n = config.sites;
        let anchor = Instant::now();
        let metrics = Arc::new(MetricsRegistry::new());
        let mut site_txs = Vec::new();
        let mut site_rxs = Vec::new();
        let mut ctrl_txs = Vec::new();
        let mut ctrl_rxs = Vec::new();
        for _ in 0..n {
            let (tx, rx) = crossbeam::channel::bounded::<SiteMsg>(config.site_queue);
            site_txs.push(tx);
            site_rxs.push(rx);
            // Control plane: unbounded and outside the in-flight
            // accounting — a handful of nemesis events per run.
            let (ctx, crx) = crossbeam::channel::unbounded::<SiteCtrl>();
            ctrl_txs.push(ctx);
            ctrl_rxs.push(crx);
        }
        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            in_flight: metrics.gauge("in_flight", Scope::global()),
            accepted: metrics.counter("accepted", Scope::global()),
            origin_committed: metrics.counter("origin_committed", Scope::global()),
            committed_total: metrics.counter("committed_total", Scope::global()),
            backpressure: metrics.counter("backpressure_events", Scope::global()),
            metrics: metrics.clone(),
            faults: Mutex::new(Faults::new(n)),
            version: AtomicU64::new(0),
            held: AtomicI64::new(0),
            ctrl: ctrl_txs,
        });

        let submit_times: Vec<Arc<Mutex<HashMap<u64, Instant>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(HashMap::new()))).collect();

        // Site threads. Engines and replicas come from the site layer the
        // simulated cluster builds with; the live runtime is unsharded, so
        // every site orders the one global domain as group 0.
        let domain = OrderDomain::global(n);
        let mut engines = EngineFactory::new(config.engine, config.seed);
        let replicas = replicas(config.mode, n, config.classes, &registry, &initial_data);
        let mut handles = Vec::new();
        for (((i, rx), ctrl), replica) in
            site_rxs.into_iter().enumerate().zip(ctrl_rxs).zip(replicas)
        {
            let me = SiteId::new(i as u16);
            let links = Links::Jittered {
                sites: n,
                delay: sim(config.net_delay),
                jitter: sim(config.net_jitter),
            };
            let rng = SimRng::seed_from(config.seed ^ (0x9e3779b97f4a7c15 + i as u64));
            let worker = SiteWorker {
                me,
                node: SiteNode::new(me, 0, 1, vec![engines.slot(me, 0, domain.clone(), &metrics)]),
                replica,
                trace: trace.clone(),
                out: Vec::new(),
                sched: Sched::new(links, rng)
                    .with_work_time(DurationDist::Fixed(sim(config.exec_time)))
                    .with_local(me),
                peers: site_txs.clone(),
                shared: shared.clone(),
                submit_times: submit_times[i].clone(),
                latency: Histogram::new(),
                ctrl,
                pressure: None,
                drain_limit: config.drain_limit.max(1),
                seen_version: 0,
                stopping: false,
                anchor,
            };
            handles.push(std::thread::spawn(move || worker.run(rx)));
        }

        LiveCluster {
            site_txs,
            handles,
            shared,
            next_seq: Mutex::new(vec![0; n]),
            submit_times,
            max_in_flight: config.max_in_flight.max(1) as u64,
            quiesce_grace: config.quiesce_grace,
            trace,
            anchor,
        }
    }

    /// Submits an update transaction at `site`, blocking the caller while
    /// the admission window or the site queue is full (backpressure).
    /// Fails only once admissions are halted.
    pub fn submit(
        &self,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        mut args: Vec<Value>,
    ) -> Result<TxnId, SubmitError> {
        let mut waited_since: Option<Instant> = None;
        loop {
            match self.admit(site, class, proc, args) {
                Ok(id) => {
                    // A submit that had to block records the wait as an
                    // AdmissionWait stage, stamped at the wait's *start*
                    // (so Submit − AdmissionWait is the wait duration).
                    if let Some(t0) = waited_since {
                        let at = || stamp(self.anchor, t0);
                        record_stage(self.trace.as_deref(), at, site, 0, id, Stage::AdmissionWait);
                    }
                    return Ok(id);
                }
                Err((SubmitError::Backpressure, returned)) => {
                    args = returned;
                    waited_since.get_or_insert_with(Instant::now);
                    std::thread::sleep(SUBMIT_RETRY);
                }
                Err((e, _)) => return Err(e),
            }
        }
    }

    /// Non-blocking submission: rejects instead of waiting when the
    /// admission window or the site queue is full.
    pub fn try_submit(
        &self,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        args: Vec<Value>,
    ) -> Result<TxnId, SubmitError> {
        self.admit(site, class, proc, args).map_err(|(e, _)| e)
    }

    /// One admission attempt; returns the args on failure so the blocking
    /// path can retry without cloning.
    fn admit(
        &self,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        args: Vec<Value>,
    ) -> Result<TxnId, (SubmitError, Vec<Value>)> {
        if !self.shared.running.load(Ordering::Acquire) {
            return Err((SubmitError::ShuttingDown, args));
        }
        let accepted = self.shared.accepted.get();
        let done = self.shared.origin_committed.get();
        if accepted.saturating_sub(done) >= self.max_in_flight {
            self.shared.backpressure.incr();
            return Err((SubmitError::Backpressure, args));
        }
        let mut seqs = self.next_seq.lock();
        let seq = seqs[site.index()];
        let id = TxnId::new(site, seq);
        let request = TxnRequest::new(id, class, proc, args);
        // Timestamp before the send: the site thread may commit (and look
        // the timestamp up) before this function returns.
        self.submit_times[site.index()].lock().insert(seq, Instant::now());
        self.shared.in_flight.add(1);
        match self.site_txs[site.index()].try_send(SiteMsg::Submit { request }) {
            Ok(()) => {
                seqs[site.index()] = seq + 1;
                drop(seqs);
                self.shared.accepted.incr();
                Ok(id)
            }
            Err(e) => {
                self.shared.in_flight.add(-1);
                self.submit_times[site.index()].lock().remove(&seq);
                let (err, msg) = match e {
                    crossbeam::channel::TrySendError::Full(m) => {
                        self.shared.backpressure.incr();
                        (SubmitError::Backpressure, m)
                    }
                    crossbeam::channel::TrySendError::Disconnected(m) => {
                        (SubmitError::ShuttingDown, m)
                    }
                };
                let SiteMsg::Submit { request } = msg else { unreachable!("we sent a Submit") };
                Err((err, request.args))
            }
        }
    }

    /// Halts admissions: every subsequent `submit`/`try_submit` returns
    /// [`SubmitError::ShuttingDown`]. Already-admitted transactions keep
    /// processing; call [`LiveCluster::shutdown`] to drain and stop.
    pub fn halt_admissions(&self) {
        self.shared.running.store(false, Ordering::Release);
    }

    /// Transactions admitted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.get()
    }

    /// Submissions rejected (or blocked at least once) by backpressure.
    pub fn backpressure_events(&self) -> u64 {
        self.shared.backpressure.get()
    }

    /// Commit events across all sites so far (each transaction counts
    /// once per site that committed it). Lets harnesses wait for a
    /// workload phase to settle before injecting the next fault.
    pub fn committed_total(&self) -> u64 {
        self.shared.committed_total.get()
    }

    /// The cluster's metrics registry: every live counter and gauge
    /// (admission window, in-flight accounting, backpressure, per-site
    /// stale-epoch rejects) under one snapshotable roof. Safe to snapshot
    /// at any instant — the soak harness samples it periodically.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.shared.metrics.clone()
    }

    /// Applies one fault of the chaos vocabulary now, on the wall clock,
    /// under the simulator's rules ([`Faults`], DESIGN.md §10). A cut or a
    /// down site parks the wires it blocks (still counted in flight) until
    /// the heal or recovery releases them [`otp_simnet::sched::REPLAY_GAP`]
    /// apart. A crash freezes the site (what comes due for it waits) and
    /// loses no state — the threaded runtime has no state-transfer recovery; the
    /// simulator remains the oracle for that path. Loss is retransmission
    /// delay and a jitter spike scales the network jitter, as in the
    /// simulator. Two faults act only here: a thread stall sleeps the
    /// site's worker mid-drain, and a pressure spike shrinks its drain
    /// budget so its bounded queue saturates and admission backpressure
    /// fires.
    pub fn apply_fault(&self, ev: &NemesisEvent) {
        self.shared.apply_fault(ev);
    }

    /// Spawns the real-clock fault injector: each event of `schedule`
    /// fires at its virtual offset mapped 1:1 onto wall-clock time from
    /// *now*. Join the returned [`LiveNemesis`] before calling
    /// [`LiveCluster::shutdown`]; an injector that observes halted
    /// admissions exits without applying further events.
    pub fn inject_nemesis(&self, schedule: &NemesisSchedule) -> LiveNemesis {
        let events: Vec<(Duration, NemesisEvent)> = schedule
            .events
            .iter()
            .map(|(t, ev)| (Duration::from_nanos(t.as_nanos()), ev.clone()))
            .collect();
        let shared = self.shared.clone();
        let handle = std::thread::spawn(move || {
            let anchor = Instant::now();
            for (offset, ev) in events {
                let due = anchor + offset;
                loop {
                    if !shared.running.load(Ordering::Acquire) {
                        return;
                    }
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(Duration::from_millis(5)));
                }
                shared.apply_fault(&ev);
            }
        });
        LiveNemesis { handle }
    }

    /// A diagnostics handle that stays valid after
    /// [`LiveCluster::shutdown`] consumes the cluster (for watchdogs).
    pub fn diag_handle(&self) -> LiveDiag {
        LiveDiag { shared: self.shared.clone() }
    }

    /// Stops the cluster with a two-phase quiescence protocol and reports.
    ///
    /// Phase one halts admissions and waits for the in-flight work counter
    /// to drain: every queued message delivered, every timer fired, every
    /// admitted transaction terminated everywhere. Wires parked behind a
    /// partition or isolation still active at shutdown are *forever
    /// undeliverable* (the injector is gone; nobody will heal the cut), so
    /// they do not count against quiescence: phase one ends when
    /// `in_flight` equals the parked count, and the report carries that
    /// count as [`LiveReport::undelivered_at_stop`]. The wait is bounded
    /// by `deadline` plus the configured [`LiveConfig::quiesce_grace`] (so
    /// a tight deadline still drains admitted work instead of dropping
    /// wires). Phase two sets the stop flag and joins the threads; after a
    /// clean phase one their queues hold nothing deliverable, so nothing
    /// reachable is lost. If the budget expires with deliverable work
    /// still in flight (`quiesced: false` in the report), threads drain
    /// what they can reach and exit.
    pub fn shutdown(self, deadline: Duration) -> LiveReport {
        self.halt_admissions();
        // Phase 1: drain to quiescence-modulo-undeliverable.
        let budget = deadline.saturating_add(self.quiesce_grace);
        let start = Instant::now();
        let mut quiesced = false;
        loop {
            // Read order matters: `in_flight` first, `held` second. A wire
            // parked between the reads only delays this round (caught next
            // iteration); the reverse order could observe a release and
            // declare quiescence with deliverable wires still in the heap.
            // Releases require a heal/recover, which after halted
            // admissions only a direct caller can trigger — the injector
            // has already exited.
            let in_flight = self.shared.in_flight.get();
            let held = self.shared.held.load(Ordering::Acquire);
            if in_flight == held {
                quiesced = true;
                break;
            }
            if start.elapsed() >= budget {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let undelivered_at_stop = self.shared.held.load(Ordering::Acquire).max(0) as u64;
        // Make the verdict visible to registry consumers too (soak
        // snapshots, watchdog dumps), not just to LiveReport readers.
        self.shared
            .metrics
            .counter("undelivered_at_stop", Scope::global())
            .add(undelivered_at_stop);
        // Phase 2: stop the threads (they notice within one idle tick).
        self.shared.stop.store(true, Ordering::Release);
        let mut committed = Vec::new();
        let mut commit_logs = Vec::new();
        let mut histories = Vec::new();
        let mut dbs = Vec::new();
        let mut commit_latency = Histogram::new();
        let mut counters = Counters::new();
        for h in self.handles {
            let outcome = h.join().expect("site thread panicked");
            committed.push(outcome.log);
            commit_logs.push(outcome.commit_log);
            histories.push(outcome.history);
            dbs.push(outcome.db);
            commit_latency.merge(&outcome.latency);
            counters.merge(&outcome.counters);
        }
        // The engines' decisions, counted in the registry by every site.
        for name in ["fast_decide", "slow_decide"] {
            counters.add(name, self.shared.metrics.counter_total(name));
        }
        let converged = dbs.iter().all(|d| d.committed_state_eq(&dbs[0]));
        LiveReport {
            committed,
            converged,
            dbs,
            quiesced,
            undelivered_at_stop,
            accepted: self.shared.accepted.get(),
            committed_total: self.shared.committed_total.get(),
            commit_latency,
            counters,
            histories,
            commit_logs,
        }
    }
}

/// Per-site thread state: one site node, one replica, and one scheduler
/// ([`Sched`]) over every site, of which only this thread's is local. The
/// delivery path itself is the shared site layer ([`crate::site`]); this
/// thread feeds the scheduler from its channel on the wall clock and
/// carries the wires it sends to the peers' channels.
struct SiteWorker {
    me: SiteId,
    /// The site's engine. The threaded runtime is unsharded: the node
    /// orders the one global domain, as group 0, and installs no views, so
    /// every engine call runs at epoch 0.
    node: SiteNode,
    replica: Replica,
    /// Lifecycle trace sink (`None` = tracing off, the default; the hot
    /// path then pays one pointer-null branch per stage point).
    trace: Option<Arc<dyn TraceSink>>,
    /// The one output buffer every step of the site reuses.
    out: SiteOutputs,
    /// Timers, executions, wires until they are due and wires a full peer
    /// gave back; what came due while the site was down; the wires held
    /// at a cut or for the down site; the fault rules in force, as of
    /// `seen_version`.
    sched: Sched<SiteData>,
    /// Every site's inbound channel, indexed by site.
    peers: Vec<crossbeam::channel::Sender<SiteMsg>>,
    shared: Arc<Shared>,
    submit_times: Arc<Mutex<HashMap<u64, Instant>>>,
    latency: Histogram,
    /// Nemesis control channel: stalls and pressure spikes.
    /// Control messages are *not* counted in `in_flight` — they carry no
    /// protocol work, they only delay it (see DESIGN.md §10).
    ctrl: crossbeam::channel::Receiver<SiteCtrl>,
    /// Active pressure spike: `(drain_limit, expires)`. While set, the
    /// drain batch shrinks to `drain_limit` and each iteration pauses,
    /// so the bounded inbound queue saturates and backpressure fires.
    pressure: Option<(usize, Instant)>,
    drain_limit: usize,
    /// The `Shared::version` the scheduler's faults were copied at.
    seen_version: u64,
    /// Set once the stop flag is observed; engine timers stop re-arming so
    /// the teardown drain terminates.
    stopping: bool,
    /// Wall-clock zero of the scheduler's clock and the trace timeline
    /// (cluster start).
    anchor: Instant,
}

/// Nanoseconds from `anchor` to `at` on the trace timeline.
fn stamp(anchor: Instant, at: Instant) -> SimTime {
    SimTime::from_nanos(
        at.saturating_duration_since(anchor).as_nanos().min(u128::from(u64::MAX)) as u64
    )
}

impl SiteWorker {
    /// The wall clock on the scheduler's timeline.
    fn clock(&self) -> SimTime {
        stamp(self.anchor, Instant::now())
    }

    /// Whether the site is down: the scheduler freezes it (a live crash is
    /// a freeze, DESIGN.md §10).
    fn down(&self) -> bool {
        !self.sched.is_up(self.me)
    }

    /// One step of the shared site code ([`SiteNode::handle`]) at the wall
    /// clock, its outputs carried out by the scheduler ([`Sched::apply`]):
    /// timers and executions into the queue, wires to the peers
    /// ([`SiteWorker::carry`]), commits into the counters. `consumed` work
    /// units were spent; each output is one more (a multicast one per
    /// site), counted before it can be carried.
    fn step(&mut self, input: Input<SiteData>, consumed: usize) {
        self.sched.advance_to(self.clock());
        let now = self.sched.now();
        let env = Env { replica: &mut self.replica, trace: self.trace.as_deref(), now: &|| now };
        self.node.handle(env, input, &mut self.out);
        if self.stopping {
            self.out.retain(|o| !matches!(o, Output::Timer { .. }));
        }
        let sites = self.peers.len();
        let made: usize = (self.out.iter())
            .map(|o| match o {
                Output::Multicast { .. } => sites,
                Output::Report(_) => 0,
                _ => 1,
            })
            .sum();
        self.shared.in_flight.add(made as i64 - consumed as i64);
        let (me, shared, times, latency) =
            (self.me, &self.shared, &self.submit_times, &mut self.latency);
        self.sched.apply(me, &mut self.out, |_, _, report| match report {
            SiteReport::Committed { txn, .. } => {
                shared.committed_total.incr();
                if txn.origin == me {
                    shared.origin_committed.incr();
                    if let Some(t0) = times.lock().remove(&txn.seq) {
                        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        latency.record(SimDuration::from_nanos(ns));
                    }
                }
            }
            report => unreachable!("no view change runs live: {report:?}"),
        });
        self.carry();
    }

    /// Hands every wire waiting for another site to its receiver's
    /// channel, stamped with the instant it is due. The thread never
    /// blocks on a peer: a full queue gives the wire back, and it waits in
    /// this site's queue to be handed over again after [`FULL_RETRY`].
    fn carry(&mut self) {
        let (peers, in_flight) = (&self.peers, &self.shared.in_flight);
        self.sched.carry(FULL_RETRY, |to, due, arrival| {
            match peers[to.index()].try_send(SiteMsg::Wire { due, arrival }) {
                Ok(()) => None,
                Err(TrySendError::Full(SiteMsg::Wire { arrival, .. })) => Some(arrival),
                Err(TrySendError::Full(SiteMsg::Submit { .. })) => unreachable!("we sent a Wire"),
                // The destination already exited (forced teardown): the
                // wire is lost; account for its unit.
                Err(TrySendError::Disconnected(_)) => {
                    in_flight.add(-1);
                    None
                }
            }
        });
    }

    fn run(mut self, rx: crossbeam::channel::Receiver<SiteMsg>) -> SiteOutcome {
        loop {
            self.poll_ctrl();
            if self.shared.stop.load(Ordering::Acquire) {
                self.drain_at_stop(&rx);
                break;
            }
            self.refresh_faults();
            self.run_due();
            let next = self.sched.next_due().map(|t| t.saturating_since(self.clock()));
            let timeout =
                next.map_or(IDLE_TICK, |d| Duration::from_nanos(d.as_nanos()).min(IDLE_TICK));
            let drain_limit = self.effective_drain_limit();
            let first = match rx.recv_timeout(timeout) {
                Ok(m) => m,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            };
            // Bounded adaptive drain: take whatever is already queued (up
            // to drain_limit). Never waits for more — an idle channel
            // closes the drain immediately.
            self.ingest(first);
            for _ in 1..drain_limit {
                match rx.try_recv() {
                    Ok(m) => self.ingest(m),
                    Err(_) => break,
                }
            }
            if self.pressure.is_some() {
                // Throttle between drains so the queue actually backs up.
                std::thread::sleep(PRESSURE_PAUSE);
            }
        }
        let log = self.replica.commit_log().iter().map(|(t, _)| *t).collect();
        // Hand the final database back by value; clone at shutdown.
        let db = self.replica.db().clone();
        SiteOutcome {
            log,
            commit_log: self.replica.commit_log().to_vec(),
            history: self.replica.take_history(),
            db,
            latency: self.latency,
            counters: self.replica.counters().clone(),
        }
    }

    /// Applies any queued nemesis control messages. A stall blocks
    /// *here*, inside the site's own loop — inbound wires keep queueing
    /// (and keep their in-flight units), which is exactly what a
    /// descheduled process looks like from the outside.
    fn poll_ctrl(&mut self) {
        while let Ok(msg) = self.ctrl.try_recv() {
            match msg {
                // A nested stall/pressure while down is meaningless;
                // swallow it (schedules never overlap windows anyway).
                SiteCtrl::Stall(_) | SiteCtrl::Pressure { .. } if self.down() => {}
                SiteCtrl::Stall(d) => self.stall(d),
                SiteCtrl::Pressure { drain_limit, dur } => {
                    self.pressure = Some((drain_limit.max(1), Instant::now() + dur));
                }
            }
        }
    }

    /// Sleeps through a stall in small chunks so phase-2 stop still
    /// interrupts it. No timer fires and no message is processed while
    /// stalled — their work units simply wait, they are never dropped.
    fn stall(&mut self, d: Duration) {
        let until = Instant::now() + d;
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                return;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(IDLE_TICK));
        }
    }

    /// Current drain budget: the pressure spike's limit while one is
    /// active, the configured limit otherwise.
    fn effective_drain_limit(&mut self) -> usize {
        if let Some((limit, expires)) = self.pressure {
            if Instant::now() < expires {
                return limit;
            }
            self.pressure = None;
        }
        self.drain_limit
    }

    /// Consumes one channel message: a wire enters the queue at the
    /// instant it is due, a submission goes to the engine, or, while the
    /// site is down, into the queue to wait for it.
    fn ingest(&mut self, msg: SiteMsg) {
        match msg {
            SiteMsg::Wire { due, arrival } => self.sched.schedule_wire(due, self.me, arrival),
            SiteMsg::Submit { request } if self.down() => {
                let (at, submit) = (self.sched.now(), SiteSubmit::Request(request));
                self.sched.schedule_submit(at, self.me, submit);
            }
            SiteMsg::Submit { request } => {
                self.step(Input::Submit(SiteSubmit::Request(request)), 1);
            }
        }
    }

    /// Runs everything due by now, in due order. The wires due, up to the
    /// next timer, completion or submission, reach the engine as one batch
    /// once the scheduler has admitted them (a wire over a cut or to the
    /// down site is held); a wire a full peer gave back is carried again.
    /// While the site is down the scheduler freezes what comes due for it.
    fn run_due(&mut self) {
        let deadline = self.clock();
        let mut wires: Vec<Arrival<Wire<TxnPayload>>> = Vec::new();
        while let Some((to, input)) = self.sched.next(deadline) {
            match input {
                Input::Wires(batch) => {
                    let n = batch.len();
                    let mut kept = self.sched.admit(to, batch);
                    let held = (n - kept.len()) as i64;
                    if held > 0 {
                        self.shared.held.fetch_add(held, Ordering::AcqRel);
                    }
                    if wires.is_empty() {
                        wires = kept;
                    } else {
                        wires.append(&mut kept);
                        self.sched.recycle(kept);
                    }
                }
                input => {
                    self.flush(&mut wires);
                    self.step(input, 1);
                }
            }
        }
        self.flush(&mut wires);
        self.carry();
    }

    /// Hands the accumulated wires to the engine as one batch.
    fn flush(&mut self, wires: &mut Vec<Arrival<Wire<TxnPayload>>>) {
        if !wires.is_empty() {
            let n = wires.len();
            self.step(Input::Wires(std::mem::take(wires)), n);
        }
    }

    /// Copies the fault rules again when they changed, at the wall clock.
    /// The scheduler replays the wires a healed cut held and, once this
    /// site is up again, runs what came due while it was down and replays
    /// the wires held for it, [`otp_simnet::sched::REPLAY_GAP`] apart.
    fn refresh_faults(&mut self) {
        let version = self.shared.version.load(Ordering::Acquire);
        if version == self.seen_version {
            return;
        }
        self.seen_version = version;
        let held = self.sched.held().count() as i64;
        let faults = self.shared.faults.lock().clone();
        self.sched.advance_to(self.clock());
        self.sched.set_faults(faults);
        let released = held - self.sched.held().count() as i64;
        self.shared.held.fetch_sub(released, Ordering::AcqRel);
    }

    /// Teardown drain: consume whatever is still queued or due without
    /// blocking. After a clean (quiesced) phase one this is a no-op; in a
    /// forced teardown it processes what is reachable, a down site
    /// included, so a site never exits with messages sitting in its
    /// channel. Engine timers no longer re-arm (`stopping`), so the loop
    /// terminates.
    fn drain_at_stop(&mut self, rx: &crossbeam::channel::Receiver<SiteMsg>) {
        self.stopping = true;
        self.sched.restore(self.me);
        loop {
            self.run_due();
            while let Ok(msg) = rx.try_recv() {
                self.ingest(msg);
            }
            let Some(next) = self.sched.next_due() else { break };
            let left = next.saturating_since(self.clock()).min(SimDuration::from_millis(1));
            std::thread::sleep(Duration::from_nanos(left.as_nanos()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::{ObjectKey, ProcError};

    fn registry() -> Arc<ProcRegistry> {
        let mut reg = ProcRegistry::new();
        reg.register_fn("add", |ctx, args| {
            let (k, d) = match (args.first(), args.get(1)) {
                (Some(Value::Int(k)), Some(Value::Int(d))) => (ObjectKey::new(*k as u64), *d),
                _ => return Err(ProcError::BadArgs("add(key, delta)".into())),
            };
            let v = ctx.read(k)?.as_int().unwrap_or(0);
            ctx.write(k, Value::Int(v + d))?;
            Ok(())
        });
        Arc::new(reg)
    }

    #[test]
    fn live_cluster_commits_everywhere_in_same_order() {
        let cluster = LiveCluster::start(
            LiveConfig::new(3, 2),
            registry(),
            vec![(ObjectId::new(0, 0), Value::Int(0)), (ObjectId::new(1, 0), Value::Int(0))],
        );
        for i in 0..20u64 {
            cluster
                .submit(
                    SiteId::new((i % 3) as u16),
                    ClassId::new((i % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        }
        let report = cluster.shutdown(Duration::from_secs(30));
        assert!(report.converged, "all copies identical");
        assert!(report.quiesced, "drained before stop");
        for log in &report.committed {
            assert_eq!(log.len(), 20, "every site committed everything");
        }
        // Same-class (conflicting) commits appear in the same order at
        // every site — Lemma 4.1. Cross-class order may differ, so project
        // the logs by class: submission `i` went to site `i % 3` with class
        // `i % 2`, so TxnId{origin: s, seq: k} has class `(s + 3k) % 2`.
        let class_of = |t: &TxnId| (t.origin.raw() as u64 + 3 * t.seq) % 2;
        for class in 0..2u64 {
            let proj = |log: &Vec<TxnId>| -> Vec<TxnId> {
                log.iter().filter(|t| class_of(t) == class).copied().collect()
            };
            assert_eq!(proj(&report.committed[0]), proj(&report.committed[1]));
            assert_eq!(proj(&report.committed[1]), proj(&report.committed[2]));
        }
        // 10 adds of +1 per class.
        assert_eq!(report.dbs[0].read_committed(ObjectId::new(0, 0)), Some(&Value::Int(10)));
        // Latency samples: one per origin commit.
        assert_eq!(report.commit_latency.len(), 20);
        assert_eq!(report.accepted, 20);
        assert_eq!(report.committed_total, 60);
    }

    #[test]
    fn live_cluster_single_site() {
        let cluster = LiveCluster::start(
            LiveConfig::new(1, 1),
            registry(),
            vec![(ObjectId::new(0, 0), Value::Int(0))],
        );
        cluster
            .submit(
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(5)],
            )
            .expect("admitted");
        let report = cluster.shutdown(Duration::from_secs(10));
        assert_eq!(report.committed[0].len(), 1);
        assert_eq!(report.dbs[0].read_committed(ObjectId::new(0, 0)), Some(&Value::Int(5)));
        assert!(report.quiesced);
    }
}
