//! Threaded (wall-clock) runtime — the library outside the simulator.
//!
//! [`LiveCluster`] runs one OS thread per site and no other: the site
//! threads *are* the network. Each thread hosts the same engine + replica
//! state machines the simulator drives, fed from a *bounded* crossbeam
//! channel. A wire leaves its sender stamped with the instant it is due
//! (a configurable real-time delay plus jitter, so spontaneous order — and
//! its violations — happen for real) and goes straight into its
//! destination's channel; the destination keeps it in the heap it also
//! keeps its timers in until that instant. Stored-procedure "execution
//! time" is modeled the same way as in the simulator: effects apply at
//! submission, the completion fires after the configured delay.
//!
//! Each site thread runs the site layer the simulated [`crate::Cluster`]
//! runs (`site.rs`): the same engine factory over [`EngineKind`],
//! the same replica over [`Mode`], and the same code handing deliveries to
//! the replica and tracing lifecycle stages — so the one deep copy per
//! transaction happens at Opt-delivery, exactly as in the simulator. This
//! file supplies only the thread's side of `SiteEffects` (wires to the
//! peers' channels; wires, timers and executions on a wall-clock heap;
//! commit counters). Every wire that comes due in one pass over the heap
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
//! own heap and retry after a small backoff, and every site thread keeps
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
//! This runtime exists to demonstrate that nothing in `otp-core` depends
//! on virtual time: the state machines and the site layer feeding them
//! are the simulator's own code, and wall time reaches that code only
//! through `SiteEffects::now`. For experiments use the simulator — it is
//! deterministic and much faster. For wall-clock scale numbers,
//! `otp-bench soak` drives this runtime.
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
use crate::event::ExecToken;
use crate::invariants::{InvariantReport, RunHistories};
use crate::replica::Replica;
use crate::site::{record_stage, replicas, DomainSlot, EngineFactory, Site, SiteEffects, SiteNode};
use otp_broadcast::{OrderDomain, TimerToken, Wire};
use otp_simnet::metrics::{Counters, Histogram};
use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, Database, ObjectId, ProcId, ProcRegistry, TxnIndex, Value};
use otp_telemetry::{Counter, Gauge, MetricsRegistry, Scope, Stage, TraceSink};
use otp_txn::history::HistoryLog;
use otp_txn::txn::{TxnId, TxnRequest};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a site thread sleeps in `recv_timeout` with nothing due —
/// bounds how fast it notices the stop flag and control messages.
const IDLE_TICK: Duration = Duration::from_millis(20);
/// Retry delay of a wire whose destination queue was full (a site thread
/// never blocks on a peer).
const FULL_RETRY: Duration = Duration::from_micros(500);
/// Backoff of the blocking [`LiveCluster::submit`] under backpressure.
const SUBMIT_RETRY: Duration = Duration::from_micros(100);
/// Pause a site thread inserts between drains while a pressure spike is
/// active (on top of the shrunken drain budget), so its bounded queue
/// actually saturates instead of the smaller batches just running hotter.
const PRESSURE_PAUSE: Duration = Duration::from_micros(200);
/// Delivery stagger between wires released from a healed cut — the
/// real-clock analogue of the simulator's staggered post-heal replay.
const RELEASE_STAGGER: Duration = Duration::from_micros(50);

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

enum SiteMsg {
    /// A wire in transit, to be delivered at `due`.
    Wire {
        due: Instant,
        from: SiteId,
        wire: Wire<TxnPayload>,
    },
    Submit {
        request: TxnRequest,
    },
}

/// `item`, due at `due`. Ordered by `due` alone and reversed, so a
/// `BinaryHeap` of them pops the earliest first.
struct Due<T> {
    due: Instant,
    item: T,
}

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl<T> Eq for Due<T> {}
impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap
    }
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
}

/// Dynamic fault state shared by the cluster handle, the injector thread
/// and the site threads. All of it is *topology*, not payload: wires
/// never bypass the in-flight accounting, they only get parked (still
/// counted) or delayed.
struct ChaosCtl {
    /// Active partition: `side[i]` is true for sites on the isolated
    /// group-A side. `None` when healed.
    cut: Mutex<Option<Vec<bool>>>,
    /// Per-site network isolation — the live mapping of a nemesis crash
    /// (the site thread is frozen *and* cut off; see DESIGN.md §10).
    isolated: Mutex<Vec<bool>>,
    /// Bits of the f64 loss probability (0.0 outside a burst).
    loss_bits: AtomicU64,
    /// Bits of the f64 jitter scale (1.0 baseline).
    jitter_bits: AtomicU64,
    /// Wires currently parked behind a cut or an isolation. Every parked
    /// wire is still counted in `Shared::in_flight`; shutdown treats
    /// `in_flight == held` as quiescent-modulo-undeliverable.
    held: AtomicI64,
    /// Bumped on every topology change so each site thread rescans its
    /// parked wires exactly when a release can matter.
    version: AtomicU64,
    /// Whether a cut or an isolation is in force, recomputed by `bump`:
    /// while it is false, `blocked` takes no lock.
    faulted: AtomicBool,
}

impl ChaosCtl {
    fn new(sites: usize) -> Self {
        ChaosCtl {
            cut: Mutex::new(None),
            isolated: Mutex::new(vec![false; sites]),
            loss_bits: AtomicU64::new(0f64.to_bits()),
            jitter_bits: AtomicU64::new(1f64.to_bits()),
            held: AtomicI64::new(0),
            version: AtomicU64::new(0),
            faulted: AtomicBool::new(false),
        }
    }

    /// Whether a wire from `from` to `to` must be parked right now:
    /// endpoints on opposite sides of the cut, or the destination
    /// isolated. (Wires *from* an isolated site were sent before it
    /// froze and still deliver — same as the simulator, where in-flight
    /// frames of a crashing site are not clawed back.)
    fn blocked(&self, from: SiteId, to: SiteId) -> bool {
        if !self.faulted.load(Ordering::Acquire) {
            return false;
        }
        if self.isolated.lock()[to.index()] {
            return true;
        }
        if let Some(side) = self.cut.lock().as_ref() {
            return side[from.index()] != side[to.index()];
        }
        false
    }

    fn loss(&self) -> f64 {
        f64::from_bits(self.loss_bits.load(Ordering::Acquire))
    }

    fn jitter_scale(&self) -> f64 {
        f64::from_bits(self.jitter_bits.load(Ordering::Acquire))
    }

    /// Publishes a topology change. Holding both locks (in `blocked`'s
    /// order) while storing `faulted` makes the last of racing bumps see
    /// every change made before it.
    fn bump(&self) {
        let isolated = self.isolated.lock();
        let cut = self.cut.lock();
        let faulted = cut.is_some() || isolated.iter().any(|&i| i);
        self.faulted.store(faulted, Ordering::Release);
        drop(cut);
        drop(isolated);
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

/// Control-plane message to one site thread. Deliberately *not* counted in
/// `Shared::in_flight`: control messages carry no transaction work, and a
/// stall/freeze only delays the worker's decrements — it can never skip
/// one — so the accounting invariant is untouched (DESIGN.md §10).
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
    /// Stop processing entirely until [`SiteCtrl::Thaw`] (live crash).
    Freeze,
    /// Resume processing (live recovery).
    Thaw,
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
    chaos: ChaosHandle,
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

/// Cheap clonable handle applying fault events to a running cluster: used
/// by the [`LiveCluster`] chaos methods and owned by the [`LiveNemesis`]
/// injector thread.
#[derive(Clone)]
struct ChaosHandle {
    chaos: Arc<ChaosCtl>,
    ctrl_txs: Vec<crossbeam::channel::Sender<SiteCtrl>>,
    shared: Arc<Shared>,
}

impl ChaosHandle {
    fn partition_halves(&self, group_a: &[SiteId]) {
        let sites = self.ctrl_txs.len();
        let mut side = vec![false; sites];
        for s in group_a {
            side[s.index()] = true;
        }
        *self.chaos.cut.lock() = Some(side);
        self.chaos.bump();
    }

    fn heal(&self) {
        *self.chaos.cut.lock() = None;
        self.chaos.bump();
    }

    fn crash_site(&self, site: SiteId) {
        self.chaos.isolated.lock()[site.index()] = true;
        self.chaos.bump();
        let _ = self.ctrl_txs[site.index()].send(SiteCtrl::Freeze);
    }

    fn recover_site(&self, site: SiteId) {
        self.chaos.isolated.lock()[site.index()] = false;
        self.chaos.bump();
        let _ = self.ctrl_txs[site.index()].send(SiteCtrl::Thaw);
    }

    fn set_loss(&self, p: f64) {
        self.chaos.loss_bits.store(p.clamp(0.0, 1.0).to_bits(), Ordering::Release);
    }

    fn set_jitter_scale(&self, scale: f64) {
        self.chaos.jitter_bits.store(scale.max(1.0).to_bits(), Ordering::Release);
    }

    fn stall_site(&self, site: SiteId, dur: Duration) {
        let _ = self.ctrl_txs[site.index()].send(SiteCtrl::Stall(dur));
    }

    fn pressure_site(&self, site: SiteId, drain_limit: usize, dur: Duration) {
        let _ = self.ctrl_txs[site.index()].send(SiteCtrl::Pressure { drain_limit, dur });
    }

    fn apply(&self, ev: &NemesisEvent) {
        let wall = |d: &SimDuration| Duration::from_nanos(d.as_nanos());
        match ev {
            NemesisEvent::PartitionHalves { group_a } => self.partition_halves(group_a),
            NemesisEvent::Heal => self.heal(),
            NemesisEvent::Crash { site } => self.crash_site(*site),
            NemesisEvent::Recover { site } => self.recover_site(*site),
            NemesisEvent::LossBurst { probability } => self.set_loss(*probability),
            NemesisEvent::LossEnd => self.set_loss(0.0),
            NemesisEvent::JitterSpike { scale } => self.set_jitter_scale(*scale),
            NemesisEvent::JitterEnd => self.set_jitter_scale(1.0),
            NemesisEvent::ThreadStall { site, duration } => self.stall_site(*site, wall(duration)),
            NemesisEvent::PressureSpike { site, drain_limit, duration } => {
                self.pressure_site(*site, *drain_limit, wall(duration));
            }
        }
    }
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
    chaos: Arc<ChaosCtl>,
}

impl LiveDiag {
    /// One-line snapshot of the live accounting counters.
    pub fn snapshot(&self) -> String {
        format!(
            "in_flight={} held={} accepted={} origin_committed={} committed_total={} \
             backpressure={} admissions_open={} stop={}",
            self.shared.in_flight.get(),
            self.chaos.held.load(Ordering::Acquire),
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
        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            in_flight: metrics.gauge("in_flight", Scope::global()),
            accepted: metrics.counter("accepted", Scope::global()),
            origin_committed: metrics.counter("origin_committed", Scope::global()),
            committed_total: metrics.counter("committed_total", Scope::global()),
            backpressure: metrics.counter("backpressure_events", Scope::global()),
            metrics: metrics.clone(),
        });
        let chaos = Arc::new(ChaosCtl::new(n));
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
            let engine = engines.make(&domain, &metrics, Scope::site(me).group(0));
            let worker = SiteWorker {
                node: SiteNode::new(me, 0, vec![DomainSlot::new(0, domain.clone(), engine)]),
                replica,
                trace: trace.clone(),
                io: LiveIo {
                    me,
                    cfg: config.clone(),
                    heap: BinaryHeap::new(),
                    peers: site_txs.clone(),
                    shared: shared.clone(),
                    chaos: chaos.clone(),
                    submit_times: submit_times[i].clone(),
                    latency: Histogram::new(),
                    rng: SimRng::seed_from(config.seed ^ (0x9e3779b97f4a7c15 + i as u64)),
                    stopping: false,
                    anchor,
                },
                ctrl,
                pressure: None,
                frozen: None,
                parked: Vec::new(),
                seen_version: 0,
            };
            handles.push(std::thread::spawn(move || worker.run(rx)));
        }

        LiveCluster {
            site_txs,
            handles,
            chaos: ChaosHandle { chaos, ctrl_txs, shared: shared.clone() },
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

    // ------------------------------------------------------------------
    // Real-clock nemesis: the chaos vocabulary applied to live threads.
    // See DESIGN.md §10 for what each fault maps to in the thread/channel
    // topology and why none of them can corrupt the in-flight accounting.

    /// Splits the network in two: cross-cut wires are parked at their
    /// destination (still counted in flight) until [`LiveCluster::heal`].
    pub fn partition_halves(&self, group_a: &[SiteId]) {
        self.chaos.partition_halves(group_a);
    }

    /// Removes the partition; parked cross-cut wires are released with a
    /// small delivery stagger.
    pub fn heal(&self) {
        self.chaos.heal();
    }

    /// Live mapping of a nemesis crash: freezes the site's worker thread
    /// (no processing, no timers) and isolates it on the network (inbound
    /// wires park). State is *not* lost — the threaded runtime has no
    /// state-transfer recovery; the simulator remains the oracle for that
    /// path. See DESIGN.md §10.
    pub fn crash_site(&self, site: SiteId) {
        self.chaos.crash_site(site);
    }

    /// Thaws a crashed (frozen) site and rejoins it to the network; parked
    /// inbound wires are released and the site catches up.
    pub fn recover_site(&self, site: SiteId) {
        self.chaos.recover_site(site);
    }

    /// Sets the message-loss probability (loss is modeled as retransmission
    /// delay — channels stay reliable, as in the simulator). Pass `0.0` to
    /// end the burst.
    pub fn set_loss(&self, probability: f64) {
        self.chaos.set_loss(probability);
    }

    /// Scales network jitter by `scale` (≥ 1.0) until reset to `1.0`.
    pub fn set_jitter_scale(&self, scale: f64) {
        self.chaos.set_jitter_scale(scale);
    }

    /// *(live-only fault)* Stalls `site`'s worker thread for `dur`: it
    /// sleeps mid-drain, processing nothing and firing no timers.
    pub fn stall_site(&self, site: SiteId, dur: Duration) {
        self.chaos.stall_site(site, dur);
    }

    /// *(live-only fault)* Shrinks `site`'s effective drain budget to
    /// `drain_limit` (with a pause between drains) for `dur`, so its
    /// bounded queue saturates and admission backpressure fires.
    pub fn pressure_site(&self, site: SiteId, drain_limit: usize, dur: Duration) {
        self.chaos.pressure_site(site, drain_limit, dur);
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
        let h = self.chaos.clone();
        let handle = std::thread::spawn(move || {
            let anchor = Instant::now();
            for (offset, ev) in events {
                let due = anchor + offset;
                loop {
                    if !h.shared.running.load(Ordering::Acquire) {
                        return;
                    }
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(Duration::from_millis(5)));
                }
                h.apply(&ev);
            }
        });
        LiveNemesis { handle }
    }

    /// A diagnostics handle that stays valid after
    /// [`LiveCluster::shutdown`] consumes the cluster (for watchdogs).
    pub fn diag_handle(&self) -> LiveDiag {
        LiveDiag { shared: self.shared.clone(), chaos: self.chaos.chaos.clone() }
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
            let held = self.chaos.chaos.held.load(Ordering::Acquire);
            if in_flight == held {
                quiesced = true;
                break;
            }
            if start.elapsed() >= budget {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let undelivered_at_stop = self.chaos.chaos.held.load(Ordering::Acquire).max(0) as u64;
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

/// What a site thread keeps in its heap besides channel messages.
enum Pending {
    Timer(TimerToken),
    ExecDone(ExecToken),
    /// A wire in transit: to this site (`to == me`), delivered when due;
    /// or to a peer whose queue was full, handed over again when due.
    Wire {
        to: SiteId,
        from: SiteId,
        wire: Wire<TxnPayload>,
    },
}

/// What a frozen site holds back until it is thawed (a live crash
/// processes nothing, see [`SiteCtrl::Freeze`]).
#[derive(Default)]
struct Frozen {
    /// Timers, executions and deliverable wires that came due.
    due: Vec<Due<Pending>>,
    /// Submissions that arrived, in arrival order.
    backlog: Vec<TxnRequest>,
}

/// Per-site thread state: one site node, one replica, one heap. The
/// delivery path itself is the shared site layer ([`crate::site`]); this
/// thread feeds it and carries out its effects ([`LiveIo`]).
struct SiteWorker {
    /// The site's engine and message map. The threaded runtime is
    /// unsharded: the node orders the one global domain, as group 0, and
    /// installs no views, so every engine call runs at epoch 0.
    node: SiteNode,
    replica: Replica,
    /// Lifecycle trace sink (`None` = tracing off, the default; the hot
    /// path then pays one pointer-null branch per stage point).
    trace: Option<Arc<dyn TraceSink>>,
    io: LiveIo,
    /// Nemesis control channel: stalls, pressure spikes, freeze/thaw.
    /// Control messages are *not* counted in `in_flight` — they carry no
    /// protocol work, they only delay it (see DESIGN.md §10).
    ctrl: crossbeam::channel::Receiver<SiteCtrl>,
    /// Active pressure spike: `(drain_limit, expires)`. While set, the
    /// drain batch shrinks to `drain_limit` and each iteration pauses,
    /// so the bounded inbound queue saturates and backpressure fires.
    pressure: Option<(usize, Instant)>,
    /// Set between a freeze and its thaw.
    frozen: Option<Frozen>,
    /// Inbound wires that came due behind a cut or an isolation, each
    /// counted in `ChaosCtl::held`, released when the topology changes.
    parked: Vec<(SiteId, Wire<TxnPayload>)>,
    /// The `ChaosCtl::version` the parked set was last scanned at.
    seen_version: u64,
}

/// A site thread's side of [`SiteEffects`]: wires go straight to the
/// destination's channel, engine timers, executions and wires in transit
/// into the thread's own heap, and every one of them is counted in flight
/// until it is consumed.
struct LiveIo {
    me: SiteId,
    cfg: LiveConfig,
    heap: BinaryHeap<Due<Pending>>,
    /// Every site's inbound channel, indexed by site.
    peers: Vec<crossbeam::channel::Sender<SiteMsg>>,
    shared: Arc<Shared>,
    chaos: Arc<ChaosCtl>,
    submit_times: Arc<Mutex<HashMap<u64, Instant>>>,
    latency: Histogram,
    /// Jitter and loss draws.
    rng: SimRng,
    /// Set once the stop flag is observed; engine timers stop re-arming so
    /// the teardown drain terminates.
    stopping: bool,
    /// Wall-clock zero of the trace timeline (cluster start).
    anchor: Instant,
}

/// Nanoseconds from `anchor` to `at` on the trace timeline.
fn stamp(anchor: Instant, at: Instant) -> SimTime {
    SimTime::from_nanos(
        at.saturating_duration_since(anchor).as_nanos().min(u128::from(u64::MAX)) as u64
    )
}

impl SiteWorker {
    /// This site as the shared site code sees it.
    fn site(&mut self) -> Site<'_, &mut LiveIo> {
        let trace = self.trace.as_deref();
        Site::new(&mut self.node, &mut self.replica, trace, &mut self.io)
    }

    fn run(mut self, rx: crossbeam::channel::Receiver<SiteMsg>) -> SiteOutcome {
        let cfg_limit = self.io.cfg.drain_limit.max(1);
        loop {
            self.poll_ctrl();
            if self.io.shared.stop.load(Ordering::Acquire) {
                self.drain_at_stop(&rx);
                break;
            }
            self.release_parked();
            self.deliver_due();
            let drain_limit = self.effective_drain_limit(cfg_limit);
            let timeout = self
                .io
                .heap
                .peek()
                .map(|t| t.due.saturating_duration_since(Instant::now()))
                .unwrap_or(IDLE_TICK)
                .min(IDLE_TICK);
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
        let mut counters = Counters::new();
        counters.merge(self.replica.counters());
        let (fast, slow) = self.node.domains[0].engine.decide_counts();
        counters.add("fast_decide", fast);
        counters.add("slow_decide", slow);
        SiteOutcome {
            log,
            commit_log: self.replica.commit_log().to_vec(),
            history: self.replica.take_history(),
            db,
            latency: self.io.latency,
            counters,
        }
    }

    /// Applies any queued nemesis control messages. A stall blocks
    /// *here*, inside the site's own loop — inbound wires keep queueing
    /// (and keep their in-flight units), which is exactly what a
    /// descheduled process looks like from the outside.
    fn poll_ctrl(&mut self) {
        while let Ok(msg) = self.ctrl.try_recv() {
            match msg {
                // A nested stall/pressure while frozen is meaningless;
                // swallow it (schedules never overlap windows anyway).
                SiteCtrl::Stall(_) | SiteCtrl::Pressure { .. } if self.frozen.is_some() => {}
                SiteCtrl::Stall(d) => self.stall(d),
                SiteCtrl::Pressure { drain_limit, dur } => {
                    self.pressure = Some((drain_limit.max(1), Instant::now() + dur));
                }
                SiteCtrl::Freeze => {
                    self.frozen.get_or_insert_with(Frozen::default);
                }
                // A thaw without a matching freeze is stale (recover raced
                // crash) and finds nothing to take.
                SiteCtrl::Thaw => self.thaw(),
            }
        }
    }

    /// Sleeps through a stall in small chunks so phase-2 stop still
    /// interrupts it. No timer fires and no message is processed while
    /// stalled — their work units simply wait, they are never dropped.
    fn stall(&mut self, d: Duration) {
        let until = Instant::now() + d;
        loop {
            if self.io.shared.stop.load(Ordering::Acquire) {
                return;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(IDLE_TICK));
        }
    }

    /// Ends a crash emulation: everything held back while frozen runs now,
    /// timers and deliveries through the heap, submissions in arrival
    /// order. No state was lost — the live driver models
    /// fail-stop-recover without state transfer; the simulator remains
    /// the oracle for recovery-with-state-transfer.
    fn thaw(&mut self) {
        let Some(frozen) = self.frozen.take() else { return };
        self.io.heap.extend(frozen.due);
        for request in frozen.backlog {
            self.submit(request);
        }
    }

    /// Current drain budget: the pressure spike's limit while one is
    /// active, the configured limit otherwise.
    fn effective_drain_limit(&mut self, cfg_limit: usize) -> usize {
        if let Some((limit, expires)) = self.pressure {
            if Instant::now() < expires {
                return limit;
            }
            self.pressure = None;
        }
        cfg_limit
    }

    /// Consumes one channel message: a wire joins the heap until it is
    /// due, a submission goes to the engine (or, while frozen, to the
    /// backlog).
    fn ingest(&mut self, msg: SiteMsg) {
        match msg {
            SiteMsg::Wire { due, from, wire } => {
                let to = self.io.me;
                self.io.heap.push(Due { due, item: Pending::Wire { to, from, wire } });
            }
            SiteMsg::Submit { request } => match &mut self.frozen {
                Some(frozen) => frozen.backlog.push(request),
                None => self.submit(request),
            },
        }
    }

    /// Submission and broadcast coincide here: the site thread hands the
    /// accepted request straight to its engine.
    fn submit(&mut self, request: TxnRequest) {
        self.site().submit(request);
        self.io.shared.in_flight.add(-1);
    }

    /// Hands the accumulated wires to the engine as one batch.
    fn flush(&mut self, wires: &mut Vec<(SiteId, Wire<TxnPayload>)>) {
        if wires.is_empty() {
            return;
        }
        let delivered = wires.len() as i64;
        let wires = std::mem::take(wires);
        self.site().on_group_engine(|engine, ctx| engine.on_receive_batch(ctx, wires));
        self.io.shared.in_flight.add(-delivered);
    }

    /// One pass over everything due in the heap, in due order. The fault
    /// rules apply here, at the receiver: a wire whose link is cut or
    /// whose destination is isolated is parked, a "lost" one is charged a
    /// retransmission delay. The wires left are delivered as one batch; a
    /// timer or completion in between flushes the wires before it.
    fn deliver_due(&mut self) {
        let now = Instant::now();
        let me = self.io.me;
        let mut wires = Vec::new();
        while self.io.heap.peek().is_some_and(|t| t.due <= now) {
            let Due { due, item } = self.io.heap.pop().expect("peeked");
            let item = match item {
                Pending::Wire { to, wire, .. } if to != me => {
                    self.io.hand_off(to, due, wire);
                    continue;
                }
                Pending::Wire { from, wire, .. } if self.io.chaos.blocked(from, me) => {
                    self.io.chaos.held.fetch_add(1, Ordering::AcqRel);
                    self.parked.push((from, wire));
                    continue;
                }
                Pending::Wire { to, from, wire } if self.io.lost() => {
                    // "Lost": charge a retransmission delay. The wire never
                    // leaves the accounting, same as the sim.
                    let due = now + self.io.cfg.net_delay.max(Duration::from_micros(500));
                    self.io.heap.push(Due { due, item: Pending::Wire { to, from, wire } });
                    continue;
                }
                item => item,
            };
            if let Some(frozen) = &mut self.frozen {
                frozen.due.push(Due { due, item });
                continue;
            }
            match item {
                Pending::Wire { from, wire, .. } => wires.push((from, wire)),
                Pending::Timer(token) => {
                    self.flush(&mut wires);
                    self.site().on_group_engine(|engine, ctx| engine.on_timer(ctx, token));
                    self.io.shared.in_flight.add(-1);
                }
                Pending::ExecDone(token) => {
                    self.flush(&mut wires);
                    self.site().exec_done(token);
                    self.io.shared.in_flight.add(-1);
                }
            }
        }
        self.flush(&mut wires);
    }

    /// Releases, on a topology change, every parked wire that can now
    /// cross. Staggered due instants keep a large release from landing as
    /// one burst on a just-thawed site.
    fn release_parked(&mut self) {
        let version = self.io.chaos.version.load(Ordering::Acquire);
        if version == self.seen_version {
            return;
        }
        self.seen_version = version;
        let (now, to) = (Instant::now(), self.io.me);
        let mut released = 0u32;
        for (from, wire) in std::mem::take(&mut self.parked) {
            if self.io.chaos.blocked(from, to) {
                self.parked.push((from, wire));
                continue;
            }
            self.io.chaos.held.fetch_sub(1, Ordering::AcqRel);
            let due = now + RELEASE_STAGGER * released;
            released += 1;
            self.io.heap.push(Due { due, item: Pending::Wire { to, from, wire } });
        }
    }

    /// Teardown drain: consume whatever is still queued or due without
    /// blocking. After a clean (quiesced) phase one this is a no-op; in a
    /// forced teardown it processes what is reachable so a site never
    /// exits with messages sitting in its channel. Engine timers no
    /// longer re-arm (`stopping`), so the loop terminates.
    fn drain_at_stop(&mut self, rx: &crossbeam::channel::Receiver<SiteMsg>) {
        self.io.stopping = true;
        self.thaw();
        loop {
            self.deliver_due();
            while let Ok(msg) = rx.try_recv() {
                self.ingest(msg);
            }
            let Some(next) = self.io.heap.peek().map(|t| t.due) else { break };
            std::thread::sleep(
                next.saturating_duration_since(Instant::now()).min(Duration::from_millis(1)),
            );
        }
    }
}

impl LiveIo {
    /// When a wire sent now is due: the base delay plus jitter, the jitter
    /// stretched during a jitter spike (the spread, not the base delay,
    /// mirroring the sim's scaled jitter draw).
    fn due(&mut self, now: Instant) -> Instant {
        let span = self.cfg.net_jitter;
        if span.is_zero() {
            return now + self.cfg.net_delay;
        }
        now + self.cfg.net_delay + span.mul_f64(self.chaos.jitter_scale() * self.rng.uniform_f64())
    }

    /// Whether a loss burst claims the wire being delivered (never in the
    /// teardown drain, which must terminate).
    fn lost(&mut self) -> bool {
        let loss = self.chaos.loss();
        !self.stopping && loss > 0.0 && self.rng.uniform_f64() < loss
    }

    /// Hands a wire of this site's, counted in flight by the caller, to
    /// `to`, due at `due`. A loopback wire goes straight into this site's
    /// heap. The thread never blocks on a peer: a full queue keeps the
    /// wire in this heap for another try after [`FULL_RETRY`].
    fn hand_off(&mut self, to: SiteId, due: Instant, wire: Wire<TxnPayload>) {
        let from = self.me;
        if to == from {
            self.heap.push(Due { due, item: Pending::Wire { to, from, wire } });
            return;
        }
        match self.peers[to.index()].try_send(SiteMsg::Wire { due, from, wire }) {
            Ok(()) => {}
            Err(crossbeam::channel::TrySendError::Full(SiteMsg::Wire { due, wire, .. })) => {
                let due = due.max(Instant::now() + FULL_RETRY);
                self.heap.push(Due { due, item: Pending::Wire { to, from, wire } });
            }
            Err(crossbeam::channel::TrySendError::Full(SiteMsg::Submit { .. })) => {
                unreachable!("we sent a Wire")
            }
            // The destination already exited (forced teardown): the wire
            // is lost; account for its unit.
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                self.shared.in_flight.add(-1);
            }
        }
    }

    /// Arms `what` to fire `after` from now, counted in flight until then.
    fn arm(&mut self, after: Duration, what: Pending) {
        self.shared.in_flight.add(1);
        self.heap.push(Due { due: Instant::now() + after, item: what });
    }
}

impl SiteEffects for &mut LiveIo {
    fn now(&self) -> SimTime {
        stamp(self.anchor, Instant::now())
    }

    fn multicast(&mut self, wire: Wire<TxnPayload>) {
        let n = self.cfg.sites;
        self.shared.in_flight.add(n as i64);
        let now = Instant::now();
        // Clone for all but the last destination — payloads are
        // Arc-shared, so each clone is a refcount bump.
        for to in SiteId::all(n - 1) {
            let due = self.due(now);
            self.hand_off(to, due, wire.clone());
        }
        let due = self.due(now);
        self.hand_off(SiteId::new((n - 1) as u16), due, wire);
    }

    fn send(&mut self, to: SiteId, wire: Wire<TxnPayload>) {
        self.shared.in_flight.add(1);
        let due = self.due(Instant::now());
        self.hand_off(to, due, wire);
    }

    fn set_timer(&mut self, token: TimerToken, delay: SimDuration) {
        if !self.stopping {
            self.arm(Duration::from_nanos(delay.as_nanos()), Pending::Timer(token));
        }
    }

    fn start_execution(&mut self, token: ExecToken) {
        self.arm(self.cfg.exec_time, Pending::ExecDone(token));
    }

    fn committed(&mut self, txn: TxnId, _output: Vec<Value>) {
        self.shared.committed_total.incr();
        if txn.origin == self.me {
            self.shared.origin_committed.incr();
            if let Some(t0) = self.submit_times.lock().remove(&txn.seq) {
                let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.latency.record(SimDuration::from_nanos(ns));
            }
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
