//! The simulated replicated-database cluster.
//!
//! [`Cluster`] is the top-level driver: it owns one `SimNode` and one
//! replica per site, and runs them on the one deterministic scheduler
//! ([`otp_simnet::sched::Sched`], DESIGN.md §19) over the LAN model. Client
//! requests enter as scheduled events; a site's outputs become network
//! frames, timers and executions (execution duration is sampled from a
//! configurable distribution). Queries run locally against snapshots.
//! Crashes and recoveries can be scheduled at absolute times; recovery
//! runs a view-change round ([`otp_view`]) in simulated time, restoring the
//! site from the union of every live member's state digest (see DESIGN.md
//! §7).
//!
//! A `SimNode` is the site layer's `SiteNode` — the site's engines, one
//! per order domain it belongs to, with their installed view epochs, its
//! cross-group gate, its up/crashed/recovering status and its open
//! view-change rounds — plus
//! what only the simulator keeps per site: the quantum buffer, id counters
//! and retention gauges. Engines and replicas are built, both order
//! streams' deliveries are turned into gate and replica calls and traced,
//! and both sides of a view-change round run — a member's replies, the
//! initiator's summary, floor and digest steps, supersession and the
//! install — by the site layer the threaded runtime shares (`site.rs`,
//! DESIGN.md §16), reached through its one entry point,
//! `SiteNode::handle`. The scheduler carries the site's outputs out and
//! holds its incarnations and held wires. This driver keeps what neither
//! can know: request routing, the delivery quantum, the nemesis, the
//! completion ledger, and for the view change the per-domain epoch counter
//! and order fence, the live members a round is proposed over, the crash
//! notification of every open round, the staleness check on a floor, the
//! choice of base with its floor check and the catch-up once a site's
//! last round installed.
//!
//! # Sharded sequencing groups
//!
//! With [`ClusterConfig::groups`] `> 1` the conflict-class space is
//! partitioned across `G` independent ordering groups: sites split into
//! `G` contiguous blocks, each block runs its own sequencer engine
//! instance (own `MsgId` space, own seqnos, own view epochs — an
//! [`otp_broadcast::OrderDomain`] each), and a transaction touching class
//! `c` is ordered only by group `c % G`. Transactions spanning groups go
//! through a cluster-wide *relay* stream: a descriptor carrying one
//! sub-transaction per involved group is TO-broadcast on the relay, and
//! each group inserts its sub into its own stream at the relay-dictated
//! point (each site's cross-group gate in `site.rs` enforces that point
//! deterministically), so all sites serialize cross-group transactions
//! identically without sharing a total order for everything else. See
//! DESIGN.md §11.
//!
//! The driver is deterministic: a `(ClusterConfig, schedule)` pair always
//! produces the same run. With `groups == 1` the driver is byte-identical
//! to the pre-sharding single-total-order cluster.

use crate::replica::Replica;
use crate::site::{
    is_view_wire, record_stage, EngineFactory, Env, SiteControl, SiteData, SiteNode, SiteOutputs,
    SiteReport, SiteSubmit, Status, ENGINE_COUNTERS, VIEW_COUNTERS,
};
use otp_broadcast::{GroupId, OrderDomain, PayloadSize, Wire};
use otp_simnet::faults::Todo;
use otp_simnet::metrics::{Counters, Histogram};
use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
pub use otp_simnet::rng::DurationDist;
use otp_simnet::sched::{Arrival, Group, Input, Links, Output, Sched};
use otp_simnet::{MulticastNet, NetConfig, SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, ProcId, ProcRegistry, SnapshotIndex, Value};
use otp_telemetry::{Counter, Gauge, MetricsRegistry, Scope, Stage, TraceSink};
use otp_txn::history::CommittedTxn;
use otp_txn::txn::{TxnId, TxnRequest};
use otp_view::{Membership, ViewChange, ViewId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cross-group transaction descriptor, TO-broadcast on the relay
/// stream. It carries one sub-transaction per involved group; the relay's
/// definitive order is the cluster-wide serialization point for the whole
/// cross-group transaction (each group member's cross-group gate inserts
/// the sub at exactly that point in its own stream).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossTag {
    /// Cluster-unique cross-transaction id (origin site in the high bits,
    /// a per-site counter below).
    pub cross: u64,
    /// One sub-transaction per involved group, each confined to one
    /// conflict class of that group.
    pub subs: Vec<Arc<TxnRequest>>,
}

/// The broadcast payload of the cluster's ordering streams.
///
/// Requests ride behind [`Arc`]s: a multicast fans one payload out to
/// every member, the engines keep a copy in their payload stores, and
/// recovery snapshots clone those stores wholesale — sharing one
/// allocation turns all of that into reference-count bumps. The only deep
/// copy left on the delivery path is the one hand-off to the replica at
/// Opt-delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnPayload {
    /// A transaction on a group stream.
    Txn {
        /// The client request (or a cross-group sub-transaction).
        req: Arc<TxnRequest>,
        /// `Some(cross id)` when this is a sub-transaction of a
        /// cross-group transaction: the delivering site's cross-group gate
        /// holds it until the relay order admits it.
        cross: Option<u64>,
    },
    /// A cross-group descriptor on the relay stream.
    Cross(Arc<CrossTag>),
}

impl PayloadSize for TxnPayload {
    fn size_bytes(&self) -> u32 {
        match self {
            TxnPayload::Txn { req, .. } => req.size_bytes(),
            // Sub bodies plus the descriptor header.
            TxnPayload::Cross(tag) => tag.subs.iter().map(|r| r.size_bytes()).sum::<u32>() + 16,
        }
    }
}

/// Which atomic-broadcast engine the cluster uses.
#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    /// Optimistic atomic broadcast (consensus-based definitive order).
    Opt {
        /// Failure-detector patience for the agreement phase.
        consensus_timeout: SimDuration,
    },
    /// Optimistic atomic broadcast with batched instance initiation:
    /// trades confirmation latency for fewer agreement messages.
    OptBatched {
        /// Failure-detector patience for the agreement phase.
        consensus_timeout: SimDuration,
        /// Accumulation delay before starting the next consensus batch.
        batch_delay: SimDuration,
    },
    /// Fixed-sequencer total order (the lowest member of each ordering
    /// domain sequences) with order-batching: the sequencer accumulates
    /// assignments for `order_delay` and multicasts them as one
    /// [`otp_broadcast::Wire::SeqOrderBatch`] frame, amortizing the
    /// per-message ordering frame (Slim-ABC style). Opt-delivery latency is
    /// unaffected; confirmation waits at most `order_delay` longer. A zero
    /// window is the unbatched sequencer: it multicasts what each receive
    /// step assigned at the end of that step.
    SequencerBatched {
        /// Accumulation window before the order multicast.
        order_delay: SimDuration,
    },
    /// Oracle engine with controlled agreement delay and mismatch rate
    /// (experiments E2/E3).
    Scrambled {
        /// Fixed delay between receipt and TO-delivery.
        agreement_delay: SimDuration,
        /// Probability of an adjacent tentative-order swap.
        swap_probability: f64,
    },
}

impl EngineKind {
    /// True for the sequencer family, whose order one site assigns: only
    /// these can order a sharded cluster's groups, and a round that
    /// re-admits that site fences its dead incarnation's assignments.
    pub(crate) fn has_authority(self) -> bool {
        matches!(self, EngineKind::SequencerBatched { .. })
    }
}

/// Which transaction-processing algorithm runs at each site: the execution
/// policy of its [`Replica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's optimistic algorithm: execute on Opt-delivery, commit
    /// on TO-delivery.
    Otp,
    /// Conservative baseline: execute only after TO-delivery (a queue head
    /// starts only once it is committable).
    Conservative,
}

/// Why a submission was not admitted — one error shape shared by the
/// simulated [`Cluster::submit`] and the threaded
/// [`crate::runtime::LiveCluster::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission window or the site queue is full (threaded runtime
    /// only). Retry later (the blocking
    /// [`crate::runtime::LiveCluster::submit`] does this for you).
    Backpressure,
    /// Admissions are halted: shutdown has begun (or
    /// [`crate::runtime::LiveCluster::halt_admissions`] was called).
    ShuttingDown,
    /// The addressed site is crashed or mid-recovery (simulated driver
    /// only — the threaded runtime's admission layer has no site-down
    /// signal).
    SiteDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure => write!(f, "admission window full"),
            SubmitError::ShuttingDown => write!(f, "cluster is shutting down"),
            SubmitError::SiteDown => write!(f, "site is down or recovering"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Cluster configuration. Build with [`ClusterConfig::new`] and adjust via
/// the `with_*` methods; construct the cluster itself with
/// [`ClusterBuilder`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites.
    pub sites: usize,
    /// Number of conflict classes.
    pub classes: usize,
    /// LAN model.
    pub net: NetConfig,
    /// Broadcast engine.
    pub engine: EngineKind,
    /// Processing mode.
    pub mode: Mode,
    /// Stored-procedure execution time distribution.
    pub exec_time: DurationDist,
    /// Query execution time distribution.
    pub query_time: DurationDist,
    /// Delivery quantum — the interrupt-coalescing window of a site's
    /// receive path. Zero (the default) delivers every wire the instant it
    /// arrives, coalescing only exact same-instant runs (the pre-quantum
    /// behavior, byte-identical). With a positive quantum, the first wire
    /// arriving at an idle site *opens* a window: everything arriving
    /// within `delivery_quantum` of it is handed to the engine as one
    /// [`otp_broadcast::AtomicBroadcast::on_receive_batch`] call when the
    /// window closes. Trades up to one quantum of delivery latency for
    /// amortized per-message handling (bigger consensus batches, fewer
    /// ordering frames). Crash, recovery and partition events fence any
    /// open window first — see DESIGN.md §8.
    pub delivery_quantum: SimDuration,
    /// Number of independent sequencing groups the conflict-class space
    /// is partitioned across. `1` (the default) is the classic single
    /// total order. With `G > 1`, sites split into `G` contiguous equal
    /// blocks (site `i` serves group `i / (sites/G)`), class `c` belongs
    /// to group `c % G`, each group runs its own engine instance with its
    /// own view epochs, and cross-group transactions serialize through a
    /// cluster-wide relay stream (see the [module docs](self) and
    /// DESIGN.md §11). Requires a sequencer-family engine,
    /// `sites % groups == 0`, and `classes >= groups` — validated by
    /// [`ClusterBuilder::build`].
    pub groups: usize,
    /// Master seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// A 4-site, 10 Mbit/s-LAN OTP cluster — the paper's testbed shape.
    pub fn new(sites: usize, classes: usize) -> Self {
        ClusterConfig {
            sites,
            classes,
            net: NetConfig::lan_10mbps(sites),
            engine: EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
            mode: Mode::Otp,
            exec_time: DurationDist::Fixed(SimDuration::from_millis(2)),
            query_time: DurationDist::Fixed(SimDuration::from_millis(5)),
            delivery_quantum: SimDuration::ZERO,
            groups: 1,
            seed: 42,
        }
    }

    /// Sets the processing mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the broadcast engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the execution-time distribution.
    pub fn with_exec_time(mut self, d: DurationDist) -> Self {
        self.exec_time = d;
        self
    }

    /// Sets the query-time distribution.
    pub fn with_query_time(mut self, d: DurationDist) -> Self {
        self.query_time = d;
        self
    }

    /// Sets the network model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the delivery quantum (see [`ClusterConfig::delivery_quantum`]).
    pub fn with_delivery_quantum(mut self, quantum: SimDuration) -> Self {
        self.delivery_quantum = quantum;
        self
    }

    /// Sets the number of sequencing groups (see [`ClusterConfig::groups`]).
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Builds a [`Cluster`] from chained setters — the construction surface
/// that replaced the positional `Cluster::new(config, registry, data)`
/// constructor when the sharded topology arrived (a 4th positional
/// argument was the tipping point).
///
/// ```
/// use otp_core::{ClusterBuilder, ClusterConfig};
///
/// let cluster = ClusterBuilder::from_config(ClusterConfig::new(4, 2)).build();
/// assert_eq!(cluster.config().sites, 4);
/// ```
pub struct ClusterBuilder {
    config: ClusterConfig,
    registry: Arc<ProcRegistry>,
    initial_data: Vec<(ObjectId, Value)>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl ClusterBuilder {
    /// Starts a builder from a prepared [`ClusterConfig`] (empty registry,
    /// no initial data, tracing off).
    pub fn from_config(config: ClusterConfig) -> Self {
        ClusterBuilder {
            config,
            registry: Arc::new(ProcRegistry::new()),
            initial_data: Vec::new(),
            trace: None,
        }
    }

    /// Attaches a lifecycle trace sink (off by default). Recording is
    /// pure observation — it never touches the RNG or the event queue,
    /// so a traced run is byte-identical to an untraced one.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Sets the stored-procedure registry shared by every site.
    pub fn registry(mut self, registry: Arc<ProcRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the data loaded into every site's database copy before any
    /// event runs.
    pub fn initial_data(mut self, data: Vec<(ObjectId, Value)>) -> Self {
        self.initial_data = data;
        self
    }

    /// Validates the topology and builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is unbuildable: no sites or more than
    /// 64 (the per-transaction commit set is a 64-bit mask), no
    /// classes, zero groups, sites not evenly divisible across groups,
    /// fewer classes than groups, or a non-sequencer engine with more
    /// than one group (the optimistic/oracle engines still assume one
    /// global domain).
    pub fn build(self) -> Cluster {
        let c = &self.config;
        assert!(c.sites > 0, "need at least one site");
        assert!(c.sites <= 64, "at most 64 sites, got {}", c.sites);
        assert!(c.classes > 0, "need at least one conflict class");
        assert!(c.groups >= 1, "need at least one sequencing group");
        if c.groups > 1 {
            assert!(
                c.sites.is_multiple_of(c.groups),
                "{} sites do not partition evenly across {} groups",
                c.sites,
                c.groups
            );
            assert!(
                c.classes >= c.groups,
                "every group needs at least one conflict class ({} classes < {} groups)",
                c.classes,
                c.groups
            );
            assert!(
                c.engine.has_authority(),
                "sharded sequencing groups require a sequencer-family engine, got {:?}",
                c.engine
            );
        }
        Cluster::new(self.config, self.registry, self.initial_data, self.trace)
    }
}

/// The sharded topology: which sites and classes belong to which
/// sequencing group, plus the relay domain when there is more than one.
///
/// Domain indices (`u16` on the wire-event side, `usize` internally) run
/// `0..groups` for the group domains; index `groups` is the relay domain
/// (present only when `groups > 1`).
#[derive(Debug, Clone)]
pub(crate) struct GroupTopology {
    /// Number of sequencing groups.
    groups: usize,
    /// Ordering domains: one per group, plus the relay last when
    /// `groups > 1`.
    pub(crate) domains: Vec<OrderDomain>,
    /// Group of each site, indexed by `SiteId::index`.
    pub(crate) site_group: Vec<u16>,
}

impl GroupTopology {
    fn new(sites: usize, groups: usize) -> Self {
        let per = sites / groups;
        let mut domains: Vec<OrderDomain> = (0..groups)
            .map(|g| {
                OrderDomain::new(
                    GroupId(g as u16),
                    (g * per..(g + 1) * per).map(|i| SiteId::new(i as u16)),
                )
            })
            .collect();
        if groups > 1 {
            domains.push(OrderDomain::new(GroupId::RELAY, SiteId::all(sites)));
        }
        let site_group = (0..sites).map(|i| (i / per) as u16).collect();
        GroupTopology { groups, domains, site_group }
    }

    /// The group that orders conflict class `c`.
    fn group_of_class(&self, c: ClassId) -> usize {
        c.raw() as usize % self.groups
    }

    /// The group whose stream `site` participates in.
    fn group_of_site(&self, site: SiteId) -> usize {
        self.site_group[site.index()] as usize
    }

    /// Domain index of the relay stream (only meaningful when sharded).
    fn relay_idx(&self) -> usize {
        self.groups
    }

    /// True when domain index `d` is the relay.
    fn is_relay(&self, d: usize) -> bool {
        self.groups > 1 && d == self.groups
    }

    /// Wire segment of domain `d`'s traffic. An unsharded cluster is one
    /// shared bus (segment 0). A sharded cluster is a switched topology:
    /// each group's stream runs on its own segment (`d + 1`), while the
    /// relay — whose members span every group — rides the shared backbone
    /// (segment 0) together with gateway forwards.
    fn segment_of(&self, d: usize) -> usize {
        if self.groups == 1 || self.is_relay(d) {
            0
        } else {
            d + 1
        }
    }

    /// True when a frame from `a` to `b` crosses a group boundary — the
    /// traffic sharding exists to avoid.
    fn cross_frame(&self, a: SiteId, b: SiteId) -> bool {
        self.groups > 1 && self.site_group[a.index()] != self.site_group[b.index()]
    }
}

/// The cluster's own events, scheduled as controls on its scheduler
/// ([`Sched::schedule_control`]) to the site they concern (site 0 for a
/// nemesis event, which concerns the network).
enum Ev {
    /// A client request reaching `site` (directly or forwarded).
    Submit(TxnRequest),
    SubmitCross(CrossTag),
    Query {
        qid: TxnId,
        reads: Vec<ObjectId>,
    },
    /// The query finished, if the site's incarnation `life` still runs.
    QueryDone {
        life: u32,
        qid: TxnId,
    },
    Crash,
    Recover {
        donor: SiteId,
    },
    Nemesis(NemesisEvent),
    /// Closes the delivery quantum the site opened at `gen` (stale
    /// generations — the window was fenced by a fault event meanwhile —
    /// are no-ops).
    QuantumFlush {
        gen: u64,
    },
}

/// The cluster's scheduler vocabulary: the sites' wires, timers and
/// executions, and the cluster's own events as controls (requests are
/// routed by the cluster, [`Ev::Submit`]).
type ClusterData = SiteData<std::convert::Infallible, Ev>;

/// Aggregate results of a run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Latency from client submission to commit at the origin site.
    pub commit_latency: Histogram,
    /// Latency from client submission to commit at every site.
    pub global_commit_latency: Histogram,
    /// Query latencies.
    pub query_latency: Histogram,
    /// Merged replica counters (commits, aborts, reorders, …).
    pub counters: Counters,
    /// Transactions committed at the origin (completed requests).
    pub completed: u64,
    /// Total frames the network carried.
    pub network_frames: u64,
    /// Frames that crossed a group boundary (gateway forwards, relay
    /// traffic, cross-domain view digests). Always 0 with one group; the
    /// sharded throughput win exists because this stays a small fraction
    /// of `network_frames`.
    pub cross_group_frames: u64,
    /// Virtual time at collection.
    pub now: SimTime,
}

impl RunStats {
    /// Committed transactions per simulated second (origin-site commits).
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Abort rate: aborts / (commits at all sites + aborts).
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.counters.get("abort") as f64;
        let commits = self.counters.get("commit") as f64;
        if aborts + commits == 0.0 {
            0.0
        } else {
            aborts / (aborts + commits)
        }
    }
}

/// What the driver tracks for one transaction between its submission and
/// the commit by the last member of its ordering group, which releases
/// the entry.
#[derive(Debug)]
struct Completion {
    /// When a live site first accepted the request.
    submitted: SimTime,
    /// The group member that broadcast it — completion and commit latency
    /// count there (`None` for cross subs: first commit anywhere
    /// completes them).
    home: Option<SiteId>,
    /// Sites that committed it, one bit per site index.
    committed_at: u64,
}

impl Completion {
    /// A fresh entry for a request accepted at `submitted`.
    fn at(submitted: SimTime) -> Self {
        Completion { submitted, home: None, committed_at: 0 }
    }
}

/// What the driver counts of the commits it sees: every transaction's
/// completion entry from its submission on, and the completions and
/// latencies they settle into.
#[derive(Debug, Default)]
struct Ledger {
    /// Per transaction, from submission until the last member of its
    /// group commits it.
    completions: HashMap<TxnId, Completion>,
    /// Transactions committed at the origin (completed requests).
    completed: u64,
    commit_latency: Histogram,
    global_commit_latency: Histogram,
}

impl Ledger {
    /// `txn` committed at `site` at `now`, with `output`: the home commit
    /// completes it (its output kept in `txn_outputs`), the last group
    /// member's releases the entry.
    fn settle(
        &mut self,
        txn_outputs: &mut HashMap<TxnId, Vec<Value>>,
        topology: &GroupTopology,
        site: SiteId,
        now: SimTime,
        txn: TxnId,
        output: Vec<Value>,
    ) {
        // "Global" commit = committed at every member of the ordering
        // group (the whole cluster when unsharded). A site's replica only
        // commits transactions of its own group.
        let group = topology.group_of_site(site);
        let group_size = topology.domains[group].len() as u32;
        // Every routed transaction holds an entry from its submission on,
        // so a commit without one is a recovery replay at a site whose
        // earlier incarnation committed it before the last member did:
        // nothing is left to count.
        let Some(entry) = self.completions.get_mut(&txn) else {
            return;
        };
        // Tracked per site: a recovery replay can re-commit at the same
        // site (see below) and must not make the group-commit count reach
        // the group size early.
        entry.committed_at |= 1 << site.index();
        // The home site (the group member that broadcast the request)
        // counts completion; cross subs have no home — their first commit
        // anywhere completes them. A site that commits, crashes, and is
        // recovered from a donor that never saw the transaction
        // legitimately re-commits it on replay — count the completion (and
        // its latency) only once.
        let is_home = entry.home.is_none_or(|h| h == site);
        if is_home && !txn_outputs.contains_key(&txn) {
            self.completed += 1;
            self.commit_latency.record(now.saturating_since(entry.submitted));
            txn_outputs.insert(txn, output);
        }
        // The last member's commit releases the entry; nothing reads it
        // afterwards.
        if entry.committed_at.count_ones() == group_size {
            self.global_commit_latency.record(now.saturating_since(entry.submitted));
            self.completions.remove(&txn);
        }
    }
}

/// One site's state-size gauges in the registry.
#[derive(Debug)]
struct RetentionGauges {
    /// Transactions submitted at the site whose completion entry is held.
    pending_completions: Arc<Gauge>,
    /// Committed versions across the site's version chains.
    versions: Arc<Gauge>,
    /// Entries in the site's history log.
    history: Arc<Gauge>,
    /// Payloads, definitive-log entries and index entries the site's
    /// engines hold (group and relay domain summed).
    engine_payloads: Arc<Gauge>,
    engine_log: Arc<Gauge>,
    engine_index: Arc<Gauge>,
}

/// One simulated site: its [`SiteNode`] (engines, gate, status) and what
/// only the simulator keeps for it.
/// A recovering site is re-admitted to the network so its view-change
/// rounds can run, but its non-view wires are held by the scheduler and
/// replayed once every round installed.
struct SimNode {
    site: SiteNode,
    /// Open delivery quantum: wires accumulated since the window opened
    /// (empty = no window open). Only used when
    /// `config.delivery_quantum > 0`.
    open_quantum: Vec<Arrival<Wire<TxnPayload>>>,
    /// Quantum generation, bumped every time a window opens, so a flush
    /// event scheduled for a window that was fenced early cannot close a
    /// newer window.
    quantum_gen: u64,
    next_txn_seq: u64,
    next_cross_seq: u64,
    retention: RetentionGauges,
}

/// The simulated cluster. See the [module docs](self).
pub struct Cluster {
    config: ClusterConfig,
    registry: Arc<ProcRegistry>,
    /// Virtual time, the network (one multicast group per order domain),
    /// the sites' timers, executions and held wires, and the cluster's
    /// own events.
    sched: Sched<ClusterData>,
    /// The one output buffer every site step reuses.
    out: SiteOutputs,
    /// Group topology: domains (groups + relay), site→group, class→group.
    pub(crate) topology: GroupTopology,
    /// One per site; index by `SiteId::index`.
    nodes: Vec<SimNode>,
    engine_factory: EngineFactory,
    /// Public for test assertions; index by `SiteId::index`.
    pub replicas: Vec<Replica>,
    /// The currently installed membership view (epoch + live set).
    view: Membership,
    /// Next view epoch to propose, per domain — strictly increasing
    /// within each domain (epochs, like seqnos, are domain-scoped).
    next_epoch: Vec<u64>,
    /// Per domain: highest epoch whose round re-admits that domain's
    /// ordering authority. A site that misses such a round's announcement
    /// must still fence the dead incarnation's order assignments when it
    /// catches up at install.
    sequencer_fence: Vec<u64>,
    /// Completion entries and what they settled into.
    ledger: Ledger,
    /// Group that orders each scheduled transaction — recorded only when
    /// sharded (with one group every lookup's fallback is the answer).
    pub(crate) txn_group: HashMap<TxnId, u16>,
    /// Cross id of each cross-group sub-transaction.
    pub(crate) cross_of: HashMap<TxnId, u64>,
    next_query_seq: u64,
    query_start: HashMap<TxnId, SimTime>,
    /// Results of completed queries: `(snapshot, values read)`.
    pub query_results: HashMap<TxnId, (SnapshotIndex, Vec<Value>)>,
    /// Output of committed transactions at their origin site.
    pub txn_outputs: HashMap<TxnId, Vec<Value>>,
    query_latency: Histogram,
    cross_group_frames: Arc<Counter>,
    /// The unified metrics registry every counter above is registered in
    /// (engines hold per-site/per-group `stale_epoch_reject` handles).
    metrics: Arc<MetricsRegistry>,
    /// Lifecycle trace sink; `None` = tracing off (the default), one
    /// pointer check per hook.
    trace: Option<Arc<dyn TraceSink>>,
}

impl Cluster {
    /// Builds a cluster: `initial_data` is loaded into every site's
    /// database copy before any event runs. Construct through
    /// [`ClusterBuilder`], which validates the topology first.
    fn new(
        config: ClusterConfig,
        registry: Arc<ProcRegistry>,
        initial_data: Vec<(ObjectId, Value)>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let mut rng = SimRng::seed_from(config.seed);
        // The net draws from the cluster rng at send time, so this fork is
        // unused; it stays because it advances the stream every schedule
        // is drawn from.
        let _ = rng.fork();

        let sites = config.sites;
        let topology = GroupTopology::new(sites, config.groups);
        let num_domains = topology.domains.len();

        // One engine per (site, domain) pair the site participates in, in
        // site order, each site's group domain before the relay; the
        // factory stays for recovery.
        let mut factory = EngineFactory::new(config.engine, config.seed);
        let nodes: Vec<SimNode> = SiteId::all(sites)
            .map(|s| {
                let domains = (0..num_domains as u16)
                    .map(|d| (d, &topology.domains[d as usize]))
                    .filter(|(_, domain)| domain.contains(s))
                    .map(|(d, domain)| factory.slot(s, d, domain.clone(), &metrics))
                    .collect();
                let g = topology.group_of_site(s) as u16;
                SimNode {
                    site: SiteNode::new(s, g, config.groups, domains).with_view_counters(&metrics),
                    open_quantum: Vec::new(),
                    quantum_gen: 0,
                    next_txn_seq: 0,
                    next_cross_seq: 0,
                    retention: RetentionGauges {
                        pending_completions: metrics.gauge("pending_completions", Scope::site(s)),
                        versions: metrics.gauge("retained_versions", Scope::site(s)),
                        history: metrics.gauge("history_entries", Scope::site(s)),
                        engine_payloads: metrics.gauge("engine_payloads", Scope::site(s)),
                        engine_log: metrics.gauge("engine_log_entries", Scope::site(s)),
                        engine_index: metrics.gauge("engine_index_entries", Scope::site(s)),
                    },
                }
            })
            .collect();
        let replicas =
            crate::site::replicas(config.mode, sites, config.classes, &registry, &initial_data);

        // Sharded clusters run a switched topology: one wire segment per
        // group plus the shared backbone (segment 0) for relay and
        // gateway traffic. Unsharded clusters keep the single shared bus.
        let mut net = MulticastNet::new(config.net.clone());
        if config.groups > 1 {
            net.add_segments(config.groups);
        }
        let groups = (0..num_domains)
            .map(|d| Group {
                segment: topology.segment_of(d),
                members: topology.domains[d].members.clone(),
            })
            .collect();
        let sched = Sched::new(Links::Net(Box::new(net)), rng)
            .with_groups(groups)
            .with_work_time(config.exec_time);

        Cluster {
            sched,
            out: Vec::new(),
            topology,
            nodes,
            engine_factory: factory,
            replicas,
            view: Membership::initial(sites),
            next_epoch: vec![1; num_domains],
            sequencer_fence: vec![0; num_domains],
            ledger: Ledger::default(),
            txn_group: HashMap::new(),
            cross_of: HashMap::new(),
            next_query_seq: 0,
            query_start: HashMap::new(),
            query_results: HashMap::new(),
            txn_outputs: HashMap::new(),
            query_latency: Histogram::new(),
            cross_group_frames: metrics.counter("cross_group_frames", Scope::global()),
            metrics,
            trace,
            config,
            registry,
        }
    }

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Frames that crossed a group boundary so far (0 with one group).
    pub fn cross_group_frames(&self) -> u64 {
        self.cross_group_frames.get()
    }

    /// The cluster's unified metrics registry (snapshotable at any
    /// instant; deterministic order), with the per-site retention gauges
    /// refreshed.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.refresh_retention();
        Arc::clone(&self.metrics)
    }

    /// Samples what each site keeps per transaction into its gauges: held
    /// completion entries (by submitting site), committed versions,
    /// history entries and the engines' stores.
    fn refresh_retention(&self) {
        for (node, replica) in self.nodes.iter().zip(&self.replicas) {
            let (g, site) = (&node.retention, replica.site());
            let pending = self.ledger.completions.keys().filter(|t| t.origin == site).count();
            g.pending_completions.set(pending as i64);
            g.versions.set(replica.db().retained_versions() as i64);
            g.history.set(replica.history_log().len() as i64);
            let (mut payloads, mut log, mut index) = (0, 0, 0);
            for kept in node.site.domains.iter().map(|d| d.engine.retained()) {
                payloads += kept.payloads;
                log += kept.log;
                index += kept.index;
            }
            g.engine_payloads.set(payloads as i64);
            g.engine_log.set(log as i64);
            g.engine_index.set(index as i64);
        }
    }

    /// Records a routing stage of `txn` at `site` under its group's
    /// label. The router stamps `Submit` at the client's site and
    /// `Broadcast` at the group member that takes the request, which may
    /// be two sites, so it does not go through [`Site::submit`].
    fn trace_stage(&self, site: SiteId, txn: TxnId, group: u16, stage: Stage) {
        record_stage(self.trace.as_deref(), || self.sched.now(), site, group, txn, stage);
    }

    /// Runs one step of `site` — [`SiteNode::handle`] with its replica —
    /// and carries its outputs out on the scheduler: a frame crossing a
    /// group boundary is counted, a commit settles the transaction's
    /// completion entry, a completed round installs and the last install
    /// finishes the site's recovery.
    fn site_step(&mut self, site: SiteId, input: Input<SiteData>) {
        let now = self.sched.now();
        let mut out = std::mem::take(&mut self.out);
        let replica = &mut self.replicas[site.index()];
        let env = Env { replica, trace: self.trace.as_deref(), now: &|| now };
        self.nodes[site.index()].site.handle(env, input, &mut out);
        if self.config.groups > 1 {
            let topology = &self.topology;
            for o in out.iter() {
                let crossing = match o {
                    Output::Send { to, .. } => usize::from(topology.cross_frame(site, *to)),
                    Output::Multicast { group, .. } => (topology.domains[*group as usize].members)
                        .iter()
                        .filter(|&&m| topology.cross_frame(site, m))
                        .count(),
                    _ => 0,
                };
                self.cross_group_frames.add(crossing as u64);
            }
        }
        let (mut rounds, mut recovered) = (Vec::new(), false);
        let (ledger, outputs, topology) = (&mut self.ledger, &mut self.txn_outputs, &self.topology);
        self.sched.apply(site, &mut out, |site, now, report| match report {
            SiteReport::Committed { txn, output } => {
                ledger.settle(outputs, topology, site, now, txn, output);
            }
            SiteReport::RoundComplete(d) => rounds.push(d),
            SiteReport::Recovered => recovered = true,
        });
        self.out = out;
        for d in rounds {
            self.install_view_for(d, site);
        }
        if recovered {
            self.finish_site_recovery(site);
        }
    }

    /// Hands `control` to `site` ([`Cluster::site_step`]).
    fn site_control(&mut self, site: SiteId, control: SiteControl) {
        self.site_step(site, Input::Control(control));
    }

    /// `site`'s site node.
    pub(crate) fn node(&self, site: SiteId) -> &SiteNode {
        &self.nodes[site.index()].site
    }

    /// Definitive-log length of the engine serving domain `d` at `s`.
    fn domain_log_len(&self, s: SiteId, d: u16) -> usize {
        self.node(s).slot(d).engine.definitive_log().len()
    }

    /// Schedules a client update request at `site`: the stored procedure
    /// `proc(args)` in conflict class `class`. Returns the transaction id.
    ///
    /// In a sharded cluster the request is routed to class `class`'s
    /// group: submitted directly when `site` belongs to it, forwarded to a
    /// live member (one gateway unicast) otherwise.
    pub fn schedule_update(
        &mut self,
        at: SimTime,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        args: Vec<Value>,
    ) -> TxnId {
        let id = self.next_txn_id(site);
        if self.config.groups > 1 {
            self.txn_group.insert(id, self.topology.group_of_class(class) as u16);
        }
        let request = TxnRequest::new(id, class, proc, args);
        self.sched.schedule_control(at, site, Ev::Submit(request));
        id
    }

    /// The next update id issued to `site`'s clients.
    fn next_txn_id(&mut self, site: SiteId) -> TxnId {
        let node = &mut self.nodes[site.index()];
        node.next_txn_seq += 1;
        TxnId::new(site, node.next_txn_seq - 1)
    }

    /// Schedules a cross-group update: one sub-transaction per involved
    /// group (each `(class, proc, args)` part must map to a distinct
    /// group). The parts are serialized as a unit through the relay
    /// stream — every site orders them identically against all other
    /// cross-group transactions — but commit independently, each in its
    /// own group's stream. Returns the sub-transaction ids, in part
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when the cluster is not sharded, `parts` is empty, or two
    /// parts map to the same group.
    pub fn schedule_cross_update(
        &mut self,
        at: SimTime,
        site: SiteId,
        parts: Vec<(ClassId, ProcId, Vec<Value>)>,
    ) -> Vec<TxnId> {
        assert!(self.config.groups > 1, "cross-group updates need a sharded cluster");
        assert!(!parts.is_empty(), "a cross-group update needs at least one part");
        let mut groups_seen = HashSet::new();
        for (class, _, _) in &parts {
            assert!(
                groups_seen.insert(self.topology.group_of_class(*class)),
                "cross-group updates take one sub-transaction per group"
            );
        }
        let node = &mut self.nodes[site.index()];
        let cross = ((site.raw() as u64) << 48) | node.next_cross_seq;
        node.next_cross_seq += 1;
        let mut ids = Vec::with_capacity(parts.len());
        let mut subs = Vec::with_capacity(parts.len());
        for (class, proc, args) in parts {
            let id = self.next_txn_id(site);
            self.txn_group.insert(id, self.topology.group_of_class(class) as u16);
            self.cross_of.insert(id, cross);
            ids.push(id);
            subs.push(Arc::new(TxnRequest::new(id, class, proc, args)));
        }
        self.sched.schedule_control(at, site, Ev::SubmitCross(CrossTag { cross, subs }));
        ids
    }

    /// Submits an update right now, with admission feedback — the
    /// simulated twin of [`crate::runtime::LiveCluster::submit`]. A
    /// request addressed to a crashed or recovering site is rejected as
    /// [`SubmitError::SiteDown`] instead of silently lost; an accepted
    /// request routes through the group router like
    /// [`Cluster::schedule_update`].
    pub fn submit(
        &mut self,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        args: Vec<Value>,
    ) -> Result<TxnId, SubmitError> {
        if !self.is_live(site) {
            return Err(SubmitError::SiteDown);
        }
        Ok(self.schedule_update(self.now(), site, class, proc, args))
    }

    /// Schedules a read-only query at `site` over the given objects.
    /// Returns the query id.
    ///
    /// # Panics
    ///
    /// In a sharded cluster, panics if any read's class belongs to a
    /// different group than `site`: a site only holds ordered state for
    /// its own group, so a cross-group read would compare positions from
    /// unrelated streams.
    pub fn schedule_query(&mut self, at: SimTime, site: SiteId, reads: Vec<ObjectId>) -> TxnId {
        if self.config.groups > 1 {
            for oid in &reads {
                assert_eq!(
                    self.topology.group_of_class(oid.class),
                    self.topology.group_of_site(site),
                    "sharded queries must read classes of the site's own group"
                );
            }
        }
        // Query ids use a separate, shared sequence space flagged by a
        // high bit so they never collide with update ids.
        let qid = TxnId::new(site, (1 << 63) | self.next_query_seq);
        self.next_query_seq += 1;
        self.sched.schedule_control(at, site, Ev::Query { qid, reads });
        qid
    }

    /// Schedules a crash of `site`.
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.sched.schedule_control(at, site, Ev::Crash);
    }

    /// Schedules recovery of `site`. Recovery runs a view-change round in
    /// simulated time — one per domain the site participates in (its own
    /// group, plus the relay when sharded): the site multicasts a
    /// `ViewChange` announcement to the domain, every live member replies
    /// with how far it has delivered and then, told the minimum, with a
    /// state digest above it, and the site starts serving only once every
    /// domain's union-of-replies is installed — so an order assignment
    /// known to *any* survivor is honored, not just the donor's. `donor`
    /// is kept as a liveness hint (it must be up at recovery time); the
    /// state actually comes from all live members.
    pub fn schedule_recover(&mut self, at: SimTime, site: SiteId, donor: SiteId) {
        self.sched.schedule_control(at, site, Ev::Recover { donor });
    }

    /// Schedules every event of a nemesis fault plan as timed mid-run
    /// events. Crash/recover events route through the same machinery as
    /// [`Cluster::schedule_crash`]/[`Cluster::schedule_recover`] (the
    /// recovery donor is chosen among live sites at event time); partition
    /// events hold cross-partition traffic until the matching heal.
    pub fn schedule_nemesis(&mut self, schedule: &NemesisSchedule) {
        for (at, ev) in &schedule.events {
            self.sched.schedule_control(*at, SiteId::new(0), Ev::Nemesis(ev.clone()));
        }
    }

    /// Whether `site` is currently up: not crashed and not mid-recovery
    /// (a recovering site is re-admitted to the network for its
    /// view-change round but serves nothing until the view installs).
    pub fn is_live(&self, site: SiteId) -> bool {
        self.status(site) == Status::Up
    }

    fn status(&self, site: SiteId) -> Status {
        self.node(site).status
    }

    /// The currently live sites.
    pub fn live_sites(&self) -> Vec<SiteId> {
        SiteId::all(self.config.sites).filter(|s| self.is_live(*s)).collect()
    }

    /// The currently installed membership view (epoch + live set). Epoch 0
    /// is the boot view; every completed recovery installs a fresh one.
    pub fn current_view(&self) -> &Membership {
        &self.view
    }

    /// Runs until the event queue empties or `deadline` passes. Returns
    /// the number of events processed.
    ///
    /// With a zero delivery quantum (the default), wire arrivals forming an
    /// adjacent same-instant run to one site are coalesced into a single
    /// per-tick delivery batch: the engine sees the whole run in one
    /// [`otp_broadcast::AtomicBroadcast::on_receive_batch`] call and can
    /// amortize its outputs (one ordering frame, one TO-delivery batch)
    /// instead of paying the dispatch round-trip per message. This path is
    /// byte-identical to the pre-quantum driver.
    ///
    /// With a positive [`ClusterConfig::delivery_quantum`], the first wire
    /// arriving at a site with no window open *opens* one: the wire and
    /// everything arriving within the quantum accumulate, and the whole
    /// window is handed over as one batch when the generation-guarded
    /// [`Ev::QuantumFlush`] event fires. Event ordering stays deterministic
    /// — flushes travel through the same FIFO-tie-broken queue as every
    /// other event — and fault events (crash, recovery, partition, heal)
    /// fence any open window before taking effect, so a delivery that
    /// physically arrived before a fault is never reordered behind it.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let quantum = self.config.delivery_quantum;
        let start = self.sched.events();
        while let Some((site, input)) = self.sched.next(deadline) {
            match input {
                Input::Wires(batch) if quantum.is_zero() => self.handle_wire_batch(site, batch),
                Input::Wires(batch) => self.quantum_accumulate(site, batch, quantum),
                // A recovering site's engines wait for the installed view.
                Input::Timer(timer) if self.is_live(site) => {
                    self.site_step(site, Input::Timer(timer));
                }
                Input::Timer(_) => {}
                Input::Done(token) => self.site_step(site, Input::Done(token)),
                Input::Control(ev) => self.handle(site, ev),
                Input::Submit(never) => match never {},
            }
        }
        self.sched.events() - start
    }

    /// Adds a run of wire arrivals to `to`'s delivery quantum, opening a
    /// window (and scheduling its flush `quantum` from now) if none is
    /// open. The emptied run goes back to the scheduler for its next one.
    fn quantum_accumulate(
        &mut self,
        to: SiteId,
        mut batch: Vec<Arrival<Wire<TxnPayload>>>,
        quantum: SimDuration,
    ) {
        let node = &mut self.nodes[to.index()];
        let opening = node.open_quantum.is_empty();
        node.open_quantum.append(&mut batch);
        self.sched.recycle(batch);
        if opening {
            node.quantum_gen += 1;
            let gen = node.quantum_gen;
            let flush_at = self.sched.now() + quantum;
            self.sched.schedule_control(flush_at, to, Ev::QuantumFlush { gen });
        }
    }

    /// Closes `site`'s open delivery quantum (if any), handing the
    /// accumulated wires to the normal delivery path as one batch.
    fn flush_quantum(&mut self, site: SiteId) {
        let batch = std::mem::take(&mut self.nodes[site.index()].open_quantum);
        if !batch.is_empty() {
            self.handle_wire_batch(site, batch);
        }
    }

    /// Fences every open delivery quantum: fault events (crash, recovery,
    /// partition, heal) call this before taking effect, so wires that
    /// physically arrived *before* the fault are processed before it — a
    /// window never spans a fault. The already-scheduled flush events turn
    /// into no-ops through the generation guard (a fresh window bumps the
    /// generation; an unreopened one flushes an empty buffer).
    fn fence_quanta(&mut self) {
        for site in SiteId::all(self.config.sites) {
            self.flush_quantum(site);
        }
    }

    /// Collects run statistics (cheap; can be called repeatedly) and
    /// refreshes the retention gauges.
    pub fn stats(&self) -> RunStats {
        self.refresh_retention();
        let mut counters = Counters::new();
        for r in &self.replicas {
            counters.merge(r.counters());
        }
        // Membership-layer counters: per-site view installations, group
        // and relay domains counted apart (so sharding leaves
        // `view_install` untouched), and the engines' registry counters:
        // order frames fenced as dead-epoch traffic, and one-step vs round
        // decisions of the consensus-based engine — the hit rate is the
        // paper's Figure 1 quantity, measured where it pays off (the
        // relay's sequencer decides nothing).
        let (mut installs, mut relay_installs) = (0, 0);
        for node in &self.nodes {
            for d in &node.site.domains {
                let epochs = d.epochs.len() as u64;
                if d.index == node.site.group {
                    installs += epochs;
                } else {
                    relay_installs += epochs;
                }
            }
        }
        counters.add("view_install", installs);
        for name in ENGINE_COUNTERS {
            counters.add(name, self.metrics.counter_total(name));
        }
        // The view change's own counters, bumped by the sites' rounds.
        for name in VIEW_COUNTERS {
            counters.add(name, self.metrics.counter_total(name));
        }
        if self.config.groups > 1 {
            counters.add("relay_view_install", relay_installs);
        }
        RunStats {
            commit_latency: self.ledger.commit_latency.clone(),
            global_commit_latency: self.ledger.global_commit_latency.clone(),
            query_latency: self.query_latency.clone(),
            counters,
            completed: self.ledger.completed,
            network_frames: self.sched.net().sent_frames(),
            cross_group_frames: self.cross_group_frames.get(),
            now: self.sched.now(),
        }
    }

    /// Per-site histories (updates + queries) for serializability checks.
    pub fn histories(&self) -> Vec<Vec<CommittedTxn>> {
        self.replicas.iter().map(Replica::history).collect()
    }

    /// Per-site committed-transaction id lists.
    pub fn committed_ids(&self) -> Vec<Vec<TxnId>> {
        self.replicas.iter().map(|r| r.commit_log().iter().map(|(t, _)| *t).collect()).collect()
    }

    /// Checks that every pair of same-group sites converged to the same
    /// committed state (different groups hold different class partitions,
    /// so cross-group comparison is meaningless when sharded).
    pub fn converged(&self) -> bool {
        SiteId::all(self.config.sites).all(|s| {
            let reference = self.topology.domains[self.topology.group_of_site(s)].sequencer();
            self.replicas[s.index()].db().committed_state_eq(self.replicas[reference.index()].db())
        })
    }

    // ------------------------------------------------------------------

    fn handle(&mut self, site: SiteId, ev: Ev) {
        match ev {
            Ev::Submit(request) => self.route_submit(site, request),
            Ev::SubmitCross(tag) => self.submit_cross(site, tag),
            Ev::Query { qid, reads } => {
                // Queries are client requests, not replica-internal events:
                // they run whenever the site is up, regardless of how many
                // crash/recovery epochs passed since they were scheduled.
                if !self.is_live(site) {
                    return;
                }
                let replica = &mut self.replicas[site.index()];
                let snap = replica.query_snapshot();
                let values: Vec<Value> = reads
                    .iter()
                    .map(|oid| replica.db().read_at(*oid, snap).cloned().unwrap_or(Value::Null))
                    .collect();
                replica.record_query(qid, reads, snap);
                self.query_results.insert(qid, (snap, values));
                let now = self.sched.now();
                self.query_start.insert(qid, now);
                let d = self.config.query_time.sample(self.sched.rng());
                let life = self.sched.incarnation(site);
                self.sched.schedule_control(now + d, site, Ev::QueryDone { life, qid });
            }
            Ev::QueryDone { life, qid } => {
                // A crash cancels the dead incarnation's queries.
                if !self.sched.is_up(site) || life != self.sched.incarnation(site) {
                    return;
                }
                if let Some(start) = self.query_start.remove(&qid) {
                    self.query_latency.record(self.sched.now() - start);
                }
            }
            Ev::Crash => {
                self.fence_quanta();
                self.crash_site(site);
            }
            Ev::Recover { donor } => {
                // Fencing before the round starts also guarantees that any
                // of the recovering site's own pre-crash wires sitting in
                // an open window reach the hold buffers (or their targets)
                // before `own_held_wires` scans them.
                self.fence_quanta();
                self.begin_recovery(site, donor);
            }
            Ev::Nemesis(ev) => {
                if ev.changes_topology() {
                    self.fence_quanta();
                }
                self.handle_nemesis(&ev);
            }
            Ev::QuantumFlush { gen } => {
                // A stale generation means the window this flush was armed
                // for was already fenced; flushing here could close a
                // *newer* window early, so only the matching generation
                // acts.
                if gen == self.nodes[site.index()].quantum_gen {
                    self.flush_quantum(site);
                }
            }
        }
    }

    /// Routes a submitted update to its class's group: broadcast into the
    /// group stream when `site` is a member, forwarded to a live member
    /// (one gateway unicast) otherwise.
    fn route_submit(&mut self, site: SiteId, request: TxnRequest) {
        let g = self.topology.group_of_class(request.class);
        if !self.is_live(site) {
            if request.id.origin == site {
                return; // client's site is down; request lost
            }
            // Forwarded to a gateway that died in flight: the client
            // re-routes to another member of the target group.
            self.forward_to_group(site, g, request, false);
            return;
        }
        let now = self.sched.now();
        let member = self.topology.group_of_site(site) == g;
        let completion =
            self.ledger.completions.entry(request.id).or_insert_with(|| Completion::at(now));
        if member {
            completion.home = Some(site);
        }
        if request.id.origin == site {
            self.trace_stage(site, request.id, g as u16, Stage::Submit);
        }
        if member {
            self.trace_stage(site, request.id, g as u16, Stage::Broadcast);
            let payload = TxnPayload::Txn { req: Arc::new(request), cross: None };
            self.broadcast(site, g as u16, payload);
        } else {
            self.forward_to_group(site, g, request, true);
        }
    }

    /// Has `site` broadcast `payload` on domain `domain`.
    fn broadcast(&mut self, site: SiteId, domain: u16, payload: TxnPayload) {
        self.site_step(site, Input::Submit(SiteSubmit::Broadcast { domain, payload }));
    }

    /// Forwards a request to the first live member of group `g`. With
    /// `via_net` the gateway unicasts it (normal path); without, the
    /// client re-routes after a fixed re-route delay (its gateway died —
    /// a down site cannot send). A group with no live member drops the
    /// request, exactly like a crashed origin site.
    fn forward_to_group(&mut self, from: SiteId, g: usize, request: TxnRequest, via_net: bool) {
        let Some(target) =
            self.topology.domains[g].members.iter().copied().find(|s| self.is_live(*s))
        else {
            return;
        };
        self.cross_group_frames.incr();
        let arrival = if via_net {
            self.sched.arrival(0, from, target, request.size_bytes())
        } else {
            self.sched.now() + SimDuration::from_micros(100)
        };
        self.sched.schedule_control(arrival, target, Ev::Submit(request));
    }

    /// Broadcasts a cross-group descriptor on the relay stream.
    fn submit_cross(&mut self, site: SiteId, tag: CrossTag) {
        if !self.is_live(site) {
            return; // client's site is down; descriptor lost
        }
        let now = self.sched.now();
        for sub in &tag.subs {
            self.ledger.completions.entry(sub.id).or_insert_with(|| Completion::at(now));
            let g = self.topology.group_of_class(sub.class) as u16;
            self.trace_stage(site, sub.id, g, Stage::Submit);
        }
        let relay = self.topology.relay_idx() as u16;
        self.broadcast(site, relay, TxnPayload::Cross(Arc::new(tag)));
    }

    /// Delivers one tick's worth of wires to `to`: the scheduler holds
    /// what a crash or a partition cut keeps from it, view-change traffic
    /// goes to the site's round, a recovering site's other wires are held
    /// for after its recovery, and the rest reaches its engines.
    fn handle_wire_batch(&mut self, to: SiteId, batch: Vec<Arrival<Wire<TxnPayload>>>) {
        let batch = self.sched.admit(to, batch);
        // Without view traffic nothing in the batch changes the site's
        // status, so a serving site takes the batch as it is.
        if self.status(to) != Status::Recovering && !batch.iter().any(|a| is_view_wire(&a.wire)) {
            if !batch.is_empty() {
                self.site_step(to, Input::Wires(batch));
            }
            return;
        }
        let mut deliver = Vec::with_capacity(batch.len());
        for a in batch {
            if is_view_wire(&a.wire) {
                // The staleness check on a floor reads its initiator.
                let floor_live = matches!(&a.wire, Wire::ViewFloor { epoch, initiator, .. }
                    if self.node(*initiator).round(a.group).is_some_and(|r| r.epoch() == *epoch));
                let (domain, wire) = (a.group, a.wire);
                self.site_control(to, SiteControl::ViewWire { domain, wire, floor_live });
            } else if self.status(to) == Status::Recovering {
                // Held during the round, replayed under the installed view.
                self.sched.hold(to, a);
            } else {
                deliver.push(a);
            }
        }
        if !deliver.is_empty() {
            self.site_step(to, Input::Wires(deliver));
        }
    }

    /// Marks `site` down: its incarnation ends (cancelling in-flight
    /// local events), the network stops considering it a receiver, any
    /// recovery rounds it was driving are abandoned, and every round
    /// waiting on its reply is notified (the crashed member will never
    /// reply) — domain by domain, and within a domain by initiator.
    fn crash_site(&mut self, site: SiteId) {
        self.site_control(site, SiteControl::Crash);
        self.sched.crash(site);
        for domain in 0..self.topology.domains.len() as u16 {
            for initiator in SiteId::all(self.config.sites) {
                self.site_control(initiator, SiteControl::MemberCrashed { domain, crashed: site });
            }
        }
    }

    /// Starts view-change recovery of `site`: one round per domain the
    /// site participates in (own group + relay when sharded), each
    /// proposing that domain's next epoch over its current live members
    /// and run by the site; a domain's view installs when the union of its
    /// digests is merged, and the site starts serving once every domain
    /// has installed (see [`Cluster::install_view_for`] /
    /// [`Cluster::finish_site_recovery`]). `donor` is a liveness hint kept
    /// from the pre-view-change API: it must be up, but the actual state
    /// sources are *all* live members, with the most advanced survivor as
    /// the base.
    ///
    /// A recovery that starts while this site's previous rounds are still
    /// open proposes afresh under each domain's next epoch, superseding
    /// them ([`SiteControl::Open`]).
    ///
    /// # Panics
    ///
    /// Panics if the donor hint is itself crashed or recovering.
    fn begin_recovery(&mut self, site: SiteId, donor: SiteId) {
        match self.status(site) {
            Status::Up => return,
            Status::Recovering => {
                for d in self.node(site).round_domains() {
                    self.propose(d, site);
                }
                return;
            }
            Status::Crashed => {}
        }
        assert!(self.is_live(donor), "donor {donor} must be up");
        self.sched.restore(site);
        // Every round is open before the first one is announced: a round
        // complete at once installs there, and the site must not finish
        // recovering while its other domains have not proposed yet.
        let domains: Vec<u16> = self.node(site).domains.iter().map(|d| d.index).collect();
        for &d in &domains {
            self.open_round(d, site);
        }
        for d in domains {
            self.site_control(site, SiteControl::Announce(d));
        }
    }

    /// Opens `site`'s round for domain `d` under the domain's next epoch,
    /// over the domain's live members, raising the domain's order fence
    /// when the round re-admits its ordering authority.
    fn open_round(&mut self, d: u16, site: SiteId) {
        let du = d as usize;
        let epoch = self.next_epoch[du];
        self.next_epoch[du] += 1;
        if self.node(site).slot(d).authority == Some(site) {
            self.sequencer_fence[du] = self.sequencer_fence[du].max(epoch);
        }
        let members: Vec<SiteId> = self.topology.domains[du]
            .members
            .iter()
            .copied()
            .filter(|s| self.is_live(*s))
            .collect();
        let round = ViewChange::propose(epoch, site, members);
        self.site_control(site, SiteControl::Open { domain: d, round: Box::new(round) });
    }

    /// Opens and announces `site`'s round for domain `d`; a round with
    /// nobody to answer installs at once.
    fn propose(&mut self, d: u16, site: SiteId) {
        self.open_round(d, site);
        self.site_control(site, SiteControl::Announce(d));
    }

    /// Completes `site`'s round for domain `d`: picks the base — the most
    /// advanced survivor, whose engine and replica are one consistent
    /// pair — and has the site install the round from it onto a fresh
    /// engine ([`SiteControl::Install`]); once the site's last round
    /// installed, finishes recovery ([`Cluster::finish_site_recovery`]).
    fn install_view_for(&mut self, d: u16, site: SiteId) {
        let du = d as usize;
        // Among the domain's live members, the one whose definitive log is
        // longest — restoring from the most advanced survivor minimizes
        // re-execution at the recovered replica. Consistency does not
        // depend on this choice as long as the base has delivered at least
        // the round's floor (below): `EngineSnapshot::merge` never lets a
        // digest extend the base's definitive log (a digest sender that
        // was ahead may have crashed since replying), so the restored
        // engine only suppresses re-delivery of what the base replica
        // actually executed; everything beyond it re-delivers through the
        // merged order tags / decided instances.
        // The first such member on a tie (`max_by_key` keeps the last, so
        // the walk is reversed). With no live member left in the domain, the
        // site restores from its own pre-crash state — a crash never
        // destroys the driver-held engine/replica pair, which models stable
        // storage.
        let base = (self.topology.domains[du].members.iter().copied())
            .filter(|&s| s != site && self.is_live(s))
            .rev()
            .max_by_key(|&s| self.domain_log_len(s, d))
            .unwrap_or(site);
        // The digests were cut above the floor, so the base must cover
        // everything below it. Every member that summarised and is still
        // alive has delivered at least the floor (logs only grow) — the
        // one way to get here with a shorter base is that all of them
        // crashed since. What they shipped is then not enough to restore
        // from: ask whoever is live now (possibly nobody) afresh.
        let floor = self.node(site).round(d).and_then(ViewChange::floor);
        if floor.is_some_and(|floor| (self.domain_log_len(base, d) as u64) < floor) {
            self.propose(d, site);
            return;
        }
        let registry = Arc::clone(&self.registry);
        let base = Box::new(self.node(base).base(d, &self.replicas[base.index()], site, registry));
        // The replacement engine shares the site's registry counters, so
        // rejects and decisions observed before the swap stay visible.
        let scope = Scope::site(site).group(d);
        let fresh = self.engine_factory.make(&self.topology.domains[du], &self.metrics, scope);
        let own_wires = self.own_held_wires(site, d);
        let fence = self.sequencer_fence[du];
        let install = SiteControl::Install { domain: d, base, fresh, own_wires, fence };
        self.site_control(site, install);
    }

    /// The site's last pending domain installed: catch up to the newest
    /// epochs any live peer carries, serve again (folding in the relay
    /// tail), refresh the cluster-wide membership view and replay
    /// everything held while down.
    fn finish_site_recovery(&mut self, site: SiteId) {
        // Overlapping rounds: a newer view may have installed while this
        // site was mid-round (it ignores other rounds' announcements — a
        // recovering engine has nothing to contribute). Catch up, domain
        // by domain (group first, relay second), to the newest epoch any
        // live member carries, so the re-admitted site is never left
        // serving under a superseded view.
        let newest = (self.node(site).domains.iter())
            .map(|slot| {
                (self.topology.domains[slot.index as usize].members.iter())
                    .filter(|s| self.is_live(**s))
                    .map(|s| self.node(*s).slot(slot.index).installed())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        self.site_control(site, SiteControl::FinishRecovery(newest));
        // The cluster-wide view is monotonic even when rounds complete out
        // of epoch order (round A can outwait round B across a partition).
        let view_newest = self
            .live_sites()
            .into_iter()
            .map(|s| self.node(s).installed_epoch())
            .max()
            .unwrap_or(0);
        self.view = Membership::new(ViewId(self.view.id.0.max(view_newest)), self.live_sites());
        // Everything held while down and during the rounds arrives now.
        // (Wires whose link a partition currently cuts go back on hold at
        // delivery time.)
        self.sched.replay_held(site);
    }

    /// `site`'s own surviving pre-crash payload wires for domain `domain`
    /// still sitting in the scheduler's hold buffers (cut by a partition,
    /// or destined to a site that was down). Order-assignment wires are
    /// left out — every view member fenced the dead incarnation's — and so
    /// are consensus wires: re-proposing lost material is the consensus
    /// protocol's own job.
    fn own_held_wires(&self, site: SiteId, domain: u16) -> Vec<Wire<TxnPayload>> {
        (self.sched.held())
            .filter(|(_, a)| a.from == site && a.group == domain)
            .filter(|(_, a)| matches!(a.wire, Wire::Data(_) | Wire::OracleData { .. }))
            .map(|(_, a)| a.wire.clone())
            .collect()
    }

    /// Applies one nemesis event at its scheduled time: the scheduler puts
    /// it in force ([`Sched::fault`]), and a crash or a recovery it leaves
    /// runs here. The live-only faults leave nothing: the virtual-time
    /// driver has no OS threads to stall and no bounded channels to
    /// saturate, so a schedule carrying them degrades to its network/crash
    /// subset here. The threaded runtime (`runtime::LiveNemesis`) injects
    /// them for real — the cross-driver conformance suite runs the same
    /// schedule through both.
    fn handle_nemesis(&mut self, ev: &NemesisEvent) {
        match self.sched.fault(ev) {
            Todo::Crash(site) => self.crash_site(site),
            Todo::Recover(site) => {
                let donor = SiteId::all(self.config.sites)
                    .find(|s| *s != site && self.is_live(*s))
                    .expect("nemesis recovery requires a live donor");
                self.begin_recovery(site, donor);
            }
            Todo::Nothing | Todo::Stall { .. } | Todo::Pressure { .. } => {}
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("sites", &self.config.sites)
            .field("classes", &self.config.classes)
            .field("groups", &self.config.groups)
            .field("mode", &self.config.mode)
            .field("now", &self.sched.now())
            .field("completed", &self.ledger.completed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::{ObjectKey, ProcError};
    use otp_txn::history::{check_one_copy_serializable, check_same_committed_set};

    /// `add(key, delta)` read-modify-write procedure.
    pub(crate) fn test_registry() -> Arc<ProcRegistry> {
        let mut reg = ProcRegistry::new();
        reg.register_fn("add", |ctx, args| {
            let (k, d) = match (args.first(), args.get(1)) {
                (Some(Value::Int(k)), Some(Value::Int(d))) => (ObjectKey::new(*k as u64), *d),
                _ => return Err(ProcError::BadArgs("add(key, delta)".into())),
            };
            let v = ctx.read(k)?.as_int().unwrap_or(0);
            ctx.write(k, Value::Int(v + d))?;
            ctx.emit(Value::Int(v + d));
            Ok(())
        });
        Arc::new(reg)
    }

    fn initial_data(classes: usize, keys: u64) -> Vec<(ObjectId, Value)> {
        let mut data = Vec::new();
        for c in 0..classes as u32 {
            for k in 0..keys {
                data.push((ObjectId::new(c, k), Value::Int(0)));
            }
        }
        data
    }

    fn cluster(cfg: ClusterConfig, data: Vec<(ObjectId, Value)>) -> Cluster {
        ClusterBuilder::from_config(cfg).registry(test_registry()).initial_data(data).build()
    }

    fn drive_workload(cluster: &mut Cluster, txns: u64, spacing: SimDuration) {
        let sites = cluster.config().sites;
        let classes = cluster.config().classes;
        let mut t = SimTime::from_millis(1);
        for i in 0..txns {
            let site = SiteId::new((i % sites as u64) as u16);
            let class = ClassId::new((i % classes as u64) as u32);
            cluster.schedule_update(
                t,
                site,
                class,
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += spacing;
        }
    }

    #[test]
    fn otp_cluster_end_to_end() {
        let cfg = ClusterConfig::new(4, 4).with_seed(7);
        let mut c = cluster(cfg, initial_data(4, 2));
        drive_workload(&mut c, 40, SimDuration::from_millis(1));
        c.run_until(SimTime::from_secs(60));
        let stats = c.stats();
        assert_eq!(stats.completed, 40, "all requests commit at their origin");
        assert!(c.converged(), "all sites reach the same committed state");
        assert!(check_same_committed_set(&c.committed_ids()).is_ok());
        check_one_copy_serializable(&c.histories()).unwrap();
        // 40 adds of +1 spread over 4 classes on key 0 → each class key0 = 10.
        for cl in 0..4u32 {
            assert_eq!(
                c.replicas[0].db().read_committed(ObjectId::new(cl, 0)),
                Some(&Value::Int(10))
            );
        }
    }

    #[test]
    fn conservative_cluster_end_to_end() {
        let cfg = ClusterConfig::new(3, 2).with_mode(Mode::Conservative).with_seed(11);
        let mut c = cluster(cfg, initial_data(2, 2));
        drive_workload(&mut c, 20, SimDuration::from_millis(1));
        c.run_until(SimTime::from_secs(60));
        let stats = c.stats();
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.counters.get("abort"), 0, "conservative never aborts");
        assert!(c.converged());
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    #[test]
    fn otp_and_conservative_agree_on_final_state() {
        let mk = |mode| {
            let cfg = ClusterConfig::new(3, 2).with_mode(mode).with_seed(5);
            let mut c = cluster(cfg, initial_data(2, 1));
            drive_workload(&mut c, 30, SimDuration::from_micros(700));
            c.run_until(SimTime::from_secs(60));
            c
        };
        let otp = mk(Mode::Otp);
        let cons = mk(Mode::Conservative);
        assert_eq!(otp.stats().completed, 30);
        assert_eq!(cons.stats().completed, 30);
        // Same adds in both → same final state (RMW of +1 commutes here,
        // but per-class order equality is the stronger claim tested via
        // committed_state_eq on counter values).
        assert!(otp.replicas[0].db().committed_state_eq(cons.replicas[0].db()));
    }

    #[test]
    fn scrambled_engine_with_mismatches_still_serializable() {
        // One single conflict class, so tentative-order swaps always hit
        // conflicting transactions and must trigger reorders/aborts.
        let cfg = ClusterConfig::new(3, 1)
            .with_engine(EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(4),
                swap_probability: 0.3,
            })
            .with_seed(13);
        let mut c = cluster(cfg, initial_data(1, 1));
        drive_workload(&mut c, 60, SimDuration::from_micros(500));
        c.run_until(SimTime::from_secs(120));
        let stats = c.stats();
        assert_eq!(stats.completed, 60);
        assert!(c.converged());
        check_one_copy_serializable(&c.histories()).unwrap();
        // With 30% swaps on a single class there must be reordering
        // activity.
        assert!(
            stats.counters.get("reorder") + stats.counters.get("abort") > 0,
            "{:?}",
            stats.counters
        );
    }

    #[test]
    fn queries_snapshot_consistently() {
        let cfg = ClusterConfig::new(3, 2).with_seed(17);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 20, SimDuration::from_millis(1));
        // Queries at various times, reading both classes.
        for i in 0..10u64 {
            c.schedule_query(
                SimTime::from_millis(2 + i * 3),
                SiteId::new((i % 3) as u16),
                vec![ObjectId::new(0, 0), ObjectId::new(1, 0)],
            );
        }
        c.run_until(SimTime::from_secs(60));
        assert_eq!(c.query_results.len(), 10);
        check_one_copy_serializable(&c.histories()).unwrap();
        let stats = c.stats();
        assert_eq!(stats.query_latency.len(), 10);
    }

    #[test]
    fn sequencer_engine_works_for_conservative_mode() {
        let cfg = ClusterConfig::new(3, 2)
            .with_engine(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO })
            .with_mode(Mode::Conservative)
            .with_seed(23);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 15, SimDuration::from_millis(1));
        c.run_until(SimTime::from_secs(60));
        assert_eq!(c.stats().completed, 15);
        assert!(c.converged());
    }

    #[test]
    fn crash_recovery_converges() {
        let cfg = ClusterConfig::new(4, 2).with_seed(29);
        let mut c = cluster(cfg, initial_data(2, 1));
        // Phase 1 workload — submitted at sites 0-2 only, so the crash of
        // site 3 cannot lose client requests (a crashed origin drops its
        // own unsent submissions by design).
        let mut t = SimTime::from_millis(1);
        for i in 0..20u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        // Site 3 crashes mid-run and recovers later.
        c.schedule_crash(SimTime::from_millis(8), SiteId::new(3));
        c.schedule_recover(SimTime::from_millis(200), SiteId::new(3), SiteId::new(0));
        // Phase 2 workload after recovery.
        let mut t = SimTime::from_millis(250);
        for i in 0..10u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(120));
        let stats = c.stats();
        assert_eq!(stats.completed, 30, "all (non-crashed-origin) requests done");
        assert!(c.converged(), "recovered site matches the others");
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    #[test]
    fn crash_recovery_converges_in_conservative_mode() {
        let cfg = ClusterConfig::new(4, 2).with_mode(Mode::Conservative).with_seed(43);
        let mut c = cluster(cfg, initial_data(2, 1));
        let mut t = SimTime::from_millis(1);
        for i in 0..20u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        c.schedule_crash(SimTime::from_millis(8), SiteId::new(3));
        c.schedule_recover(SimTime::from_millis(200), SiteId::new(3), SiteId::new(0));
        let mut t = SimTime::from_millis(250);
        for i in 0..8u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(120));
        assert_eq!(c.stats().completed, 28);
        assert!(c.converged(), "conservative recovery converges");
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    /// Commits trim the chains they wrote once the watermark covers them,
    /// so chains stay short *during* a run — and every snapshot query
    /// still reads exactly the committed prefix its snapshot names.
    #[test]
    fn version_gc_bounds_history_without_breaking_queries() {
        let cfg = ClusterConfig::new(3, 1).with_seed(37);
        let mut c = cluster(cfg, initial_data(1, 1));
        // 50 `+1`s on the one key, and a query every 3 ms at a rotating site.
        drive_workload(&mut c, 50, SimDuration::from_millis(2));
        for i in 0..40u64 {
            let site = SiteId::new((i % 3) as u16);
            c.schedule_query(SimTime::from_millis(1 + i * 3), site, vec![ObjectId::new(0, 0)]);
        }
        for ms in 1..=300 {
            c.run_until(SimTime::from_millis(ms));
            for r in &c.replicas {
                // One class commits in index order: the watermark covers
                // every commit at once, so one version is all that is left.
                assert_eq!(r.db().retained_versions(), 1, "at {ms} ms");
            }
        }
        c.run_until(SimTime::from_secs(60));
        assert_eq!(c.stats().completed, 50);
        assert_eq!(c.query_results.len(), 40);
        for (snap, values) in c.query_results.values() {
            // Index i is the i-th `+1`: the snapshot after i reads i.
            assert_eq!(values, &vec![Value::Int(snap.watermark().raw() as i64)], "{snap:?}");
        }
        for r in &c.replicas {
            assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(50)));
        }
    }

    /// A recovery replay re-commits at a site what its earlier incarnation
    /// committed. Whether the completion entry is still held (the site's
    /// bit is set) or already released (the entry is gone), the replay
    /// counts no completion, no latency sample and no held entry again.
    #[test]
    fn replayed_commit_counts_nothing_twice() {
        let cfg = ClusterConfig::new(3, 2).with_seed(5);
        let mut c = cluster(cfg, initial_data(2, 1));
        let args = vec![Value::Int(0), Value::Int(1)];
        let released = c.schedule_update(
            SimTime::from_millis(1),
            SiteId::new(0),
            ClassId::new(0),
            ProcId::new(0),
            args,
        );
        c.run_until(SimTime::from_secs(10));
        assert!(c.ledger.completions.is_empty(), "every member committed: released");
        // Another transaction, committed so far only at its home.
        let home = SiteId::new(1);
        let held = TxnId::new(home, 99);
        let entry = Completion { home: Some(home), ..Completion::at(c.now()) };
        c.ledger.completions.insert(held, entry);
        // What a site's commit report settles.
        let commit = |c: &mut Cluster, site, txn| {
            let now = c.now();
            c.ledger.settle(&mut c.txn_outputs, &c.topology, site, now, txn, Vec::new());
        };
        commit(&mut c, home, held);
        let before = c.stats();
        commit(&mut c, SiteId::new(0), released);
        commit(&mut c, home, held);
        let after = c.stats();
        assert_eq!(after.completed, before.completed);
        assert_eq!(after.commit_latency.len(), before.commit_latency.len());
        assert_eq!(after.global_commit_latency.len(), before.global_commit_latency.len());
        assert_eq!(c.ledger.completions.keys().collect::<Vec<_>>(), vec![&held], "nothing re-held");
    }

    #[test]
    fn nemesis_partition_heals_and_converges() {
        use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
        let cfg = ClusterConfig::new(4, 2).with_seed(61);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 30, SimDuration::from_millis(1));
        // Site 3 is cut off mid-load; its traffic (and traffic to it) is
        // held at the partition and released at heal.
        let schedule = NemesisSchedule::from_events(vec![
            (
                SimTime::from_millis(5),
                NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(3)] },
            ),
            (SimTime::from_millis(120), NemesisEvent::Heal),
        ]);
        c.schedule_nemesis(&schedule);
        c.run_until(SimTime::from_secs(300));
        assert_eq!(c.stats().completed, 30, "heal releases everything");
        assert!(c.converged());
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    #[test]
    fn nemesis_crash_recover_picks_a_live_donor() {
        use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
        let cfg = ClusterConfig::new(4, 2).with_seed(67);
        let mut c = cluster(cfg, initial_data(2, 1));
        // Submit from sites 0-2 only so the victim's crash loses nothing.
        let mut t = SimTime::from_millis(1);
        for i in 0..24u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        let schedule = NemesisSchedule::from_events(vec![
            (SimTime::from_millis(8), NemesisEvent::Crash { site: SiteId::new(3) }),
            (SimTime::from_millis(150), NemesisEvent::Recover { site: SiteId::new(3) }),
        ]);
        c.schedule_nemesis(&schedule);
        assert_eq!(c.live_sites().len(), 4);
        c.run_until(SimTime::from_secs(300));
        assert!(c.is_live(SiteId::new(3)), "nemesis recovery brought it back");
        assert_eq!(c.stats().completed, 24);
        assert!(c.converged());
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    #[test]
    fn nemesis_loss_burst_and_jitter_spike_only_delay() {
        use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
        let cfg = ClusterConfig::new(3, 2).with_seed(71);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 30, SimDuration::from_millis(1));
        let schedule = NemesisSchedule::from_events(vec![
            (SimTime::from_millis(3), NemesisEvent::LossBurst { probability: 0.3 }),
            (SimTime::from_millis(40), NemesisEvent::LossEnd),
            (SimTime::from_millis(50), NemesisEvent::JitterSpike { scale: 6.0 }),
            (SimTime::from_millis(90), NemesisEvent::JitterEnd),
        ]);
        c.schedule_nemesis(&schedule);
        c.run_until(SimTime::from_secs(300));
        assert_eq!(c.stats().completed, 30, "loss is delay, not drop");
        assert!(c.converged());
        check_one_copy_serializable(&c.histories()).unwrap();
    }

    /// Composed-fault regression (caught in review of the chaos lab): a
    /// site broadcasts into a partition hold, crashes, and recovers from a
    /// donor that never saw the held wire. Without the recovery path
    /// re-teaching the fresh engine its own held traffic, the engine
    /// reuses the wire's message id — peers deduplicate the reuse and its
    /// slot becomes a permanent hole that stalls TO-delivery everywhere.
    #[test]
    fn partitioned_broadcast_then_crash_recover_does_not_stall() {
        use otp_simnet::nemesis::{NemesisEvent, NemesisSchedule};
        for engine in [
            EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
            EngineKind::SequencerBatched { order_delay: SimDuration::ZERO },
            EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(3),
                swap_probability: 0.0,
            },
        ] {
            let cfg = ClusterConfig::new(4, 2).with_engine(engine).with_seed(83);
            let mut c = cluster(cfg, initial_data(2, 1));
            // Site 0 submits while isolated: its multicast is held at the
            // cut. Then it crashes and recovers from site 1 mid-partition.
            c.schedule_update(
                SimTime::from_millis(1),
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            let schedule = NemesisSchedule::from_events(vec![
                (
                    SimTime::from_micros(500),
                    NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(0)] },
                ),
                (SimTime::from_millis(10), NemesisEvent::Crash { site: SiteId::new(0) }),
                (SimTime::from_millis(20), NemesisEvent::Recover { site: SiteId::new(0) }),
                (SimTime::from_millis(50), NemesisEvent::Heal),
            ]);
            c.schedule_nemesis(&schedule);
            // Post-heal probes at every site, including the bounced one.
            let mut probes = Vec::new();
            for s in 0..4u16 {
                probes.push(c.schedule_update(
                    SimTime::from_millis(200),
                    SiteId::new(s),
                    ClassId::new((s % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                ));
            }
            c.run_until(SimTime::from_secs(300));
            let report = c.check_invariants(&probes);
            assert!(report.is_ok(), "{engine:?}: {report}");
            assert_eq!(c.stats().completed, 5, "{engine:?}: held txn + probes all commit");
            assert!(c.converged(), "{engine:?}");
        }
    }

    #[test]
    fn generated_hostile_schedule_is_survivable() {
        use otp_simnet::nemesis::{NemesisKnobs, NemesisSchedule};
        let horizon = SimTime::from_millis(400);
        let schedule = NemesisSchedule::generate(5, 4, horizon, &NemesisKnobs::hostile());
        assert!(!schedule.is_empty());
        let cfg = ClusterConfig::new(4, 2).with_seed(5);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 40, SimDuration::from_millis(5));
        c.schedule_nemesis(&schedule);
        // Liveness probes once the schedule is quiescent.
        let mut probes = Vec::new();
        let probe_at = schedule.quiet_from + SimDuration::from_millis(200);
        for s in 0..4u16 {
            probes.push(c.schedule_update(
                probe_at,
                SiteId::new(s),
                ClassId::new((s % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            ));
        }
        c.run_until(SimTime::from_secs(600));
        let report = c.check_invariants(&probes);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.live_sites, 4);
        assert_eq!(report.checked_probes, 4);
    }

    #[test]
    fn invariants_flag_a_phantom_probe() {
        let cfg = ClusterConfig::new(3, 2).with_seed(73);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 10, SimDuration::from_millis(1));
        c.run_until(SimTime::from_secs(60));
        let phantom = TxnId::new(SiteId::new(0), 999_999);
        let report = c.check_invariants(&[phantom]);
        assert!(!report.is_ok());
        assert_eq!(report.violations.len(), 3, "one ProbeLost per live site");
        let text = format!("{report}");
        assert!(text.contains("liveness lost"), "{text}");
    }

    /// Each completed recovery installs a strictly newer view at every
    /// live site, and the epoch bundle of `check_invariants` holds.
    #[test]
    fn recovery_installs_monotonic_views_cluster_wide() {
        for engine in [
            EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
            EngineKind::SequencerBatched { order_delay: SimDuration::ZERO },
            EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(250) },
        ] {
            let cfg = ClusterConfig::new(4, 2).with_engine(engine).with_seed(97);
            let mut c = cluster(cfg, initial_data(2, 1));
            assert_eq!(c.current_view().id, otp_view::ViewId(0), "boot view");
            // Site 3 bounces twice: views 1 and 2 install.
            c.schedule_crash(SimTime::from_millis(5), SiteId::new(3));
            c.schedule_recover(SimTime::from_millis(50), SiteId::new(3), SiteId::new(0));
            c.schedule_crash(SimTime::from_millis(100), SiteId::new(3));
            c.schedule_recover(SimTime::from_millis(150), SiteId::new(3), SiteId::new(1));
            let mut t = SimTime::from_millis(250);
            for i in 0..8u64 {
                c.schedule_update(
                    t,
                    SiteId::new((i % 3) as u16),
                    ClassId::new((i % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                );
                t += SimDuration::from_millis(1);
            }
            c.run_until(SimTime::from_secs(120));
            assert_eq!(c.current_view().id, otp_view::ViewId(2), "{engine:?}");
            assert_eq!(c.current_view().len(), 4, "{engine:?}: all live again");
            for s in 0..4 {
                let site = SiteId::new(s as u16);
                let node = c.node(site);
                assert_eq!(node.installed_epoch(), 2, "{engine:?}: site {s} on the newest view");
                assert_eq!(node.group_epochs(), [1, 2], "{engine:?}: site {s}");
            }
            let report = c.check_invariants(&[]);
            assert!(report.is_ok(), "{engine:?}: {report}");
            let stats = c.stats();
            assert_eq!(stats.counters.get("view_install"), 8, "2 views × 4 sites");
            assert!(c.converged(), "{engine:?}");
        }
    }

    /// The epoch bundle reports both failure modes: a non-increasing
    /// per-site history and a live site lagging the newest view.
    #[test]
    fn epoch_invariants_flag_regression_and_divergence() {
        let cfg = ClusterConfig::new(3, 2).with_seed(101);
        let mut c = cluster(cfg, initial_data(2, 1));
        drive_workload(&mut c, 6, SimDuration::from_millis(1));
        c.run_until(SimTime::from_secs(30));
        assert!(c.check_invariants(&[]).is_ok());
        // Doctor the bookkeeping the way a membership bug would.
        let node = &mut c.nodes[1].site;
        node.slot_mut(node.group).epochs = vec![2, 2];
        let report = c.check_invariants(&[]);
        assert!(!report.is_ok());
        let text = format!("{report}");
        assert!(text.contains("epoch regression"), "{text}");
        assert!(text.contains("epoch divergence"), "{text}");
    }

    #[test]
    fn commit_latency_hides_agreement_when_exec_dominates() {
        // Agreement delay 1ms, execution 5ms → OTP commit latency should be
        // close to execution time, far below exec+agreement.
        let base = ClusterConfig::new(3, 4)
            .with_engine(EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(1),
                swap_probability: 0.0,
            })
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(5)));
        let mut otp = cluster(base.clone().with_seed(31), initial_data(4, 1));
        drive_workload(&mut otp, 24, SimDuration::from_millis(8));
        otp.run_until(SimTime::from_secs(60));
        let mut cons =
            cluster(base.with_mode(Mode::Conservative).with_seed(31), initial_data(4, 1));
        drive_workload(&mut cons, 24, SimDuration::from_millis(8));
        cons.run_until(SimTime::from_secs(60));

        let lo = otp.stats().commit_latency.mean();
        let lc = cons.stats().commit_latency.mean();
        assert!(lo < lc, "OTP ({lo}) must beat conservative ({lc}) by overlapping agreement");
    }

    // ------------------------------------------------------------------
    // Sharded sequencing groups
    // ------------------------------------------------------------------

    fn sharded_cfg(sites: usize, classes: usize, groups: usize, seed: u64) -> ClusterConfig {
        ClusterConfig::new(sites, classes)
            .with_engine(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO })
            .with_groups(groups)
            .with_seed(seed)
    }

    /// A workload where every site submits only its own group's classes
    /// never produces a single cross-group frame: the two groups run as
    /// fully independent clusters.
    #[test]
    fn sharded_disjoint_workload_stays_in_group() {
        // 4 sites, 2 groups: sites {0,1} order class 0, sites {2,3} class 1.
        let cfg = sharded_cfg(4, 2, 2, 7);
        let mut c = cluster(cfg, initial_data(2, 2));
        let mut t = SimTime::from_millis(1);
        for i in 0..20u64 {
            let (site, class) = if i % 2 == 0 {
                (SiteId::new((i / 2 % 2) as u16), ClassId::new(0))
            } else {
                (SiteId::new((2 + i / 2 % 2) as u16), ClassId::new(1))
            };
            c.schedule_update(t, site, class, ProcId::new(0), vec![Value::Int(0), Value::Int(1)]);
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(60));
        let stats = c.stats();
        assert_eq!(stats.completed, 20);
        assert_eq!(c.cross_group_frames(), 0, "disjoint workload crosses no group boundary");
        assert!(c.converged(), "same-group sites agree");
        let report = c.check_invariants(&[]);
        assert!(report.is_ok(), "{report}");
        // 10 adds of +1 per class, each visible at its group's sites.
        assert_eq!(c.replicas[0].db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(10)));
        assert_eq!(c.replicas[2].db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(10)));
    }

    /// A request for a foreign group's class is forwarded to a live
    /// member of that group (one gateway unicast) and commits there.
    #[test]
    fn sharded_gateway_forwards_foreign_class() {
        let cfg = sharded_cfg(4, 2, 2, 19);
        let mut c = cluster(cfg, initial_data(2, 1));
        // Site 0 (group 0) submits a class-1 transaction (group 1).
        c.schedule_update(
            SimTime::from_millis(1),
            SiteId::new(0),
            ClassId::new(1),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(1)],
        );
        c.run_until(SimTime::from_secs(30));
        let stats = c.stats();
        assert_eq!(stats.completed, 1, "forwarded request commits");
        assert!(c.cross_group_frames() > 0, "the forward itself crossed groups");
        assert_eq!(c.replicas[2].db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(1)));
        // The submitting group never sees the data: class 1 lives in
        // group 1's replicas only.
        assert_eq!(c.replicas[0].db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(0)));
    }

    /// A cross-group update's subs commit in every involved group, and
    /// the invariant bundle (including cross-serialization) holds.
    #[test]
    fn sharded_cross_update_commits_in_both_groups() {
        let cfg = sharded_cfg(4, 2, 2, 23);
        let mut c = cluster(cfg, initial_data(2, 1));
        // Background single-group traffic in both groups.
        let mut t = SimTime::from_millis(1);
        for i in 0..8u64 {
            let (site, class) = if i % 2 == 0 {
                (SiteId::new(0), ClassId::new(0))
            } else {
                (SiteId::new(2), ClassId::new(1))
            };
            c.schedule_update(t, site, class, ProcId::new(0), vec![Value::Int(0), Value::Int(1)]);
            t += SimDuration::from_millis(1);
        }
        // One cross-group transaction touching both classes.
        let ids = c.schedule_cross_update(
            SimTime::from_millis(4),
            SiteId::new(1),
            vec![
                (ClassId::new(0), ProcId::new(0), vec![Value::Int(0), Value::Int(100)]),
                (ClassId::new(1), ProcId::new(0), vec![Value::Int(0), Value::Int(100)]),
            ],
        );
        assert_eq!(ids.len(), 2);
        c.run_until(SimTime::from_secs(60));
        let stats = c.stats();
        assert_eq!(stats.completed, 10, "8 singles + 2 cross subs");
        assert!(c.converged());
        let report = c.check_invariants(&[]);
        assert!(report.is_ok(), "{report}");
        // 4 adds of +1 plus one add of +100 per class.
        assert_eq!(c.replicas[0].db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(104)));
        assert_eq!(c.replicas[3].db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(104)));
    }

    #[test]
    fn hot_path_values_stay_small() {
        use otp_broadcast::EngineAction;
        use std::mem::size_of;
        // A variant off the per-message path is boxed: each of these
        // moves by value on every message, timer or site step.
        let pinned = [
            ("Wire", size_of::<Wire<TxnPayload>>(), 48),
            ("EngineAction", size_of::<EngineAction<TxnPayload>>(), 56),
            ("Arrival", size_of::<Arrival<Wire<TxnPayload>>>(), 56),
            ("Output", size_of::<Output<SiteData>>(), 56),
            ("queued event", Sched::<ClusterData>::EVENT_BYTES, 80),
            ("Input", size_of::<Input<SiteData>>(), 80),
        ];
        for (name, size, bound) in pinned {
            assert!(size <= bound, "{name} is {size} B, more than {bound} B");
        }
    }

    #[test]
    #[should_panic(expected = "do not partition evenly")]
    fn builder_rejects_uneven_site_partition() {
        let _ = ClusterBuilder::from_config(
            ClusterConfig::new(5, 2)
                .with_engine(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO })
                .with_groups(2),
        )
        .build();
    }

    #[test]
    #[should_panic(expected = "at least one conflict class")]
    fn builder_rejects_fewer_classes_than_groups() {
        let _ = ClusterBuilder::from_config(
            ClusterConfig::new(4, 1)
                .with_engine(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO })
                .with_groups(2),
        )
        .build();
    }

    #[test]
    #[should_panic(expected = "sequencer-family engine")]
    fn builder_rejects_non_sequencer_engine_for_groups() {
        let _ = ClusterBuilder::from_config(ClusterConfig::new(4, 2).with_groups(2)).build();
    }

    #[test]
    fn submit_rejects_down_site_and_accepts_live_one() {
        let cfg = ClusterConfig::new(3, 2).with_seed(3);
        let mut c = cluster(cfg, initial_data(2, 1));
        c.schedule_crash(SimTime::from_millis(1), SiteId::new(2));
        c.run_until(SimTime::from_millis(2));
        assert_eq!(
            c.submit(SiteId::new(2), ClassId::new(0), ProcId::new(0), vec![]),
            Err(SubmitError::SiteDown)
        );
        let id = c
            .submit(
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            )
            .expect("live site admits");
        c.run_until(SimTime::from_secs(30));
        assert!(c.txn_outputs.contains_key(&id), "admitted request committed");
    }
}
