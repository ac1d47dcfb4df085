//! One site's transaction logic, written once for both drivers.
//!
//! The paper's algorithm is one state machine per site, driven by
//! Opt-delivery and TO-delivery. This module holds every decision the
//! simulated [`crate::Cluster`] and the threaded
//! [`crate::runtime::LiveCluster`] make identically on a site's behalf:
//!
//! * what a site keeps for ordering ([`SiteNode`]): one engine per order
//!   domain it belongs to, with the view epochs installed for it, its
//!   [`CrossGate`], whether it serves and, while it recovers, its open
//!   view-change rounds. A message body is kept in one place only, the
//!   payload store of its domain's engine;
//! * building the site's ordering engines ([`EngineFactory`], the relay's
//!   included) and replica ([`replicas`]);
//! * handing a submitted request to the engine;
//! * interpreting both order streams' engine actions: on a group stream,
//!   the one deep copy at Opt-delivery, and every TO-delivery — an id
//!   whose body is read from the engine — through the gate, which passes
//!   it straight on when the site has no cross-group sub waiting; on the
//!   relay stream, at TO-delivery the relay order, the site's own sub
//!   broadcast on its group stream and the gate release that admits — or,
//!   while the site recovers, nothing until its recovery finishes and
//!   folds the skipped tail in;
//! * both sides of a view-change round (DESIGN.md §7): a member's
//!   replies and a recovering initiator's steps, opening a round and
//!   superseding an older one, and the install from a base the driver
//!   picks ([`SiteNode::base`]) onto a fresh engine it builds;
//! * interpreting the replica's actions;
//! * tracing every lifecycle stage on that path ([`record_stage`]).
//!
//! A driver reaches all of it through one entry point,
//! [`SiteNode::handle`]: an input in — a wire batch, a timer, a finished
//! execution, a submission or a control ([`SiteControl`]) — and plain-data
//! outputs out ([`SiteOutputs`]: sends, multicasts, timers, executions to
//! start, and [`SiteReport`]s such as a commit or a completed round).
//! Both drivers carry the outputs out their own way: the simulator on its
//! scheduler ([`otp_simnet::sched::Sched`]), the threaded runtime on its
//! channels and wall-clock heap. This file is in determinism scope: it
//! reads no clock of its own — the time a trace event is stamped with
//! comes from the driver ([`Env`], DESIGN.md §16).

use crate::cluster::{EngineKind, Mode, TxnPayload};
use crate::event::{ExecToken, ReplicaAction};
use crate::replica::Replica;
use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCounters, EngineCtx, EngineSnapshot, GroupId, MsgId,
    OptAbcast, OptAbcastConfig, Oracle, OrderDomain, ScrambleConfig, ScrambledAbcast, SeqAbcast,
    TimerToken, Wire,
};
use otp_simnet::sched::{Arrival, Data, Input, Output, Outputs};
use otp_simnet::{SimRng, SimTime, SiteId};
use otp_storage::{ClassId, Database, ObjectId, ProcRegistry, Value};
use otp_telemetry::{Counter, MetricsRegistry, Scope, Stage, TraceEvent, TraceSink};
use otp_txn::txn::{TxnId, TxnRequest};
use otp_view::{CrashOutcome, DigestOutcome, SummaryOutcome, ViewChange};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

/// An ordering engine as both drivers hold it (`Send`: a site thread
/// owns its engine).
pub(crate) type Engine = Box<dyn AtomicBroadcast<TxnPayload> + Send>;

/// The panic message of a delivery whose payload belongs to the other
/// stream.
const WRONG_STREAM: &str = "group streams carry only transactions, the relay descriptors";

/// Builds the engines of one [`EngineKind`], in both drivers.
#[derive(Debug)]
pub(crate) struct EngineFactory {
    kind: EngineKind,
    /// The send order every scrambled engine shares.
    oracle: Arc<Oracle>,
    /// Each scrambled engine forks its own rng off this stream, in build
    /// order: the drivers build every site's engine first and recovery
    /// engines after.
    rng: SimRng,
}

impl EngineFactory {
    /// A factory for `kind` under the cluster's master `seed`.
    pub(crate) fn new(kind: EngineKind, seed: u64) -> Self {
        EngineFactory { kind, oracle: Oracle::new(), rng: SimRng::seed_from(seed ^ 0x5ca1ab1e) }
    }

    /// A fresh engine ordering `domain`, counting into `metrics` under
    /// `scope` (see [`attach_engine_counters`]). The relay's engine is
    /// always a plain sequencer, whatever the kind: cross-group
    /// descriptors are rare and need nothing fancier than a total order
    /// everyone shares, and building it takes nothing from the rng.
    pub(crate) fn make(
        &mut self,
        domain: &OrderDomain,
        metrics: &MetricsRegistry,
        scope: Scope,
    ) -> Engine {
        let mut engine: Engine = match self.kind {
            _ if domain.id == GroupId::RELAY => Box::new(SeqAbcast::new(domain.sequencer())),
            EngineKind::Opt { consensus_timeout } => {
                Box::new(OptAbcast::new(OptAbcastConfig::new(domain.len(), consensus_timeout)))
            }
            EngineKind::OptBatched { consensus_timeout, batch_delay } => Box::new(OptAbcast::new(
                OptAbcastConfig::new(domain.len(), consensus_timeout).with_batch_delay(batch_delay),
            )),
            EngineKind::SequencerBatched { order_delay } => {
                Box::new(SeqAbcast::new(domain.sequencer()).with_order_batching(order_delay))
            }
            EngineKind::Scrambled { agreement_delay, swap_probability } => {
                let cfg = ScrambleConfig { agreement_delay, swap_probability };
                Box::new(ScrambledAbcast::new(cfg, Arc::clone(&self.oracle), self.rng.fork()))
            }
        };
        attach_engine_counters(&mut engine, metrics, scope);
        engine
    }

    /// Site `site`'s slot for `domain`, at table index `index`: a fresh
    /// engine counting into `metrics` under the site and the index, in the
    /// boot view. The domain's ordering authority is its sequencer when
    /// the engine is the relay's or of the sequencer family
    /// ([`EngineKind::has_authority`]).
    pub(crate) fn slot(
        &mut self,
        site: SiteId,
        index: u16,
        domain: OrderDomain,
        metrics: &MetricsRegistry,
    ) -> DomainSlot {
        let engine = self.make(&domain, metrics, Scope::site(site).group(index));
        let authority =
            (domain.id == GroupId::RELAY || self.kind.has_authority()).then(|| domain.sequencer());
        DomainSlot { index, domain, engine, authority, epochs: Vec::new() }
    }
}

/// The registry names of an engine's counters: stale-epoch rejects,
/// one-step and round decisions ([`attach_engine_counters`]).
pub(crate) const ENGINE_COUNTERS: [&str; 3] = ["stale_epoch_reject", "fast_decide", "slow_decide"];

/// Hands `engine` its [`ENGINE_COUNTERS`] handles in the driver's registry
/// (`scope` = its site and order domain). The engine bumps them in place
/// of private tallies, so the registry is the one place the counts live.
fn attach_engine_counters(engine: &mut Engine, metrics: &MetricsRegistry, scope: Scope) {
    let [stale_reject, fast_decide, slow_decide] =
        ENGINE_COUNTERS.map(|name| metrics.counter(name, scope));
    engine.attach_counters(EngineCounters { stale_reject, fast_decide, slow_decide });
}

/// One `mode` replica per site `0..sites`, each over its own copy of a
/// database of `classes` classes loaded with `initial_data`.
pub(crate) fn replicas(
    mode: Mode,
    sites: usize,
    classes: usize,
    registry: &Arc<ProcRegistry>,
    initial_data: &[(ObjectId, Value)],
) -> Vec<Replica> {
    let mut db = Database::new(classes);
    for (oid, v) in initial_data {
        db.load(*oid, v.clone());
    }
    let replica = |site| Replica::with_mode(site, db.clone(), Arc::clone(registry), mode);
    SiteId::all(sites).map(replica).collect()
}

/// One order domain a site belongs to: the domain, the site's engine for
/// it and the view epochs the site installed for it.
pub(crate) struct DomainSlot {
    /// The domain's index in the driver's domain table: the tag its wires
    /// and timers carry, and the group label of its engine's metrics.
    pub(crate) index: u16,
    pub(crate) domain: OrderDomain,
    pub(crate) engine: Engine,
    /// The domain's ordering authority, if its engine has one
    /// ([`EngineFactory::slot`]): a round that re-admits it fences its dead
    /// incarnation's order assignments.
    pub(crate) authority: Option<SiteId>,
    /// Installed view epochs in installation order (strictly increasing;
    /// empty = the boot view, epoch 0).
    pub(crate) epochs: Vec<u64>,
}

impl DomainSlot {
    /// The epoch the site currently has installed (0 = the boot view).
    pub(crate) fn installed(&self) -> u64 {
        self.epochs.last().copied().unwrap_or(0)
    }
}

/// Whether a site serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Up,
    Crashed,
    /// Running its view-change rounds: it serves nothing, and its relay
    /// deliveries wait for [`Site::finish_recovery`].
    Recovering,
}

/// The registry names of [`ViewCounters`], in field order.
pub(crate) const VIEW_COUNTERS: [&str; 5] = [
    "stale_view_digest",
    "view_summary_bytes",
    "view_digest_bytes",
    "view_round_us",
    "view_supersede",
];

/// The view change's cluster-wide counters (`Scope::global()`), bumped
/// where a round step runs. Detached until
/// [`SiteNode::with_view_counters`] registers them.
#[derive(Debug, Default)]
struct ViewCounters {
    /// Round replies and floors for a round that no longer exists
    /// (superseded, completed or abandoned) or of another epoch — normal
    /// under churn, but kept visible.
    stale: Arc<Counter>,
    /// Wire bytes of every `StateSummary` / `StateDigest` sent.
    summary_bytes: Arc<Counter>,
    digest_bytes: Arc<Counter>,
    /// Microseconds rounds spent between propose and install.
    round_us: Arc<Counter>,
    /// Rounds replaced by a newer proposal for the same site.
    supersede: Arc<Counter>,
}

/// What one site keeps for ordering, in either driver: one slot per order
/// domain it belongs to (its group's first, the relay's second when the
/// cluster is sharded), the gate that merges the group's TO-stream with
/// the relay order, whether the site serves and, while it recovers, its
/// open view-change rounds. The replica stays with the driver; [`Site`]
/// borrows both for one step.
pub(crate) struct SiteNode {
    me: SiteId,
    /// This site's ordering group: the domain index of its group stream
    /// and the group label of its trace events (0 when unsharded).
    pub(crate) group: u16,
    /// Number of ordering groups: group `c % groups` orders class `c`.
    groups: usize,
    pub(crate) status: Status,
    pub(crate) domains: Vec<DomainSlot>,
    pub(crate) gate: CrossGate,
    /// What the gate releases in one step, handed to the replica as one
    /// batch; empty between steps, kept for its allocation.
    released: Vec<(TxnId, ClassId)>,
    /// Relay definitive deliveries already folded into the gate — the
    /// recovery reconcile point for the relay stream.
    pub(crate) relay_processed: usize,
    /// The open round of each domain not yet installed, while the site
    /// recovers, and the instant it was proposed (BTreeMap: domains are
    /// walked in index order).
    rounds: BTreeMap<u16, (ViewChange<TxnPayload>, SimTime)>,
    view: ViewCounters,
}

impl SiteNode {
    /// Site `me` of group `group` (of `groups`), ordering the domains of
    /// `domains` (group domain first), up and serving.
    pub(crate) fn new(me: SiteId, group: u16, groups: usize, domains: Vec<DomainSlot>) -> Self {
        debug_assert_eq!(domains.first().map(|d| d.index), Some(group), "group domain first");
        SiteNode {
            me,
            group,
            groups,
            status: Status::Up,
            domains,
            gate: CrossGate::default(),
            released: Vec::new(),
            relay_processed: 0,
            rounds: BTreeMap::new(),
            view: ViewCounters::default(),
        }
    }

    /// Counts the site's view-change steps into `metrics`, under the
    /// [`VIEW_COUNTERS`] names, shared by every site.
    pub(crate) fn with_view_counters(mut self, metrics: &MetricsRegistry) -> Self {
        let [stale, summary_bytes, digest_bytes, round_us, supersede] =
            VIEW_COUNTERS.map(|name| metrics.counter(name, Scope::global()));
        self.view = ViewCounters { stale, summary_bytes, digest_bytes, round_us, supersede };
        self
    }

    /// The slot of domain `index`.
    ///
    /// # Panics
    ///
    /// Panics when the site is not a member of that domain.
    pub(crate) fn slot(&self, index: u16) -> &DomainSlot {
        self.domains.iter().find(|d| d.index == index).expect("site belongs to the domain")
    }

    /// [`SiteNode::slot`], mutably.
    pub(crate) fn slot_mut(&mut self, index: u16) -> &mut DomainSlot {
        self.domains.iter_mut().find(|d| d.index == index).expect("site belongs to the domain")
    }

    /// The body of message `id` of domain `d`, read from the domain's
    /// engine: a TO-delivery names only the id.
    ///
    /// # Panics
    ///
    /// Panics when the engine holds no body for `id`: it TO-delivered a
    /// message it never Opt-delivered (it broke Local Order).
    fn payload(&self, d: u16, id: MsgId) -> &TxnPayload {
        self.slot(d).engine.payload(id).expect("Local Order: Opt-delivery precedes TO-delivery")
    }

    /// The engine of domain `index`, with the context the next call on it
    /// needs (the domain's installed epoch).
    fn engine_parts(&mut self, index: u16) -> (&mut Engine, EngineCtx<'_>) {
        let me = self.me;
        let slot = self.slot_mut(index);
        let epoch = slot.installed();
        (&mut slot.engine, EngineCtx::at_epoch(me, &slot.domain, epoch))
    }

    /// The group-domain view epochs in installation order (invariant:
    /// strictly increasing; live group members converge on the newest).
    pub(crate) fn group_epochs(&self) -> &[u64] {
        &self.slot(self.group).epochs
    }

    /// The group-domain view epoch currently installed (0 = the boot
    /// view).
    pub(crate) fn installed_epoch(&self) -> u64 {
        self.slot(self.group).installed()
    }

    /// Installs `epoch` for domain `d`: the domain's engine learns the
    /// epoch (and, with `fence` — the round re-admits the ordering
    /// authority — fences the dead incarnation's order assignments), and
    /// a newer epoch joins the domain's history.
    fn install_view(&mut self, d: u16, epoch: u64, fence: bool) {
        let slot = self.slot_mut(d);
        slot.engine.install_view(epoch, fence);
        if epoch > slot.installed() {
            slot.epochs.push(epoch);
        }
    }

    /// The site's open round for domain `d`, if it is recovering it.
    pub(crate) fn round(&self, d: u16) -> Option<&ViewChange<TxnPayload>> {
        self.rounds.get(&d).map(|(round, _)| round)
    }

    /// The domains the site still has an open round for, in index order.
    pub(crate) fn round_domains(&self) -> Vec<u16> {
        self.rounds.keys().copied().collect()
    }

    /// Opens `round`, proposed `at`, for domain `d`: the site recovers
    /// until every open round installed. A round still open for `d` is
    /// superseded — newest epoch wins ([`ViewChange::superseded_by`]):
    /// its late replies land as stale, and it counts as `view_supersede`.
    fn open_round(&mut self, d: u16, round: ViewChange<TxnPayload>, at: SimTime) {
        let epoch = round.epoch();
        self.status = Status::Recovering;
        if let Some((old, _)) = self.rounds.insert(d, (round, at)) {
            debug_assert!(old.superseded_by(epoch), "a newer round supersedes");
            self.view.supersede.incr();
        }
    }

    /// The site crashed: a round it was driving is abandoned with it.
    fn crash(&mut self) {
        self.status = Status::Crashed;
        self.rounds.clear();
    }

    /// What a site recovering domain `d` restores from when this site is
    /// its base, copied off this site and its `replica`: the engine's
    /// snapshot and, on a group stream, what rides beside the engine — the
    /// replica restored at `installer` (over `registry`), the gate and the
    /// relay processed count.
    pub(crate) fn base(
        &self,
        d: u16,
        replica: &Replica,
        installer: SiteId,
        registry: Arc<ProcRegistry>,
    ) -> Base {
        let snapshot = self.slot(d).engine.snapshot();
        let group = (d == self.group).then(|| {
            let (replica, actions) = replica.restored_at(installer, registry);
            let gate = self.gate.clone();
            Box::new(GroupBase { replica, actions, gate, relay_processed: self.relay_processed })
        });
        Base { snapshot, group }
    }
}

/// What a recovering site restores one order domain from
/// ([`SiteNode::base`]): a copy of the state of its base — the live member
/// with the longest log, or the site's own pre-crash state when no member
/// is live.
pub(crate) struct Base {
    /// The base engine's snapshot; the round's union is merged in at
    /// install.
    snapshot: EngineSnapshot<TxnPayload>,
    /// What rides beside a group stream's engine; a relay base is the
    /// engine snapshot alone.
    group: Option<Box<GroupBase>>,
}

/// What rides beside a group stream's engine in a base.
struct GroupBase {
    replica: Replica,
    actions: Vec<ReplicaAction>,
    gate: CrossGate,
    relay_processed: usize,
}

/// Per-site gate that merges a group's own TO-stream with the relay's
/// definitive order of cross-group transactions.
///
/// A group member holds every group-TO-delivered transaction in `queue`
/// and releases a prefix according to three rules, looped to fixpoint:
///
/// 1. a plain (single-group) head releases immediately — relay order
///    only constrains cross-group transactions;
/// 2. a cross head releases when it is the next unconsumed entry of
///    `relay_order` (the relay admitted it);
/// 3. if the next relay entry's sub is TO-delivered but stuck *behind* a
///    stalled cross head, it jumps the queue — relay order wins between
///    cross-group transactions, and nothing orders two cross txns within
///    the group stream anyway.
///
/// The release sequence is a pure function of (group TO sequence, relay
/// order), both cluster-agreed — so every member of a group releases the
/// same sequence, and cross-group transactions interleave identically at
/// *all* sites. A cross head whose relay slot has not arrived blocks the
/// plain transactions behind it: deterministic, and it converges as soon
/// as the relay stream catches up. With no cross sub queued (always so
/// with one group, and in the threaded runtime) every TO-delivery passes
/// at once, in TO order, as the batch it arrived in.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrossGate {
    /// Group-TO-delivered transactions awaiting release, in group TO
    /// order, with their cross id when they are cross-group subs.
    queue: VecDeque<(Arc<TxnRequest>, Option<u64>)>,
    /// Relay-dictated order of cross ids whose sub belongs to this
    /// site's group.
    pub(crate) relay_order: Vec<u64>,
    /// Next unconsumed `relay_order` index.
    cursor: usize,
    /// Cross ids whose relay descriptor this site already processed
    /// (dedup across duplicate relay injections).
    pub(crate) relay_seen: HashSet<u64>,
    /// Cross-sub txn ids already Opt-delivered to the replica (dedup
    /// across the copies different relay members inject; a plain
    /// transaction is broadcast once, so it needs none).
    seen_opt: HashSet<TxnId>,
    /// Cross-sub txn ids already released to TO (same dedup, definitive
    /// side).
    seen_to: HashSet<TxnId>,
}

impl CrossGate {
    /// Appends every transaction the rules admit to `out`, in order.
    fn release(&mut self, out: &mut Vec<(TxnId, ClassId)>) {
        loop {
            match self.queue.front() {
                Some((req, None)) => {
                    out.push((req.id, req.class));
                    self.queue.pop_front();
                }
                Some((req, Some(c))) => {
                    if self.cursor < self.relay_order.len() && self.relay_order[self.cursor] == *c {
                        out.push((req.id, req.class));
                        self.queue.pop_front();
                        self.cursor += 1;
                    } else if self.cursor < self.relay_order.len() {
                        let want = self.relay_order[self.cursor];
                        if let Some(pos) = self.queue.iter().position(|(_, x)| *x == Some(want)) {
                            let (jumper, _) = self.queue.remove(pos).expect("position just found");
                            out.push((jumper.id, jumper.class));
                            self.cursor += 1;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
    }
}

/// Txn ids of the cross-group subs of which `snap`'s definitive log holds
/// a copy, read off the snapshot's payload store: the seen sets of a gate
/// restored with that log.
pub(crate) fn delivered_cross_subs(snap: &EngineSnapshot<TxnPayload>) -> HashSet<TxnId> {
    let delivered: HashSet<MsgId> = snap.definitive_log.iter().copied().collect();
    snap.received
        .iter()
        .filter(|m| delivered.contains(&m.id))
        .filter_map(|m| match &m.payload {
            TxnPayload::Txn { req, cross: Some(_) } => Some(req.id),
            _ => None,
        })
        .collect()
}

/// The site's vocabulary as plain data ([`otp_simnet::sched::Data`]): a
/// wire, timer or multicast names the order domain it belongs to (the
/// wire's `group`, the timer's first half). A driver whose scheduler also
/// carries requests and commands of its own names their types `S` and
/// `C` (the simulated cluster does).
pub(crate) struct SiteData<S = SiteSubmit, C = SiteControl>(PhantomData<(S, C)>);

impl<S, C> Data for SiteData<S, C> {
    type Wire = Wire<TxnPayload>;
    type Timer = (u16, TimerToken);
    /// An execution attempt; the driver hands it back as
    /// [`Input::Done`] once the execution time has elapsed.
    type Work = ExecToken;
    type Submit = S;
    type Control = C;
    type Report = SiteReport;

    fn wire_size(wire: &Wire<TxnPayload>) -> u32 {
        wire.size_bytes()
    }

    /// View wires belong to a round; a crashed addressee will never
    /// answer it (the round learns via the crash notification), so they
    /// die instead of being held.
    fn held_while_down(wire: &Wire<TxnPayload>) -> bool {
        !is_view_wire(wire)
    }
}

/// The site's output buffer; a driver keeps one and reuses it.
pub(crate) type SiteOutputs = Outputs<SiteData>;

/// Whether `wire` is one of the view change's four wires.
pub(crate) fn is_view_wire(wire: &Wire<TxnPayload>) -> bool {
    matches!(
        wire,
        Wire::ViewChange { .. }
            | Wire::StateSummary { .. }
            | Wire::ViewFloor { .. }
            | Wire::StateDigest { .. }
    )
}

/// Something to broadcast.
pub(crate) enum SiteSubmit {
    /// A client request accepted here, broadcast on the site's group
    /// stream and traced as `Submit` then `Broadcast`.
    Request(TxnRequest),
    /// A payload the driver routed here, broadcast on domain `domain`
    /// untraced (the driver's router traces it).
    Broadcast { domain: u16, payload: TxnPayload },
}

/// A driver's command to a site: the steps of the view change, which
/// only a driver that sees every site can order (DESIGN.md §7). An input
/// moves on every site step, so the large payloads of the rare steps are
/// boxed.
pub(crate) enum SiteControl {
    /// The site crashed: it stops serving, and a round it was driving is
    /// abandoned.
    Crash,
    /// Opens `round` for domain `domain`: the site recovers until every
    /// open round installed. A round still open for the domain is
    /// superseded.
    Open { domain: u16, round: Box<ViewChange<TxnPayload>> },
    /// Starts the open round of `domain`: multicasts its announcement, or
    /// reports the round complete when nobody is left to answer.
    Announce(u16),
    /// A view-change wire of `domain` addressed to this site. `floor_live`
    /// is the driver's read of the initiator's state for a `ViewFloor`:
    /// whether that round still runs (a floor held at a partition can
    /// outlive it).
    ViewWire { domain: u16, wire: Wire<TxnPayload>, floor_live: bool },
    /// Member `crashed` of `domain` went down and will never reply to the
    /// site's open round for `domain`, if it has one.
    MemberCrashed { domain: u16, crashed: SiteId },
    /// Installs the site's completed round for `domain` from `base` onto
    /// `fresh` ([`Site::install`]).
    Install {
        domain: u16,
        base: Box<Base>,
        fresh: Engine,
        own_wires: Vec<Wire<TxnPayload>>,
        fence: u64,
    },
    /// The site's last round installed: catch up to `newest`, the newest
    /// epoch any live member carries for each of its domains (in slot
    /// order), and serve again.
    FinishRecovery(Vec<u64>),
}

/// What a site tells its driver.
#[derive(Debug)]
pub(crate) enum SiteReport {
    /// `txn` committed here; `output` is what its procedure emitted for
    /// the client.
    Committed { txn: TxnId, output: Vec<Value> },
    /// The site's round for this domain completed: the driver installs it.
    RoundComplete(u16),
    /// The site's last open round installed: the driver finishes its
    /// recovery.
    Recovered,
}

/// What a step borrows from its driver besides the node.
pub(crate) struct Env<'a> {
    pub(crate) replica: &'a mut Replica,
    /// `None` = tracing off: one branch per stage point, no clock read.
    pub(crate) trace: Option<&'a dyn TraceSink>,
    /// The instant a trace event is stamped with: virtual time in the
    /// simulator, nanoseconds since cluster start in the threaded runtime.
    /// Read only while a trace sink is attached, and by the view change.
    pub(crate) now: &'a dyn Fn() -> SimTime,
}

impl SiteNode {
    /// The one entry point: the site reacts to `input` — an arrival batch,
    /// one of its engines' timers, a finished execution, a submission or a
    /// control — with its replica and trace sink in `env`, and pushes what
    /// it asks of the driver onto `out`, in order.
    pub(crate) fn handle(&mut self, env: Env<'_>, input: Input<SiteData>, out: &mut SiteOutputs) {
        let mut site =
            Site { node: self, replica: env.replica, trace: env.trace, now: env.now, out };
        match input {
            Input::Wires(arrivals) => site.receive(arrivals),
            Input::Timer((d, token)) => {
                site.on_engine(d, |engine, ctx| engine.on_timer(ctx, token))
            }
            Input::Done(token) => site.exec_done(token),
            Input::Submit(SiteSubmit::Request(request)) => site.submit(request),
            Input::Submit(SiteSubmit::Broadcast { domain, payload }) => {
                site.on_engine(domain, |engine, ctx| engine.broadcast(ctx, payload).1);
            }
            Input::Control(control) => site.control(control),
        }
    }
}

/// One site's [`SiteNode`] and replica, borrowed from its driver for one
/// [`SiteNode::handle`] step, with the step's output buffer.
struct Site<'a> {
    node: &'a mut SiteNode,
    replica: &'a mut Replica,
    trace: Option<&'a dyn TraceSink>,
    now: &'a dyn Fn() -> SimTime,
    out: &'a mut SiteOutputs,
}

impl Site<'_> {
    /// Carries out a driver's command.
    fn control(&mut self, control: SiteControl) {
        let report = match control {
            SiteControl::Crash => {
                self.node.crash();
                None
            }
            SiteControl::Open { domain, round } => {
                let at = (self.now)();
                self.node.open_round(domain, *round, at);
                None
            }
            SiteControl::Announce(d) => self.announce(d).then_some(SiteReport::RoundComplete(d)),
            SiteControl::ViewWire { domain, wire, floor_live } => self
                .on_view_wire(domain, wire, floor_live)
                .then_some(SiteReport::RoundComplete(domain)),
            SiteControl::MemberCrashed { domain, crashed } => {
                self.on_member_crashed(domain, crashed).then_some(SiteReport::RoundComplete(domain))
            }
            SiteControl::Install { domain, base, fresh, own_wires, fence } => self
                .install(domain, *base, fresh, own_wires, fence)
                .then_some(SiteReport::Recovered),
            SiteControl::FinishRecovery(newest) => {
                self.finish_recovery(&newest);
                None
            }
        };
        if let Some(report) = report {
            self.out.push(Output::Report(report));
        }
    }

    /// Hands an arrival batch to the engines, one batch per domain in
    /// slot order (the group's, then the relay's).
    fn receive(&mut self, arrivals: Vec<Arrival<Wire<TxnPayload>>>) {
        if let [only] = &self.node.domains[..] {
            let d = only.index;
            let wires = arrivals.into_iter().map(|a| (a.from, a.wire)).collect();
            return self.on_engine(d, |engine, ctx| engine.on_receive_batch(ctx, wires));
        }
        let mut buckets: Vec<Vec<(SiteId, Wire<TxnPayload>)>> =
            self.node.domains.iter().map(|_| Vec::new()).collect();
        for a in arrivals {
            let k = self.node.domains.iter().position(|d| d.index == a.group);
            buckets[k.expect("site belongs to the domain")].push((a.from, a.wire));
        }
        for (k, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                let d = self.node.domains[k].index;
                self.on_engine(d, |engine, ctx| engine.on_receive_batch(ctx, bucket));
            }
        }
    }

    /// Runs `call` on the site's engine for domain `d` and interprets what
    /// it emits.
    fn on_engine(
        &mut self,
        d: u16,
        call: impl FnOnce(&mut Engine, &EngineCtx<'_>) -> Vec<EngineAction<TxnPayload>>,
    ) {
        let (engine, ctx) = self.node.engine_parts(d);
        let actions = call(engine, &ctx);
        self.apply_engine_actions(d, actions);
    }

    /// Accepts a client request at this site and broadcasts it on the
    /// site's group stream, traced as `Submit` then `Broadcast`.
    fn submit(&mut self, request: TxnRequest) {
        self.trace(request.id, Stage::Submit);
        self.trace(request.id, Stage::Broadcast);
        let payload = TxnPayload::Txn { req: Arc::new(request), cross: None };
        self.on_engine(self.node.group, |engine, ctx| engine.broadcast(ctx, payload).1);
    }

    /// Interprets the actions of the site's engine for domain `d`, in
    /// order: wires and timers go to the driver untouched. A group
    /// stream's deliveries go to the replica, every TO-delivery through
    /// the gate; the relay stream's TO-deliveries feed the gate
    /// ([`Site::relay_to_deliver`]). A TO-delivery names only ids: the
    /// bodies are read from the engine ([`SiteNode::payload`]).
    ///
    /// # Panics
    ///
    /// Panics when the engine holds no body for a TO-delivered id (it
    /// broke Local Order), or when a stream carries the other stream's
    /// payload.
    fn apply_engine_actions(
        &mut self,
        d: u16,
        actions: impl IntoIterator<Item = EngineAction<TxnPayload>>,
    ) {
        let group_stream = d == self.node.group;
        for a in actions {
            match a {
                EngineAction::Multicast(wire) => {
                    self.out.push(Output::Multicast { group: d, wire })
                }
                EngineAction::Send(to, wire) => self.out.push(Output::Send { group: d, to, wire }),
                EngineAction::SetTimer { token, delay } => {
                    self.out.push(Output::Timer { after: delay, timer: (d, token) })
                }
                EngineAction::OptDeliver(msg) => match msg.payload {
                    TxnPayload::Txn { req, cross } if group_stream => self.opt_deliver(&req, cross),
                    // Relay descriptors never touch the replica.
                    TxnPayload::Cross(_) if !group_stream => {}
                    _ => unreachable!("{}", WRONG_STREAM),
                },
                EngineAction::ToDeliver(ids) if group_stream => {
                    for id in ids {
                        let TxnPayload::Txn { req, cross } = self.node.payload(d, id) else {
                            unreachable!("{}", WRONG_STREAM)
                        };
                        let (req, cross) = (Arc::clone(req), *cross);
                        if cross.is_some() && !self.node.gate.seen_to.insert(req.id) {
                            continue; // duplicate cross-sub copy, already queued
                        }
                        self.node.gate.queue.push_back((req, cross));
                    }
                    self.release_gate();
                }
                EngineAction::ToDeliver(ids) => self.relay_to_deliver(d, &ids),
            }
        }
    }

    /// One tentative delivery on the group stream: the replica gets its
    /// own copy of the body (the engine keeps the message for the
    /// TO-delivery that will name only its id). Every live member of a
    /// group injects each cross-group sub, so only the first copy reaches
    /// the replica.
    fn opt_deliver(&mut self, req: &TxnRequest, cross: Option<u64>) {
        if cross.is_some() && !self.node.gate.seen_opt.insert(req.id) {
            return;
        }
        // The one deep copy on the delivery path: the replica takes
        // ownership of the request body.
        let request = req.clone();
        self.trace(request.id, Stage::OptDeliver);
        let actions = self.replica.on_opt_deliver(request);
        self.apply_replica_actions(actions);
    }

    /// Consumes the relay descriptors that domain `d`'s engine definitively
    /// delivered, reading each from that engine: each new cross id extends
    /// the gate's relay order, and this site broadcasts its own group's
    /// sub into the group stream and releases what that admits.
    /// Every live member of a group injects the sub (distinct message ids,
    /// one transaction id — the gate's dedup sets collapse the copies), so
    /// a crashed origin site can never stall a cross-group transaction:
    /// one live member suffices. A recovering site consumes nothing here;
    /// [`Site::finish_recovery`] folds the tail in.
    fn relay_to_deliver(&mut self, d: u16, ids: &[MsgId]) {
        if self.node.status == Status::Recovering {
            return;
        }
        let (group, groups) = (self.node.group, self.node.groups);
        for &id in ids {
            let TxnPayload::Cross(tag) = self.node.payload(d, id) else {
                unreachable!("{}", WRONG_STREAM)
            };
            let tag = Arc::clone(tag);
            self.node.relay_processed += 1;
            if !self.node.gate.relay_seen.insert(tag.cross) {
                continue;
            }
            let Some(sub) =
                tag.subs.iter().find(|s| s.class.raw() as usize % groups == usize::from(group))
            else {
                continue; // descriptor has no sub for this site's group
            };
            self.node.gate.relay_order.push(tag.cross);
            // End of the relay wait: the cluster-wide relay order just
            // admitted this sub into its group stream.
            self.trace(sub.id, Stage::RelayWait);
            let payload = TxnPayload::Txn { req: Arc::clone(sub), cross: Some(tag.cross) };
            self.on_engine(group, |engine, ctx| engine.broadcast(ctx, payload).1);
            self.release_gate();
        }
    }

    /// The site's recovery finished: it serves again, and the relay
    /// deliveries beyond what its adopted gate had folded in, skipped
    /// while it recovered, are folded in now. Prefix consistency (Global
    /// Order) guarantees the restored relay log extends the gate
    /// primary's processed prefix; `.get` clamps defensively.
    fn finish_recovery(&mut self, newest: &[u64]) {
        for (k, &epoch) in newest.iter().enumerate() {
            let d = self.node.domains[k].index;
            if epoch > self.node.domains[k].installed() {
                self.node.install_view(d, epoch, false);
            }
        }
        self.node.status = Status::Up;
        let group = self.node.group;
        let Some(relay) = self.node.domains.iter().find(|d| d.index != group) else {
            return;
        };
        let done = self.node.relay_processed;
        let tail = relay.engine.definitive_log().get(done..).map(<[MsgId]>::to_vec);
        self.relay_to_deliver(relay.index, &tail.unwrap_or_default());
    }

    /// Hands everything the gate's rules admit, in release order, to the
    /// replica as one batch of definitive deliveries.
    fn release_gate(&mut self) {
        let mut batch = std::mem::take(&mut self.node.released);
        self.node.gate.release(&mut batch);
        if !batch.is_empty() {
            for (txn, _) in &batch {
                self.trace(*txn, Stage::ToDeliver);
            }
            let actions = self.replica.on_to_deliver_batch(&batch);
            self.apply_replica_actions(actions);
            batch.clear();
        }
        self.node.released = batch;
    }

    /// After the replica and the group engine were restored (recovery):
    /// the gate's seen sets describe the restored engine log
    /// (`delivered_subs`, see [`delivered_cross_subs`]), and the replica
    /// sees the Opt-delivery of every gate-queued sub again. Those subs
    /// are in the restored definitive log, so the engine does not replay
    /// them, but they were never released to the replica, so the restored
    /// replica does not carry them — and it must see their Opt-delivery
    /// (Local Order) before the gate releases them.
    fn restore_gate(&mut self, delivered_subs: HashSet<TxnId>) {
        self.node.gate.seen_opt = delivered_subs.clone();
        self.node.gate.seen_to = delivered_subs;
        let queued: Vec<TxnRequest> =
            self.node.gate.queue.iter().map(|(req, _)| TxnRequest::clone(req)).collect();
        for request in queued {
            let actions = self.replica.on_opt_deliver(request);
            self.apply_replica_actions(actions);
        }
    }

    /// Starts the site's open round for domain `d`: multicasts its
    /// announcement, or returns true when nobody is left to answer — the
    /// round is complete at once, and the driver installs it from the
    /// site's own stable-storage state.
    fn announce(&mut self, d: u16) -> bool {
        let (round, _) = &self.node.rounds[&d];
        let (complete, epoch) = (round.is_complete(), round.epoch());
        if !complete {
            self.out.push(Output::Multicast {
                group: d,
                wire: Wire::ViewChange { epoch, initiator: self.node.me },
            });
        }
        complete
    }

    /// Handles a view-change wire of domain `d` addressed to this site
    /// (DESIGN.md §7). As a recovering initiator the site feeds a summary
    /// into its round, multicasting the floor once every member
    /// summarised, and a digest; a reply to no round of its own, or of
    /// another epoch, is stale. As a member it answers an announcement and
    /// a floor — unless the round is its own (the loopback copy) or it
    /// recovers itself (a recovering engine's state is not a survivor's
    /// state). `floor_live` is the driver's read of the initiator's state
    /// for a `ViewFloor`: whether that round still runs (a floor
    /// held at a partition can outlive it). Returns true when the wire
    /// completed the site's round for `d`: the driver then installs it.
    fn on_view_wire(&mut self, d: u16, wire: Wire<TxnPayload>, floor_live: bool) -> bool {
        let node = &mut *self.node;
        let round = node.rounds.get_mut(&d).map(|(round, _)| round);
        match wire {
            Wire::StateSummary { epoch, from, delivered } => {
                match round.map(|r| r.on_summary(from, epoch, delivered)) {
                    Some(SummaryOutcome::FloorReady(floor)) => {
                        self.out.push(Output::Multicast {
                            group: d,
                            wire: Wire::ViewFloor { epoch, initiator: node.me, floor },
                        });
                    }
                    Some(SummaryOutcome::Accepted) => {}
                    _ => node.view.stale.incr(),
                }
            }
            Wire::StateDigest { epoch, from, snapshot } => {
                match round.map(|r| r.on_digest(from, epoch, *snapshot)) {
                    Some(DigestOutcome::Completed) => return true,
                    Some(DigestOutcome::Accepted) => {}
                    _ => node.view.stale.incr(),
                }
            }
            Wire::ViewChange { initiator, .. } | Wire::ViewFloor { initiator, .. }
                if initiator == node.me || node.status == Status::Recovering => {}
            // The member fences the old epoch now (when the round re-admits
            // the domain's ordering authority) and answers with how far it
            // delivered; its state ships only once the floor arrives.
            // Engine state only grows, so that later digest still holds
            // every order assignment this member accepted from the dead
            // incarnation before the fence, and anything arriving after it
            // is fenced — no assignment can slip between the two (the union
            // argument, DESIGN.md §7).
            Wire::ViewChange { epoch, initiator } => {
                node.install_view(d, epoch, node.slot(d).authority == Some(initiator));
                let delivered = node.slot(d).engine.definitive_log().len() as u64;
                let summary = Wire::StateSummary { epoch, from: node.me, delivered };
                node.view.summary_bytes.add(u64::from(summary.size_bytes()));
                self.out.push(Output::Send { group: d, to: initiator, wire: summary });
            }
            // The member's engine state, cut above the floor.
            Wire::ViewFloor { epoch, initiator, floor } if floor_live => {
                let snapshot = Box::new(node.slot(d).engine.snapshot().delta_above(floor));
                let digest = Wire::StateDigest { epoch, from: node.me, snapshot };
                node.view.digest_bytes.add(u64::from(digest.size_bytes()));
                self.out.push(Output::Send { group: d, to: initiator, wire: digest });
            }
            Wire::ViewFloor { .. } => node.view.stale.incr(), // nobody waits for its digest
            _ => unreachable!("on_view_wire only sees view wires"),
        }
        false
    }

    /// Member `crashed` of domain `d` went down and will never reply to
    /// the site's open round for `d`, if it has one: the floor goes out
    /// when that was the last missing summary, and true is returned when
    /// nothing is outstanding any more — the driver then installs the
    /// round.
    fn on_member_crashed(&mut self, d: u16, crashed: SiteId) -> bool {
        let Some((round, _)) = self.node.rounds.get_mut(&d) else { return false };
        match round.on_member_crashed(crashed) {
            CrashOutcome::Pending => false,
            CrashOutcome::FloorReady(floor) => {
                let wire = Wire::ViewFloor { epoch: round.epoch(), initiator: self.node.me, floor };
                self.out.push(Output::Multicast { group: d, wire });
                false
            }
            CrashOutcome::Completed => true,
        }
    }

    /// Installs the site's completed round for domain `d`: restores the
    /// domain from `base` merged with the union of the round's digests,
    /// onto `fresh`, a new engine for the domain. `own_wires` are the
    /// site's own pre-crash payload wires still held in the driver's
    /// buffers, and `fence` the highest order fence any round for the
    /// domain proposed. Returns true when that was the site's last open
    /// round: the driver then finishes its recovery.
    ///
    /// # Panics
    ///
    /// Panics when the site has no open round for `d`.
    fn install(
        &mut self,
        d: u16,
        base: Base,
        mut fresh: Engine,
        own_wires: Vec<Wire<TxnPayload>>,
        fence: u64,
    ) -> bool {
        let me = self.node.me;
        let (round, proposed_at) =
            self.node.rounds.remove(&d).expect("round open for the installer");
        let epoch = round.epoch();
        self.node.view.round_us.add((self.now)().saturating_since(proposed_at).as_micros());
        let Base { mut snapshot, group } = base;
        snapshot.merge(round.into_merged());
        let delivered_subs = if self.node.groups > 1 && d == self.node.group {
            delivered_cross_subs(&snapshot)
        } else {
            HashSet::new()
        };
        let slot = self.node.slot_mut(d);
        let engine_actions = fresh.restore(&EngineCtx::at_epoch(me, &slot.domain, epoch), snapshot);
        slot.engine = fresh;
        if let Some(group) = group {
            let GroupBase { replica, actions, gate, relay_processed } = *group;
            self.node.gate = gate;
            self.node.relay_processed = relay_processed;
            // A fresh replica from the base's database and pending tail.
            *self.replica = replica;
            self.apply_replica_actions(actions);
            self.restore_gate(delivered_subs);
        }
        // Deliveries the engine replays (tentative again here).
        self.apply_engine_actions(d, engine_actions);
        // Re-teach the fresh engine its own pre-crash *payloads*: a data
        // wire this site multicast before crashing may exist only in the
        // driver's hold buffers (cut by a partition, or destined to a site
        // that was down) — no survivor's digest has it, so without this
        // the message could only surface at the staggered replay. Dead-
        // incarnation *order assignments* are deliberately not re-taught:
        // every member of the view fenced them at the announcement, so
        // held copies are rejected everywhere and `finish_restore`
        // renumbers the affected messages under the new epoch instead.
        for wire in own_wires {
            self.on_engine(d, |engine, ctx| engine.on_receive(ctx, me, wire));
        }
        // The new incarnation: its own id space jumps past anything the
        // dead one could still have in flight, and the view installs (with
        // the order fence when this site is the domain's authority) so the
        // repair pass below emits under the new epoch.
        let slot = self.node.slot_mut(d);
        slot.engine.bump_incarnation();
        let authority = slot.authority == Some(me);
        self.node.install_view(d, epoch, authority);
        // With every surviving self-sent wire re-learned and the view
        // installed, the engine repairs what no snapshot or wire carries:
        // a restored sequencer renumbers assignments no survivor knew and
        // re-announces the rest under the new epoch.
        self.on_engine(d, |engine, ctx| engine.finish_restore(ctx));
        // Re-apply the highest order fence any round for this domain ever
        // proposed — a concurrent round can have re-admitted the ordering
        // authority, and this site missed that announcement (the base's
        // snapshot usually carries the fence, but the base is not
        // guaranteed to have processed every concurrent announcement yet).
        self.node.slot_mut(d).engine.install_view(fence, true);
        self.node.rounds.is_empty()
    }

    /// Execution attempt `token` has run for its modelled time.
    fn exec_done(&mut self, token: ExecToken) {
        let actions = self.replica.on_exec_done(token);
        self.apply_replica_actions(actions);
    }

    /// Interprets the replica's actions in order.
    fn apply_replica_actions(&mut self, actions: Vec<ReplicaAction>) {
        for a in actions {
            match a {
                ReplicaAction::StartExecution { token } => {
                    // A retry implies the previous attempt was undone by a
                    // definitive-order mismatch: the abort is observable
                    // exactly here, before the fresh execution.
                    if token.attempt > 0 {
                        self.trace(token.txn, Stage::Abort);
                    }
                    self.trace(token.txn, Stage::Execute);
                    self.out.push(Output::Work(token));
                }
                ReplicaAction::Committed { txn, output, .. } => {
                    self.trace(txn, Stage::Commit);
                    self.out.push(Output::Report(SiteReport::Committed { txn, output }));
                }
            }
        }
    }

    /// Records `txn` reaching `stage` at this site.
    fn trace(&self, txn: TxnId, stage: Stage) {
        let (me, group) = (self.node.me, self.node.group);
        record_stage(self.trace, self.now, me, group, txn, stage);
    }
}

/// Records `txn` reaching `stage` at `site` (trace label `group`) into
/// `sink`, if one is attached. The timestamp `at` is read only then, so a
/// run without a sink reads no clock for tracing.
pub(crate) fn record_stage(
    sink: Option<&dyn TraceSink>,
    at: impl FnOnce() -> SimTime,
    site: SiteId,
    group: u16,
    txn: TxnId,
    stage: Stage,
) {
    if let Some(sink) = sink {
        sink.record(TraceEvent { at: at(), site, origin: txn.origin, seq: txn.seq, group, stage });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CrossTag;
    use otp_broadcast::Message;
    use otp_simnet::SimDuration;
    use otp_storage::{ObjectKey, ProcError, ProcId, TxnIndex};
    use std::sync::Mutex;

    const ME: SiteId = SiteId::new(1);

    /// Trace stages in call order, each step's outputs after its stages,
    /// and the transactions traced as TO-delivered, in trace order.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>, Mutex<Vec<u64>>);

    impl Log {
        fn note(&self, what: &str) {
            self.0.lock().expect("log poisoned").push(what.to_string());
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut self.0.lock().expect("log poisoned"))
        }

        fn to_delivered(&self) -> Vec<u64> {
            std::mem::take(&mut self.1.lock().expect("log poisoned"))
        }
    }

    impl TraceSink for Log {
        fn record(&self, ev: TraceEvent) {
            assert_eq!((ev.site, ev.group), (ME, 3), "stamped with this site and group");
            self.note(ev.stage.id());
            if ev.stage == Stage::ToDeliver {
                self.1.lock().expect("log poisoned").push(ev.seq);
            }
        }
    }

    /// What one step's outputs were, in order: each noted in the shared
    /// log (after the step's trace events), with the order domain of each
    /// wire and timer.
    #[derive(Default)]
    struct Fake {
        log: Arc<Log>,
        wires: Vec<(u16, Option<SiteId>, Wire<TxnPayload>)>,
        timers: Vec<(u16, TimerToken, SimDuration)>,
        execs: Vec<ExecToken>,
        commits: Vec<(TxnId, Vec<Value>)>,
    }

    impl Fake {
        fn take(&mut self, out: &mut SiteOutputs) {
            for o in out.drain(..) {
                let what = match o {
                    Output::Multicast { group, wire } => {
                        self.wires.push((group, None, wire));
                        "multicast"
                    }
                    Output::Send { group, to, wire } => {
                        self.wires.push((group, Some(to), wire));
                        "send"
                    }
                    Output::Timer { after, timer: (d, token) } => {
                        self.timers.push((d, token, after));
                        "set_timer"
                    }
                    Output::Work(token) => {
                        self.execs.push(token);
                        "start_execution"
                    }
                    Output::Report(SiteReport::Committed { txn, output }) => {
                        self.commits.push((txn, output));
                        "committed"
                    }
                    Output::Report(report) => panic!("unexpected {report:?}"),
                };
                self.log.note(what);
            }
        }
    }

    /// One step of the site: the [`Site`] view, whose outputs go to the
    /// fake when the step ends.
    struct Step<'a> {
        site: Site<'a>,
        fake: &'a mut Fake,
    }

    impl<'a> std::ops::Deref for Step<'a> {
        type Target = Site<'a>;
        fn deref(&self) -> &Site<'a> {
            &self.site
        }
    }

    impl<'a> std::ops::DerefMut for Step<'a> {
        fn deref_mut(&mut self) -> &mut Site<'a> {
            &mut self.site
        }
    }

    impl Drop for Step<'_> {
        fn drop(&mut self) {
            self.fake.take(self.site.out);
        }
    }

    /// The fixture's clock.
    fn zero() -> SimTime {
        SimTime::ZERO
    }

    /// [`ME`]'s group: the domain index of its group stream. The cluster
    /// has [`GROUPS`] groups, so group `GROUP` orders class 3.
    const GROUP: u16 = 3;
    const GROUPS: usize = 4;
    /// The relay's domain index.
    const RELAY: u16 = 4;

    /// An OTP replica at [`ME`] with its site node, the log and the fake.
    /// The node orders its group's stream over sites 0 and 1 (site 0
    /// sequences) and a relay stream of which it is the only member, so
    /// its own relay wires, fed back, order its relay broadcasts.
    struct Fixture {
        replica: Replica,
        node: SiteNode,
        log: Arc<Log>,
        out: SiteOutputs,
        fake: Fake,
        /// Where the node counts its view-change steps.
        metrics: MetricsRegistry,
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut reg = ProcRegistry::new();
            reg.register_fn("add", |ctx, args| {
                let Some(Value::Int(d)) = args.first() else {
                    return Err(ProcError::BadArgs("add(delta)".into()));
                };
                let v = ctx.read(ObjectKey::new(0))?.as_int().unwrap_or(0);
                ctx.write(ObjectKey::new(0), Value::Int(v + d))?;
                ctx.emit(Value::Int(v + d));
                Ok(())
            });
            let data = [(ObjectId::new(0, 0), Value::Int(0)), (ObjectId::new(3, 0), Value::Int(0))];
            let replica = replicas(Mode::Otp, 2, GROUPS, &Arc::new(reg), &data).remove(ME.index());
            let log = Arc::new(Log::default());
            let fake = Fake { log: Arc::clone(&log), ..Fake::default() };
            let metrics = MetricsRegistry::new();
            let mut factory = EngineFactory::new(
                EngineKind::SequencerBatched { order_delay: SimDuration::ZERO },
                1,
            );
            let domains =
                [(GROUP, OrderDomain::global(2)), (RELAY, OrderDomain::new(GroupId::RELAY, [ME]))]
                    .map(|(d, domain)| factory.slot(ME, d, domain, &metrics));
            let node =
                SiteNode::new(ME, GROUP, GROUPS, domains.into()).with_view_counters(&metrics);
            Fixture { replica, node, log, out: Vec::new(), fake, metrics }
        }

        fn site(&mut self) -> Step<'_> {
            let trace: &dyn TraceSink = self.log.as_ref();
            let (node, replica, out) = (&mut self.node, &mut self.replica, &mut self.out);
            let site = Site { node, replica, trace: Some(trace), now: &zero, out };
            Step { site, fake: &mut self.fake }
        }

        /// Feeds domain `d`'s wires back to this site's engine until none
        /// is left: the loopback of a domain whose only member it is.
        fn pump(&mut self, d: u16) {
            loop {
                let (mine, rest): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut self.fake.wires).into_iter().partition(|w| w.0 == d);
                self.fake.wires = rest;
                if mine.is_empty() {
                    return;
                }
                for (_, _, wire) in mine {
                    self.site().on_engine(d, |engine, ctx| engine.on_receive(ctx, ME, wire));
                }
            }
        }

        /// Hands domain `d`'s engine the data wire of each of `msgs`, so it
        /// holds their bodies, and drops what it emits: the test injects
        /// the deliveries that stand for those actions itself.
        fn stock<'m>(&mut self, d: u16, msgs: impl IntoIterator<Item = &'m Message<TxnPayload>>) {
            let (engine, ctx) = self.node.engine_parts(d);
            for msg in msgs {
                engine.on_receive(&ctx, msg.id.origin, Wire::Data(msg.clone()));
            }
        }

        /// Opt- and then TO-delivers `msg` on the relay stream.
        fn relay_deliver(&mut self, msg: Message<TxnPayload>) {
            let id = msg.id;
            self.stock(RELAY, [&msg]);
            self.site().apply_engine_actions(RELAY, [EngineAction::OptDeliver(msg)]);
            self.site().apply_engine_actions(RELAY, [EngineAction::ToDeliver(vec![id])]);
        }
    }

    fn request(seq: u64) -> Arc<TxnRequest> {
        let args = vec![Value::Int(5)];
        Arc::new(TxnRequest::new(TxnId::new(ME, seq), ClassId::new(0), ProcId::new(0), args))
    }

    /// Cross-group sub `seq` of site 0, in class `class` (class 3 is
    /// [`GROUP`]'s).
    fn sub(seq: u64, class: u32) -> Arc<TxnRequest> {
        let (id, args) = (TxnId::new(SiteId::new(0), seq), vec![Value::Int(5)]);
        Arc::new(TxnRequest::new(id, ClassId::new(class), ProcId::new(0), args))
    }

    /// Relay message `n` of site 0: the descriptor of cross transaction
    /// `cross` with `subs`.
    fn descriptor(n: u64, cross: u64, subs: Vec<Arc<TxnRequest>>) -> Message<TxnPayload> {
        let payload = TxnPayload::Cross(Arc::new(CrossTag { cross, subs }));
        Message { id: MsgId::new(SiteId::new(0), n), payload }
    }

    fn txn_msg(seq: u64) -> Message<TxnPayload> {
        let payload = TxnPayload::Txn { req: request(seq), cross: None };
        Message { id: MsgId::new(ME, seq), payload }
    }

    #[test]
    fn one_transaction_passes_every_stage_and_effect_in_order() {
        let mut f = Fixture::new();
        let msg = txn_msg(0);
        let id = msg.id;
        f.stock(GROUP, [&msg]);
        f.site().apply_engine_actions(GROUP, [EngineAction::OptDeliver(msg)]);
        let token = f.fake.execs[0];
        assert_eq!((token.txn, token.attempt), (TxnId::new(ME, 0), 0));
        f.site().exec_done(token);
        f.site().apply_engine_actions(GROUP, [EngineAction::ToDeliver(vec![id])]);
        let expected =
            ["opt_deliver", "execute", "start_execution", "to_deliver", "commit", "committed"];
        assert_eq!(f.log.take(), expected);
        assert_eq!(f.fake.commits, vec![(TxnId::new(ME, 0), vec![Value::Int(5)])]);
    }

    #[test]
    fn a_retry_traces_abort_before_execute() {
        let mut f = Fixture::new();
        let token = |attempt| ExecToken { txn: TxnId::new(ME, 4), class: ClassId::new(0), attempt };
        let start = |attempt| vec![ReplicaAction::StartExecution { token: token(attempt) }];
        f.site().apply_replica_actions(start(0));
        assert_eq!(f.log.take(), ["execute", "start_execution"]);
        f.site().apply_replica_actions(start(1));
        assert_eq!(f.log.take(), ["abort", "execute", "start_execution"]);
        assert_eq!(f.fake.execs, vec![token(0), token(1)]);
    }

    #[test]
    fn committed_is_called_once_per_commit_action() {
        let mut f = Fixture::new();
        let commit = |seq: u64| ReplicaAction::Committed {
            txn: TxnId::new(ME, seq),
            index: TxnIndex::new(seq),
            output: vec![Value::Int(seq as i64)],
        };
        f.site().apply_replica_actions(vec![commit(0), commit(1)]);
        assert_eq!(f.log.take(), ["commit", "commit", "committed", "committed"]);
        let expected: Vec<(TxnId, Vec<Value>)> =
            (0..2).map(|s| (TxnId::new(ME, s), vec![Value::Int(s as i64)])).collect();
        assert_eq!(f.fake.commits, expected);
    }

    #[test]
    fn wires_and_timers_pass_through_untouched() {
        let mut f = Fixture::new();
        let data = Wire::Data(txn_msg(2));
        let order = Wire::SeqOrderBatch { epoch: 1, start_seqno: 9, ids: vec![MsgId::new(ME, 2)] };
        let token = TimerToken { instance: 3, round: 1 };
        let delay = SimDuration::from_micros(70);
        f.site().apply_engine_actions(
            GROUP,
            [
                EngineAction::Multicast(data.clone()),
                EngineAction::Send(SiteId::new(0), order.clone()),
                EngineAction::SetTimer { token, delay },
            ],
        );
        assert_eq!(f.log.take(), ["multicast", "send", "set_timer"]);
        assert_eq!(f.fake.wires, vec![(GROUP, None, data), (GROUP, Some(SiteId::new(0)), order)]);
        assert_eq!(f.fake.timers, vec![(GROUP, token, delay)]);
        assert!(f.fake.execs.is_empty());
        assert_eq!(f.node.slot(GROUP).engine.retained().payloads, 0, "the engine stored nothing");
    }

    /// With no cross sub queued — the only case with one group and in the
    /// threaded runtime — a TO-delivery passes the gate at once: the whole
    /// action reaches the replica as one batch, in TO order, before the
    /// replica acts on any of it.
    #[test]
    fn without_cross_subs_the_gate_passes_a_to_delivery_as_one_batch() {
        let mut f = Fixture::new();
        let msgs: Vec<_> = (0..3).map(txn_msg).collect();
        let ids: Vec<MsgId> = [2, 0, 1].iter().map(|&k| msgs[k].id).collect();
        f.stock(GROUP, &msgs);
        f.site().apply_engine_actions(GROUP, msgs.into_iter().map(EngineAction::OptDeliver));
        let token = f.fake.execs[0];
        f.site().exec_done(token);
        f.log.take();
        f.site().apply_engine_actions(GROUP, [EngineAction::ToDeliver(ids)]);
        assert_eq!(f.log.to_delivered(), [2, 0, 1], "in TO order");
        assert_eq!(f.log.take()[..3], ["to_deliver"; 3], "one batch, before any replica action");
        assert!(f.node.gate.queue.is_empty(), "nothing is held");
    }

    /// Every live member of a group injects each cross-group sub, so its
    /// copies arrive under distinct message ids: the replica sees the
    /// transaction once at Opt-delivery and once at TO-delivery.
    #[test]
    fn duplicate_cross_sub_copies_reach_the_replica_once() {
        let mut f = Fixture::new();
        let copy = |origin: u16| Message {
            id: MsgId::new(SiteId::new(origin), 0),
            payload: TxnPayload::Txn { req: request(4), cross: Some(7) },
        };
        let ids = vec![copy(0).id, copy(1).id];
        f.stock(GROUP, &[copy(0), copy(1)]);
        f.site().apply_engine_actions(GROUP, [copy(0), copy(1)].map(EngineAction::OptDeliver));
        assert_eq!(f.log.take(), ["opt_deliver", "execute", "start_execution"], "one copy");
        let token = f.fake.execs[0];
        f.site().exec_done(token);
        f.node.gate.relay_order.push(7);
        f.site().apply_engine_actions(GROUP, [EngineAction::ToDeliver(ids)]);
        assert_eq!(f.log.to_delivered(), [4], "one copy");
        assert_eq!(f.fake.commits.len(), 1);
        assert!(f.node.gate.queue.is_empty());
    }

    /// The gate's three release rules, exercised directly: plain heads
    /// release unconditionally, cross heads wait for their relay slot,
    /// and the relay's next admission jumps a stalled cross head.
    #[test]
    fn cross_gate_release_rules() {
        let req = |n: u64| {
            Arc::new(TxnRequest::new(TxnId::new(ME, n), ClassId::new(0), ProcId::new(0), vec![]))
        };
        let released = |n: u64| vec![(TxnId::new(ME, n), ClassId::new(0))];
        let release = |g: &mut CrossGate| {
            let mut out = Vec::new();
            g.release(&mut out);
            out
        };
        let mut g = CrossGate::default();
        // Rule 1: a plain head releases immediately.
        g.queue.push_back((req(0), None));
        assert_eq!(release(&mut g), released(0));
        // Rule 2: a cross head stalls until the relay admits its id...
        g.queue.push_back((req(1), Some(7)));
        assert!(release(&mut g).is_empty(), "no relay slot yet");
        g.relay_order.push(7);
        assert_eq!(release(&mut g), released(1));
        // Rule 3: relay order [.., 9, 8] vs queue [8, 9] — the relay's
        // next admission (9) jumps the stalled head (8), then 8 follows
        // once the relay admits it.
        g.relay_order.push(9);
        g.queue.push_back((req(2), Some(8)));
        g.queue.push_back((req(3), Some(9)));
        assert_eq!(release(&mut g), released(3), "9 jumps");
        g.relay_order.push(8);
        assert_eq!(release(&mut g), released(2), "8 follows");
        assert!(g.queue.is_empty());
    }

    /// A relay descriptor with a sub for this site's group admits that
    /// sub: its relay wait ends, it is broadcast on the group stream, and
    /// the gate releases the copy another member injected, which was
    /// waiting for exactly this relay slot.
    #[test]
    fn a_relay_descriptor_broadcasts_this_groups_sub_and_releases_the_gate() {
        let mut f = Fixture::new();
        let payload = TxnPayload::Txn { req: sub(4, 3), cross: Some(7) };
        let copy = Message { id: MsgId::new(SiteId::new(0), 0), payload: payload.clone() };
        let id = copy.id;
        f.stock(GROUP, [&copy]);
        f.site().apply_engine_actions(GROUP, [EngineAction::OptDeliver(copy)]);
        f.site().apply_engine_actions(GROUP, [EngineAction::ToDeliver(vec![id])]);
        assert_eq!(f.node.gate.queue.len(), 1, "held for its relay slot");
        f.log.take();
        f.relay_deliver(descriptor(0, 7, vec![sub(9, 1), sub(4, 3)]));
        assert_eq!(f.log.take(), ["relay_wait", "to_deliver", "multicast"]);
        assert_eq!(f.log.to_delivered(), [4]);
        let [(GROUP, None, Wire::Data(msg))] = &f.fake.wires[..] else {
            panic!("one multicast on the group stream: {:?}", f.fake.wires)
        };
        assert_eq!(msg.payload, payload);
        assert_eq!(f.node.gate.relay_order, [7]);
        assert_eq!(f.node.relay_processed, 1);
        assert!(f.node.gate.queue.is_empty());
    }

    /// Every live member injects a cross-group descriptor, so its copies
    /// reach the relay under distinct message ids: only the first admits
    /// the sub, and each is counted as processed.
    #[test]
    fn a_duplicate_relay_descriptor_broadcasts_nothing() {
        let mut f = Fixture::new();
        f.relay_deliver(descriptor(0, 7, vec![sub(4, 3)]));
        f.relay_deliver(descriptor(1, 7, vec![sub(4, 3)]));
        assert_eq!(f.log.take(), ["relay_wait", "multicast"], "one admission");
        assert_eq!(f.fake.wires.len(), 1);
        assert_eq!(f.node.gate.relay_order, [7]);
        assert_eq!(f.node.relay_processed, 2);
    }

    /// A descriptor whose subs all belong to other groups leaves this
    /// site's stream and gate alone; only the processed count moves.
    #[test]
    fn a_relay_descriptor_without_a_sub_for_this_group_only_counts() {
        let mut f = Fixture::new();
        f.relay_deliver(descriptor(0, 7, vec![sub(4, 1), sub(5, 2)]));
        assert!(f.log.take().is_empty(), "no trace, no effect");
        assert!(f.fake.wires.is_empty());
        assert!(f.node.gate.relay_order.is_empty());
        assert_eq!(f.node.relay_processed, 1);
    }

    /// A recovering site consumes none of the relay's TO-deliveries; the
    /// relay engine keeps their descriptors, and once recovery finishes
    /// every relay delivery beyond the processed count is folded in, read
    /// from that engine.
    #[test]
    fn a_recovering_site_folds_the_relay_tail_in_when_recovery_finishes() {
        let mut f = Fixture::new();
        f.node.status = Status::Recovering;
        let payload = TxnPayload::Cross(Arc::new(CrossTag { cross: 7, subs: vec![sub(4, 3)] }));
        f.site().on_engine(RELAY, |engine, ctx| engine.broadcast(ctx, payload).1);
        f.pump(RELAY);
        let [id] = f.node.slot(RELAY).engine.definitive_log() else {
            panic!("the relay ordered it")
        };
        let held = matches!(f.node.payload(RELAY, *id), TxnPayload::Cross(tag) if tag.cross == 7);
        assert!(held, "the relay engine holds the descriptor while the site recovers");
        assert_eq!(f.node.relay_processed, 0, "not consumed while recovering");
        assert!(!f.log.take().contains(&"relay_wait".to_string()));
        f.site().finish_recovery(&[]);
        assert_eq!(f.node.status, Status::Up);
        assert_eq!(f.node.relay_processed, 1);
        assert_eq!(f.log.take(), ["relay_wait", "multicast"]);
        assert_eq!(f.node.gate.relay_order, [7]);
    }

    /// A gate adopted at recovery can hold a sub that was TO-delivered but
    /// not yet released. The restored replica never saw that sub, so
    /// `restore_gate` hands it the Opt-delivery again (and the seen sets
    /// describe the restored log); the gate's later release commits it.
    #[test]
    fn restore_gate_opt_delivers_the_queued_subs_again() {
        let mut f = Fixture::new();
        f.node.gate.queue.push_back((sub(4, 3), Some(7)));
        let delivered = HashSet::from([TxnId::new(SiteId::new(0), 2)]);
        f.site().restore_gate(delivered.clone());
        assert_eq!((&f.node.gate.seen_opt, &f.node.gate.seen_to), (&delivered, &delivered));
        assert_eq!(f.log.take(), ["execute", "start_execution"], "the replica runs the sub");
        let token = f.fake.execs[0];
        assert_eq!(token.txn, TxnId::new(SiteId::new(0), 4));
        f.site().exec_done(token);
        f.node.gate.relay_order.push(7);
        f.site().release_gate();
        assert_eq!(f.log.to_delivered(), [4]);
        assert_eq!(f.fake.commits.len(), 1);
    }

    /// Opens [`ME`]'s round for the group domain under epoch 5 over sites
    /// 0, 2 and 3 (and [`ME`], which expects nothing of itself), announces
    /// it and clears the announcement.
    fn open_round(f: &mut Fixture) {
        let members = [0, 1, 2, 3].map(SiteId::new);
        f.node.open_round(GROUP, ViewChange::propose(5, ME, members), SimTime::ZERO);
        assert!(!f.site().announce(GROUP), "three members to answer");
        let announcement = Wire::ViewChange { epoch: 5, initiator: ME };
        assert_eq!(std::mem::take(&mut f.fake.wires), [(GROUP, None, announcement)]);
    }

    /// Member `from`'s summary for `epoch`: it delivered `10 + from`.
    fn summary(epoch: u64, from: u16) -> Wire<TxnPayload> {
        Wire::StateSummary { epoch, from: SiteId::new(from), delivered: 10 + u64::from(from) }
    }

    /// Member `from`'s (empty) digest for `epoch`.
    fn digest(epoch: u64, from: u16) -> Wire<TxnPayload> {
        Wire::StateDigest {
            epoch,
            from: SiteId::new(from),
            snapshot: Box::new(EngineSnapshot::empty()),
        }
    }

    /// [`ME`]'s floor multicast for round 5: the lowest summary, site 0's.
    fn floor_multicast() -> (u16, Option<SiteId>, Wire<TxnPayload>) {
        (GROUP, None, Wire::ViewFloor { epoch: 5, initiator: ME, floor: 10 })
    }

    fn stale(f: &Fixture) -> u64 {
        f.metrics.counter_total("stale_view_digest")
    }

    /// The last of three summaries multicasts the floor, once, and the
    /// last of three digests completes the round.
    #[test]
    fn three_summaries_multicast_the_floor_and_three_digests_complete_the_round() {
        let mut f = Fixture::new();
        open_round(&mut f);
        for from in [3, 0] {
            assert!(!f.site().on_view_wire(GROUP, summary(5, from), false));
            assert!(f.fake.wires.is_empty(), "a summary is still missing");
        }
        assert!(!f.site().on_view_wire(GROUP, summary(5, 2), false));
        assert_eq!(std::mem::take(&mut f.fake.wires), [floor_multicast()]);
        for from in [2, 3] {
            assert!(!f.site().on_view_wire(GROUP, digest(5, from), false), "not complete yet");
        }
        assert!(f.site().on_view_wire(GROUP, digest(5, 0), false), "the last digest completes");
        assert!(f.fake.wires.is_empty());
        assert_eq!(f.metrics.counter_total("view_summary_bytes"), 0, "no reply sent here");
        assert_eq!(stale(&f), 0);
    }

    /// A member that never summarises, or never sends its digest, is
    /// waited for until it crashes: the crash of the last missing
    /// summariser releases the floor, that of the last missing digest
    /// completes the round.
    #[test]
    fn member_crashes_release_the_floor_and_complete_the_round() {
        let mut f = Fixture::new();
        open_round(&mut f);
        f.site().on_view_wire(GROUP, summary(5, 0), false);
        f.site().on_view_wire(GROUP, summary(5, 2), false);
        assert!(!f.site().on_member_crashed(RELAY, SiteId::new(3)), "no round for the relay");
        assert!(f.fake.wires.is_empty());
        assert!(!f.site().on_member_crashed(GROUP, SiteId::new(3)));
        assert_eq!(std::mem::take(&mut f.fake.wires), [floor_multicast()]);
        f.site().on_view_wire(GROUP, digest(5, 0), false);
        assert!(f.site().on_member_crashed(GROUP, SiteId::new(2)), "the last digest crashed");
        assert!(f.fake.wires.is_empty());
    }

    /// A summary or digest for a round this site does not run, or of
    /// another epoch, counts as `stale_view_digest` and leaves the round
    /// as it was.
    #[test]
    fn a_stale_summary_or_digest_counts_and_changes_nothing() {
        let mut f = Fixture::new();
        assert!(!f.site().on_view_wire(GROUP, summary(5, 0), false), "no round");
        assert!(!f.site().on_view_wire(GROUP, digest(5, 0), false), "no round");
        assert_eq!(stale(&f), 2);
        open_round(&mut f);
        let outstanding = |f: &Fixture| f.node.round(GROUP).map(|r| r.outstanding().count());
        f.site().on_view_wire(GROUP, summary(4, 0), false);
        assert_eq!((stale(&f), outstanding(&f)), (3, Some(3)), "wrong epoch");
        for from in [0, 2, 3] {
            f.site().on_view_wire(GROUP, summary(5, from), false);
        }
        assert_eq!(std::mem::take(&mut f.fake.wires), [floor_multicast()]);
        assert!(!f.site().on_view_wire(GROUP, digest(4, 0), false), "wrong epoch");
        assert_eq!((stale(&f), outstanding(&f)), (4, Some(3)));
        assert!(f.fake.wires.is_empty());
    }

    /// As a member, the site answers an announcement with its summary and
    /// a floor with its digest, both to the initiator; a floor whose round
    /// no longer runs is only counted.
    #[test]
    fn a_member_answers_the_announcement_and_a_live_floor() {
        let mut f = Fixture::new();
        let initiator = SiteId::new(0);
        let announcement = Wire::ViewChange { epoch: 5, initiator };
        assert!(!f.site().on_view_wire(GROUP, announcement, false));
        assert_eq!(f.node.group_epochs(), [5]);
        let reply = Wire::StateSummary { epoch: 5, from: ME, delivered: 0 };
        assert_eq!(std::mem::take(&mut f.fake.wires), [(GROUP, Some(initiator), reply)]);
        let floor = || Wire::ViewFloor { epoch: 5, initiator, floor: 0 };
        f.site().on_view_wire(GROUP, floor(), false);
        assert!(f.fake.wires.is_empty());
        assert_eq!(stale(&f), 1);
        f.site().on_view_wire(GROUP, floor(), true);
        let [(GROUP, Some(to), Wire::StateDigest { epoch: 5, from: ME, .. })] = &f.fake.wires[..]
        else {
            panic!("one digest to the initiator: {:?}", f.fake.wires)
        };
        assert_eq!(*to, initiator);
    }

    #[test]
    #[should_panic(expected = "Local Order: Opt-delivery precedes TO-delivery")]
    fn to_delivering_an_id_never_opt_delivered_panics() {
        Fixture::new()
            .site()
            .apply_engine_actions(GROUP, [EngineAction::ToDeliver(vec![MsgId::new(ME, 7)])]);
    }
}
