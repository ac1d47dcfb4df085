//! One site's transaction logic, written once for both drivers.
//!
//! The paper's algorithm is one state machine per site, driven by
//! Opt-delivery and TO-delivery. This module holds every decision the
//! simulated [`crate::Cluster`] and the threaded
//! [`crate::runtime::LiveCluster`] make identically on a site's behalf:
//!
//! * what a site keeps for ordering ([`SiteNode`]): one engine per order
//!   domain it belongs to, with the view epochs installed for it, its
//!   message map and its [`CrossGate`];
//! * building the site's ordering engines ([`EngineFactory`]) and replica
//!   ([`replicas`]);
//! * handing a submitted request to the engine ([`Site::submit`]);
//! * interpreting a group stream's engine actions
//!   ([`Site::apply_engine_actions`]): the one deep copy and the
//!   message-map insert at Opt-delivery, and every TO-delivery through
//!   the gate, which passes it straight on when the site has no
//!   cross-group sub waiting;
//! * interpreting the replica's actions ([`Site::apply_replica_actions`]);
//! * tracing every lifecycle stage on that path ([`record_stage`]).
//!
//! What differs between the drivers — how a wire travels, how a timer or
//! an execution is armed, what a commit counts as, and what time it is —
//! reaches this code through [`SiteEffects`]. The shared code takes the
//! effects as a generic parameter, so the hot path makes no dynamic call
//! through them. This file is in determinism scope: it reads no clock of
//! its own (DESIGN.md §16).

use crate::cluster::{EngineKind, Mode, TxnPayload};
use crate::event::{ExecToken, ReplicaAction};
use crate::replica::Replica;
use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCtx, EngineSnapshot, Message, MsgId, OptAbcast,
    OptAbcastConfig, Oracle, OrderDomain, ScrambleConfig, ScrambledAbcast, SeqAbcast, TimerToken,
    Wire,
};
use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, Database, ObjectId, ProcRegistry, Value};
use otp_telemetry::{MetricsRegistry, Scope, Stage, TraceEvent, TraceSink};
use otp_txn::txn::{TxnId, TxnRequest};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// An ordering engine as both drivers hold it (`Send`: a site thread
/// owns its engine).
pub(crate) type Engine = Box<dyn AtomicBroadcast<TxnPayload> + Send>;

/// One site's group-stream message bodies: id → (request, cross id when
/// the transaction is a cross-group sub). Filled at Opt-delivery and
/// consumed at TO-delivery, which carries only the id, so it holds the
/// site's in-flight window and nothing older.
pub(crate) type SiteMsgMap = HashMap<MsgId, (Arc<TxnRequest>, Option<u64>)>;

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
    /// `scope` (see [`attach_engine_counters`]).
    pub(crate) fn make(
        &mut self,
        domain: &OrderDomain,
        metrics: &MetricsRegistry,
        scope: Scope,
    ) -> Engine {
        let mut engine: Engine = match self.kind {
            EngineKind::Opt { consensus_timeout } => {
                Box::new(OptAbcast::new(OptAbcastConfig::new(domain.len(), consensus_timeout)))
            }
            EngineKind::OptBatched { consensus_timeout, batch_delay } => Box::new(OptAbcast::new(
                OptAbcastConfig::new(domain.len(), consensus_timeout).with_batch_delay(batch_delay),
            )),
            EngineKind::Sequencer => Box::new(SeqAbcast::new(domain.sequencer())),
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
}

/// Hands `engine` its handles in the driver's registry (`scope` = its site
/// and order domain): stale-epoch rejects, one-step and round decisions.
/// The engine bumps them in place of private tallies, so the registry is
/// the one place the counts live.
pub(crate) fn attach_engine_counters(engine: &mut Engine, metrics: &MetricsRegistry, scope: Scope) {
    engine.set_stale_counter(metrics.counter("stale_epoch_reject", scope));
    engine.set_decide_counters(
        metrics.counter("fast_decide", scope),
        metrics.counter("slow_decide", scope),
    );
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
    /// Installed view epochs in installation order (strictly increasing;
    /// empty = the boot view, epoch 0).
    pub(crate) epochs: Vec<u64>,
}

impl DomainSlot {
    /// Domain `domain` at table index `index`, ordered by `engine`, in its
    /// boot view.
    pub(crate) fn new(index: u16, domain: OrderDomain, engine: Engine) -> Self {
        DomainSlot { index, domain, engine, epochs: Vec::new() }
    }

    /// The epoch the site currently has installed (0 = the boot view).
    pub(crate) fn installed(&self) -> u64 {
        self.epochs.last().copied().unwrap_or(0)
    }
}

/// What one site keeps for ordering, in either driver: one slot per order
/// domain it belongs to (its group's first, the relay's second when the
/// cluster is sharded), the group stream's message map and the gate that
/// merges the group's TO-stream with the relay order. The replica stays
/// with the driver; [`Site`] borrows both for one step.
pub(crate) struct SiteNode {
    me: SiteId,
    /// This site's ordering group: the domain index of its group stream
    /// and the group label of its trace events (0 when unsharded).
    pub(crate) group: u16,
    pub(crate) domains: Vec<DomainSlot>,
    pub(crate) msg_map: SiteMsgMap,
    pub(crate) gate: CrossGate,
}

impl SiteNode {
    /// Site `me` of group `group`, ordering the domains of `domains`
    /// (group domain first).
    pub(crate) fn new(me: SiteId, group: u16, domains: Vec<DomainSlot>) -> Self {
        debug_assert_eq!(domains.first().map(|d| d.index), Some(group), "group domain first");
        SiteNode { me, group, domains, msg_map: SiteMsgMap::new(), gate: CrossGate::default() }
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

    /// The engine of domain `index`, with the context the next call on it
    /// needs (the domain's installed epoch).
    pub(crate) fn engine_parts(&mut self, index: u16) -> (&mut Engine, EngineCtx<'_>) {
        let me = self.me;
        let slot = self.slot_mut(index);
        let epoch = slot.installed();
        (&mut slot.engine, EngineCtx::at_epoch(me, &slot.domain, epoch))
    }
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
    /// Releases every transaction the rules admit, in order.
    fn release(&mut self) -> Vec<(TxnId, ClassId)> {
        let mut out = Vec::with_capacity(self.queue.len());
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
        out
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

/// What a driver does on a site's behalf when the shared site code asks.
///
/// The simulator schedules each effect on its virtual-time event queue
/// and network model; the threaded runtime hands wires to the destination
/// site's channel and arms wall-clock timers. Every call happens in the
/// order the engine or replica emitted the action it stands for.
pub(crate) trait SiteEffects {
    /// The instant a trace event is stamped with: virtual time in the
    /// simulator, nanoseconds since cluster start in the threaded
    /// runtime. Asked only while a trace sink is attached.
    fn now(&self) -> SimTime;

    /// Sends `wire` to every member of the engine's order domain, this
    /// site included.
    fn multicast(&mut self, wire: Wire<TxnPayload>);

    /// Sends `wire` to `to`.
    fn send(&mut self, to: SiteId, wire: Wire<TxnPayload>);

    /// Arms engine timer `token` to fire `delay` from now.
    fn set_timer(&mut self, token: TimerToken, delay: SimDuration);

    /// Starts execution attempt `token`. Once the execution time has
    /// elapsed, the driver hands the token to [`Site::exec_done`].
    fn start_execution(&mut self, token: ExecToken);

    /// `txn` committed at this site; `output` is what its procedure
    /// emitted for the client.
    fn committed(&mut self, txn: TxnId, output: Vec<Value>);
}

/// One site's [`SiteNode`] and replica, borrowed from its driver for one
/// step of the shared site code, with the driver's effects `F` for that
/// step.
pub(crate) struct Site<'a, F> {
    node: &'a mut SiteNode,
    replica: &'a mut Replica,
    /// `None` = tracing off: one branch per stage point, no clock read.
    trace: Option<&'a dyn TraceSink>,
    fx: F,
}

impl<'a, F: SiteEffects> Site<'a, F> {
    /// The view of `node` and its `replica`, acting through `fx`.
    pub(crate) fn new(
        node: &'a mut SiteNode,
        replica: &'a mut Replica,
        trace: Option<&'a dyn TraceSink>,
        fx: F,
    ) -> Self {
        Site { node, replica, trace, fx }
    }

    /// Runs `call` on the engine of this site's group stream and
    /// interprets what it emits.
    pub(crate) fn on_group_engine(
        &mut self,
        call: impl FnOnce(&mut Engine, &EngineCtx<'_>) -> Vec<EngineAction<TxnPayload>>,
    ) {
        let (engine, ctx) = self.node.engine_parts(self.node.group);
        let actions = call(engine, &ctx);
        self.apply_engine_actions(actions);
    }

    /// Accepts a client request at this site and broadcasts it on the
    /// site's group stream, traced as `Submit` then `Broadcast`.
    pub(crate) fn submit(&mut self, request: TxnRequest) {
        self.trace(request.id, Stage::Submit);
        self.trace(request.id, Stage::Broadcast);
        let payload = TxnPayload::Txn { req: Arc::new(request), cross: None };
        self.on_group_engine(|engine, ctx| engine.broadcast(ctx, payload).1);
    }

    /// Interprets a group-stream engine's actions in order: wires and
    /// timers go to the driver untouched, deliveries to the replica, every
    /// TO-delivery through the gate.
    ///
    /// # Panics
    ///
    /// Panics when a TO-delivered id was never Opt-delivered here (the
    /// engine broke Local Order), or when the stream carries a relay
    /// descriptor.
    pub(crate) fn apply_engine_actions(
        &mut self,
        actions: impl IntoIterator<Item = EngineAction<TxnPayload>>,
    ) {
        for a in actions {
            match a {
                EngineAction::Multicast(wire) => self.fx.multicast(wire),
                EngineAction::Send(to, wire) => self.fx.send(to, wire),
                EngineAction::SetTimer { token, delay } => self.fx.set_timer(token, delay),
                EngineAction::OptDeliver(msg) => self.opt_deliver(msg),
                EngineAction::ToDeliver(ids) => {
                    let gate = &mut self.node.gate;
                    for id in &ids {
                        let (req, cross) = self
                            .node
                            .msg_map
                            .remove(id)
                            .expect("Local Order: Opt-delivery precedes TO-delivery");
                        if cross.is_some() && !gate.seen_to.insert(req.id) {
                            continue; // duplicate cross-sub copy, already queued
                        }
                        gate.queue.push_back((req, cross));
                    }
                    self.release_gate();
                }
            }
        }
    }

    /// One tentative delivery: the map keeps the body for the TO-delivery
    /// that will name only its id, and the replica gets its own copy.
    /// Every live member of a group injects each cross-group sub, so only
    /// the first copy reaches the replica; every copy keeps its map entry
    /// for the TO-delivery that consumes it.
    fn opt_deliver(&mut self, msg: Message<TxnPayload>) {
        let TxnPayload::Txn { req, cross } = msg.payload else {
            unreachable!("group streams carry only transactions")
        };
        if cross.is_some() && !self.node.gate.seen_opt.insert(req.id) {
            self.node.msg_map.insert(msg.id, (req, cross));
            return;
        }
        // The one deep copy on the delivery path: the replica takes
        // ownership of the request body.
        let request = TxnRequest::clone(&req);
        self.node.msg_map.insert(msg.id, (req, cross));
        self.trace(request.id, Stage::OptDeliver);
        let actions = self.replica.on_opt_deliver(request);
        self.apply_replica_actions(actions);
    }

    /// Hands everything the gate's rules admit, in release order, to the
    /// replica as one batch of definitive deliveries.
    pub(crate) fn release_gate(&mut self) {
        let batch = self.node.gate.release();
        if batch.is_empty() {
            return;
        }
        for (txn, _) in &batch {
            self.trace(*txn, Stage::ToDeliver);
        }
        let actions = self.replica.on_to_deliver_batch(&batch);
        self.apply_replica_actions(actions);
    }

    /// After the replica and the group engine were restored (recovery):
    /// the gate's seen sets describe the restored engine log
    /// (`delivered_subs`, see [`delivered_cross_subs`]), and the replica
    /// sees the Opt-delivery of every gate-queued sub again. Those subs
    /// are in the restored definitive log, so the engine does not replay
    /// them, but they were never released to the replica, so the restored
    /// replica does not carry them — and it must see their Opt-delivery
    /// (Local Order) before the gate releases them.
    pub(crate) fn restore_gate(&mut self, delivered_subs: HashSet<TxnId>) {
        self.node.gate.seen_opt = delivered_subs.clone();
        self.node.gate.seen_to = delivered_subs;
        let queued: Vec<TxnRequest> =
            self.node.gate.queue.iter().map(|(req, _)| TxnRequest::clone(req)).collect();
        for request in queued {
            let actions = self.replica.on_opt_deliver(request);
            self.apply_replica_actions(actions);
        }
    }

    /// Execution attempt `token` has run for its modelled time.
    pub(crate) fn exec_done(&mut self, token: ExecToken) {
        let actions = self.replica.on_exec_done(token);
        self.apply_replica_actions(actions);
    }

    /// Interprets the replica's actions in order.
    pub(crate) fn apply_replica_actions(&mut self, actions: Vec<ReplicaAction>) {
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
                    self.fx.start_execution(token);
                }
                ReplicaAction::Committed { txn, output, .. } => {
                    self.trace(txn, Stage::Commit);
                    self.fx.committed(txn, output);
                }
            }
        }
    }

    /// Records `txn` reaching `stage` at this site.
    fn trace(&self, txn: TxnId, stage: Stage) {
        let (me, group) = (self.node.me, self.node.group);
        record_stage(self.trace, || self.fx.now(), me, group, txn, stage);
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
    use otp_storage::{ObjectKey, ProcError, ProcId, TxnIndex};
    use std::sync::Mutex;

    const ME: SiteId = SiteId::new(1);

    /// Trace stages and effect calls, interleaved in call order, and the
    /// transactions traced as TO-delivered, in trace order.
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

    /// A recording [`SiteEffects`]: notes each call in the shared log and
    /// keeps what it was handed.
    #[derive(Default)]
    struct Fake {
        log: Arc<Log>,
        wires: Vec<(Option<SiteId>, Wire<TxnPayload>)>,
        timers: Vec<(TimerToken, SimDuration)>,
        execs: Vec<ExecToken>,
        commits: Vec<(TxnId, Vec<Value>)>,
    }

    impl SiteEffects for &mut Fake {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }

        fn multicast(&mut self, wire: Wire<TxnPayload>) {
            self.log.note("multicast");
            self.wires.push((None, wire));
        }

        fn send(&mut self, to: SiteId, wire: Wire<TxnPayload>) {
            self.log.note("send");
            self.wires.push((Some(to), wire));
        }

        fn set_timer(&mut self, token: TimerToken, delay: SimDuration) {
            self.log.note("set_timer");
            self.timers.push((token, delay));
        }

        fn start_execution(&mut self, token: ExecToken) {
            self.log.note("start_execution");
            self.execs.push(token);
        }

        fn committed(&mut self, txn: TxnId, output: Vec<Value>) {
            self.log.note("committed");
            self.commits.push((txn, output));
        }
    }

    /// An OTP replica at [`ME`] with its site node (group 3), the log and
    /// the fake.
    struct Fixture {
        replica: Replica,
        node: SiteNode,
        log: Arc<Log>,
        fake: Fake,
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
            let data = [(ObjectId::new(0, 0), Value::Int(0))];
            let replica = replicas(Mode::Otp, 2, 1, &Arc::new(reg), &data).remove(ME.index());
            let log = Arc::new(Log::default());
            let fake = Fake { log: Arc::clone(&log), ..Fake::default() };
            let domain = OrderDomain::global(2);
            let metrics = MetricsRegistry::new();
            let engine = EngineFactory::new(EngineKind::Sequencer, 1).make(
                &domain,
                &metrics,
                Scope::site(ME),
            );
            let node = SiteNode::new(ME, 3, vec![DomainSlot::new(3, domain, engine)]);
            Fixture { replica, node, log, fake }
        }

        fn site(&mut self) -> Site<'_, &mut Fake> {
            let trace: &dyn TraceSink = self.log.as_ref();
            Site::new(&mut self.node, &mut self.replica, Some(trace), &mut self.fake)
        }
    }

    fn request(seq: u64) -> Arc<TxnRequest> {
        let args = vec![Value::Int(5)];
        Arc::new(TxnRequest::new(TxnId::new(ME, seq), ClassId::new(0), ProcId::new(0), args))
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
        f.site().apply_engine_actions([EngineAction::OptDeliver(msg)]);
        assert_eq!(f.node.msg_map.len(), 1, "the body waits for its TO-delivery");
        let token = f.fake.execs[0];
        assert_eq!((token.txn, token.attempt), (TxnId::new(ME, 0), 0));
        f.site().exec_done(token);
        f.site().apply_engine_actions([EngineAction::ToDeliver(vec![id])]);
        let expected =
            ["opt_deliver", "execute", "start_execution", "to_deliver", "commit", "committed"];
        assert_eq!(f.log.take(), expected);
        assert_eq!(f.fake.commits, vec![(TxnId::new(ME, 0), vec![Value::Int(5)])]);
        assert!(f.node.msg_map.is_empty(), "TO-delivery consumed the entry");
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
        assert_eq!(f.log.take(), ["commit", "committed", "commit", "committed"]);
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
        f.site().apply_engine_actions([
            EngineAction::Multicast(data.clone()),
            EngineAction::Send(SiteId::new(0), order.clone()),
            EngineAction::SetTimer { token, delay },
        ]);
        assert_eq!(f.log.take(), ["multicast", "send", "set_timer"]);
        assert_eq!(f.fake.wires, vec![(None, data), (Some(SiteId::new(0)), order)]);
        assert_eq!(f.fake.timers, vec![(token, delay)]);
        assert!(f.node.msg_map.is_empty() && f.fake.execs.is_empty());
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
        f.site().apply_engine_actions(msgs.into_iter().map(EngineAction::OptDeliver));
        let token = f.fake.execs[0];
        f.site().exec_done(token);
        f.log.take();
        f.site().apply_engine_actions([EngineAction::ToDeliver(ids)]);
        assert_eq!(f.log.to_delivered(), [2, 0, 1], "in TO order");
        assert_eq!(f.log.take()[..3], ["to_deliver"; 3], "one batch, before any replica action");
        assert!(f.node.gate.queue.is_empty(), "nothing is held");
        assert_eq!(f.node.msg_map.len(), 0);
    }

    /// Every live member of a group injects each cross-group sub, so its
    /// copies arrive under distinct message ids: the replica sees the
    /// transaction once at Opt-delivery and once at TO-delivery, and
    /// every copy's map entry is consumed.
    #[test]
    fn duplicate_cross_sub_copies_reach_the_replica_once() {
        let mut f = Fixture::new();
        let copy = |origin: u16| Message {
            id: MsgId::new(SiteId::new(origin), 0),
            payload: TxnPayload::Txn { req: request(4), cross: Some(7) },
        };
        let ids = vec![copy(0).id, copy(1).id];
        f.site().apply_engine_actions([copy(0), copy(1)].map(EngineAction::OptDeliver));
        assert_eq!(f.log.take(), ["opt_deliver", "execute", "start_execution"], "one copy");
        assert_eq!(f.node.msg_map.len(), 2, "both copies wait for their TO-delivery");
        let token = f.fake.execs[0];
        f.site().exec_done(token);
        f.node.gate.relay_order.push(7);
        f.site().apply_engine_actions([EngineAction::ToDeliver(ids)]);
        assert_eq!(f.log.to_delivered(), [4], "one copy");
        assert_eq!(f.fake.commits.len(), 1);
        assert_eq!(f.node.msg_map.len(), 0);
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
        let mut g = CrossGate::default();
        // Rule 1: a plain head releases immediately.
        g.queue.push_back((req(0), None));
        assert_eq!(g.release(), released(0));
        // Rule 2: a cross head stalls until the relay admits its id...
        g.queue.push_back((req(1), Some(7)));
        assert!(g.release().is_empty(), "no relay slot yet");
        g.relay_order.push(7);
        assert_eq!(g.release(), released(1));
        // Rule 3: relay order [.., 9, 8] vs queue [8, 9] — the relay's
        // next admission (9) jumps the stalled head (8), then 8 follows
        // once the relay admits it.
        g.relay_order.push(9);
        g.queue.push_back((req(2), Some(8)));
        g.queue.push_back((req(3), Some(9)));
        assert_eq!(g.release(), released(3), "9 jumps");
        g.relay_order.push(8);
        assert_eq!(g.release(), released(2), "8 follows");
        assert!(g.queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "Local Order: Opt-delivery precedes TO-delivery")]
    fn to_delivering_an_id_never_opt_delivered_panics() {
        Fixture::new()
            .site()
            .apply_engine_actions([EngineAction::ToDeliver(vec![MsgId::new(ME, 7)])]);
    }
}
