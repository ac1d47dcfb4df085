//! One site's transaction logic, written once for both drivers.
//!
//! The paper's algorithm is one state machine per site, driven by
//! Opt-delivery and TO-delivery. This module holds every decision the
//! simulated [`crate::Cluster`] and the threaded
//! [`crate::runtime::LiveCluster`] make identically on a site's behalf:
//!
//! * building the site's ordering engine ([`EngineFactory`]) and replica
//!   ([`replicas`]);
//! * handing a submitted request to the engine ([`Site::submit`]);
//! * interpreting a group stream's engine actions
//!   ([`Site::apply_engine_actions`]): the one deep copy and the
//!   message-map insert at Opt-delivery, consuming the map at
//!   TO-delivery;
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
use crate::conservative::ConservativeReplica;
use crate::event::{ExecToken, ReplicaAction};
use crate::replica::Replica;
use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCtx, Message, MsgId, OptAbcast, OptAbcastConfig, Oracle,
    OrderDomain, ScrambleConfig, ScrambledAbcast, SeqAbcast, TimerToken, Wire,
};
use otp_simnet::metrics::Counters;
use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, Database, ObjectId, ProcRegistry, SnapshotIndex, TxnIndex, Value};
use otp_telemetry::{MetricsRegistry, Scope, Stage, TraceEvent, TraceSink};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::txn::{TxnId, TxnRequest};
use std::collections::HashMap;
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
) -> Vec<AnyReplica> {
    let mut db = Database::new(classes);
    for (oid, v) in initial_data {
        db.load(*oid, v.clone());
    }
    let replica = |site| match mode {
        Mode::Otp => AnyReplica::Otp(Replica::new(site, db.clone(), Arc::clone(registry))),
        Mode::Conservative => AnyReplica::Conservative(ConservativeReplica::new(
            site,
            db.clone(),
            Arc::clone(registry),
        )),
    };
    SiteId::all(sites).map(replica).collect()
}

/// Either replica kind behind one interface.
#[derive(Debug)]
pub enum AnyReplica {
    /// The paper's optimistic replica.
    Otp(Replica),
    /// The conservative baseline replica.
    Conservative(ConservativeReplica),
}

/// Calls the same method on whichever replica `$replica` holds.
macro_rules! dispatch {
    ($replica:expr, $r:ident => $call:expr) => {
        match $replica {
            AnyReplica::Otp($r) => $call,
            AnyReplica::Conservative($r) => $call,
        }
    };
}

impl AnyReplica {
    /// A replica of the same kind at `site`, restored from a snapshot of
    /// this one taken now, with the actions that resubmit its pending
    /// definitive tail.
    pub(crate) fn restored_at(
        &self,
        site: SiteId,
        registry: Arc<ProcRegistry>,
    ) -> (AnyReplica, Vec<ReplicaAction>) {
        match self {
            AnyReplica::Otp(r) => {
                let (fresh, actions) = Replica::restore(site, registry, r.snapshot());
                (AnyReplica::Otp(fresh), actions)
            }
            AnyReplica::Conservative(r) => {
                let (fresh, actions) = ConservativeReplica::restore(site, registry, r.snapshot());
                (AnyReplica::Conservative(fresh), actions)
            }
        }
    }

    pub(crate) fn on_opt_deliver(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        dispatch!(self, r => r.on_opt_deliver(request))
    }

    pub(crate) fn on_to_deliver_batch(&mut self, batch: &[(TxnId, ClassId)]) -> Vec<ReplicaAction> {
        dispatch!(self, r => r.on_to_deliver_batch(batch))
    }

    pub(crate) fn on_exec_done(&mut self, token: ExecToken) -> Vec<ReplicaAction> {
        dispatch!(self, r => r.on_exec_done(token))
    }

    /// The database copy at this site.
    pub fn db(&self) -> &Database {
        dispatch!(self, r => r.db())
    }

    /// Snapshot index a query starting now would get.
    pub fn query_snapshot(&self) -> SnapshotIndex {
        dispatch!(self, r => r.query_snapshot())
    }

    /// Local commit log.
    pub fn commit_log(&self) -> &[(TxnId, TxnIndex)] {
        dispatch!(self, r => r.commit_log())
    }

    /// Local committed history (updates + queries), rebuilt from the flat
    /// log.
    pub fn history(&self) -> Vec<CommittedTxn> {
        self.history_log().to_vec()
    }

    /// Local committed history as kept.
    pub fn history_log(&self) -> &HistoryLog {
        dispatch!(self, r => r.history_log())
    }

    /// Moves the local history out, leaving an empty log.
    pub(crate) fn take_history(&mut self) -> HistoryLog {
        dispatch!(self, r => r.take_history())
    }

    pub(crate) fn record_query(&mut self, id: TxnId, reads: Vec<ObjectId>, snap: SnapshotIndex) {
        dispatch!(self, r => r.record_query(id, reads, snap))
    }

    /// Protocol counters of this replica.
    pub fn counters(&self) -> &Counters {
        dispatch!(self, r => &r.counters)
    }
}

/// What a driver does on a site's behalf when the shared site code asks.
///
/// The simulator schedules each effect on its virtual-time event queue
/// and network model; the threaded runtime posts wires to its network
/// thread and arms wall-clock timers. Every call happens in the order the
/// engine or replica emitted the action it stands for.
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

/// One site's replica and message map, borrowed from its driver for one
/// step of the shared site code, with the driver's effects `F` for that
/// step.
pub(crate) struct Site<'a, F> {
    me: SiteId,
    /// Group label of this site's trace events: its ordering group (0
    /// when unsharded).
    group: u16,
    replica: &'a mut AnyReplica,
    msg_map: &'a mut SiteMsgMap,
    /// `None` = tracing off: one branch per stage point, no clock read.
    trace: Option<&'a dyn TraceSink>,
    fx: F,
}

impl<'a, F: SiteEffects> Site<'a, F> {
    /// The view of site `me`, ordering group `group`, acting through `fx`.
    pub(crate) fn new(
        me: SiteId,
        group: u16,
        replica: &'a mut AnyReplica,
        msg_map: &'a mut SiteMsgMap,
        trace: Option<&'a dyn TraceSink>,
        fx: F,
    ) -> Self {
        Site { me, group, replica, msg_map, trace, fx }
    }

    /// Accepts a client request at this site and broadcasts it on the
    /// site's group stream, traced as `Submit` then `Broadcast`.
    pub(crate) fn submit(&mut self, engine: &mut Engine, ctx: &EngineCtx<'_>, request: TxnRequest) {
        self.trace(request.id, Stage::Submit);
        self.trace(request.id, Stage::Broadcast);
        let payload = TxnPayload::Txn { req: Arc::new(request), cross: None };
        let (_, actions) = engine.broadcast(ctx, payload);
        self.apply_engine_actions(actions);
    }

    /// Interprets a group-stream engine's actions in order: wires and
    /// timers go to the driver untouched, deliveries to the replica.
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
                    let batch: Vec<(TxnId, ClassId)> = ids
                        .iter()
                        .map(|id| {
                            let (req, _) = take_delivered(self.msg_map, id);
                            (req.id, req.class)
                        })
                        .collect();
                    self.to_deliver_batch(&batch);
                }
            }
        }
    }

    /// One tentative delivery: the map keeps the body for the TO-delivery
    /// that will name only its id, and the replica gets its own copy.
    fn opt_deliver(&mut self, msg: Message<TxnPayload>) {
        let TxnPayload::Txn { req, cross } = msg.payload else {
            unreachable!("group streams carry only transactions")
        };
        // The one deep copy on the delivery path: the replica takes
        // ownership of the request body.
        let request = TxnRequest::clone(&req);
        self.msg_map.insert(msg.id, (req, cross));
        self.trace(request.id, Stage::OptDeliver);
        let actions = self.replica.on_opt_deliver(request);
        self.apply_replica_actions(actions);
    }

    /// Hands a batch of definitive deliveries, in definitive order, to the
    /// replica. ("TO" is the paper's total-order verb, not a conversion
    /// prefix.)
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn to_deliver_batch(&mut self, batch: &[(TxnId, ClassId)]) {
        for (txn, _) in batch {
            self.trace(*txn, Stage::ToDeliver);
        }
        let actions = self.replica.on_to_deliver_batch(batch);
        self.apply_replica_actions(actions);
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
        record_stage(self.trace, || self.fx.now(), self.me, self.group, txn, stage);
    }
}

/// Consumes `id`'s message-map entry at its TO-delivery.
///
/// # Panics
///
/// Panics when `id` was never Opt-delivered at this site: the engine broke
/// Local Order.
pub(crate) fn take_delivered(map: &mut SiteMsgMap, id: &MsgId) -> (Arc<TxnRequest>, Option<u64>) {
    map.remove(id).expect("Local Order: Opt-delivery precedes TO-delivery")
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
    use otp_storage::{ObjectKey, ProcError, ProcId};
    use std::sync::Mutex;

    const ME: SiteId = SiteId::new(1);

    /// Trace stages and effect calls, interleaved in call order.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Log {
        fn note(&self, what: &str) {
            self.0.lock().expect("log poisoned").push(what.to_string());
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut self.0.lock().expect("log poisoned"))
        }
    }

    impl TraceSink for Log {
        fn record(&self, ev: TraceEvent) {
            assert_eq!((ev.site, ev.group), (ME, 3), "stamped with this site and group");
            self.note(ev.stage.id());
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

    /// An OTP replica at [`ME`] with its message map, the log and the fake.
    struct Fixture {
        replica: AnyReplica,
        map: SiteMsgMap,
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
            Fixture { replica, map: SiteMsgMap::new(), log, fake }
        }

        fn site(&mut self) -> Site<'_, &mut Fake> {
            let trace: &dyn TraceSink = self.log.as_ref();
            Site::new(ME, 3, &mut self.replica, &mut self.map, Some(trace), &mut self.fake)
        }
    }

    fn txn_msg(seq: u64) -> Message<TxnPayload> {
        let args = vec![Value::Int(5)];
        let req = TxnRequest::new(TxnId::new(ME, seq), ClassId::new(0), ProcId::new(0), args);
        let payload = TxnPayload::Txn { req: Arc::new(req), cross: None };
        Message { id: MsgId::new(ME, seq), payload }
    }

    #[test]
    fn one_transaction_passes_every_stage_and_effect_in_order() {
        let mut f = Fixture::new();
        let msg = txn_msg(0);
        let id = msg.id;
        f.site().apply_engine_actions([EngineAction::OptDeliver(msg)]);
        assert_eq!(f.map.len(), 1, "the body waits for its TO-delivery");
        let token = f.fake.execs[0];
        assert_eq!((token.txn, token.attempt), (TxnId::new(ME, 0), 0));
        f.site().exec_done(token);
        f.site().apply_engine_actions([EngineAction::ToDeliver(vec![id])]);
        let expected =
            ["opt_deliver", "execute", "start_execution", "to_deliver", "commit", "committed"];
        assert_eq!(f.log.take(), expected);
        assert_eq!(f.fake.commits, vec![(TxnId::new(ME, 0), vec![Value::Int(5)])]);
        assert!(f.map.is_empty(), "TO-delivery consumed the entry");
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
        let order = Wire::SeqOrder { epoch: 1, seqno: 9, id: MsgId::new(ME, 2) };
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
        assert!(f.map.is_empty() && f.fake.execs.is_empty());
    }

    #[test]
    #[should_panic(expected = "Local Order: Opt-delivery precedes TO-delivery")]
    fn to_delivering_an_id_never_opt_delivered_panics() {
        Fixture::new()
            .site()
            .apply_engine_actions([EngineAction::ToDeliver(vec![MsgId::new(ME, 7)])]);
    }
}
