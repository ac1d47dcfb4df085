//! The conservative baseline: execute only after TO-delivery.
//!
//! This is the classic atomic-broadcast replication scheme the paper
//! improves on ([1, 12] in its bibliography): a site buffers a transaction
//! until its **definitive** position is known, then executes transactions
//! of a class serially in that order. No optimism → no aborts, but the
//! whole coordination latency of the broadcast sits on the critical path
//! of every transaction. Comparing commit latencies of this replica and
//! the OTP replica under identical schedules is experiment E2.

use crate::event::{ExecToken, ReplicaAction};
use crate::replica::CommittedPrefix;
use otp_simnet::metrics::Counters;
use otp_simnet::SiteId;
use otp_storage::{ClassId, Database, ObjectId, ProcRegistry, SnapshotIndex, TxnCtx, TxnIndex};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::txn::{TxnId, TxnRequest};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// A replica that ignores tentative deliveries entirely.
///
/// Interface mirrors [`crate::Replica`] so the cluster driver can host
/// either behind [`crate::cluster::AnyReplica`]; `on_opt_deliver` only
/// caches the request body (TO-deliver carries just the id).
#[derive(Debug)]
pub struct ConservativeReplica {
    site: SiteId,
    db: Database,
    registry: Arc<ProcRegistry>,
    /// Request bodies received via Opt-delivery, awaiting TO-delivery.
    pending_bodies: HashMap<TxnId, TxnRequest>,
    /// Per-class FIFO of TO-delivered transactions.
    queues: Vec<VecDeque<TxnRequest>>,
    executing: Vec<Option<(TxnId, u32)>>,
    effects: HashMap<TxnId, otp_storage::TxnEffects>,
    to_index: HashMap<TxnId, TxnIndex>,
    last_index: TxnIndex,
    prefix: CommittedPrefix,
    history: HistoryLog,
    commit_log: Vec<(TxnId, TxnIndex)>,
    /// Event counters (commits, submissions — never any aborts).
    pub counters: Counters,
}

impl ConservativeReplica {
    /// Creates a conservative replica over an initial database.
    pub fn new(site: SiteId, db: Database, registry: Arc<ProcRegistry>) -> Self {
        let classes = db.classes();
        ConservativeReplica {
            site,
            db,
            registry,
            pending_bodies: HashMap::new(),
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            executing: vec![None; classes],
            effects: HashMap::new(),
            to_index: HashMap::new(),
            last_index: TxnIndex::INITIAL,
            prefix: CommittedPrefix::default(),
            history: HistoryLog::new(),
            commit_log: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// The site this replica lives on.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Read access to the database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Snapshot index for queries (same semantics as the OTP replica).
    pub fn query_snapshot(&self) -> SnapshotIndex {
        self.prefix.query_snapshot()
    }

    /// Local commit log in commit order.
    pub fn commit_log(&self) -> &[(TxnId, TxnIndex)] {
        &self.commit_log
    }

    /// Recorded history (updates; queries appended by the query processor),
    /// rebuilt from the flat log.
    pub fn history(&self) -> Vec<CommittedTxn> {
        self.history.to_vec()
    }

    /// The recorded history as kept.
    pub fn history_log(&self) -> &HistoryLog {
        &self.history
    }

    /// Moves the recorded history out, leaving an empty log.
    pub(crate) fn take_history(&mut self) -> HistoryLog {
        std::mem::take(&mut self.history)
    }

    /// Appends a query record to the local history.
    pub fn record_query(
        &mut self,
        id: TxnId,
        reads: impl IntoIterator<Item = ObjectId>,
        snap: SnapshotIndex,
    ) {
        self.history.push(id, CommittedTxn::query_position(snap), reads, []);
    }

    /// Caches the request body; conservative processing starts nothing
    /// here.
    pub fn on_opt_deliver(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        self.pending_bodies.insert(request.id, request);
        Vec::new()
    }

    /// Enqueues the transaction at its definitive position and starts it
    /// if its class is idle.
    ///
    /// # Panics
    ///
    /// Panics if the body was never delivered (broadcast Local Order makes
    /// that impossible).
    pub fn on_to_deliver(&mut self, txn: TxnId, class: ClassId) -> Vec<ReplicaAction> {
        let mut out = Vec::new();
        self.apply_to_delivery(txn, class, &mut out);
        out
    }

    /// Handles a whole TO-delivery batch; semantically identical to calling
    /// [`ConservativeReplica::on_to_deliver`] in sequence.
    ///
    /// # Panics
    ///
    /// Panics if any body in the batch never arrived.
    pub fn on_to_deliver_batch(&mut self, batch: &[(TxnId, ClassId)]) -> Vec<ReplicaAction> {
        let mut out = Vec::new();
        for (txn, class) in batch {
            self.apply_to_delivery(*txn, *class, &mut out);
        }
        out
    }

    fn apply_to_delivery(&mut self, txn: TxnId, class: ClassId, out: &mut Vec<ReplicaAction>) {
        let request = self
            .pending_bodies
            .remove(&txn)
            .unwrap_or_else(|| panic!("{txn} TO-delivered before its body arrived"));
        let index = self.last_index.next();
        self.last_index = index;
        self.to_index.insert(txn, index);
        self.queues[class.index()].push_back(request);
        if self.executing[class.index()].is_none() {
            out.extend(self.submit_next(class));
        }
    }

    /// Commits the finished transaction and starts the next of its class.
    pub fn on_exec_done(&mut self, token: ExecToken) -> Vec<ReplicaAction> {
        let class = token.class;
        match self.executing[class.index()] {
            Some((txn, _)) if txn == token.txn => {}
            _ => return Vec::new(),
        }
        self.executing[class.index()] = None;
        let request = self.queues[class.index()].pop_front().expect("head was executing");
        debug_assert_eq!(request.id, token.txn);
        let index = self.to_index.remove(&token.txn).expect("TO-delivered");
        let effects = self.effects.remove(&token.txn).expect("executed");
        let written = || effects.undo.written_keys().map(|key| ObjectId { class, key });
        self.db
            .partition_mut(class)
            .expect("class exists")
            .promote(effects.undo.written_keys(), index);
        self.commit_log.push((token.txn, index));
        self.history.push(
            token.txn,
            CommittedTxn::update_position(index),
            effects.reads.iter().map(|&key| ObjectId { class, key }),
            written(),
        );
        self.prefix.commit(&mut self.db, index, written());
        self.counters.incr("commit");
        let mut actions =
            vec![ReplicaAction::Committed { txn: token.txn, index, output: effects.output }];
        actions.extend(self.submit_next(class));
        actions
    }

    /// State for a recovering site: committed database, index cursor and
    /// the TO-delivered-but-uncommitted tail (same shape as the OTP
    /// replica's snapshot — see [`crate::replica::ReplicaSnapshot`]).
    pub fn snapshot(&self) -> crate::replica::ReplicaSnapshot {
        let mut pending: Vec<(TxnRequest, TxnIndex)> = Vec::new();
        for q in &self.queues {
            for req in q {
                pending.push((req.clone(), self.to_index[&req.id]));
            }
        }
        pending.sort_by_key(|(_, idx)| *idx);
        crate::replica::ReplicaSnapshot {
            db: self.db.committed_copy(),
            last_index: self.last_index,
            pending,
        }
    }

    /// Rebuilds a fresh conservative replica from a donor snapshot and
    /// resubmits the pending definitive tail.
    pub fn restore(
        site: SiteId,
        registry: Arc<ProcRegistry>,
        snapshot: crate::replica::ReplicaSnapshot,
    ) -> (Self, Vec<ReplicaAction>) {
        let mut r = ConservativeReplica::new(site, snapshot.db, registry);
        r.last_index = snapshot.last_index;
        let pending_idx: BTreeSet<u64> = snapshot.pending.iter().map(|(_, i)| i.raw()).collect();
        r.prefix = CommittedPrefix::restored(snapshot.last_index, &pending_idx);
        let mut actions = Vec::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (req, idx) in snapshot.pending {
            let class = req.class;
            r.to_index.insert(req.id, idx);
            r.queues[class.index()].push_back(req);
            touched.insert(class.index());
        }
        for c in touched {
            actions.extend(r.submit_next(ClassId::new(c as u32)));
        }
        (r, actions)
    }

    fn submit_next(&mut self, class: ClassId) -> Vec<ReplicaAction> {
        let Some(request) = self.queues[class.index()].front().cloned() else {
            return Vec::new();
        };
        let proc = self
            .registry
            .get(request.proc)
            .unwrap_or_else(|| panic!("unknown stored procedure {}", request.proc))
            .clone();
        let mut ctx = TxnCtx::new(&mut self.db, class);
        if proc.execute(&mut ctx, &request.args).is_err() {
            self.counters.incr("proc_error");
        }
        self.effects.insert(request.id, ctx.finish());
        self.executing[class.index()] = Some((request.id, 0));
        self.counters.incr("submit");
        vec![ReplicaAction::StartExecution {
            token: ExecToken { txn: request.id, class, attempt: 0 },
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::{ObjectKey, ProcError, Value};

    fn registry() -> Arc<ProcRegistry> {
        let mut reg = ProcRegistry::new();
        reg.register_fn("add", |ctx, args| {
            let d = match args.first() {
                Some(Value::Int(d)) => *d,
                _ => return Err(ProcError::BadArgs("add(delta)".into())),
            };
            let k = ObjectKey::new(0);
            let v = ctx.read(k)?.as_int().unwrap_or(0);
            ctx.write(k, Value::Int(v + d))?;
            Ok(())
        });
        Arc::new(reg)
    }

    fn replica() -> ConservativeReplica {
        let mut d = Database::new(1);
        d.load(ObjectId::new(0, 0), Value::Int(0));
        ConservativeReplica::new(SiteId::new(0), d, registry())
    }

    fn req(seq: u64, delta: i64) -> TxnRequest {
        TxnRequest::new(
            TxnId::new(SiteId::new(0), seq),
            ClassId::new(0),
            otp_storage::ProcId::new(0),
            vec![Value::Int(delta)],
        )
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(SiteId::new(0), seq)
    }

    fn token(actions: &[ReplicaAction]) -> ExecToken {
        actions
            .iter()
            .find_map(|a| match a {
                ReplicaAction::StartExecution { token } => Some(*token),
                _ => None,
            })
            .expect("StartExecution")
    }

    #[test]
    fn nothing_happens_on_opt_delivery() {
        let mut r = replica();
        assert!(r.on_opt_deliver(req(0, 1)).is_empty());
        assert_eq!(r.counters.get("submit"), 0);
    }

    #[test]
    fn executes_in_definitive_order_regardless_of_tentative() {
        let mut r = replica();
        // Tentative arrival order: T1, T0. Conservative ignores it.
        r.on_opt_deliver(req(1, 10));
        r.on_opt_deliver(req(0, 1));
        // Definitive: T0 first.
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        let tok0 = token(&a);
        assert_eq!(tok0.txn, tid(0));
        assert!(r.on_to_deliver(tid(1), ClassId::new(0)).is_empty(), "class busy");
        let a = r.on_exec_done(tok0);
        let tok1 = token(&a);
        assert_eq!(tok1.txn, tid(1));
        r.on_exec_done(tok1);
        let log: Vec<TxnId> = r.commit_log().iter().map(|(t, _)| *t).collect();
        assert_eq!(log, vec![tid(0), tid(1)]);
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(11)));
        assert_eq!(r.counters.get("commit"), 2);
    }

    #[test]
    fn watermark_and_snapshot() {
        let mut r = replica();
        r.on_opt_deliver(req(0, 5));
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::INITIAL));
        r.on_exec_done(token(&a));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(1)));
    }

    #[test]
    #[should_panic(expected = "before its body")]
    fn to_deliver_without_body_panics() {
        let mut r = replica();
        r.on_to_deliver(tid(0), ClassId::new(0));
    }

    #[test]
    fn query_recording() {
        let mut r = replica();
        r.record_query(tid(9), vec![ObjectId::new(0, 0)], SnapshotIndex::after(TxnIndex::new(1)));
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.site(), SiteId::new(0));
    }
}
