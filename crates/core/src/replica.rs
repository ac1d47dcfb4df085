//! The OTP replica — the paper's algorithm, step by step.
//!
//! One [`Replica`] lives at each site. It consumes the two delivery events
//! of the broadcast layer plus execution completions, and maintains the
//! class queues, the database and the definitive index assignment:
//!
//! * **Serialization module** (Figure 4, S1–S5) → [`Replica::on_opt_deliver`]:
//!   append the transaction to its class queue, mark it `pending`/`active`,
//!   submit it if it is alone.
//! * **Execution module** (Figure 5, E1–E6) → [`Replica::on_exec_done`]:
//!   commit if the head is already `committable`, otherwise mark it
//!   `executed`.
//! * **Correctness-check module** (Figure 6, CC1–CC14) →
//!   [`Replica::on_to_deliver`]: commit an `executed` head; otherwise mark
//!   the transaction `committable`, abort a `pending` head (CC8), reschedule
//!   the transaction before the first `pending` entry (CC10) and resubmit
//!   if it reached the front (CC12).
//!
//! ## Execution
//!
//! Stored procedures run *at submission time*, writing the class partition
//! in place and collecting an undo log; the completion event only models
//! elapsed time. Abort = replay undo + bump the attempt counter, so a
//! stale completion for a cancelled attempt is recognized and dropped.
//! Re-execution after an abort re-runs the procedure against the current
//! state — exactly the "undo … and redo it again in the proper order" of
//! Section 3.2.
//!
//! ## Drivers
//!
//! The replica is a pure state machine: it never waits, sleeps or spawns.
//! Two drivers feed it events — the deterministic simulated cluster
//! ([`crate::Cluster`]) and the threaded wall-clock runtime
//! ([`crate::runtime::LiveCluster`]) — and both must honor the same
//! contract: every [`ReplicaAction::StartExecution`] is answered with an
//! [`Replica::on_exec_done`] call after the modeled execution time, and
//! aborts are *transient* (an aborted transaction re-executes and commits
//! later), so "all work done" means every start has its completion
//! delivered, not merely that a commit count was reached.

use crate::event::{ExecToken, ReplicaAction};
use otp_simnet::metrics::Counters;
use otp_simnet::SiteId;
use otp_storage::{
    ClassId, Database, ObjectId, ProcRegistry, SnapshotIndex, TxnCtx, TxnEffects, TxnIndex,
};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::queue::ClassQueue;
use otp_txn::txn::{DeliveryState, ExecState, TxnId, TxnRequest};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// State carried from a live replica to a recovering one (together with the
/// broadcast engine's [`otp_broadcast::EngineSnapshot`]). See DESIGN.md §4.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// Committed database state (no in-flight writes).
    pub db: Database,
    /// Last definitive index the donor assigned.
    pub last_index: TxnIndex,
    /// TO-delivered but not yet committed transactions, in index order.
    pub pending: Vec<(TxnRequest, TxnIndex)>,
}

/// A replica's committed definitive prefix, and the version trimming it
/// allows.
///
/// Every index up to the *watermark* `w` is committed. A query takes its
/// snapshot at `w.5` and reads at once (Section 5), so of an object's
/// versions only the newest one `≤ w` and those above `w` can be read
/// again. A commit therefore trims the chains it wrote as soon as the
/// watermark covers it — at once when commits arrive in index order, when
/// the watermark catches up otherwise — which keeps each chain at one
/// version plus those written inside the out-of-order window.
#[derive(Debug, Default)]
pub(crate) struct CommittedPrefix {
    /// Every index `≤ watermark` is committed.
    watermark: TxnIndex,
    /// Committed indices above the watermark.
    above: BTreeSet<u64>,
    /// Objects written by commits above the watermark, with the writer's
    /// index: trimmed once the watermark reaches it.
    untrimmed: Vec<(TxnIndex, ObjectId)>,
}

impl CommittedPrefix {
    /// The prefix of a replica restored with `last_index` assigned and the
    /// `pending` indices still to commit.
    pub(crate) fn restored(last_index: TxnIndex, pending: &BTreeSet<u64>) -> Self {
        let watermark = pending.first().map_or(last_index, |m| TxnIndex::new(m - 1));
        let above = (watermark.raw() + 1..=last_index.raw()).filter(|i| !pending.contains(i));
        CommittedPrefix { watermark, above: above.collect(), untrimmed: Vec::new() }
    }

    /// The snapshot index a query starting now receives.
    pub(crate) fn query_snapshot(&self) -> SnapshotIndex {
        SnapshotIndex::after(self.watermark)
    }

    /// Records the commit of `index`, whose `written` objects are already
    /// promoted in `db`, advances the watermark and trims every chain it
    /// now covers.
    pub(crate) fn commit(
        &mut self,
        db: &mut Database,
        index: TxnIndex,
        written: impl Iterator<Item = ObjectId>,
    ) {
        let before = self.watermark;
        self.above.insert(index.raw());
        while self.above.remove(&(self.watermark.raw() + 1)) {
            self.watermark = self.watermark.next();
        }
        let w = self.watermark;
        let mut trim = |o: ObjectId| {
            db.partition_mut(o.class).expect("class exists").trim([o.key], w);
        };
        if index <= w {
            written.for_each(&mut trim);
        } else {
            self.untrimmed.extend(written.map(|o| (index, o)));
        }
        if w > before {
            self.untrimmed.retain(|&(writer, o)| {
                let covered = writer <= w;
                if covered {
                    trim(o);
                }
                !covered
            });
        }
    }
}

/// The OTP replica at one site.
///
/// Drive it with the `on_*` event methods; execute the returned
/// [`ReplicaAction`]s (the only action needing driver support is
/// [`ReplicaAction::StartExecution`], which must come back as an
/// [`Replica::on_exec_done`] after the simulated execution time).
#[derive(Debug)]
pub struct Replica {
    site: SiteId,
    db: Database,
    registry: Arc<ProcRegistry>,
    queues: Vec<ClassQueue>,
    /// In-flight or finished-but-uncommitted execution effects.
    effects: HashMap<TxnId, TxnEffects>,
    /// Per-class current submitted execution `(txn, attempt)`.
    executing: Vec<Option<(TxnId, u32)>>,
    /// Definitive index assignment (CC module), filled at TO-delivery.
    to_index: HashMap<TxnId, TxnIndex>,
    /// Last assigned definitive index.
    last_index: TxnIndex,
    /// The committed prefix — the snapshot point for queries (Section 5:
    /// versions must exist before a query may need them) — and the
    /// version trimming below it.
    prefix: CommittedPrefix,
    /// Local history for serializability checking.
    history: HistoryLog,
    /// Commit log `(txn, index)` in local commit order.
    commit_log: Vec<(TxnId, TxnIndex)>,
    /// Protocol event counters: commits, aborts, reorders, …
    pub counters: Counters,
}

impl Replica {
    /// Creates a replica over an initial database.
    ///
    /// # Panics
    ///
    /// Panics if the database has no classes.
    pub fn new(site: SiteId, db: Database, registry: Arc<ProcRegistry>) -> Self {
        let classes = db.classes();
        Replica {
            site,
            db,
            registry,
            queues: ClassId::all(classes).map(ClassQueue::new).collect(),
            effects: HashMap::new(),
            executing: vec![None; classes],
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

    /// Read access to the database (tests, queries, state transfer).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The snapshot index a query starting now receives: `w.5`, where `w`
    /// is the committed definitive prefix. Using the committed prefix (not
    /// merely the TO-delivered one) guarantees every version a query may
    /// read already exists.
    pub fn query_snapshot(&self) -> SnapshotIndex {
        self.prefix.query_snapshot()
    }

    /// Local commit log `(txn, definitive index)` in commit order.
    pub fn commit_log(&self) -> &[(TxnId, TxnIndex)] {
        &self.commit_log
    }

    /// The recorded history (committed update transactions; the cluster
    /// appends query entries), rebuilt from the flat log.
    pub fn history(&self) -> Vec<CommittedTxn> {
        self.history.to_vec()
    }

    /// The recorded history as kept.
    pub fn history_log(&self) -> &HistoryLog {
        &self.history
    }

    /// Moves the recorded history out, leaving an empty log (shutdown
    /// hand-off).
    pub(crate) fn take_history(&mut self) -> HistoryLog {
        std::mem::take(&mut self.history)
    }

    /// Appends a query record to the local history (used by the query
    /// processor so 1-copy-serializability checks can include reads).
    pub fn record_query(
        &mut self,
        id: TxnId,
        reads: impl IntoIterator<Item = ObjectId>,
        snap: SnapshotIndex,
    ) {
        self.history.push(id, CommittedTxn::query_position(snap), reads, []);
    }

    /// Number of transactions queued across all classes (observability).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(ClassQueue::len).sum()
    }

    /// Validates every class queue's structural invariant. Tests call this
    /// after each event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for q in &self.queues {
            q.check_invariants()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Serialization module (Figure 4).
    // ------------------------------------------------------------------

    /// Handles `Opt-deliver(m)` for the transaction in `m` (S1–S5).
    pub fn on_opt_deliver(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        let class = request.class;
        assert!(
            class.index() < self.queues.len(),
            "transaction {} names unknown class {class}",
            request.id
        );
        self.counters.incr("opt_deliver");
        // S1: append to the class queue; S2: pending+active (queue entry
        // default); S3–S4: submit if alone.
        let is_first = self.queues[class.index()].append(request);
        if is_first {
            return self.submit_head(class);
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Execution module (Figure 5).
    // ------------------------------------------------------------------

    /// Handles the completion of a submitted execution (E1–E6). Stale
    /// completions (older attempt, or transaction no longer executing) are
    /// ignored.
    pub fn on_exec_done(&mut self, token: ExecToken) -> Vec<ReplicaAction> {
        let class = token.class;
        match self.executing[class.index()] {
            Some((txn, attempt)) if txn == token.txn && attempt == token.attempt => {}
            _ => {
                self.counters.incr("stale_exec_done");
                return Vec::new();
            }
        }
        self.executing[class.index()] = None;
        let queue = &mut self.queues[class.index()];
        let head = queue.head().expect("executing txn must be queued");
        debug_assert_eq!(head.id(), token.txn, "only the head executes");
        if head.delivery == DeliveryState::Committable {
            // E1–E3: executed + committable → commit, start the next.
            self.commit_head(class, token.txn)
        } else {
            // E5: executed, waiting for TO-delivery.
            queue.mark_executed(token.txn).expect("head just finished executing");
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Correctness-check module (Figure 6).
    // ------------------------------------------------------------------

    /// Handles `TO-deliver(m)` (CC1–CC14). Assigns the next definitive
    /// index to the transaction and reconciles the tentative schedule with
    /// the definitive order.
    ///
    /// # Panics
    ///
    /// Panics if the transaction was never Opt-delivered — the broadcast
    /// layer's Local Order property makes that impossible.
    pub fn on_to_deliver(&mut self, txn: TxnId, class: ClassId) -> Vec<ReplicaAction> {
        let mut out = Vec::new();
        self.apply_to_delivery(txn, class, &mut out);
        out
    }

    /// Handles a whole TO-delivery batch — everything the broadcast engine
    /// made definitive in one step — paying the action-buffer allocation
    /// once instead of once per message. Semantically identical to calling
    /// [`Replica::on_to_deliver`] in sequence.
    ///
    /// # Panics
    ///
    /// Panics if any transaction in the batch was never Opt-delivered.
    pub fn on_to_deliver_batch(&mut self, batch: &[(TxnId, ClassId)]) -> Vec<ReplicaAction> {
        let mut out = Vec::new();
        for (txn, class) in batch {
            self.apply_to_delivery(*txn, *class, &mut out);
        }
        out
    }

    fn apply_to_delivery(&mut self, txn: TxnId, class: ClassId, out: &mut Vec<ReplicaAction>) {
        self.counters.incr("to_deliver");
        let index = self.last_index.next();
        self.last_index = index;
        self.to_index.insert(txn, index);

        let queue = &self.queues[class.index()];
        // CC1: the entry must exist (Local Order).
        let entry =
            queue.entry(txn).unwrap_or_else(|| panic!("{txn} TO-delivered before Opt-delivery"));

        if entry.exec == ExecState::Executed {
            // CC2–CC4: it can only be the head; commit and move on.
            debug_assert_eq!(queue.head().map(|e| e.id()), Some(txn));
            out.extend(self.commit_head(class, txn));
            return;
        }

        // CC6: fix the definitive position.
        let queue = &mut self.queues[class.index()];
        queue.mark_committable(txn).expect("entry exists");

        // Was the tentative position wrong? (For statistics: the paper's
        // claim is that mismatches only matter when they reorder a class.)
        let tentative_pos = queue.position(txn).expect("entry exists");

        // CC7–CC9: a pending head is executing (or executed) out of
        // definitive order — abort it.
        let head = queue.head().expect("queue is non-empty");
        let head_id = head.id();
        if head.delivery == DeliveryState::Pending {
            debug_assert_ne!(head_id, txn, "txn was just marked committable");
            self.abort_head(class);
        }

        // CC10: schedule before the first pending transaction.
        let queue = &mut self.queues[class.index()];
        let new_pos = queue.reschedule_before_first_pending(txn).expect("entry exists");
        if new_pos != tentative_pos {
            self.counters.incr("reorder");
        }

        // CC11–CC13: if it reached the front and nothing of this class is
        // executing, submit it. (It may already be executing: the case
        // where the head was TO-delivered mid-execution — then E1 commits
        // it when it finishes.)
        if new_pos == 0 && self.executing[class.index()].is_none() {
            out.extend(self.submit_head(class));
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Runs the head's stored procedure against the class partition and
    /// reports the execution start. The effects (undo log, read/write
    /// sets) are held until commit or abort.
    fn submit_head(&mut self, class: ClassId) -> Vec<ReplicaAction> {
        let queue = &mut self.queues[class.index()];
        let Ok((txn, attempt)) = queue.head_for_execution() else {
            return Vec::new();
        };
        debug_assert!(self.executing[class.index()].is_none(), "one execution per class");
        let request = queue.head().expect("head exists").request.clone();
        let proc = self
            .registry
            .get(request.proc)
            .unwrap_or_else(|| panic!("unknown stored procedure {}", request.proc))
            .clone();
        let mut ctx = TxnCtx::new(&mut self.db, class);
        if let Err(e) = proc.execute(&mut ctx, &request.args) {
            // Deterministic failures (bad args / rule violations) happen
            // identically at every site; the transaction still commits
            // (possibly having written nothing) and the error is recorded.
            self.counters.incr("proc_error");
            let _ = e;
        }
        self.effects.insert(txn, ctx.finish());
        self.executing[class.index()] = Some((txn, attempt));
        self.counters.incr("submit");
        vec![ReplicaAction::StartExecution { token: ExecToken { txn, class, attempt } }]
    }

    /// CC8: abort the (pending) head — roll back its in-place writes and
    /// bump its attempt so the in-flight completion is ignored. The entry
    /// stays queued for re-execution.
    fn abort_head(&mut self, class: ClassId) {
        let queue = &mut self.queues[class.index()];
        let aborted = queue.abort_head().expect("queue is non-empty");
        if let Some(effects) = self.effects.remove(&aborted) {
            self.db.partition_mut(class).expect("class exists").apply_undo(&effects.undo);
        }
        self.executing[class.index()] = None;
        self.counters.incr("abort");
    }

    /// E2–E3 / CC3–CC4: commit the head, install its versions at its
    /// definitive index, and submit the next transaction of the class.
    fn commit_head(&mut self, class: ClassId, txn: TxnId) -> Vec<ReplicaAction> {
        let index = *self.to_index.get(&txn).expect("commit requires TO-delivery");
        let queue = &mut self.queues[class.index()];
        let (_entry, has_next) = queue.commit_head(txn).expect("txn is the head");
        let effects = self.effects.remove(&txn).expect("committed txn must have executed");
        let written = || effects.undo.written_keys().map(|key| ObjectId { class, key });
        self.db
            .partition_mut(class)
            .expect("class exists")
            .promote(effects.undo.written_keys(), index);
        self.executing[class.index()] = None;
        self.to_index.remove(&txn);

        // History + watermark bookkeeping.
        self.commit_log.push((txn, index));
        self.history.push(
            txn,
            CommittedTxn::update_position(index),
            effects.reads.iter().map(|&key| ObjectId { class, key }),
            written(),
        );
        self.prefix.commit(&mut self.db, index, written());
        self.counters.incr("commit");

        let mut actions = vec![ReplicaAction::Committed { txn, index, output: effects.output }];
        if has_next {
            actions.extend(self.submit_head(class));
        }
        actions
    }

    // ------------------------------------------------------------------
    // Recovery.
    // ------------------------------------------------------------------

    /// Produces the state a recovering site needs: the committed database,
    /// the index cursor and the TO-delivered-but-uncommitted tail (in
    /// definitive order) for replay.
    pub fn snapshot(&self) -> ReplicaSnapshot {
        let mut pending: Vec<(TxnRequest, TxnIndex)> = Vec::new();
        for q in &self.queues {
            for e in q.iter() {
                if e.delivery == DeliveryState::Committable {
                    let idx = self.to_index[&e.id()];
                    pending.push((e.request.clone(), idx));
                }
            }
        }
        pending.sort_by_key(|(_, idx)| *idx);
        ReplicaSnapshot { db: self.db.committed_copy(), last_index: self.last_index, pending }
    }

    /// Rebuilds a fresh replica from a donor snapshot and immediately
    /// resubmits the pending definitive tail. Subsequent Opt-/TO-deliveries
    /// continue through the restored broadcast engine.
    pub fn restore(
        site: SiteId,
        registry: Arc<ProcRegistry>,
        snapshot: ReplicaSnapshot,
    ) -> (Self, Vec<ReplicaAction>) {
        let mut r = Replica::new(site, snapshot.db, registry);
        r.last_index = snapshot.last_index;
        // Committed = everything ≤ last_index except the pending tail.
        let pending_idx: BTreeSet<u64> = snapshot.pending.iter().map(|(_, i)| i.raw()).collect();
        r.prefix = CommittedPrefix::restored(snapshot.last_index, &pending_idx);
        // Re-enqueue the pending tail as committable, in definitive order,
        // then start executing each class's head.
        let mut actions = Vec::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (req, idx) in snapshot.pending {
            let class = req.class;
            let id = req.id;
            r.to_index.insert(id, idx);
            r.queues[class.index()].append(req);
            r.queues[class.index()].mark_committable(id).expect("just appended");
            touched.insert(class.index());
        }
        for c in touched {
            actions.extend(r.submit_head(ClassId::new(c as u32)));
        }
        (r, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::{ObjectKey, ProcError, Value};

    /// Registry with an `add(key, delta)` RMW procedure.
    fn registry() -> Arc<ProcRegistry> {
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

    fn db(classes: usize) -> Database {
        let mut d = Database::new(classes);
        for c in 0..classes as u32 {
            d.load(ObjectId::new(c, 0), Value::Int(0));
        }
        d
    }

    fn replica(classes: usize) -> Replica {
        Replica::new(SiteId::new(0), db(classes), registry())
    }

    fn req(seq: u64, class: u32, delta: i64) -> TxnRequest {
        TxnRequest::new(
            TxnId::new(SiteId::new(0), seq),
            ClassId::new(class),
            otp_storage::ProcId::new(0),
            vec![Value::Int(0), Value::Int(delta)],
        )
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(SiteId::new(0), seq)
    }

    fn exec_token(actions: &[ReplicaAction]) -> ExecToken {
        actions
            .iter()
            .find_map(|a| match a {
                ReplicaAction::StartExecution { token } => Some(*token),
                _ => None,
            })
            .expect("expected a StartExecution action")
    }

    fn committed(actions: &[ReplicaAction]) -> Vec<TxnId> {
        actions
            .iter()
            .filter_map(|a| match a {
                ReplicaAction::Committed { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tentative_equals_definitive_fast_path() {
        let mut r = replica(1);
        // Opt-deliver T0: starts executing immediately.
        let a = r.on_opt_deliver(req(0, 0, 5));
        let tok = exec_token(&a);
        // Execution finishes before TO-delivery: marked executed (E5).
        assert!(r.on_exec_done(tok).is_empty());
        // TO-delivery finds it executed at the head → CC2/CC3 commit.
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        assert_eq!(committed(&a), vec![tid(0)]);
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(5)));
        assert_eq!(r.counters.get("commit"), 1);
        assert_eq!(r.counters.get("abort"), 0);
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(1)));
        r.check_invariants().unwrap();
    }

    #[test]
    fn to_delivery_before_exec_done_commits_on_completion() {
        let mut r = replica(1);
        let a = r.on_opt_deliver(req(0, 0, 5));
        let tok = exec_token(&a);
        // TO-delivered while executing: marked committable, no abort (it
        // is the head and now committable), no resubmission.
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        assert!(a.is_empty(), "{a:?}");
        // Completion now commits (E1–E2).
        let a = r.on_exec_done(tok);
        assert_eq!(committed(&a), vec![tid(0)]);
        r.check_invariants().unwrap();
    }

    #[test]
    fn same_class_executes_serially() {
        let mut r = replica(1);
        let a0 = r.on_opt_deliver(req(0, 0, 1));
        assert_eq!(a0.len(), 1, "T0 submitted");
        let a1 = r.on_opt_deliver(req(1, 0, 10));
        assert!(a1.is_empty(), "T1 must wait behind T0");
        // Commit T0; T1 starts.
        let tok0 = exec_token(&a0);
        r.on_to_deliver(tid(0), ClassId::new(0));
        let a = r.on_exec_done(tok0);
        assert_eq!(committed(&a), vec![tid(0)]);
        let tok1 = exec_token(&a);
        r.on_to_deliver(tid(1), ClassId::new(0));
        let a = r.on_exec_done(tok1);
        assert_eq!(committed(&a), vec![tid(1)]);
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(11)));
    }

    #[test]
    fn different_classes_execute_concurrently() {
        let mut r = replica(2);
        let a0 = r.on_opt_deliver(req(0, 0, 1));
        let a1 = r.on_opt_deliver(req(1, 1, 2));
        assert_eq!(a0.len(), 1);
        assert_eq!(a1.len(), 1, "different class runs concurrently");
    }

    /// The paper's §3.2 scenario at site N′: tentative T6 before T5, but
    /// definitive order is T5 first → T6 aborted, T5 executed and committed
    /// first, T6 re-executed after it.
    #[test]
    fn mismatch_aborts_and_reexecutes() {
        let mut r = replica(1);
        // Tentative: T6 (seq 6) first, then T5 (seq 5).
        let a6 = r.on_opt_deliver(req(6, 0, 100));
        let tok6 = exec_token(&a6);
        r.on_opt_deliver(req(5, 0, 1));
        // T6 finishes executing (marked executed, still pending).
        assert!(r.on_exec_done(tok6).is_empty());
        // Definitive order: T5 first. Head T6 is pending → abort (CC8),
        // T5 moves to the front (CC10) and is submitted (CC12).
        let a = r.on_to_deliver(tid(5), ClassId::new(0));
        let tok5 = exec_token(&a);
        assert_eq!(r.counters.get("abort"), 1);
        // T6's stale completion (if it arrived now) is ignored.
        assert!(r.on_exec_done(tok6).is_empty());
        assert_eq!(r.counters.get("stale_exec_done"), 1);
        // T5 commits; T6 re-submitted automatically.
        let a = r.on_exec_done(tok5);
        assert_eq!(committed(&a), vec![tid(5)]);
        let tok6b = exec_token(&a);
        assert_eq!(tok6b.txn, tid(6));
        assert_eq!(tok6b.attempt, 1, "second attempt");
        // T6 TO-delivered, completes, commits.
        r.on_to_deliver(tid(6), ClassId::new(0));
        let a = r.on_exec_done(tok6b);
        assert_eq!(committed(&a), vec![tid(6)]);
        // Effects: T5 (+1) then T6 (+100) → 101; and crucially the
        // re-execution of T6 saw T5's writes.
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(101)));
        // Commit order matches definitive order.
        let log: Vec<TxnId> = r.commit_log().iter().map(|(t, _)| *t).collect();
        assert_eq!(log, vec![tid(5), tid(6)]);
        r.check_invariants().unwrap();
    }

    /// §3.2 at site N: mismatch between classes (T2/T3 swapped) needs no
    /// abort because they do not conflict.
    #[test]
    fn cross_class_mismatch_costs_nothing() {
        let mut r = replica(2);
        // Tentative: T2 (class 0), T3 (class 1).
        let a2 = r.on_opt_deliver(req(2, 0, 1));
        let a3 = r.on_opt_deliver(req(3, 1, 1));
        let (tok2, tok3) = (exec_token(&a2), exec_token(&a3));
        r.on_exec_done(tok2);
        r.on_exec_done(tok3);
        // Definitive: T3 before T2 — opposite of tentative submission, but
        // in different classes: both commit without aborts.
        let a = r.on_to_deliver(tid(3), ClassId::new(1));
        assert_eq!(committed(&a), vec![tid(3)]);
        let a = r.on_to_deliver(tid(2), ClassId::new(0));
        assert_eq!(committed(&a), vec![tid(2)]);
        assert_eq!(r.counters.get("abort"), 0);
        assert_eq!(r.counters.get("reorder"), 0);
    }

    /// The paper's first §3.3 example: T1[a,c] at the head is *not*
    /// aborted when T3 is TO-delivered — only pending heads abort.
    #[test]
    fn committable_head_survives_reschedule() {
        let mut r = replica(1);
        let a1 = r.on_opt_deliver(req(1, 0, 1));
        let tok1 = exec_token(&a1);
        r.on_opt_deliver(req(2, 0, 1));
        r.on_opt_deliver(req(3, 0, 1));
        // T1 TO-delivered mid-execution → committable, still executing.
        assert!(r.on_to_deliver(tid(1), ClassId::new(0)).is_empty());
        // T3 TO-delivered next → rescheduled between T1 and T2, no abort.
        assert!(r.on_to_deliver(tid(3), ClassId::new(0)).is_empty());
        assert_eq!(r.counters.get("abort"), 0);
        assert_eq!(r.counters.get("reorder"), 1);
        // Queue order is now T1, T3, T2.
        let order: Vec<TxnId> = r.queues[0].iter().map(|e| e.id()).collect();
        assert_eq!(order, vec![tid(1), tid(3), tid(2)]);
        // T1 finishes → commits; T3 starts; and so on.
        let a = r.on_exec_done(tok1);
        assert_eq!(committed(&a), vec![tid(1)]);
        let tok3 = exec_token(&a);
        assert_eq!(tok3.txn, tid(3));
        r.check_invariants().unwrap();
    }

    #[test]
    fn proc_rule_errors_still_commit() {
        let mut reg = ProcRegistry::new();
        reg.register_fn("fail", |_ctx, _args| Err(ProcError::Rule("always".into())));
        let mut r = Replica::new(SiteId::new(0), db(1), Arc::new(reg));
        let request = TxnRequest::new(tid(0), ClassId::new(0), otp_storage::ProcId::new(0), vec![]);
        let a = r.on_opt_deliver(request);
        let tok = exec_token(&a);
        r.on_exec_done(tok);
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        assert_eq!(committed(&a), vec![tid(0)]);
        assert_eq!(r.counters.get("proc_error"), 1);
    }

    #[test]
    fn snapshot_restore_replays_pending_tail() {
        let mut r = replica(1);
        // T0 commits fully.
        let a = r.on_opt_deliver(req(0, 0, 7));
        let tok = exec_token(&a);
        r.on_exec_done(tok);
        r.on_to_deliver(tid(0), ClassId::new(0));
        // T1 is TO-delivered but still executing when the snapshot is cut.
        let a = r.on_opt_deliver(req(1, 0, 100));
        let _tok1 = exec_token(&a);
        r.on_to_deliver(tid(1), ClassId::new(0));

        let snap = r.snapshot();
        assert_eq!(snap.pending.len(), 1);
        assert_eq!(snap.last_index, TxnIndex::new(2));

        // A recovering replica replays T1.
        let (mut r2, actions) = Replica::restore(SiteId::new(1), registry(), snap);
        let tok = exec_token(&actions);
        assert_eq!(tok.txn, tid(1));
        let a = r2.on_exec_done(tok);
        assert_eq!(committed(&a), vec![tid(1)]);
        assert_eq!(r2.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(107)));
        // Watermark catches up to the full prefix.
        assert_eq!(r2.query_snapshot(), SnapshotIndex::after(TxnIndex::new(2)));
    }

    #[test]
    fn watermark_advances_in_index_order_across_classes() {
        let mut r = replica(2);
        let a0 = r.on_opt_deliver(req(0, 0, 1)); // will get index 1
        let a1 = r.on_opt_deliver(req(1, 1, 1)); // will get index 2
        let (tok0, tok1) = (exec_token(&a0), exec_token(&a1));
        r.on_exec_done(tok0);
        r.on_exec_done(tok1);
        r.on_to_deliver(tid(0), ClassId::new(0));
        // Only index 1 committed → watermark 1.
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(1)));
        r.on_to_deliver(tid(1), ClassId::new(1));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(2)));
    }

    /// A commit above the watermark keeps the version a snapshot at the
    /// watermark still reads; once the watermark covers it, its chain is
    /// trimmed to the newest version.
    #[test]
    fn out_of_order_commit_is_trimmed_when_the_watermark_catches_up() {
        let mut r = replica(2);
        let a0 = r.on_opt_deliver(req(0, 0, 1)); // index 1, class 0
        let a1 = r.on_opt_deliver(req(1, 1, 5)); // index 2, class 1
        r.on_to_deliver(tid(0), ClassId::new(0));
        r.on_to_deliver(tid(1), ClassId::new(1));
        // Index 2 commits first: the watermark stays at 0.
        r.on_exec_done(exec_token(&a1));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::INITIAL));
        let snap = r.query_snapshot();
        assert_eq!(r.db().read_at(ObjectId::new(1, 0), snap), Some(&Value::Int(0)));
        assert_eq!(r.db().retained_versions(), 3, "class 1 keeps its initial version");
        // Index 1 commits: watermark 2, both chains down to one version.
        r.on_exec_done(exec_token(&a0));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(2)));
        assert_eq!(r.db().retained_versions(), 2);
        assert_eq!(r.db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(5)));
    }

    #[test]
    fn query_history_recording() {
        let mut r = replica(1);
        r.record_query(tid(99), vec![ObjectId::new(0, 0)], SnapshotIndex::after(TxnIndex::new(3)));
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.history()[0].position, 7);
    }

    #[test]
    #[should_panic(expected = "TO-delivered before Opt-delivery")]
    fn to_deliver_without_opt_panics() {
        let mut r = replica(1);
        r.on_to_deliver(tid(0), ClassId::new(0));
    }
}
