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
//! ## Two execution policies
//!
//! The replica's [`Mode`] is its execution policy. [`Mode::Otp`] is the
//! paper's algorithm as above. [`Mode::Conservative`] is the classic
//! baseline that executes a transaction only after its TO-delivery: the
//! same queues and modules with the tentative schedule never executed.
//! It differs by exactly two rules (DESIGN.md §17):
//!
//! 1. a queue head is started only once it is `committable`;
//! 2. CC8 aborts a `pending` head only if it has run (is executing or
//!    `executed`) — under OTP a pending head always has, under
//!    conservative processing it never has, so nothing ever aborts.
//!
//! CC10 keeps each queue's committable prefix in definitive order, so the
//! conservative policy starts transactions in exactly that order.
//!
//! ## Class sets
//!
//! Under the multi-class extension of the paper's model a transaction
//! declares a set of classes ([`TxnRequest::over_classes`]); its lowest
//! class is its *home* class, which [`ExecToken`] and
//! [`Replica::on_to_deliver`] name. A one-class transaction is a set of
//! one. The modules above run over the whole set (DESIGN.md §17): the
//! transaction enters every queue of its set, starts only when it heads
//! all of them and none of its classes is executing, is checked in each
//! of them at TO-delivery, is aborted in all of them at once, and leaves
//! all of them at commit.
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

use crate::cluster::Mode;
use crate::event::{ExecToken, ReplicaAction};
use otp_simnet::metrics::Counters;
use otp_simnet::sched::{Data, Input, Node, Output, Outputs};
use otp_simnet::{SimTime, SiteId};
use otp_storage::{
    ClassId, Database, ObjectId, ProcRegistry, SnapshotIndex, TxnCtx, TxnEffects, TxnIndex,
};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::queue::{ClassQueue, QueueEntry};
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

/// The replica at one site, under either execution policy ([`Mode`]).
///
/// Drive it with the `on_*` event methods; execute the returned
/// [`ReplicaAction`]s (the only action needing driver support is
/// [`ReplicaAction::StartExecution`], which must come back as an
/// [`Replica::on_exec_done`] after the simulated execution time).
#[derive(Debug)]
pub struct Replica {
    mode: Mode,
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
    /// Creates an OTP replica over an initial database.
    pub fn new(site: SiteId, db: Database, registry: Arc<ProcRegistry>) -> Self {
        Replica::with_mode(site, db, registry, Mode::Otp)
    }

    /// Creates a replica over an initial database that processes
    /// transactions under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the database has no classes.
    pub fn with_mode(site: SiteId, db: Database, registry: Arc<ProcRegistry>, mode: Mode) -> Self {
        let classes = db.classes();
        Replica {
            mode,
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

    /// Protocol counters of this replica.
    pub fn counters(&self) -> &Counters {
        &self.counters
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

    /// Validates that the class queues agree on each transaction — its
    /// entries carry the same states in every queue of its class set, and
    /// an executing transaction heads all of its queues and holds each of
    /// its classes — and every class queue's structural invariant. Tests
    /// call this after each event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let states = |e: &QueueEntry| (e.exec, e.delivery, e.attempt);
        for q in &self.queues {
            for e in q.iter().filter(|e| e.request.class == q.class()) {
                for &c in e.request.other_classes() {
                    let other = self.queues[c.index()]
                        .entry(e.id())
                        .ok_or_else(|| format!("{} is missing from queue {c}", e.id()))?;
                    if states(other) != states(e) {
                        return Err(format!(
                            "{} is {:?} in queue {} but {:?} in queue {c}",
                            e.id(),
                            states(e),
                            q.class(),
                            states(other)
                        ));
                    }
                }
            }
        }
        for (running, q) in self.executing.iter().zip(&self.queues) {
            let Some((txn, _)) = *running else { continue };
            let heads_and_holds = |c: ClassId| {
                self.executing[c.index()] == *running
                    && self.queues[c.index()].head().is_some_and(|h| h.id() == txn)
            };
            let set = q.head().filter(|h| h.id() == txn).map(|h| &h.request);
            if let Some(c) =
                set.map_or(Some(q.class()), |r| r.classes().find(|&c| !heads_and_holds(c)))
            {
                return Err(format!("{txn} executes but does not head and hold class {c}"));
            }
        }
        for q in &self.queues {
            q.check_invariants()?;
        }
        Ok(())
    }

    /// Appends an Opt-delivered request to every queue of its class set
    /// (S1–S2). Returns `true` if it is alone in all of them — it heads
    /// them all, and none of its classes is executing.
    fn enqueue(&mut self, request: TxnRequest) -> bool {
        let mut alone = true;
        for &c in request.other_classes() {
            alone &= self.queues[c.index()].append(request.clone());
        }
        alone & self.queues[request.class.index()].append(request)
    }

    // ------------------------------------------------------------------
    // Serialization module (Figure 4).
    // ------------------------------------------------------------------

    /// Handles `Opt-deliver(m)` for the transaction in `m` (S1–S5).
    pub fn on_opt_deliver(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        let class = request.class;
        for c in request.classes() {
            assert!(
                c.index() < self.queues.len(),
                "transaction {} names unknown class {c}",
                request.id
            );
        }
        self.counters.incr("opt_deliver");
        // S1: append to every queue of the class set; S2: pending+active
        // (queue entry default); S3–S4: submit if alone in all of them.
        if self.enqueue(request) {
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
        let head = self.queues[class.index()].head().expect("executing txn must be queued");
        debug_assert_eq!(head.id(), token.txn, "only the head executes");
        if head.delivery == DeliveryState::Committable {
            // E1–E3: executed + committable → commit, start the next.
            self.commit_head(class, token.txn)
        } else {
            // E5: executed, waiting for TO-delivery — in every queue of its
            // set, each of which it heads.
            let others: Box<[ClassId]> = head.request.other_classes().into();
            for c in std::iter::once(class).chain(others.iter().copied()) {
                self.executing[c.index()] = None;
                self.queues[c.index()].mark_executed(token.txn).expect("it heads all its queues");
            }
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Correctness-check module (Figure 6).
    // ------------------------------------------------------------------

    /// Handles `TO-deliver(m)` (CC1–CC14) for the transaction `txn` of
    /// home class `class`. Assigns the next definitive index to the
    /// transaction and reconciles the tentative schedule with the
    /// definitive order in every queue of its class set.
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
            // CC2–CC4: it can only be the head (of all its queues); commit
            // and move on.
            debug_assert_eq!(queue.head().map(|e| e.id()), Some(txn));
            out.extend(self.commit_head(class, txn));
            return;
        }

        debug_assert_eq!(entry.request.class, class, "TO-delivery names the home class");
        let others: Box<[ClassId]> = entry.request.other_classes().into();
        let mut reordered = false;
        for c in std::iter::once(class).chain(others.iter().copied()) {
            // CC6: fix the definitive position.
            let queue = &mut self.queues[c.index()];
            queue.mark_committable(txn).expect("queued in every class of its set");

            // Was the tentative position wrong? (For statistics: the paper's
            // claim is that mismatches only matter when they reorder a
            // class.)
            let tentative_pos = queue.position(txn).expect("entry exists");

            // CC7–CC9: a pending head that has run (is executing, or
            // executed) ran out of definitive order — abort it, across its
            // whole class set. A pending head has always run under OTP
            // unless it waits on another of its queues, and never under
            // conservative processing.
            let head = queue.head().expect("queue is non-empty");
            let has_run = head.exec == ExecState::Executed || self.executing[c.index()].is_some();
            if head.delivery == DeliveryState::Pending && has_run {
                debug_assert_ne!(head.id(), txn, "txn was just marked committable");
                self.abort_head(c);
            }

            // CC10: schedule before the first pending transaction.
            let queue = &mut self.queues[c.index()];
            let new_pos = queue.reschedule_before_first_pending(txn).expect("entry exists");
            reordered |= new_pos != tentative_pos;
        }
        if reordered {
            self.counters.incr("reorder");
        }

        // CC11–CC13: if it reached the front of all its queues and none of
        // its classes is executing, submit it. (It may already be
        // executing: the case where the head was TO-delivered mid-execution
        // — then E1 commits it when it finishes.) A committable head ahead
        // of it that waited on this transaction's classes may start too.
        for c in std::iter::once(class).chain(others.iter().copied()) {
            out.extend(self.submit_head(c));
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Runs the stored procedure of `class`'s queue head against its
    /// classes' partitions and reports the execution start, if the head may
    /// start: it heads every queue of its class set and none of its classes
    /// is executing. Conservative processing starts only a committable
    /// head. The effects (undo logs, read/write sets) are held until commit
    /// or abort.
    fn submit_head(&mut self, class: ClassId) -> Vec<ReplicaAction> {
        let Some(head) = self.queues[class.index()].head() else {
            return Vec::new();
        };
        if self.mode == Mode::Conservative && head.delivery == DeliveryState::Pending {
            return Vec::new();
        }
        let (txn, attempt, request) = (head.id(), head.attempt, &head.request);
        let free = |c: ClassId| {
            self.executing[c.index()].is_none()
                && self.queues[c.index()].head().is_some_and(|h| h.id() == txn)
        };
        if !request.classes().all(free) {
            return Vec::new();
        }
        debug_assert_eq!(head.exec, ExecState::Active, "an executed head does not run again");
        let proc = self
            .registry
            .get(request.proc)
            .unwrap_or_else(|| panic!("unknown stored procedure {}", request.proc));
        let (home, others) = (request.class, request.other_classes());
        let mut ctx = TxnCtx::over_classes(&mut self.db, home, others);
        if proc.execute(&mut ctx, &request.args).is_err() {
            // Deterministic failures (bad args / rule violations) happen
            // identically at every site; the transaction still commits
            // (possibly having written nothing) and the error is recorded.
            self.counters.incr("proc_error");
        }
        self.effects.insert(txn, ctx.finish());
        for c in request.classes() {
            self.executing[c.index()] = Some((txn, attempt));
        }
        self.counters.incr("submit");
        vec![ReplicaAction::StartExecution { token: ExecToken { txn, class: home, attempt } }]
    }

    /// CC8: abort the (pending) head of `class` in every queue of its
    /// class set — it heads them all, having run — roll back its in-place
    /// writes in every class and bump its attempt so the in-flight
    /// completion is ignored. The entries stay queued for re-execution.
    fn abort_head(&mut self, class: ClassId) {
        let victim = &self.queues[class.index()].head().expect("queue is non-empty").request;
        let (aborted, home) = (victim.id, victim.class);
        let others: Box<[ClassId]> = victim.other_classes().into();
        for c in std::iter::once(home).chain(others.iter().copied()) {
            let head = self.queues[c.index()].abort_head().expect("queue is non-empty");
            debug_assert_eq!(head, aborted, "a transaction that ran heads all its queues");
            self.executing[c.index()] = None;
        }
        if let Some(effects) = self.effects.remove(&aborted) {
            for (c, undo) in effects.undo_logs() {
                self.db.partition_mut(c).expect("class exists").apply_undo(undo);
            }
        }
        self.counters.incr("abort");
    }

    /// E2–E3 / CC3–CC4: commit the head (of all its queues), install its
    /// versions at its definitive index, and submit the next transaction of
    /// each of its classes, in ascending class order.
    fn commit_head(&mut self, class: ClassId, txn: TxnId) -> Vec<ReplicaAction> {
        let index = *self.to_index.get(&txn).expect("commit requires TO-delivery");
        let queue = &mut self.queues[class.index()];
        let (entry, _) = queue.commit_head(txn).expect("txn is the head");
        for c in entry.request.other_classes() {
            self.queues[c.index()].commit_head(txn).expect("txn heads all its queues");
            self.executing[c.index()] = None;
        }
        let effects = self.effects.remove(&txn).expect("committed txn must have executed");
        for (c, undo) in effects.undo_logs() {
            self.db.partition_mut(c).expect("class exists").promote(undo.written_keys(), index);
        }
        self.executing[class.index()] = None;
        self.to_index.remove(&txn);

        // History + watermark bookkeeping.
        self.commit_log.push((txn, index));
        self.history.push(
            txn,
            CommittedTxn::update_position(index),
            effects.objects_read(),
            effects.objects_written(),
        );
        self.prefix.commit(&mut self.db, index, effects.objects_written());
        self.counters.incr("commit");

        let mut actions = vec![ReplicaAction::Committed { txn, index, output: effects.output }];
        for c in entry.request.classes() {
            actions.extend(self.submit_head(c));
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
            // Each transaction once, from its home queue.
            for e in q.iter().filter(|e| e.request.class == q.class()) {
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
        // then start each class's head.
        let mut actions = Vec::new();
        let mut touched: BTreeSet<ClassId> = BTreeSet::new();
        for (req, idx) in snapshot.pending {
            let id = req.id;
            let classes: Vec<ClassId> = req.classes().collect();
            r.to_index.insert(id, idx);
            r.enqueue(req);
            for c in classes {
                r.queues[c.index()].mark_committable(id).expect("just appended");
                touched.insert(c);
            }
        }
        for c in touched {
            actions.extend(r.submit_head(c));
        }
        (r, actions)
    }

    /// A replica of this one's mode at `site`, restored from a snapshot of
    /// this one taken now, with the actions that resubmit its pending
    /// definitive tail.
    pub(crate) fn restored_at(
        &self,
        site: SiteId,
        registry: Arc<ProcRegistry>,
    ) -> (Replica, Vec<ReplicaAction>) {
        // The replayed tail is all committable: either mode starts the
        // same heads.
        let (mut fresh, actions) = Replica::restore(site, registry, self.snapshot());
        fresh.mode = self.mode;
        (fresh, actions)
    }
}

/// A delivery a lone [`Replica`] takes as a scheduler node
/// ([`otp_simnet::sched::Sched`]): the engine's two deliveries, scheduled
/// by the caller as client submissions.
#[derive(Debug)]
pub enum ReplicaInput {
    /// Opt-delivery of a request.
    Opt(TxnRequest),
    /// TO-delivery of a transaction, named with its home class.
    To(TxnId, ClassId),
}

impl Data for Replica {
    /// A lone replica sends nothing.
    type Wire = std::convert::Infallible;
    type Timer = ();
    type Work = ExecToken;
    type Submit = ReplicaInput;
    type Control = ();
    /// A transaction committed.
    type Report = TxnId;
}

/// The replica on the scheduler without a broadcast engine: deliveries
/// come in as submissions, an execution is local work, and a commit is
/// reported.
impl Node for Replica {
    type Data = Self;

    fn handle(&mut self, _at: SiteId, _now: SimTime, input: Input<Self>, out: &mut Outputs<Self>) {
        let actions = match input {
            Input::Submit(ReplicaInput::Opt(request)) => self.on_opt_deliver(request),
            Input::Submit(ReplicaInput::To(txn, class)) => self.on_to_deliver(txn, class),
            Input::Done(token) => self.on_exec_done(token),
            Input::Wires(_) | Input::Timer(()) | Input::Control(()) => Vec::new(),
        };
        for a in actions {
            match a {
                ReplicaAction::StartExecution { token } => out.push(Output::Work(token)),
                ReplicaAction::Committed { txn, .. } => out.push(Output::Report(txn)),
            }
        }
    }
}

/// The conservative baseline under its former type name: a [`Replica`] in
/// [`Mode::Conservative`], with no logic of its own. New code builds
/// `Replica::with_mode(site, db, registry, Mode::Conservative)`.
#[derive(Debug)]
pub struct ConservativeReplica(Replica);

impl ConservativeReplica {
    /// Creates a conservative replica over an initial database.
    pub fn new(site: SiteId, db: Database, registry: Arc<ProcRegistry>) -> Self {
        ConservativeReplica(Replica::with_mode(site, db, registry, Mode::Conservative))
    }
}

impl std::ops::Deref for ConservativeReplica {
    type Target = Replica;

    fn deref(&self) -> &Replica {
        &self.0
    }
}

impl std::ops::DerefMut for ConservativeReplica {
    fn deref_mut(&mut self) -> &mut Replica {
        &mut self.0
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

    // ------------------------------------------------------------------
    // Conservative processing.
    // ------------------------------------------------------------------

    fn conservative(classes: usize) -> Replica {
        Replica::with_mode(SiteId::new(0), db(classes), registry(), Mode::Conservative)
    }

    #[test]
    fn conservative_starts_nothing_on_opt_delivery() {
        let mut r = conservative(1);
        assert!(r.on_opt_deliver(req(0, 0, 1)).is_empty());
        assert_eq!(r.counters.get("submit"), 0);
    }

    #[test]
    fn conservative_executes_in_definitive_order_regardless_of_tentative() {
        let mut r = conservative(1);
        // Tentative arrival order: T1, T0. Conservative ignores it.
        r.on_opt_deliver(req(1, 0, 10));
        r.on_opt_deliver(req(0, 0, 1));
        // Definitive: T0 first.
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        let tok0 = exec_token(&a);
        assert_eq!(tok0.txn, tid(0));
        assert!(r.on_to_deliver(tid(1), ClassId::new(0)).is_empty(), "class busy");
        let a = r.on_exec_done(tok0);
        let tok1 = exec_token(&a);
        assert_eq!(tok1.txn, tid(1));
        r.on_exec_done(tok1);
        let log: Vec<TxnId> = r.commit_log().iter().map(|(t, _)| *t).collect();
        assert_eq!(log, vec![tid(0), tid(1)]);
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(11)));
        assert_eq!(r.counters.get("commit"), 2);
        assert_eq!(r.counters.get("abort"), 0);
        r.check_invariants().unwrap();
    }

    #[test]
    fn conservative_watermark_and_snapshot() {
        let mut r = conservative(1);
        r.on_opt_deliver(req(0, 0, 5));
        let a = r.on_to_deliver(tid(0), ClassId::new(0));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::INITIAL));
        r.on_exec_done(exec_token(&a));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(1)));
    }

    #[test]
    #[should_panic(expected = "TO-delivered before Opt-delivery")]
    fn conservative_to_deliver_without_opt_panics() {
        let mut r = conservative(1);
        r.on_to_deliver(tid(0), ClassId::new(0));
    }

    #[test]
    fn conservative_query_recording() {
        let mut r = conservative(1);
        r.record_query(tid(9), vec![ObjectId::new(0, 0)], SnapshotIndex::after(TxnIndex::new(1)));
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.site(), SiteId::new(0));
    }

    /// A restored replica keeps its donor's policy: a conservative one
    /// still starts nothing on Opt-delivery.
    #[test]
    fn restored_replica_keeps_the_donor_mode() {
        let mut r = conservative(1);
        r.on_opt_deliver(req(0, 0, 7));
        r.on_to_deliver(tid(0), ClassId::new(0));
        let (mut fresh, actions) = r.restored_at(SiteId::new(1), registry());
        assert_eq!(fresh.mode, Mode::Conservative);
        assert_eq!(exec_token(&actions).txn, tid(0), "the TO-delivered tail replays");
        assert!(fresh.on_opt_deliver(req(1, 0, 1)).is_empty());
        let a = fresh.on_exec_done(exec_token(&actions));
        assert_eq!(committed(&a), vec![tid(0)]);
        assert_eq!(a.len(), 1, "the pending T1 does not start: {a:?}");
    }

    /// Registry whose procedure 0 folds `args[1]` into key 0 of every
    /// declared class as `v·31 + delta`: any reordering within a class
    /// changes the value.
    fn mix_registry() -> Arc<ProcRegistry> {
        let mut reg = ProcRegistry::new();
        reg.register_fn("mix", |ctx, args| {
            let d = args.get(1).and_then(Value::as_int).unwrap_or(0);
            for class in ctx.classes().collect::<Vec<_>>() {
                let key = ObjectId { class, key: ObjectKey::new(0) };
                let v = ctx.read_object(key)?.as_int().unwrap_or(0);
                let next = v.wrapping_mul(31).wrapping_add(d);
                ctx.write_object(key, Value::Int(next))?;
                ctx.emit(Value::Int(next));
            }
            Ok(())
        });
        Arc::new(reg)
    }

    /// What one [`drive`] run produced.
    struct Run {
        replica: Replica,
        /// Every started attempt, with whether its transaction was
        /// TO-delivered by then.
        starts: Vec<(ExecToken, bool)>,
        /// Each committed transaction's output, by transaction.
        outputs: Vec<(TxnId, Vec<Value>)>,
    }

    /// The request of transaction `i` over classes `{a, b}` (one class
    /// when `a == b`).
    fn set_req(i: usize, (a, b, delta): (u32, u32, i64)) -> TxnRequest {
        let classes = [ClassId::new(a), ClassId::new(b)];
        let args = vec![Value::Int(0), Value::Int(delta)];
        TxnRequest::over_classes(tid(i as u64), classes, otp_storage::ProcId::new(0), args)
    }

    /// Drives a `mode` replica over transactions `txns[i] = (a, b, delta)`
    /// over classes `{a, b}` with id `i`: Opt-deliveries in `opt` order,
    /// TO-deliveries in `to` order and completions of running attempts,
    /// interleaved by `steps` (`0` Opt-delivers, `1` TO-delivers — or
    /// Opt-delivers when the next TO-delivery would break Local Order —
    /// and `2` completes the running attempt the step's index picks), then
    /// drains everything.
    fn drive(
        mode: Mode,
        txns: &[(u32, u32, i64)],
        opt: &[usize],
        to: &[usize],
        steps: &[(u8, usize)],
    ) -> Run {
        let mut run = Run {
            replica: Replica::with_mode(SiteId::new(0), db(3), mix_registry(), mode),
            starts: Vec::new(),
            outputs: Vec::new(),
        };
        let (mut opted, mut toed) = (0, 0);
        let mut opt_done = vec![false; txns.len()];
        let mut to_done = vec![false; txns.len()];
        let mut running: Vec<ExecToken> = Vec::new();
        // Enough drain steps for every delivery and every attempt,
        // aborted ones included (a TO-delivery aborts at most one
        // transaction per class of its set).
        let drain = std::iter::repeat_n((3, 0), 6 * txns.len() + 2);
        for (op, pick) in steps.iter().copied().chain(drain) {
            let r = &mut run.replica;
            // A drain step (`3`) delivers, then completes, once every
            // Opt-delivery is done.
            let draining = op == 3 && opted == opt.len();
            let actions = match op {
                1 | 3 if (op == 1 || draining) && toed < to.len() && opt_done[to[toed]] => {
                    let i = to[toed];
                    toed += 1;
                    to_done[i] = true;
                    r.on_to_deliver(tid(i as u64), set_req(i, txns[i]).class)
                }
                2 | 3 if (op == 2 || draining) && !running.is_empty() => {
                    r.on_exec_done(running.remove(pick % running.len()))
                }
                _ if opted < opt.len() => {
                    let i = opt[opted];
                    opted += 1;
                    opt_done[i] = true;
                    r.on_opt_deliver(set_req(i, txns[i]))
                }
                _ => Vec::new(),
            };
            for a in actions {
                match a {
                    ReplicaAction::StartExecution { token } => {
                        run.starts.push((token, to_done[token.txn.seq as usize]));
                        running.push(token);
                    }
                    ReplicaAction::Committed { txn, output, .. } => run.outputs.push((txn, output)),
                }
            }
            assert_eq!(r.check_invariants(), Ok(()));
        }
        assert!(running.is_empty() && toed == to.len(), "the drain finished the run");
        run.outputs.sort_by_key(|(txn, _)| *txn);
        run
    }

    /// `keys` sorted into a permutation of `0..keys.len()`.
    fn permutation(keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Conservative processing never aborts, starts only TO-delivered
        /// transactions, commits each class in TO order and ends in the
        /// state the OTP policy reaches on the same inputs — over class
        /// sets of one or two classes.
        #[test]
        fn prop_conservative_policy_is_otp_without_tentative_execution(
            txns in proptest::collection::vec(
                (0u32..3, 0u32..3, -50i64..50, 0u64..1_000, 0u64..1_000),
                1..14,
            ),
            steps in proptest::collection::vec((0u8..3, 0usize..8), 0..60),
        ) {
            let opt = permutation(&txns.iter().map(|t| t.3).collect::<Vec<_>>());
            let to = permutation(&txns.iter().map(|t| t.4).collect::<Vec<_>>());
            let txns: Vec<(u32, u32, i64)> = txns.iter().map(|t| (t.0, t.1, t.2)).collect();
            let cons = drive(Mode::Conservative, &txns, &opt, &to, &steps);
            let otp = drive(Mode::Otp, &txns, &opt, &to, &steps);
            let c = &cons.replica;
            proptest::prop_assert_eq!(c.counters.get("abort"), 0);
            for (token, to_delivered) in &cons.starts {
                proptest::prop_assert_eq!(token.attempt, 0, "{:?}", token);
                proptest::prop_assert!(*to_delivered, "{:?} started before its TO-delivery", token);
            }
            let in_class = |i: usize, class: u32| txns[i].0 == class || txns[i].1 == class;
            for class in 0..3 {
                let expected: Vec<TxnId> =
                    to.iter().filter(|&&i| in_class(i, class)).map(|&i| tid(i as u64)).collect();
                let committed: Vec<TxnId> = c
                    .commit_log()
                    .iter()
                    .map(|(t, _)| *t)
                    .filter(|t| in_class(t.seq as usize, class))
                    .collect();
                proptest::prop_assert_eq!(committed, expected, "class {} commits in TO order", class);
                let key = ObjectId::new(class, 0);
                proptest::prop_assert_eq!(c.db().read_committed(key), otp.replica.db().read_committed(key));
            }
            proptest::prop_assert_eq!(cons.outputs.len(), txns.len());
            proptest::prop_assert_eq!(&cons.outputs, &otp.outputs);
            proptest::prop_assert_eq!(c.counters.get("submit"), c.counters.get("commit"));
            proptest::prop_assert!(c.check_invariants().is_ok());
            proptest::prop_assert!(otp.replica.check_invariants().is_ok());
        }
    }
}
