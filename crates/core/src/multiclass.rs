//! OTP with multi-class transactions — the paper's finer-granularity
//! extension.
//!
//! The base model (Section 2.3) pins every update transaction to exactly
//! one conflict class. The conclusion concedes this is restrictive and
//! points to the authors' follow-up (\[13\]) with finer-granularity
//! solutions. This module implements that generalization faithfully to
//! the OTP structure:
//!
//! * a transaction declares a *set* of conflict classes and is appended
//!   to **every** corresponding queue at Opt-delivery;
//! * it may execute only while it is at the **head of all** its queues
//!   (so two transactions sharing any class are still fully serialized);
//! * TO-delivery runs the correctness check **in each of its queues**:
//!   pending heads standing in the way are aborted (across *their* whole
//!   class sets), and the transaction is rescheduled before the first
//!   pending entry of every queue;
//! * commit removes it from all queues and re-evaluates eligibility of
//!   every new head.
//!
//! ## Tentative interlock (and why it is harmless)
//!
//! With tentative orders disagreeing *between queues* (T₁ before T₂ in
//! CQx but after it in CQy), neither transaction reaches all its heads —
//! a tentative interlock. No cycle survives TO-delivery: when the first
//! of the involved transactions is TO-delivered, CC8/CC10 abort the
//! pending heads in its way and move it to the front of all its queues,
//! so it executes and commits; the rest follow in definitive order.
//! Progress therefore resumes within one agreement latency, and the
//! usual argument of Theorem 4.1 applies unchanged (induction over the
//! *sum* of queue positions).

use crate::event::ExecToken;
use crate::replica::CommittedPrefix;
use otp_simnet::metrics::Counters;
use otp_simnet::sched::{Data, Input, Node, Output, Outputs};
use otp_simnet::{SimTime, SiteId};
use otp_storage::{
    apply_multi_undo, ClassId, Database, MultiCtx, MultiEffects, ObjectId, SnapshotIndex, TxnIndex,
    Value,
};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::txn::{DeliveryState, ExecState, TxnId};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// A multi-class update transaction request.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRequest {
    /// Transaction id.
    pub id: TxnId,
    /// Declared conflict classes (deduplicated, ordered).
    pub classes: BTreeSet<ClassId>,
    /// The procedure to run.
    pub proc: MultiProcId,
    /// Arguments.
    pub args: Vec<Value>,
}

impl MultiRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn new(
        id: TxnId,
        classes: impl IntoIterator<Item = ClassId>,
        proc: MultiProcId,
        args: Vec<Value>,
    ) -> Self {
        let classes: BTreeSet<ClassId> = classes.into_iter().collect();
        assert!(!classes.is_empty(), "a transaction needs at least one class");
        MultiRequest { id, classes, proc, args }
    }
}

/// Identifier of a registered multi-class procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiProcId(pub u32);

/// A deterministic multi-class stored procedure.
pub trait MultiProcedure: Send + Sync {
    /// Name for diagnostics.
    fn name(&self) -> &str;
    /// Executes against the multi-class context.
    ///
    /// # Errors
    ///
    /// Deterministic failures are reported but, as in the base model, do
    /// not abort the transaction.
    fn execute(&self, ctx: &mut MultiCtx<'_>, args: &[Value])
        -> Result<(), otp_storage::ProcError>;
}

/// Closure adapter for [`MultiProcedure`].
pub struct FnMultiProcedure<F> {
    name: String,
    body: F,
}

impl<F> FnMultiProcedure<F>
where
    F: Fn(&mut MultiCtx<'_>, &[Value]) -> Result<(), otp_storage::ProcError> + Send + Sync,
{
    /// Wraps a closure.
    pub fn new(name: &str, body: F) -> Self {
        FnMultiProcedure { name: name.to_string(), body }
    }
}

impl<F> MultiProcedure for FnMultiProcedure<F>
where
    F: Fn(&mut MultiCtx<'_>, &[Value]) -> Result<(), otp_storage::ProcError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn execute(
        &self,
        ctx: &mut MultiCtx<'_>,
        args: &[Value],
    ) -> Result<(), otp_storage::ProcError> {
        (self.body)(ctx, args)
    }
}

/// Registry of multi-class procedures (registration order = id).
#[derive(Default)]
pub struct MultiRegistry {
    procs: Vec<Arc<dyn MultiProcedure>>,
}

impl MultiRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MultiRegistry::default()
    }

    /// Registers a closure, returning its id.
    pub fn register_fn<F>(&mut self, name: &str, body: F) -> MultiProcId
    where
        F: Fn(&mut MultiCtx<'_>, &[Value]) -> Result<(), otp_storage::ProcError>
            + Send
            + Sync
            + 'static,
    {
        let id = MultiProcId(self.procs.len() as u32);
        self.procs.push(Arc::new(FnMultiProcedure::new(name, body)));
        id
    }

    fn get(&self, id: MultiProcId) -> &Arc<dyn MultiProcedure> {
        &self.procs[id.0 as usize]
    }
}

impl std::fmt::Debug for MultiRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.procs.iter().map(|p| p.name()).collect();
        f.debug_struct("MultiRegistry").field("procs", &names).finish()
    }
}

/// Central entry state (shared across all queues the transaction sits in).
#[derive(Debug)]
struct Entry {
    request: MultiRequest,
    exec: ExecState,
    delivery: DeliveryState,
    attempt: u32,
    effects: Option<MultiEffects>,
}

/// The multi-class OTP replica.
///
/// Event interface mirrors [`crate::Replica`]; actions are reported via
/// the returned `Vec` of started executions / committed transactions.
#[derive(Debug)]
pub struct MultiReplica {
    site: SiteId,
    db: Database,
    registry: Arc<MultiRegistry>,
    /// Per-class ordering (ids only; state lives in `entries`).
    queues: Vec<VecDeque<TxnId>>,
    entries: HashMap<TxnId, Entry>,
    /// Transactions currently executing (heads of all their queues).
    running: BTreeSet<TxnId>,
    to_index: HashMap<TxnId, TxnIndex>,
    last_index: TxnIndex,
    prefix: CommittedPrefix,
    history: HistoryLog,
    commit_log: Vec<(TxnId, TxnIndex)>,
    /// Counters: commits, aborts, reorders, interlocks resolved.
    pub counters: Counters,
}

/// Actions returned by the multi-class replica.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiAction {
    /// An execution started; return it via `on_exec_done` after its time
    /// elapses.
    StartExecution {
        /// The execution token.
        token: ExecToken,
    },
    /// A transaction committed at its definitive index.
    Committed {
        /// The transaction.
        txn: TxnId,
        /// Its definitive index.
        index: TxnIndex,
    },
}

/// A delivery a [`MultiReplica`] takes as a scheduler node
/// ([`otp_simnet::sched::Sched`]): the engine's two deliveries, scheduled
/// by the caller as client submissions.
#[derive(Debug)]
pub enum MultiInput {
    /// Opt-delivery of a request.
    Opt(MultiRequest),
    /// TO-delivery of a transaction.
    To(TxnId),
}

impl Data for MultiReplica {
    /// A lone replica sends nothing.
    type Wire = std::convert::Infallible;
    type Timer = ();
    type Work = ExecToken;
    type Submit = MultiInput;
    type Control = ();
    /// A transaction committed.
    type Report = TxnId;
}

/// The replica on the scheduler: deliveries come in as submissions, an
/// execution is local work, and a commit is reported.
impl Node for MultiReplica {
    type Data = Self;

    fn handle(&mut self, _at: SiteId, _now: SimTime, input: Input<Self>, out: &mut Outputs<Self>) {
        let actions = match input {
            Input::Submit(MultiInput::Opt(request)) => self.on_opt_deliver(request),
            Input::Submit(MultiInput::To(txn)) => self.on_to_deliver(txn),
            Input::Done(token) => self.on_exec_done(token),
            Input::Wires(_) | Input::Timer(()) | Input::Control(()) => Vec::new(),
        };
        for a in actions {
            match a {
                MultiAction::StartExecution { token } => out.push(Output::Work(token)),
                MultiAction::Committed { txn, .. } => out.push(Output::Report(txn)),
            }
        }
    }
}

impl MultiReplica {
    /// Creates a replica over an initial database.
    pub fn new(site: SiteId, db: Database, registry: Arc<MultiRegistry>) -> Self {
        let classes = db.classes();
        MultiReplica {
            site,
            db,
            registry,
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            entries: HashMap::new(),
            running: BTreeSet::new(),
            to_index: HashMap::new(),
            last_index: TxnIndex::INITIAL,
            prefix: CommittedPrefix::default(),
            history: HistoryLog::new(),
            commit_log: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// The site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The database copy.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Snapshot index for queries (committed definitive prefix).
    pub fn query_snapshot(&self) -> SnapshotIndex {
        self.prefix.query_snapshot()
    }

    /// Local commit log.
    pub fn commit_log(&self) -> &[(TxnId, TxnIndex)] {
        &self.commit_log
    }

    /// Local history for serializability checking, rebuilt from the flat
    /// log.
    pub fn history(&self) -> Vec<CommittedTxn> {
        self.history.to_vec()
    }

    /// Structural invariants across all queues: committable prefix per
    /// queue; executing transactions at head of all their queues.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (c, q) in self.queues.iter().enumerate() {
            let mut seen_pending = false;
            for id in q {
                let e = &self.entries[id];
                match e.delivery {
                    DeliveryState::Pending => seen_pending = true,
                    DeliveryState::Committable if seen_pending => {
                        return Err(format!("queue {c}: committable {id} after pending"));
                    }
                    DeliveryState::Committable => {}
                }
            }
        }
        for id in &self.running {
            let e = &self.entries[id];
            for class in &e.request.classes {
                if self.queues[class.index()].front() != Some(id) {
                    return Err(format!("{id} executing but not head of {class}"));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------

    /// S module: append to every declared queue; submit whatever became
    /// eligible.
    pub fn on_opt_deliver(&mut self, request: MultiRequest) -> Vec<MultiAction> {
        let id = request.id;
        for class in &request.classes {
            self.queues[class.index()].push_back(id);
        }
        self.entries.insert(
            id,
            Entry {
                request,
                exec: ExecState::Active,
                delivery: DeliveryState::Pending,
                attempt: 0,
                effects: None,
            },
        );
        self.counters.incr("opt_deliver");
        self.try_submit(id).into_iter().collect()
    }

    /// E module.
    pub fn on_exec_done(&mut self, token: ExecToken) -> Vec<MultiAction> {
        let Some(e) = self.entries.get(&token.txn) else {
            return Vec::new();
        };
        if !self.running.contains(&token.txn) || e.attempt != token.attempt {
            self.counters.incr("stale_exec_done");
            return Vec::new();
        }
        self.running.remove(&token.txn);
        let e = self.entries.get_mut(&token.txn).expect("checked above");
        if e.delivery == DeliveryState::Committable {
            self.commit(token.txn)
        } else {
            e.exec = ExecState::Executed;
            Vec::new()
        }
    }

    /// CC module, generalized over the transaction's class set.
    ///
    /// # Panics
    ///
    /// Panics if the transaction was never Opt-delivered.
    pub fn on_to_deliver(&mut self, txn: TxnId) -> Vec<MultiAction> {
        self.counters.incr("to_deliver");
        let index = self.last_index.next();
        self.last_index = index;
        self.to_index.insert(txn, index);

        let e = self
            .entries
            .get(&txn)
            .unwrap_or_else(|| panic!("{txn} TO-delivered before Opt-delivery"));
        if e.exec == ExecState::Executed {
            return self.commit(txn);
        }
        let classes: Vec<ClassId> = e.request.classes.iter().copied().collect();
        self.entries.get_mut(&txn).expect("exists").delivery = DeliveryState::Committable;

        let mut out = Vec::new();
        let mut reordered = false;
        // CC7–CC9: abort every pending head standing in the way. A victim
        // spanning several of txn's classes heads them all — one abort.
        let victims: BTreeSet<TxnId> = classes
            .iter()
            .filter_map(|class| self.queues[class.index()].front().copied())
            .filter(|head| *head != txn && self.entries[head].delivery == DeliveryState::Pending)
            .collect();
        for victim in victims {
            self.abort(victim);
        }
        for class in &classes {
            // CC10: reschedule before the first pending entry.
            let q = &mut self.queues[class.index()];
            let from = q.iter().position(|t| *t == txn).expect("queued in own class");
            q.remove(from);
            let to = q
                .iter()
                .position(|t| self.entries[t].delivery == DeliveryState::Pending)
                .unwrap_or(q.len());
            q.insert(to, txn);
            if to != from {
                reordered = true;
            }
        }
        if reordered {
            self.counters.incr("reorder");
        }
        // CC11–CC13: the reshuffle may have made several transactions
        // eligible (heads changed in multiple queues).
        out.extend(self.submit_eligible_heads(&classes));
        out
    }

    // ------------------------------------------------------------------

    fn is_eligible(&self, txn: TxnId) -> bool {
        if self.running.contains(&txn) {
            return false;
        }
        let e = &self.entries[&txn];
        if e.exec == ExecState::Executed {
            return false;
        }
        e.request.classes.iter().all(|c| self.queues[c.index()].front() == Some(&txn))
        // None of its classes may be occupied by another running txn —
        // implied by "head of all" since running txns are heads too.
    }

    fn try_submit(&mut self, txn: TxnId) -> Option<MultiAction> {
        if !self.is_eligible(txn) {
            return None;
        }
        let (request, attempt) = {
            let e = &self.entries[&txn];
            (e.request.clone(), e.attempt)
        };
        let classes: Vec<ClassId> = request.classes.iter().copied().collect();
        let proc = Arc::clone(self.registry.get(request.proc));
        let mut ctx = MultiCtx::new(&mut self.db, &classes);
        if proc.execute(&mut ctx, &request.args).is_err() {
            self.counters.incr("proc_error");
        }
        let effects = ctx.finish();
        let e = self.entries.get_mut(&txn).expect("exists");
        e.effects = Some(effects);
        self.running.insert(txn);
        self.counters.incr("submit");
        Some(MultiAction::StartExecution { token: ExecToken { txn, class: classes[0], attempt } })
    }

    fn submit_eligible_heads(&mut self, classes: &[ClassId]) -> Vec<MultiAction> {
        let mut out = Vec::new();
        for class in classes {
            if let Some(&head) = self.queues[class.index()].front() {
                if let Some(a) = self.try_submit(head) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// CC8 generalized: roll back across every class the victim touched
    /// and cancel its execution; it stays queued everywhere.
    fn abort(&mut self, txn: TxnId) {
        let e = self.entries.get_mut(&txn).expect("abort target queued");
        e.attempt += 1;
        e.exec = ExecState::Active;
        let effects = e.effects.take();
        if let Some(eff) = effects {
            apply_multi_undo(&mut self.db, &eff);
        }
        self.running.remove(&txn);
        self.counters.incr("abort");
    }

    fn commit(&mut self, txn: TxnId) -> Vec<MultiAction> {
        let index = self.to_index[&txn];
        let e = self.entries.remove(&txn).expect("committing txn queued");
        let effects = e.effects.expect("committing txn executed");
        // Install versions per class.
        for (class, undo) in &effects.undo {
            self.db
                .partition_mut(*class)
                .expect("declared class exists")
                .promote(undo.written_keys(), index);
        }
        let classes: Vec<ClassId> = e.request.classes.iter().copied().collect();
        for class in &classes {
            let q = &mut self.queues[class.index()];
            debug_assert_eq!(q.front(), Some(&txn), "commit requires head of all");
            q.pop_front();
        }
        self.running.remove(&txn);
        self.to_index.remove(&txn);
        self.commit_log.push((txn, index));
        let written = || {
            effects.undo.iter().flat_map(|(c, u)| {
                let class = *c;
                u.written_keys().map(move |key| ObjectId { class, key })
            })
        };
        self.history.push(
            txn,
            CommittedTxn::update_position(index),
            effects.reads.iter().copied(),
            written(),
        );
        self.prefix.commit(&mut self.db, index, written());
        self.counters.incr("commit");

        let mut out = vec![MultiAction::Committed { txn, index }];
        out.extend(self.submit_eligible_heads(&classes));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `move(from_class, from_key, to_class, to_key, amount)` — the
    /// cross-class transfer impossible in the single-class model.
    fn registry() -> (Arc<MultiRegistry>, MultiProcId) {
        let mut reg = MultiRegistry::new();
        let mv = reg.register_fn("move", |ctx, args| {
            let g = |i: usize| args[i].as_int().expect("int arg");
            let from = ObjectId::new(g(0) as u32, g(1) as u64);
            let to = ObjectId::new(g(2) as u32, g(3) as u64);
            let amount = g(4);
            let a = ctx.read(from)?.as_int().unwrap_or(0);
            let b = ctx.read(to)?.as_int().unwrap_or(0);
            ctx.write(from, Value::Int(a - amount))?;
            ctx.write(to, Value::Int(b + amount))?;
            Ok(())
        });
        (Arc::new(reg), mv)
    }

    fn db(classes: usize) -> Database {
        let mut d = Database::new(classes);
        for c in 0..classes as u32 {
            d.load(ObjectId::new(c, 0), Value::Int(100));
        }
        d
    }

    fn replica(classes: usize) -> (MultiReplica, MultiProcId) {
        let (reg, mv) = registry();
        (MultiReplica::new(SiteId::new(0), db(classes), reg), mv)
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(SiteId::new(0), seq)
    }

    fn mv_req(id: u64, from: u32, to: u32, amount: i64, proc: MultiProcId) -> MultiRequest {
        MultiRequest::new(
            tid(id),
            [ClassId::new(from), ClassId::new(to)],
            proc,
            vec![
                Value::Int(from as i64),
                Value::Int(0),
                Value::Int(to as i64),
                Value::Int(0),
                Value::Int(amount),
            ],
        )
    }

    fn token(actions: &[MultiAction]) -> ExecToken {
        actions
            .iter()
            .find_map(|a| match a {
                MultiAction::StartExecution { token } => Some(*token),
                _ => None,
            })
            .expect("StartExecution")
    }

    fn committed(actions: &[MultiAction]) -> Vec<TxnId> {
        actions
            .iter()
            .filter_map(|a| match a {
                MultiAction::Committed { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cross_class_transfer_commits() {
        let (mut r, mv) = replica(2);
        let a = r.on_opt_deliver(mv_req(0, 0, 1, 30, mv));
        let tok = token(&a);
        r.on_exec_done(tok);
        let a = r.on_to_deliver(tid(0));
        assert_eq!(committed(&a), vec![tid(0)]);
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(70)));
        assert_eq!(r.db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(130)));
        r.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_class_sets_serialize() {
        let (mut r, mv) = replica(3);
        // T0 spans {0,1}; T1 spans {1,2} — they share class 1.
        let a0 = r.on_opt_deliver(mv_req(0, 0, 1, 10, mv));
        assert_eq!(a0.len(), 1, "T0 runs");
        let a1 = r.on_opt_deliver(mv_req(1, 1, 2, 10, mv));
        assert!(a1.is_empty(), "T1 blocked on class 1");
        // Commit T0 → T1 becomes eligible.
        let tok0 = token(&a0);
        r.on_exec_done(tok0);
        let a = r.on_to_deliver(tid(0));
        assert_eq!(committed(&a), vec![tid(0)]);
        let tok1 = token(&a);
        assert_eq!(tok1.txn, tid(1));
        r.on_exec_done(tok1);
        let a = r.on_to_deliver(tid(1));
        assert_eq!(committed(&a), vec![tid(1)]);
        r.check_invariants().unwrap();
    }

    #[test]
    fn disjoint_class_sets_run_concurrently() {
        let (mut r, mv) = replica(4);
        let a0 = r.on_opt_deliver(mv_req(0, 0, 1, 5, mv));
        let a1 = r.on_opt_deliver(mv_req(1, 2, 3, 5, mv));
        assert_eq!(a0.len(), 1);
        assert_eq!(a1.len(), 1, "disjoint sets execute in parallel");
    }

    /// The tentative interlock: T0 before T1 in class 0, T1 before T0 in
    /// class 1 (adversarial opt order can't produce this with atomic
    /// appends, but aborts can recreate the shape; we drive it directly
    /// through TO-delivery of the "later" transaction first).
    #[test]
    fn interlock_resolved_by_to_delivery() {
        let (mut r, mv) = replica(2);
        // Tentative: T0 then T1, both spanning {0,1}: T0 executes, T1 waits.
        let a0 = r.on_opt_deliver(mv_req(0, 0, 1, 5, mv));
        let tok0 = token(&a0);
        assert!(r.on_opt_deliver(mv_req(1, 0, 1, 7, mv)).is_empty());
        // T0 finishes executing but the DEFINITIVE order is T1 first.
        r.on_exec_done(tok0);
        let a = r.on_to_deliver(tid(1));
        // T0 (executed but pending head) must be aborted in both queues;
        // T1 moves to front of both and starts.
        assert_eq!(r.counters.get("abort"), 1);
        let tok1 = token(&a);
        assert_eq!(tok1.txn, tid(1));
        // T1 completes: it is committable, so it commits, and T0 (back at
        // the head of both queues) is automatically re-submitted.
        let a = r.on_exec_done(tok1);
        assert_eq!(committed(&a), vec![tid(1)]);
        let tok0b = token(&a);
        assert_eq!(tok0b.txn, tid(0));
        assert_eq!(tok0b.attempt, 1, "re-execution after abort");
        // T0's own TO-delivery arrives while it re-executes: no abort, no
        // resubmission — just mark committable (CC6).
        assert!(r.on_to_deliver(tid(0)).is_empty());
        let a = r.on_exec_done(tok0b);
        assert_eq!(committed(&a), vec![tid(0)]);
        // Definitive order respected: T1 then T0 in the commit log.
        let log: Vec<TxnId> = r.commit_log().iter().map(|(t, _)| *t).collect();
        assert_eq!(log, vec![tid(1), tid(0)]);
        // Both transfers applied: 100 -5 -7 = 88 / 100 +5 +7 = 112.
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(88)));
        assert_eq!(r.db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(112)));
        r.check_invariants().unwrap();
    }

    #[test]
    fn abort_rolls_back_every_class() {
        let (mut r, mv) = replica(2);
        let a0 = r.on_opt_deliver(mv_req(0, 0, 1, 50, mv));
        let _tok0 = token(&a0);
        r.on_opt_deliver(mv_req(1, 0, 1, 1, mv));
        // T1 TO-delivered first: T0 aborted mid-execution; both partitions
        // must be back to 100 before T1 executes.
        let a = r.on_to_deliver(tid(1));
        let tok1 = token(&a);
        let a = r.on_exec_done(tok1);
        assert_eq!(committed(&a), vec![tid(1)]);
        // T1 saw clean state: 100-1 / 100+1.
        assert_eq!(r.db().read_committed(ObjectId::new(0, 0)), Some(&Value::Int(99)));
        assert_eq!(r.db().read_committed(ObjectId::new(1, 0)), Some(&Value::Int(101)));
    }

    #[test]
    fn watermark_tracks_definitive_prefix() {
        let (mut r, mv) = replica(2);
        let a = r.on_opt_deliver(mv_req(0, 0, 1, 5, mv));
        r.on_exec_done(token(&a));
        r.on_to_deliver(tid(0));
        assert_eq!(r.query_snapshot(), SnapshotIndex::after(TxnIndex::new(1)));
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.site(), SiteId::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_set_rejected() {
        MultiRequest::new(tid(0), [], MultiProcId(0), vec![]);
    }

    /// Randomized scenario: many overlapping transactions with random
    /// class sets, adversarial (reversed) TO-delivery order. Everything
    /// must commit, in definitive order per class, with the DB consistent.
    #[test]
    fn randomized_overlaps_all_commit() {
        use otp_simnet::SimRng;
        let mut rng = SimRng::seed_from(99);
        for round in 0..20 {
            let (mut r, mv) = replica(4);
            let n = 8u64;
            let mut pending_tokens: Vec<ExecToken> = Vec::new();
            for i in 0..n {
                let from = rng.index(4) as u32;
                let mut to = rng.index(4) as u32;
                if to == from {
                    to = (to + 1) % 4;
                }
                let a = r.on_opt_deliver(mv_req(i, from, to, 1, mv));
                pending_tokens.extend(a.iter().filter_map(|x| match x {
                    MultiAction::StartExecution { token } => Some(*token),
                    _ => None,
                }));
            }
            // Adversarial definitive order: reverse of tentative.
            let mut commits = 0;
            let mut actions: Vec<MultiAction> = Vec::new();
            for i in (0..n).rev() {
                actions.extend(r.on_to_deliver(tid(i)));
            }
            // Drain: complete every started execution until quiescence.
            let mut guard = 0;
            loop {
                guard += 1;
                assert!(guard < 10_000, "round {round} did not quiesce");
                pending_tokens.extend(actions.iter().filter_map(|x| match x {
                    MultiAction::StartExecution { token } => Some(*token),
                    _ => None,
                }));
                commits +=
                    actions.iter().filter(|a| matches!(a, MultiAction::Committed { .. })).count();
                actions.clear();
                let Some(tok) = pending_tokens.pop() else {
                    break;
                };
                actions = r.on_exec_done(tok);
            }
            assert_eq!(commits, n as usize, "round {round}");
            r.check_invariants().unwrap();
            // Conservation: every transfer is ±1, so the grand total holds.
            let total: i64 = (0..4u32)
                .map(|c| {
                    r.db().read_committed(ObjectId::new(c, 0)).and_then(Value::as_int).unwrap_or(0)
                })
                .sum();
            assert_eq!(total, 400, "round {round}");
        }
    }
}
