//! Execution contexts handed to stored procedures.
//!
//! [`TxnCtx`] is the update-transaction context: reads and in-place writes
//! restricted to the transaction's declared conflict classes, with
//! before-images collected per class for abort. [`QueryCtx`] is the
//! read-only context: snapshot reads across *any* classes at a fixed
//! [`SnapshotIndex`] (Section 5) — queries never block and are never
//! blocked.

use crate::db::{Database, UndoLog};
use crate::err::AccessError;
use crate::ids::{ClassId, ObjectId, ObjectKey, SnapshotIndex};
use crate::value::Value;

/// What a finished execution leaves behind: per class it wrote, the undo
/// log (whose keys are also the write set), and the objects it read, for
/// abort, commit and history checking.
#[derive(Debug, Clone)]
pub struct TxnEffects {
    /// The transaction's home class: the one `undo` and `reads` belong to.
    pub class: ClassId,
    /// Before-images in the home class; `written_keys()` is its write set.
    pub undo: UndoLog,
    /// Keys read in the home class.
    pub reads: Vec<ObjectKey>,
    /// Result values the procedure chose to return to the client.
    pub output: Vec<Value>,
    /// Before-images in the other declared classes, one log per class in
    /// first-write order — empty, and unallocated, for a one-class
    /// transaction.
    pub other_undo: Vec<(ClassId, UndoLog)>,
    /// Objects read in the other declared classes.
    pub other_reads: Vec<ObjectId>,
}

impl TxnEffects {
    /// Every class's undo log, the home class's first.
    pub fn undo_logs(&self) -> impl Iterator<Item = (ClassId, &UndoLog)> {
        let others = self.other_undo.iter().map(|(class, undo)| (*class, undo));
        std::iter::once((self.class, &self.undo)).chain(others)
    }

    /// Every object read, home class first.
    pub fn objects_read(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let home = self.class;
        self.reads
            .iter()
            .map(move |&key| ObjectId { class: home, key })
            .chain(self.other_reads.iter().copied())
    }

    /// Every object written, home class first.
    pub fn objects_written(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.undo_logs()
            .flat_map(|(class, undo)| undo.written_keys().map(move |key| ObjectId { class, key }))
    }
}

/// The mutable execution context of one update transaction.
///
/// Writes go to the class partitions' working state immediately (execution
/// within a class is serial, so no other transaction sees them); the undo
/// logs let the correctness-check module roll them back when the tentative
/// order proves wrong.
///
/// A transaction declares a *home* class and, under the multi-class
/// extension of the paper's model (its conclusion, ref. \[13\]), any number
/// of other classes. [`TxnCtx::read`] and [`TxnCtx::write`] address the
/// home class by key; [`TxnCtx::read_object`] and [`TxnCtx::write_object`]
/// address any declared class by object id.
///
/// # Examples
///
/// ```
/// use otp_storage::{ClassId, Database, ObjectId, ObjectKey, TxnCtx, Value};
///
/// let mut db = Database::new(2);
/// db.load(ObjectId::new(0, 0), Value::Int(5));
/// db.load(ObjectId::new(1, 0), Value::Int(20));
/// let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
/// let v = ctx.read(ObjectKey::new(0)).unwrap().as_int().unwrap();
/// ctx.write(ObjectKey::new(0), Value::Int(v + 1)).unwrap();
/// assert!(ctx.read_object(ObjectId::new(1, 0)).is_err(), "class 1 is not declared");
/// assert_eq!(ctx.finish().undo.len(), 1);
///
/// // A transfer across two declared classes.
/// let others = [ClassId::new(1)];
/// let mut ctx = TxnCtx::over_classes(&mut db, ClassId::new(0), &others);
/// let b = ctx.read_object(ObjectId::new(1, 0)).unwrap().as_int().unwrap();
/// ctx.write_object(ObjectId::new(0, 0), Value::Int(0)).unwrap();
/// ctx.write_object(ObjectId::new(1, 0), Value::Int(b + 6)).unwrap();
/// assert_eq!(ctx.finish().undo_logs().count(), 2, "one undo log per class");
/// ```
#[derive(Debug)]
pub struct TxnCtx<'a> {
    db: &'a mut Database,
    /// The other declared classes, ascending.
    others: &'a [ClassId],
    effects: TxnEffects,
}

impl<'a> TxnCtx<'a> {
    /// Opens a context for a transaction of `class`.
    pub fn new(db: &'a mut Database, class: ClassId) -> Self {
        TxnCtx::over_classes(db, class, &[])
    }

    /// Opens a context for a transaction whose home class is `class` and
    /// which also declared `others` (ascending, without `class`).
    pub fn over_classes(db: &'a mut Database, class: ClassId, others: &'a [ClassId]) -> Self {
        let effects = TxnEffects {
            class,
            undo: UndoLog::new(),
            reads: Vec::new(),
            output: Vec::new(),
            other_undo: Vec::new(),
            other_reads: Vec::new(),
        };
        TxnCtx { db, others, effects }
    }

    /// The transaction's (home) conflict class.
    pub fn class(&self) -> ClassId {
        self.effects.class
    }

    /// Every declared class, ascending: the home class first.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        std::iter::once(self.effects.class).chain(self.others.iter().copied())
    }

    /// Reads an object of the transaction's class (working state: committed
    /// values plus this transaction's own writes). Returns [`Value::Null`]
    /// for objects that do not exist — stored procedures treat missing data
    /// as null rather than erroring.
    ///
    /// # Errors
    ///
    /// Fails if the class does not exist in the database.
    pub fn read(&mut self, key: ObjectKey) -> Result<Value, AccessError> {
        let p = self.db.partition(self.effects.class)?;
        self.effects.reads.push(key);
        Ok(p.read_current(key).cloned().unwrap_or(Value::Null))
    }

    /// Writes an object of the transaction's class in place, recording the
    /// before-image for a potential abort.
    ///
    /// # Errors
    ///
    /// Fails if the class does not exist in the database.
    pub fn write(&mut self, key: ObjectKey, value: Value) -> Result<(), AccessError> {
        let p = self.db.partition_mut(self.effects.class)?;
        let before = p.write_current(key, value);
        self.effects.undo.record(key, before);
        Ok(())
    }

    /// Reads an object of any declared class, like [`TxnCtx::read`].
    ///
    /// # Errors
    ///
    /// Fails with [`AccessError::WrongClass`] if the object's class was
    /// not declared, or if it does not exist in the database.
    pub fn read_object(&mut self, object: ObjectId) -> Result<Value, AccessError> {
        if object.class == self.effects.class {
            return self.read(object.key);
        }
        self.check_declared(object)?;
        let p = self.db.partition(object.class)?;
        self.effects.other_reads.push(object);
        Ok(p.read_current(object.key).cloned().unwrap_or(Value::Null))
    }

    /// Writes an object of any declared class in place, like
    /// [`TxnCtx::write`], recording the before-image in that class's undo
    /// log.
    ///
    /// # Errors
    ///
    /// Fails with [`AccessError::WrongClass`] if the object's class was
    /// not declared, or if it does not exist in the database.
    pub fn write_object(&mut self, object: ObjectId, value: Value) -> Result<(), AccessError> {
        if object.class == self.effects.class {
            return self.write(object.key, value);
        }
        self.check_declared(object)?;
        let before = self.db.partition_mut(object.class)?.write_current(object.key, value);
        let logs = &mut self.effects.other_undo;
        let at = logs.iter().position(|(c, _)| *c == object.class).unwrap_or_else(|| {
            logs.push((object.class, UndoLog::new()));
            logs.len() - 1
        });
        logs[at].1.record(object.key, before);
        Ok(())
    }

    fn check_declared(&self, object: ObjectId) -> Result<(), AccessError> {
        if self.others.contains(&object.class) {
            Ok(())
        } else {
            Err(AccessError::WrongClass { txn_class: self.effects.class, object })
        }
    }

    /// Guards cross-class access attempts: procedures that compute an
    /// [`ObjectId`] must call this to convert it to a key of their own
    /// class.
    ///
    /// # Errors
    ///
    /// Fails with [`AccessError::WrongClass`] if the object belongs to a
    /// different class.
    pub fn own_key(&self, object: ObjectId) -> Result<ObjectKey, AccessError> {
        if object.class != self.effects.class {
            return Err(AccessError::WrongClass { txn_class: self.effects.class, object });
        }
        Ok(object.key)
    }

    /// Appends a result value for the client.
    pub fn emit(&mut self, value: Value) {
        self.effects.output.push(value);
    }

    /// Closes the context, returning the collected effects.
    pub fn finish(self) -> TxnEffects {
        self.effects
    }
}

/// The read-only snapshot context of a query (Section 5).
///
/// A query receives index `i.5` when the `i`-th TO-delivered transaction
/// was the last one processed; every read of a class `C` object then
/// returns the version written by `T_j`, `j = max{k ≤ i : T_k ∈ C}` —
/// implemented directly by the per-object version chains.
#[derive(Debug)]
pub struct QueryCtx<'a> {
    db: &'a Database,
    snap: SnapshotIndex,
    reads: Vec<ObjectId>,
}

impl<'a> QueryCtx<'a> {
    /// Opens a query context over `db` at snapshot `snap`.
    pub fn new(db: &'a Database, snap: SnapshotIndex) -> Self {
        QueryCtx { db, snap, reads: Vec::new() }
    }

    /// The query's snapshot index.
    pub fn snapshot(&self) -> SnapshotIndex {
        self.snap
    }

    /// Reads any object of any class at the snapshot. Returns
    /// [`Value::Null`] if the object has no visible version.
    pub fn read(&mut self, object: ObjectId) -> Value {
        self.reads.push(object);
        self.db.read_at(object, self.snap).cloned().unwrap_or(Value::Null)
    }

    /// The objects read so far.
    pub fn reads(&self) -> &[ObjectId] {
        &self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TxnIndex;

    fn setup() -> Database {
        let mut db = Database::new(3);
        db.load(ObjectId::new(0, 0), Value::Int(100));
        db.load(ObjectId::new(1, 0), Value::Int(200));
        db.load(ObjectId::new(2, 0), Value::Int(300));
        db
    }

    #[test]
    fn read_your_writes() {
        let mut db = setup();
        let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
        assert_eq!(ctx.read(ObjectKey::new(0)).unwrap(), Value::Int(100));
        ctx.write(ObjectKey::new(0), Value::Int(1)).unwrap();
        assert_eq!(ctx.read(ObjectKey::new(0)).unwrap(), Value::Int(1));
        let eff = ctx.finish();
        assert_eq!(eff.reads.len(), 2);
        assert_eq!(eff.undo.len(), 1);
    }

    #[test]
    fn missing_objects_read_null() {
        let mut db = setup();
        let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
        assert_eq!(ctx.read(ObjectKey::new(77)).unwrap(), Value::Null);
    }

    #[test]
    fn cross_class_guard() {
        let mut db = setup();
        let ctx = TxnCtx::new(&mut db, ClassId::new(0));
        assert!(ctx.own_key(ObjectId::new(0, 5)).is_ok());
        let err = ctx.own_key(ObjectId::new(1, 5)).unwrap_err();
        assert!(matches!(err, AccessError::WrongClass { .. }));
    }

    #[test]
    fn abort_via_undo_restores_state() {
        let mut db = setup();
        let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
        ctx.write(ObjectKey::new(0), Value::Int(-5)).unwrap();
        ctx.write(ObjectKey::new(9), Value::Int(1)).unwrap();
        let eff = ctx.finish();
        db.partition_mut(ClassId::new(0)).unwrap().apply_undo(&eff.undo);
        assert_eq!(
            db.partition(ClassId::new(0)).unwrap().read_current(ObjectKey::new(0)),
            Some(&Value::Int(100))
        );
        assert_eq!(db.partition(ClassId::new(0)).unwrap().read_current(ObjectKey::new(9)), None);
    }

    #[test]
    fn emit_collects_output() {
        let mut db = setup();
        let mut ctx = TxnCtx::new(&mut db, ClassId::new(1));
        ctx.emit(Value::Int(1));
        ctx.emit(Value::from("done"));
        let eff = ctx.finish();
        assert_eq!(eff.output, vec![Value::Int(1), Value::from("done")]);
    }

    #[test]
    fn query_reads_across_classes_at_snapshot() {
        let mut db = setup();
        // Commit a change in class 0 at index 1 and class 1 at index 2.
        let p0 = db.partition_mut(ClassId::new(0)).unwrap();
        p0.write_current(ObjectKey::new(0), Value::Int(101));
        p0.promote([ObjectKey::new(0)].into_iter(), TxnIndex::new(1));
        let p1 = db.partition_mut(ClassId::new(1)).unwrap();
        p1.write_current(ObjectKey::new(0), Value::Int(201));
        p1.promote([ObjectKey::new(0)].into_iter(), TxnIndex::new(2));

        // Snapshot 1.5 sees class-0's update but not class-1's.
        let mut q = QueryCtx::new(&db, SnapshotIndex::after(TxnIndex::new(1)));
        assert_eq!(q.read(ObjectId::new(0, 0)), Value::Int(101));
        assert_eq!(q.read(ObjectId::new(1, 0)), Value::Int(200));
        assert_eq!(q.read(ObjectId::new(2, 0)), Value::Int(300));
        assert_eq!(q.reads().len(), 3);
        assert_eq!(format!("{}", q.snapshot()), "1.5");
    }

    #[test]
    fn query_never_sees_uncommitted_writes() {
        let mut db = setup();
        let p0 = db.partition_mut(ClassId::new(0)).unwrap();
        p0.write_current(ObjectKey::new(0), Value::Int(-1)); // in-flight, not promoted
        let mut q = QueryCtx::new(&db, SnapshotIndex::after(TxnIndex::new(50)));
        assert_eq!(q.read(ObjectId::new(0, 0)), Value::Int(100));
    }

    #[test]
    fn query_missing_object_is_null() {
        let db = setup();
        let mut q = QueryCtx::new(&db, SnapshotIndex::after(TxnIndex::new(1)));
        assert_eq!(q.read(ObjectId::new(0, 777)), Value::Null);
    }
}
