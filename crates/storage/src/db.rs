//! The replicated database copy at one site: class partitions, undo logs,
//! committed version chains.
//!
//! ## Execution model
//!
//! Within a conflict class, execution is serial (the class queue admits one
//! transaction at a time), so a class partition holds:
//!
//! * `current` — the working state: committed values plus the in-place
//!   writes of the single executing transaction of this class. Reads during
//!   execution hit `current`, which automatically gives read-your-writes.
//! * `versions` — committed version chains, fed on commit and read by
//!   snapshot queries (Section 5).
//!
//! A transaction's writes go to `current` immediately, recording
//! before-images in an [`UndoLog`]; *abort* (the mismatch penalty of the
//! OTP algorithm, step CC8) replays the undo log — "the updates of T₆ can
//! be undone using traditional recovery techniques" — and *commit* installs
//! the written keys into the version chains labeled with the transaction's
//! definitive index.

use crate::err::AccessError;
use crate::ids::{ClassId, ObjectId, ObjectKey, SnapshotIndex, TxnIndex};
use crate::mvcc::VersionChain;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Before-images collected while a transaction executes, applied in reverse
/// on abort.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UndoLog {
    /// `(key, value before the first write, or None if absent)`.
    entries: Vec<(ObjectKey, Option<Value>)>,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Number of recorded before-images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a before-image if `key` has not been recorded yet.
    pub fn record(&mut self, key: ObjectKey, before: Option<Value>) {
        if !self.entries.iter().any(|(k, _)| *k == key) {
            self.entries.push((key, before));
        }
    }

    /// The keys written by the transaction (in first-write order).
    pub fn written_keys(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }
}

/// One conflict class's partition of the database.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassPartition {
    current: HashMap<ObjectKey, Value>,
    versions: HashMap<ObjectKey, VersionChain>,
}

impl ClassPartition {
    /// Reads the working state (committed + in-flight writes of the class's
    /// executing transaction).
    pub fn read_current(&self, key: ObjectKey) -> Option<&Value> {
        self.current.get(&key)
    }

    /// Writes the working state, returning the before-image.
    pub fn write_current(&mut self, key: ObjectKey, value: Value) -> Option<Value> {
        self.current.insert(key, value)
    }

    /// Reads the committed version visible at `snap`.
    pub fn read_at(&self, key: ObjectKey, snap: SnapshotIndex) -> Option<&Value> {
        self.versions.get(&key).and_then(|c| c.read_at(snap))
    }

    /// The latest committed version (ignores in-flight writes).
    pub fn read_committed(&self, key: ObjectKey) -> Option<&Value> {
        self.versions.get(&key).and_then(|c| c.read_latest())
    }

    /// Applies an undo log: restores before-images in reverse order.
    pub fn apply_undo(&mut self, undo: &UndoLog) {
        for (key, before) in undo.entries.iter().rev() {
            match before {
                Some(v) => {
                    self.current.insert(*key, v.clone());
                }
                None => {
                    self.current.remove(key);
                }
            }
        }
    }

    /// Promotes the given keys' current values into committed versions
    /// labeled `index`.
    pub fn promote(&mut self, keys: impl Iterator<Item = ObjectKey>, index: TxnIndex) {
        for key in keys {
            let value = self.current.get(&key).cloned().unwrap_or(Value::Null);
            self.versions.entry(key).or_default().install(index, value);
        }
    }

    /// Trims the given keys' version chains below `watermark`: keeps the
    /// newest version a snapshot at `watermark` sees and everything newer
    /// ([`VersionChain::collect_below`]). Returns the number of dropped
    /// versions.
    pub fn trim(
        &mut self,
        keys: impl IntoIterator<Item = ObjectKey>,
        watermark: TxnIndex,
    ) -> usize {
        keys.into_iter()
            .map(|key| self.versions.get_mut(&key).map_or(0, |c| c.collect_below(watermark)))
            .sum()
    }
}

/// A full database copy (all class partitions) at one site.
///
/// Partitions sit behind [`Arc`]s with copy-on-write semantics
/// ([`Arc::make_mut`]): cloning a database — every replica of a cluster
/// starts from a clone of one loaded base copy, and recovery snapshots
/// clone again — is a vector of reference-count bumps, and a partition is
/// deep-copied only on the first write after a clone. In many-cell sweeps
/// the construction cost was dominated by `Database::clone`; now a site
/// only ever pays for the partitions it actually touches.
///
/// # Examples
///
/// ```
/// use otp_storage::{Database, ObjectId, TxnIndex, Value};
///
/// let mut db = Database::new(2);
/// db.load(ObjectId::new(0, 1), Value::Int(100));
/// assert_eq!(db.read_committed(ObjectId::new(0, 1)), Some(&Value::Int(100)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    partitions: Vec<Arc<ClassPartition>>,
}

impl Database {
    /// Creates a database with `classes` empty partitions.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "database needs at least one conflict class");
        Database { partitions: (0..classes).map(|_| Arc::default()).collect() }
    }

    /// Number of conflict classes.
    pub fn classes(&self) -> usize {
        self.partitions.len()
    }

    /// Immutable partition access.
    ///
    /// # Errors
    ///
    /// Fails if the class does not exist.
    pub fn partition(&self, class: ClassId) -> Result<&ClassPartition, AccessError> {
        self.partitions.get(class.index()).map(Arc::as_ref).ok_or(AccessError::NoSuchClass(class))
    }

    /// Mutable partition access. Detaches the partition from any clones
    /// still sharing it (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails if the class does not exist.
    pub fn partition_mut(&mut self, class: ClassId) -> Result<&mut ClassPartition, AccessError> {
        self.partitions
            .get_mut(class.index())
            .map(Arc::make_mut)
            .ok_or(AccessError::NoSuchClass(class))
    }

    /// Loads initial data: sets both the working state and an initial
    /// committed version (labeled [`TxnIndex::INITIAL`]).
    ///
    /// # Panics
    ///
    /// Panics if the object's class does not exist, or if data is loaded
    /// after transactions have already committed on that object.
    pub fn load(&mut self, object: ObjectId, value: Value) {
        let p = self
            .partitions
            .get_mut(object.class.index())
            .map(Arc::make_mut)
            .unwrap_or_else(|| panic!("no such class {}", object.class));
        p.current.insert(object.key, value.clone());
        p.versions.entry(object.key).or_default().install(TxnIndex::INITIAL, value);
    }

    /// Latest committed value of an object (`None` if it never existed or
    /// the class is unknown).
    pub fn read_committed(&self, object: ObjectId) -> Option<&Value> {
        self.partitions.get(object.class.index())?.read_committed(object.key)
    }

    /// Snapshot read at `snap` (Section 5 semantics).
    pub fn read_at(&self, object: ObjectId, snap: SnapshotIndex) -> Option<&Value> {
        self.partitions.get(object.class.index())?.read_at(object.key, snap)
    }

    /// Committed versions held across every object's chain (equal to the
    /// number of objects when each chain is down to its newest version).
    pub fn retained_versions(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.versions.values().map(VersionChain::len).sum::<usize>())
            .sum()
    }

    /// A clean copy containing only committed state: version chains are
    /// cloned and every partition's working state is reset to the latest
    /// committed version of each object. This is what a recovery state
    /// transfer ships — the donor's in-flight (uncommitted) writes must not
    /// leak to the recovering site, which will re-execute those
    /// transactions itself.
    pub fn committed_copy(&self) -> Database {
        let partitions = self
            .partitions
            .iter()
            .map(|p| {
                let current = p
                    .versions
                    .iter()
                    .filter_map(|(k, c)| c.read_latest().map(|v| (*k, v.clone())))
                    .collect();
                Arc::new(ClassPartition { current, versions: p.versions.clone() })
            })
            .collect();
        Database { partitions }
    }

    /// Structural equality of committed state across two database copies —
    /// used by convergence tests. Compares latest committed versions of
    /// every object.
    pub fn committed_state_eq(&self, other: &Database) -> bool {
        if self.partitions.len() != other.partitions.len() {
            return false;
        }
        for (a, b) in self.partitions.iter().zip(&other.partitions) {
            if a.versions.len() != b.versions.len() {
                return false;
            }
            for (key, chain) in &a.versions {
                let Some(oc) = b.versions.get(key) else {
                    return false;
                };
                if chain.read_latest() != oc.read_latest() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut d = Database::new(2);
        d.load(ObjectId::new(0, 1), Value::Int(10));
        d.load(ObjectId::new(1, 1), Value::Int(20));
        d
    }

    #[test]
    fn load_and_read() {
        let d = db();
        assert_eq!(d.read_committed(ObjectId::new(0, 1)), Some(&Value::Int(10)));
        assert_eq!(d.read_committed(ObjectId::new(1, 1)), Some(&Value::Int(20)));
        assert_eq!(d.read_committed(ObjectId::new(0, 9)), None);
        assert_eq!(d.classes(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one conflict class")]
    fn zero_classes_rejected() {
        Database::new(0);
    }

    #[test]
    fn write_undo_roundtrip() {
        let mut d = db();
        let class = ClassId::new(0);
        let key = ObjectKey::new(1);
        let mut undo = UndoLog::new();

        let p = d.partition_mut(class).unwrap();
        let before = p.write_current(key, Value::Int(99));
        undo.record(key, before);
        // New key too.
        let key2 = ObjectKey::new(7);
        let before2 = p.write_current(key2, Value::Int(1));
        undo.record(key2, before2);

        assert_eq!(p.read_current(key), Some(&Value::Int(99)));
        p.apply_undo(&undo);
        assert_eq!(p.read_current(key), Some(&Value::Int(10)), "restored");
        assert_eq!(p.read_current(key2), None, "created key removed");
        // Committed versions untouched by any of this.
        assert_eq!(d.read_committed(ObjectId::new(0, 1)), Some(&Value::Int(10)));
    }

    #[test]
    fn undo_records_only_first_before_image() {
        let mut undo = UndoLog::new();
        let k = ObjectKey::new(1);
        undo.record(k, Some(Value::Int(1)));
        undo.record(k, Some(Value::Int(2))); // ignored
        assert_eq!(undo.len(), 1);
        let mut p = ClassPartition::default();
        p.write_current(k, Value::Int(3));
        p.apply_undo(&undo);
        assert_eq!(p.read_current(k), Some(&Value::Int(1)));
    }

    #[test]
    fn promote_creates_versions() {
        let mut d = db();
        let class = ClassId::new(0);
        let key = ObjectKey::new(1);
        let p = d.partition_mut(class).unwrap();
        p.write_current(key, Value::Int(11));
        p.promote([key].into_iter(), TxnIndex::new(1));
        p.write_current(key, Value::Int(12));
        p.promote([key].into_iter(), TxnIndex::new(2));

        let o = ObjectId::new(0, 1);
        assert_eq!(d.read_committed(o), Some(&Value::Int(12)));
        assert_eq!(d.read_at(o, SnapshotIndex::after(TxnIndex::new(1))), Some(&Value::Int(11)));
        assert_eq!(d.read_at(o, SnapshotIndex::after(TxnIndex::INITIAL)), Some(&Value::Int(10)));
    }

    #[test]
    fn snapshot_read_unknown_class_is_none() {
        let d = db();
        assert_eq!(d.read_at(ObjectId::new(9, 1), SnapshotIndex::after(TxnIndex::new(1))), None);
        assert!(d.partition(ClassId::new(9)).is_err());
    }

    #[test]
    fn gc_counts() {
        let mut d = db();
        let class = ClassId::new(0);
        let key = ObjectKey::new(1);
        for i in 1..=5u64 {
            let p = d.partition_mut(class).unwrap();
            p.write_current(key, Value::Int(i as i64));
            p.promote([key].into_iter(), TxnIndex::new(i));
        }
        let dropped = d.partition_mut(class).unwrap().trim([key], TxnIndex::new(5));
        assert_eq!(dropped, 5, "all but the newest visible version dropped");
        assert_eq!(d.read_committed(ObjectId::new(0, 1)), Some(&Value::Int(5)));
    }

    #[test]
    fn trim_touches_only_the_named_keys() {
        let mut d = db();
        let (class, key) = (ClassId::new(0), ObjectKey::new(1));
        for i in 1..=3u64 {
            let p = d.partition_mut(class).unwrap();
            p.write_current(key, Value::Int(i as i64));
            p.promote([key].into_iter(), TxnIndex::new(i));
        }
        assert_eq!(d.retained_versions(), 5, "4 versions of (0,1) + 1 of (1,1)");
        // Watermark 2: version 2 is what a snapshot at 2.5 reads, 3 is newer.
        let p = d.partition_mut(class).unwrap();
        assert_eq!(p.trim([key, ObjectKey::new(9)], TxnIndex::new(2)), 2);
        let o = ObjectId::new(0, 1);
        assert_eq!(d.read_at(o, SnapshotIndex::after(TxnIndex::new(2))), Some(&Value::Int(2)));
        assert_eq!(d.read_committed(o), Some(&Value::Int(3)));
        assert_eq!(d.retained_versions(), 3);
    }

    #[test]
    fn committed_copy_strips_inflight_writes() {
        let mut d = db();
        let p = d.partition_mut(ClassId::new(0)).unwrap();
        p.write_current(ObjectKey::new(1), Value::Int(-1)); // uncommitted
        p.write_current(ObjectKey::new(50), Value::Int(7)); // brand new, uncommitted
        let copy = d.committed_copy();
        let cp = copy.partition(ClassId::new(0)).unwrap();
        assert_eq!(cp.read_current(ObjectKey::new(1)), Some(&Value::Int(10)));
        assert_eq!(cp.read_current(ObjectKey::new(50)), None);
        assert!(copy.committed_state_eq(&d));
    }

    #[test]
    fn committed_state_equality() {
        let a = db();
        let b = db();
        assert!(a.committed_state_eq(&b));
        let mut c = db();
        let p = c.partition_mut(ClassId::new(0)).unwrap();
        p.write_current(ObjectKey::new(1), Value::Int(999));
        // current-only changes do not affect committed equality …
        assert!(a.committed_state_eq(&c));
        // … but promotion does.
        let p = c.partition_mut(ClassId::new(0)).unwrap();
        p.promote([ObjectKey::new(1)].into_iter(), TxnIndex::new(1));
        assert!(!a.committed_state_eq(&c));
    }
}
