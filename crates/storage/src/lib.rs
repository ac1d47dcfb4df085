//! # otp-storage — the replicated database substrate
//!
//! In-memory, multi-version storage for the `otpdb` reproduction of the
//! ICDCS'99 OTP paper. It provides exactly what the paper's transaction
//! model needs:
//!
//! * **conflict-class partitions** ([`Database`], [`ClassId`]) — the
//!   database is split so that update transactions of different classes
//!   never conflict (Section 2.3);
//! * **in-place execution with undo** ([`TxnCtx`], [`UndoLog`]) — a
//!   transaction writes its partitions directly — its one class, or each
//!   class of the set it declared under the multi-class extension — with
//!   one undo log per class; when the optimistic scheduling order turns
//!   out wrong, the correctness-check module rolls it back "using
//!   traditional recovery techniques" (Section 3.2);
//! * **committed version chains** ([`mvcc::VersionChain`]) labeled with
//!   definitive-order indices ([`TxnIndex`]), feeding **snapshot queries**
//!   ([`QueryCtx`], [`SnapshotIndex`]) with the paper's `i.5` semantics
//!   (Section 5);
//! * **stored procedures** ([`StoredProcedure`], [`ProcRegistry`]) — the
//!   only way to touch data (Section 2.2), so a transaction request is just
//!   `(procedure, args, class)` and replicates deterministically.
//!
//! # Example: execute, commit, snapshot-read
//!
//! ```
//! use otp_storage::{
//!     ClassId, Database, ObjectId, ObjectKey, SnapshotIndex, TxnCtx, TxnIndex, Value,
//! };
//!
//! let mut db = Database::new(2);
//! db.load(ObjectId::new(0, 0), Value::Int(100));
//!
//! // Execute an update transaction of class 0.
//! let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
//! let v = ctx.read(ObjectKey::new(0)).unwrap().as_int().unwrap();
//! ctx.write(ObjectKey::new(0), Value::Int(v - 30)).unwrap();
//! let effects = ctx.finish();
//!
//! // Commit it as the 1st transaction in the definitive order.
//! db.partition_mut(ClassId::new(0))
//!     .unwrap()
//!     .promote(effects.undo.written_keys(), TxnIndex::new(1));
//!
//! // A query with snapshot index 0.5 still sees the original value.
//! let old = db.read_at(ObjectId::new(0, 0), SnapshotIndex::after(TxnIndex::INITIAL));
//! assert_eq!(old, Some(&Value::Int(100)));
//! ```

pub mod db;
pub mod err;
pub mod ids;
pub mod mvcc;
pub mod proc;
pub mod txctx;
pub mod value;

#[cfg(test)]
#[path = "class_set_tests.rs"]
mod multictx;

pub use db::{ClassPartition, Database, UndoLog};
pub use err::{AccessError, ProcError};
pub use ids::{ClassId, ObjectId, ObjectKey, SnapshotIndex, TxnIndex};
pub use proc::{FnProcedure, ProcId, ProcRegistry, StoredProcedure};
pub use txctx::{QueryCtx, TxnCtx, TxnEffects};
pub use value::Value;
