//! # otp-core — Optimistic Transaction Processing over atomic broadcast
//!
//! The primary contribution of *Processing Transactions over Optimistic
//! Atomic Broadcast Protocols* (Kemme, Pedone, Alonso, Schiper —
//! ICDCS 1999), implemented in full:
//!
//! * [`Replica`] — the OTP algorithm: the Serialization (S1–S5),
//!   Execution (E1–E6) and Correctness-Check (CC1–CC14) modules of the
//!   paper's Figures 4–6, over conflict-class queues and a multi-version
//!   store. Transactions start executing on *tentative* (Opt-)delivery and
//!   commit on *definitive* (TO-)delivery; mismatches abort and reschedule
//!   exactly as in Section 3. The same replica in [`Mode::Conservative`]
//!   is the classic execute-after-TO-deliver baseline (no optimism, no
//!   aborts, full ordering latency on the critical path): it starts only
//!   committable queue heads. [`ConservativeReplica`] is a logic-free
//!   wrapper kept for callers that name that baseline by its former type.
//! * [`AsyncCluster`] — lazy primary-copy replication (the "commercial"
//!   baseline): local commits, lazy write-set propagation, demonstrably
//!   *not* 1-copy-serializable.
//! * [`Cluster`] — the deterministic simulated cluster driving any engine
//!   ([`EngineKind`]) and either execution policy ([`Mode`]), with snapshot
//!   queries (Section 5), crash/recovery with state transfer, and full
//!   latency/abort statistics ([`RunStats`]).
//! * [`runtime::LiveCluster`] — the same state machines on real threads
//!   and channels (wall-clock time), proving the core is simulator-
//!   agnostic. Both drivers feed each site through one site layer
//!   (`site.rs`): engine and replica construction, the delivery hand-off
//!   to the replica, and lifecycle tracing are written once there.
//!
//! # Quick example: a 4-site OTP cluster
//!
//! ```
//! use otp_core::{ClusterBuilder, ClusterConfig};
//! use otp_simnet::{SimTime, SiteId};
//! use otp_storage::{ClassId, ObjectId, ObjectKey, ProcId, ProcRegistry, Value};
//! use std::sync::Arc;
//!
//! // One stored procedure: debit an account.
//! let mut reg = ProcRegistry::new();
//! let debit = reg.register_fn("debit", |ctx, args| {
//!     let amount = args[0].as_int().unwrap_or(0);
//!     let balance = ctx.read(ObjectKey::new(0))?.as_int().unwrap_or(0);
//!     ctx.write(ObjectKey::new(0), Value::Int(balance - amount))?;
//!     Ok(())
//! });
//!
//! let mut cluster = ClusterBuilder::from_config(ClusterConfig::new(4, 2))
//!     .registry(Arc::new(reg))
//!     .initial_data(vec![(ObjectId::new(0, 0), Value::Int(100)),
//!                        (ObjectId::new(1, 0), Value::Int(100))])
//!     .build();
//! cluster.schedule_update(
//!     SimTime::from_millis(1), SiteId::new(2), ClassId::new(0), debit,
//!     vec![Value::Int(30)],
//! );
//! cluster.run_until(SimTime::from_secs(5));
//! assert!(cluster.converged());
//! assert_eq!(
//!     cluster.replicas[0].db().read_committed(ObjectId::new(0, 0)),
//!     Some(&Value::Int(70)),
//! );
//! ```

pub mod asynchronous;
pub mod cluster;
pub mod event;
pub mod invariants;
pub mod multiclass;
pub mod replica;
pub mod runtime;
mod site;

pub use asynchronous::{AsyncCluster, AsyncConfig, WriteSet};
pub use cluster::{
    Cluster, ClusterBuilder, ClusterConfig, CrossTag, DurationDist, EngineKind, Mode, RunStats,
    SubmitError, TxnPayload,
};
pub use event::{ExecToken, ReplicaAction};
pub use invariants::{check_invariants, InvariantReport, InvariantViolation, RunHistories};
pub use multiclass::{MultiAction, MultiRegistry, MultiReplica, MultiRequest};
pub use replica::{ConservativeReplica, Replica, ReplicaSnapshot};
pub use runtime::{LiveCluster, LiveConfig, LiveReport};
