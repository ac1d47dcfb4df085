//! Actions emitted by replicas towards their driver.
//!
//! Both drivers consume these: the simulated cluster schedules
//! [`ReplicaAction::StartExecution`] completions on its virtual-time
//! event queue, while the threaded runtime arms a wall-clock timer and
//! counts it as an in-flight work unit (its quiescence detection treats
//! an armed completion exactly like an undelivered wire — see
//! `runtime.rs` and DESIGN.md §9).

use otp_storage::{ClassId, TxnIndex, Value};
use otp_txn::txn::TxnId;

/// Identifies one execution attempt of one transaction.
///
/// The attempt counter distinguishes a live execution from one that was
/// cancelled by an abort: when the stale completion event arrives, the
/// replica recognizes the old attempt number and drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecToken {
    /// The executing transaction.
    pub txn: TxnId,
    /// Its conflict class — the home class of a transaction over a class
    /// set.
    pub class: ClassId,
    /// Attempt number (0 for the first execution).
    pub attempt: u32,
}

/// Instructions a replica hands back to the cluster driver.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaAction {
    /// A stored procedure started executing. The driver must sample an
    /// execution duration and call
    /// [`crate::replica::Replica::on_exec_done`] with the token when it
    /// elapses. (The procedure's *effects* are already applied in place;
    /// the event models elapsed time.)
    StartExecution {
        /// Token to return in `on_exec_done`.
        token: ExecToken,
    },
    /// A transaction committed locally at its definitive index, with the
    /// output values its procedure emitted for the client.
    Committed {
        /// The committed transaction.
        txn: TxnId,
        /// Its position in the definitive total order.
        index: TxnIndex,
        /// Procedure output for the client (meaningful at the origin site).
        output: Vec<Value>,
    },
}
