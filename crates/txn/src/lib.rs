//! # otp-txn — transaction model, class queues, serializability checking
//!
//! The data structures of Sections 2.2–2.3 and 3.3 of the ICDCS'99 OTP
//! paper, plus the machinery tests use to verify the paper's correctness
//! theorems empirically:
//!
//! * [`txn`] — transaction identity ([`TxnId`]), requests
//!   ([`TxnRequest`]: stored procedure + args + conflict class) and the
//!   two state dimensions (`active/executed` × `pending/committable`);
//! * [`queue`] — the FIFO [`ClassQueue`] with the paper's operations:
//!   append (S1–S2), mark-executed (E5), mark-committable (CC6),
//!   commit-head (E2/CC3), abort-head (CC8) and
//!   reschedule-before-first-pending (CC10), with the committable-prefix
//!   invariant checked;
//! * [`history`] — committed-history recording (the flat [`HistoryLog`]) and the
//!   1-copy-serializability checker ([`check_one_copy_serializable`]),
//!   including the paper's Section 5 query anomaly as a test case.
//!
//! # Example: the paper's rescheduling step
//!
//! ```
//! use otp_txn::queue::ClassQueue;
//! use otp_txn::txn::{TxnId, TxnRequest};
//! use otp_simnet::SiteId;
//! use otp_storage::{ClassId, ProcId};
//!
//! let req = |seq| TxnRequest::new(
//!     TxnId::new(SiteId::new(0), seq), ClassId::new(0), ProcId::new(0), vec![],
//! );
//! let mut q = ClassQueue::new(ClassId::new(0));
//! q.append(req(0)); // tentative order: T0, T1
//! q.append(req(1));
//!
//! // T1 is TO-delivered first: the tentative order was wrong.
//! q.mark_committable(TxnId::new(SiteId::new(0), 1)).unwrap();
//! q.abort_head().unwrap(); // T0 was pending at the head → abort (CC8)
//! q.reschedule_before_first_pending(TxnId::new(SiteId::new(0), 1)).unwrap();
//! assert_eq!(q.head().unwrap().id(), TxnId::new(SiteId::new(0), 1));
//! ```

pub mod history;
pub mod queue;
pub mod txn;

pub use history::{
    check_one_copy_serializable, check_same_committed_set, CommittedTxn, HistoryLog, Violation,
};
pub use queue::{ClassQueue, QueueEntry, QueueError};
pub use txn::{DeliveryState, ExecState, TxnId, TxnRequest};
