//! Transaction identity, state and requests.

use otp_simnet::SiteId;
use otp_storage::{ClassId, ProcId, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique transaction identifier: originating site plus a local
/// sequence number. In the OTP architecture a transaction travels as one
/// broadcast message, so its id mirrors the message id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId {
    /// Site where the client submitted the transaction.
    pub origin: SiteId,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub const fn new(origin: SiteId, seq: u64) -> Self {
        TxnId { origin, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[{}:{}]", self.origin, self.seq)
    }
}

/// Execution state of a transaction in its class queue (Section 3.3):
/// `active` while its procedure is running (or waiting to run), `executed`
/// once the procedure finished but the transaction cannot commit yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecState {
    /// Not yet completely executed.
    Active,
    /// Completely executed, awaiting TO-delivery (only ever the queue head).
    Executed,
}

/// Delivery state of a transaction (Section 3.3): `pending` after
/// Opt-delivery — its position is tentative; `committable` after
/// TO-delivery — its definitive position is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryState {
    /// Only optimistically delivered; may still be reordered or aborted.
    Pending,
    /// Definitively delivered; its serialization position is final.
    Committable,
}

/// An update-transaction request: the unit that gets TO-broadcast.
///
/// Carries everything a remote site needs to execute the transaction
/// deterministically: the stored procedure, its arguments and the conflict
/// classes (declared in advance — Section 2.4: "Since they are predefined,
/// the type of the transaction can be declared in advance"). The paper
/// pins a transaction to one class; under the multi-class extension a
/// request declares a set of classes, the lowest of which is its *home*
/// class, [`TxnRequest::class`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnRequest {
    /// Unique id (assigned at the origin site).
    pub id: TxnId,
    /// Conflict class the transaction belongs to: the lowest of its
    /// declared classes, which names it in execution tokens and
    /// TO-deliveries.
    pub class: ClassId,
    /// Stored procedure to run.
    pub proc: ProcId,
    /// Procedure arguments. Treated as immutable after construction —
    /// the cached wire size is computed once in [`TxnRequest::new`].
    pub args: Vec<Value>,
    /// The declared classes above `class`, ascending — empty, and
    /// unallocated, for a one-class request.
    others: Box<[ClassId]>,
    /// Cached wire size: requests fan out to every receiver of every
    /// (re-)multicast, and walking `args` per wire was a measurable cost
    /// on the multicast hot path (ROADMAP profile-first list).
    size: u32,
}

impl TxnRequest {
    /// Creates a request of one class.
    pub fn new(id: TxnId, class: ClassId, proc: ProcId, args: Vec<Value>) -> Self {
        let size = 16 + 8 + args.iter().map(|v| v.size_bytes()).sum::<u32>();
        TxnRequest { id, class, proc, args, others: Box::default(), size }
    }

    /// Creates a request over a set of classes (sorted and deduplicated
    /// here); its home class is the lowest.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn over_classes(
        id: TxnId,
        classes: impl IntoIterator<Item = ClassId>,
        proc: ProcId,
        args: Vec<Value>,
    ) -> Self {
        let mut classes: Vec<ClassId> = classes.into_iter().collect();
        classes.sort_unstable();
        classes.dedup();
        assert!(!classes.is_empty(), "a transaction needs at least one class");
        let mut request = TxnRequest::new(id, classes[0], proc, args);
        request.size += 4 * (classes.len() as u32 - 1);
        request.others = classes[1..].into();
        request
    }

    /// The declared classes above the home class, ascending.
    pub fn other_classes(&self) -> &[ClassId] {
        &self.others
    }

    /// Every declared class, ascending: the home class first.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        std::iter::once(self.class).chain(self.others.iter().copied())
    }

    /// Approximate wire size (used by the network model). Computed at
    /// construction and shared by every receiver.
    pub fn size_bytes(&self) -> u32 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_ordering_and_display() {
        let a = TxnId::new(SiteId::new(0), 3);
        let b = TxnId::new(SiteId::new(1), 0);
        assert!(a < b);
        assert_eq!(format!("{a}"), "T[N0:3]");
    }

    #[test]
    fn request_size_scales_with_args() {
        let small =
            TxnRequest::new(TxnId::new(SiteId::new(0), 0), ClassId::new(0), ProcId::new(0), vec![]);
        let big = TxnRequest::new(
            TxnId::new(SiteId::new(0), 1),
            ClassId::new(0),
            ProcId::new(0),
            vec![Value::Bytes(vec![0; 100])],
        );
        assert!(big.size_bytes() > small.size_bytes() + 90);
    }

    #[test]
    fn a_class_set_is_sorted_and_deduplicated_around_its_lowest_class() {
        let id = TxnId::new(SiteId::new(0), 0);
        let one = TxnRequest::new(id, ClassId::new(3), ProcId::new(0), vec![]);
        let set =
            TxnRequest::over_classes(id, [5, 3, 9, 5].map(ClassId::new), ProcId::new(0), vec![]);
        assert_eq!(set.class, ClassId::new(3), "the home class is the lowest");
        assert_eq!(set.other_classes(), [ClassId::new(5), ClassId::new(9)]);
        assert_eq!(set.classes().count(), 3);
        assert_eq!(set.size_bytes(), one.size_bytes() + 8, "four bytes per other class");
        assert!(one.other_classes().is_empty());
        let alone = TxnRequest::over_classes(id, [ClassId::new(3)], ProcId::new(0), vec![]);
        assert_eq!(alone, one, "a set of one is a one-class request");
    }

    #[test]
    fn states_are_comparable() {
        assert_ne!(ExecState::Active, ExecState::Executed);
        assert_ne!(DeliveryState::Pending, DeliveryState::Committable);
    }
}
