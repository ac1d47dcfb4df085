//! The dissemination half of an engine: what every engine in this crate
//! keeps the same way, whatever decides the definitive order.
//!
//! The paper's primitive (§2.1) has two parts: reliable dissemination,
//! which Opt-delivers a message when it arrives, and agreement on the
//! definitive order, which TO-delivers it. [`Dissemination`] is the first
//! part for all three engines — the payload store, the definitive log and
//! its delivered set, the own-message cursor — and makes every decision
//! about them: what a duplicate is, which ids this endpoint may still use,
//! what is Opt-delivered again after a restore, and the order a snapshot
//! lists payloads in. Each engine embeds one and keeps only its ordering
//! half beside it (DESIGN.md §18).

use crate::idset::IdSet;
use crate::msg::{Message, MsgId, RECOVERY_SEQ_GAP};
use crate::traits::{EngineRetention, EngineSnapshot};
use otp_simnet::SiteId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Payload store, definitive log and own-message cursor of one endpoint.
#[derive(Debug)]
pub(crate) struct Dissemination<P> {
    /// Payload of every received data message; also what makes a data
    /// wire a duplicate.
    payloads: HashMap<MsgId, P>,
    /// Ids TO-delivered, in definitive order.
    log: Vec<MsgId>,
    /// The same ids as a set, for the skip-if-delivered checks.
    delivered: IdSet,
    /// Sequence number of this endpoint's next own message.
    next_seq: u64,
}

impl<P: Clone> Dissemination<P> {
    pub(crate) fn new() -> Self {
        Dissemination {
            payloads: HashMap::new(),
            log: Vec::new(),
            delivered: IdSet::new(),
            next_seq: 0,
        }
    }

    /// Allocates the id of this endpoint's next own message.
    pub(crate) fn next_id(&mut self, me: SiteId) -> MsgId {
        let id = MsgId::new(me, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// See [`crate::AtomicBroadcast::bump_incarnation`].
    pub(crate) fn bump_incarnation(&mut self) {
        self.next_seq += RECOVERY_SEQ_GAP;
    }

    /// Stores an arriving data message. `None` for a duplicate, which the
    /// engine ignores. Otherwise whether to Opt-deliver it: not when it is
    /// delivered already — a restore accounted for it, the application has
    /// its effects. An id of this endpoint's own origin is one a previous
    /// incarnation sent before crashing: its sequence number is never
    /// reused.
    pub(crate) fn accept(&mut self, me: SiteId, msg: &Message<P>) -> Option<bool> {
        let Entry::Vacant(slot) = self.payloads.entry(msg.id) else {
            return None;
        };
        slot.insert(msg.payload.clone());
        if msg.id.origin == me {
            self.next_seq = self.next_seq.max(msg.id.seq + 1);
        }
        Some(!self.delivered.contains(msg.id))
    }

    /// Whether the payload of `id` has arrived.
    pub(crate) fn has(&self, id: MsgId) -> bool {
        self.payloads.contains_key(&id)
    }

    /// Whether `id` is TO-delivered.
    pub(crate) fn is_delivered(&self, id: MsgId) -> bool {
        self.delivered.contains(id)
    }

    /// The stored message `id`.
    ///
    /// # Panics
    ///
    /// Panics if its payload has not arrived.
    pub(crate) fn message(&self, id: MsgId) -> Message<P> {
        Message { id, payload: self.payloads[&id].clone() }
    }

    /// TO-delivers `id`: its position is the log's length.
    pub(crate) fn deliver(&mut self, id: MsgId) {
        let fresh = self.delivered.insert(id);
        debug_assert!(fresh, "{id} holds two positions (DESIGN.md §15)");
        self.log.push(id);
    }

    /// The definitive log: TO-delivered ids in delivery order.
    pub(crate) fn definitive_log(&self) -> &[MsgId] {
        &self.log
    }

    /// Stored ids that `keep` selects, in id order.
    pub(crate) fn stored_where(&self, keep: impl Fn(MsgId) -> bool) -> Vec<MsgId> {
        let mut ids: Vec<MsgId> = self.payloads.keys().copied().filter(|id| keep(*id)).collect();
        ids.sort_unstable();
        ids
    }

    /// Stored ids not yet delivered, in id order: after a restore they are
    /// tentative again at this site (the donor's receive order is unknown
    /// here).
    pub(crate) fn undelivered(&self) -> Vec<MsgId> {
        self.stored_where(|id| !self.delivered.contains(id))
    }

    /// The dissemination part of a snapshot: the payloads sorted by id —
    /// a snapshot is state-transfer payload, its order must not depend on
    /// hash iteration order —, the log and its length. The engine adds its
    /// ordering half.
    pub(crate) fn snapshot(&self) -> EngineSnapshot<P> {
        let mut received: Vec<Message<P>> = self
            .payloads
            .iter()
            .map(|(id, payload)| Message { id: *id, payload: payload.clone() })
            .collect();
        received.sort_by_key(|m| m.id);
        EngineSnapshot {
            received,
            definitive_log: self.log.clone(),
            min_delivered: self.log.len() as u64,
            ..EngineSnapshot::empty()
        }
    }

    /// Loads a snapshot's payloads and log into this (fresh) half.
    ///
    /// `ordered` are the ids the engine's ordering half reports — decided
    /// batches, order assignments, oracle tags. The own-message cursor
    /// moves past the highest own id among them and the payloads: a
    /// proposal or an assignment can outrun its data wire, so a survivor
    /// can know an own id only by its place in the order. Anchoring at the
    /// payloads alone started the incarnation gap from a stale cursor, and
    /// with more than `RECOVERY_SEQ_GAP` ids in the reported window the
    /// jump landed on ids the dead incarnation had used — peers silently
    /// deduplicated the new messages.
    pub(crate) fn restore(
        &mut self,
        me: SiteId,
        received: Vec<Message<P>>,
        log: Vec<MsgId>,
        ordered: impl Iterator<Item = MsgId>,
    ) {
        self.delivered = log.iter().copied().collect();
        self.log = log;
        self.payloads.extend(received.into_iter().map(|m| (m.id, m.payload)));
        let own_max = self
            .payloads
            .keys()
            .copied()
            .chain(ordered)
            .filter(|id| id.origin == me)
            .map(|id| id.seq)
            .max();
        if let Some(max) = own_max {
            self.next_seq = self.next_seq.max(max + 1);
        }
    }

    /// Payload and log sizes, with the engine's own index entries added to
    /// the delivered set's runs.
    pub(crate) fn retained(&self, ordering_index: usize) -> EngineRetention {
        EngineRetention {
            payloads: self.payloads.len(),
            log: self.log.len(),
            index: self.delivered.runs() + ordering_index,
        }
    }
}
