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

use crate::idset::{IdSet, SeqMap};
use crate::msg::{Message, MsgId, RECOVERY_SEQ_GAP};
use crate::traits::{EngineRetention, EngineSnapshot};
use otp_simnet::SiteId;

/// Payload store, definitive log and own-message cursor of one endpoint.
#[derive(Debug)]
pub(crate) struct Dissemination<P> {
    /// Payload of every received data message, by origin site and then
    /// sequence number; also what makes a data wire a duplicate.
    payloads: Vec<SeqMap<P>>,
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
            payloads: Vec::new(),
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
        if !self.store(msg.id, msg.payload.clone()) {
            return None;
        }
        if msg.id.origin == me {
            self.next_seq = self.next_seq.max(msg.id.seq + 1);
        }
        Some(!self.delivered.contains(msg.id))
    }

    /// Stores the payload of `id` unless one is stored; true if it was not.
    fn store(&mut self, id: MsgId, payload: P) -> bool {
        let origin = id.origin.index();
        if self.payloads.len() <= origin {
            self.payloads.resize_with(origin + 1, SeqMap::new);
        }
        self.payloads[origin].insert(id.seq, payload)
    }

    /// The payload of `id`, once it has arrived.
    pub(crate) fn payload(&self, id: MsgId) -> Option<&P> {
        self.payloads.get(id.origin.index())?.get(id.seq)
    }

    /// Every stored id with its payload, in id order: origins ascending,
    /// each one's sequence numbers ascending.
    fn stored(&self) -> impl Iterator<Item = (MsgId, &P)> {
        (0..).zip(&self.payloads).flat_map(|(origin, seqs)| {
            seqs.iter().map(move |(seq, payload)| (MsgId::new(SiteId::new(origin), seq), payload))
        })
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
        Message { id, payload: self.payload(id).expect("payload of a stored message").clone() }
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
        self.stored().map(|(id, _)| id).filter(|id| keep(*id)).collect()
    }

    /// Stored ids not yet delivered, in id order: after a restore they are
    /// tentative again at this site (the donor's receive order is unknown
    /// here).
    pub(crate) fn undelivered(&self) -> Vec<MsgId> {
        self.stored_where(|id| !self.delivered.contains(id))
    }

    /// The dissemination part of a snapshot: the payloads in id order —
    /// the store's own order (DESIGN.md §18) —, the log and its length.
    /// The engine adds its ordering half.
    pub(crate) fn snapshot(&self) -> EngineSnapshot<P> {
        EngineSnapshot {
            received: self
                .stored()
                .map(|(id, payload)| Message { id, payload: payload.clone() })
                .collect(),
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
        for m in received {
            self.store(m.id, m.payload);
        }
        let own_max = self
            .payloads
            .get(me.index())
            .into_iter()
            .flat_map(SeqMap::iter)
            .map(|(seq, _)| seq)
            .chain(ordered.filter(|id| id.origin == me).map(|id| id.seq))
            .max();
        if let Some(max) = own_max {
            self.next_seq = self.next_seq.max(max + 1);
        }
    }

    /// Payload and log sizes, with the engine's own index entries added to
    /// the delivered set's runs.
    pub(crate) fn retained(&self, ordering_index: usize) -> EngineRetention {
        EngineRetention {
            payloads: self.payloads.iter().map(SeqMap::len).sum(),
            log: self.log.len(),
            index: self.delivered.runs() + ordering_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{EngineCtx, OrderDomain};
    use crate::idset::MAX_HOLE;
    use crate::msg::{EngineAction, Wire};
    use crate::{AtomicBroadcast, OptAbcast, OptAbcastConfig, Oracle, ScrambleConfig};
    use crate::{ScrambledAbcast, SeqAbcast};
    use otp_simnet::{SimDuration, SimRng};

    fn msg(origin: u16, seq: u64) -> Message<u32> {
        Message { id: MsgId::new(SiteId::new(origin), seq), payload: seq as u32 }
    }

    fn strictly_increasing(ids: &[MsgId]) -> bool {
        ids.windows(2).all(|w| w[0] < w[1])
    }

    /// A donor's store, listed out of order, with ids of this site (2).
    fn donor_store() -> Vec<Message<u32>> {
        [(1, 4), (2, 1), (0, 1), (1, 0), (2, 0), (0, 0), (1, 2)].map(|(o, s)| msg(o, s)).to_vec()
    }

    /// Arrivals after the restore, out of order: a hole, a key past the
    /// hole limit, and ones below both.
    fn late_arrivals() -> Vec<Message<u32>> {
        [(1, 7), (0, 3), (1, 3), (0, MAX_HOLE + 9), (0, 2), (1, 1), (1, 6)]
            .map(|(o, s)| msg(o, s))
            .to_vec()
    }

    /// The store lists ids in id order by its structure alone: restored
    /// from a shuffled store, moved across an incarnation jump and fed
    /// arrivals out of order, `stored_where`, `undelivered` and the
    /// snapshot's `received` are strictly increasing.
    #[test]
    fn store_order_is_id_order_after_restore_jump_and_reordering() {
        let me = SiteId::new(2);
        let mut dis = Dissemination::new();
        let log = vec![MsgId::new(SiteId::new(0), 0), MsgId::new(SiteId::new(1), 0)];
        dis.restore(me, donor_store(), log.clone(), std::iter::empty());
        dis.bump_incarnation();
        let own = dis.next_id(me);
        assert!(own.seq > RECOVERY_SEQ_GAP, "{own}");
        for m in late_arrivals().into_iter().chain([Message { id: own, payload: 0 }]) {
            assert_eq!(dis.accept(me, &m), Some(true), "{}", m.id);
        }
        assert_eq!(dis.accept(me, &late_arrivals()[0]), None, "a repeat is a duplicate");
        let stored = dis.stored_where(|_| true);
        assert_eq!(stored.len(), donor_store().len() + late_arrivals().len() + 1);
        assert_eq!(dis.retained(0).payloads, stored.len());
        assert!(strictly_increasing(&stored), "{stored:?}");
        let undelivered = dis.undelivered();
        assert!(strictly_increasing(&undelivered), "{undelivered:?}");
        assert_eq!(
            undelivered,
            stored.iter().copied().filter(|id| !log.contains(id)).collect::<Vec<_>>()
        );
        let received: Vec<MsgId> = dis.snapshot().received.iter().map(|m| m.id).collect();
        assert_eq!(received, stored);
    }

    /// The same over all three engines through their public surface: an
    /// endpoint restored at site 2, across an incarnation jump, then fed
    /// out-of-order data (each engine reads its own wire kind) and its own
    /// next message. The restore's re-Opt-deliveries and the snapshot's
    /// `received` are strictly increasing.
    #[test]
    fn every_engine_snapshots_in_id_order_after_restore_jump_and_reordering() {
        let dom = OrderDomain::global(3);
        let me = SiteId::new(2);
        let ctx = EngineCtx::new(me, &dom);
        let mut snap = EngineSnapshot::empty();
        snap.received = donor_store();
        let opt_cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
        let scramble = ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let engines: [Box<dyn AtomicBroadcast<u32>>; 3] = [
            Box::new(OptAbcast::new(opt_cfg)),
            Box::new(SeqAbcast::new(SiteId::new(0))),
            Box::new(ScrambledAbcast::new(scramble, Oracle::new(), SimRng::seed_from(3))),
        ];
        for mut engine in engines {
            let restored = engine.restore(&ctx, snap.clone());
            let again: Vec<MsgId> = restored
                .iter()
                .filter_map(|a| match a {
                    EngineAction::OptDeliver(m) => Some(m.id),
                    _ => None,
                })
                .collect();
            assert!(strictly_increasing(&again), "{engine:?}: {again:?}");
            engine.bump_incarnation();
            let (own, sent) = engine.broadcast(&ctx, 0);
            assert!(own.seq > RECOVERY_SEQ_GAP, "{engine:?}: {own}");
            let mut wires: Vec<(SiteId, Wire<u32>)> = late_arrivals()
                .into_iter()
                .enumerate()
                .flat_map(|(k, m)| {
                    let from = m.id.origin;
                    let oracle = Wire::OracleData { msg: m.clone(), oracle_seq: 100 + k as u64 };
                    [(from, Wire::Data(m)), (from, oracle)]
                })
                .collect();
            wires.extend(sent.into_iter().filter_map(|a| match a {
                EngineAction::Multicast(w) => Some((me, w)),
                _ => None,
            }));
            engine.on_receive_batch(&ctx, wires);
            let received: Vec<MsgId> = engine.snapshot().received.iter().map(|m| m.id).collect();
            assert!(strictly_increasing(&received), "{engine:?}: {received:?}");
            assert_eq!(received.len(), donor_store().len() + late_arrivals().len() + 1);
        }
    }
}
