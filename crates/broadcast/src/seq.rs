//! Fixed-sequencer total-order broadcast — the conservative baseline.
//!
//! A designated site (the *sequencer*) assigns global sequence numbers to
//! data messages; every site TO-delivers in sequence-number order. This is
//! the classic low-latency total-order protocol on a LAN and serves as the
//! paper's "conservative" comparison point: there is no optimism — the
//! definitive order is simply whatever the sequencer says, and it costs one
//! extra message hop (data → sequencer → order multicast) before anything
//! can be TO-delivered.
//!
//! The engine still emits `Opt-deliver` in receive order, so the OTP
//! replica can run over it unchanged; a conservative replica just ignores
//! the tentative deliveries.
//!
//! Failure handling: the sequencer is a single point of ordering, recovered
//! through the view-change protocol of `otp-view` (see DESIGN.md §7). Every
//! order assignment is tagged with the installed view's epoch
//! ([`Wire::SeqOrderBatch`]); when a view change re-admits the sequencer
//! site, survivors fence out assignment frames from the dead incarnation
//! and the restored incarnation — rebuilt from the *union* of all
//! survivors' order maps — renumbers what no survivor knew and re-announces
//! everything else under the new epoch.

use crate::dissemination::Dissemination;
use crate::domain::EngineCtx;
use crate::idset::IdSet;
use crate::msg::{EngineAction, Message, MsgId, TimerToken, Wire};
use crate::traits::{AtomicBroadcast, EngineCounters, EngineRetention, EngineSnapshot};
use otp_simnet::{SimDuration, SiteId};
use otp_telemetry::Counter;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Marker in [`TimerToken::round`] identifying the order-batch flush timer.
const SEQ_BATCH_ROUND: u64 = u64::MAX - 2;

/// The fixed-sequencer endpoint at one site.
#[derive(Debug)]
pub struct SeqAbcast<P> {
    sequencer: SiteId,
    /// Payloads, definitive log and own-id cursor (DESIGN.md §18).
    dis: Dissemination<P>,
    /// Installed view epoch: stamps every order assignment this incarnation
    /// multicasts (see [`Wire::SeqOrderBatch`]).
    epoch: u64,
    /// Minimum acceptable assignment epoch. Raised when a view change
    /// recovers the sequencer site: assignments tagged below the fence come
    /// from the dead incarnation and are rejected (counted, not applied) —
    /// the restored incarnation re-announces every live assignment under
    /// the new epoch, so nothing legitimate is lost.
    order_fence: u64,
    /// Dead-epoch order frames rejected so far. A detached counter until
    /// [`AtomicBroadcast::attach_counters`] hands over the driver's
    /// registry handle.
    stale_rejects: Arc<Counter>,
    /// Sequencer-only: accumulation window for order assignments. Zero
    /// multicasts the assignments of each receive call at its end; a
    /// positive `d` holds assignments for `d` and flushes them as one
    /// [`Wire::SeqOrderBatch`] frame — the Slim-ABC amortization.
    order_batch_delay: SimDuration,
    /// Sequencer-only: next global sequence number to hand out.
    next_global: u64,
    /// Sequencer-only: ids already numbered (idempotence on duplicates).
    numbered: IdSet,
    /// Sequencer-only: assignments made but not yet multicast.
    pending_order: Vec<(u64, MsgId)>,
    /// Sequencer-only: whether a flush timer is armed.
    batch_timer_armed: bool,
    /// Sequencer-only: floor of the post-restore re-announce. Set by
    /// [`SeqAbcast::restore`] to the minimum delivered length across every
    /// snapshot folded into the transfer — all live members have applied
    /// everything below it, so [`SeqAbcast::finish_restore`] re-announces
    /// only the suffix (delta re-announce).
    reannounce_floor: u64,
    /// Order assignments not yet delivered: every key is at or above the
    /// log's length. A delivered position `p` holds the log's entry `p`,
    /// so the log's length is the next position to deliver.
    order: BTreeMap<u64, MsgId>,
}

impl<P: Clone + std::fmt::Debug> SeqAbcast<P> {
    /// Creates an endpoint with the given sequencer site (conventionally
    /// the domain's first member). Which site this endpoint lives on
    /// arrives per call via [`EngineCtx`]. Order assignments are
    /// multicast immediately, one frame per message.
    pub fn new(sequencer: SiteId) -> Self {
        SeqAbcast {
            sequencer,
            dis: Dissemination::new(),
            epoch: 0,
            order_fence: 0,
            stale_rejects: Arc::new(Counter::new()),
            order_batch_delay: SimDuration::ZERO,
            next_global: 0,
            numbered: IdSet::new(),
            pending_order: Vec::new(),
            batch_timer_armed: false,
            reannounce_floor: 0,
            order: BTreeMap::new(),
        }
    }

    /// Enables order batching: the sequencer accumulates assignments for
    /// `delay` and flushes them as one [`Wire::SeqOrderBatch`] multicast,
    /// trading a bounded confirmation-latency increase for far fewer
    /// ordering frames on the medium. Opt-delivery latency is unaffected.
    /// A zero `delay` keeps the unbatched sequencer.
    pub fn with_order_batching(mut self, delay: SimDuration) -> Self {
        self.order_batch_delay = delay;
        self
    }

    /// Next sequence number to TO-deliver.
    fn deliver_next(&self) -> u64 {
        self.dis.definitive_log().len() as u64
    }

    /// Every assignment known at position `from` or above, delivered or
    /// not, in position order: the log's positions, then the undelivered
    /// map.
    fn assignments(&self, from: u64) -> impl Iterator<Item = (u64, MsgId)> + '_ {
        let log = self.dis.definitive_log();
        let start = usize::try_from(from).map_or(log.len(), |f| f.min(log.len()));
        let delivered = log[start..].iter().zip(start as u64..);
        let undelivered = self.order.range(from..).map(|(seqno, id)| (*seqno, *id));
        delivered.map(|(id, seqno)| (seqno, *id)).chain(undelivered)
    }

    /// Appends one `ToDeliver` batch with everything that just became
    /// definitive (order assignment known, data present, in gap-free
    /// sequence order).
    fn try_deliver(&mut self, out: &mut Vec<EngineAction<P>>) {
        let mut delivered: Vec<MsgId> = Vec::new();
        loop {
            let next = self.deliver_next();
            let Some(entry) = self.order.first_entry() else { break };
            if *entry.key() != next || self.dis.payload(*entry.get()).is_none() {
                break; // a gap, or data lagging behind its order assignment
            }
            let id = entry.remove();
            self.dis.deliver(id);
            delivered.push(id);
        }
        if !delivered.is_empty() {
            out.push(EngineAction::ToDeliver(delivered));
        }
    }

    /// Multicasts every pending order assignment: contiguous runs coalesce
    /// into one [`Wire::SeqOrderBatch`] each. Runs can be non-contiguous
    /// when a replayed pre-crash assignment bumped `next_global` in the
    /// middle of a window.
    fn flush_pending(&mut self, out: &mut Vec<EngineAction<P>>) {
        let pending = std::mem::take(&mut self.pending_order);
        for run in pending.chunk_by(|a, b| b.0 == a.0 + 1) {
            out.push(EngineAction::Multicast(Wire::SeqOrderBatch {
                epoch: self.epoch,
                start_seqno: run[0].0,
                ids: run.iter().map(|(_, id)| *id).collect(),
            }));
        }
    }

    /// Ingests one wire without flushing pending assignments or running the
    /// delivery loop — the receive path does both exactly once per call,
    /// however many wires arrived.
    fn ingest(&mut self, me: SiteId, wire: Wire<P>, out: &mut Vec<EngineAction<P>>) {
        match wire {
            Wire::Data(msg) => self.ingest_data(me, msg, out),
            Wire::SeqOrderBatch { epoch, start_seqno, ids } => {
                for (k, id) in ids.into_iter().enumerate() {
                    self.ingest_order(me, epoch, start_seqno + k as u64, id);
                }
            }
            Wire::Consensus { .. }
            | Wire::DecideBatch { .. }
            | Wire::OracleData { .. }
            | Wire::ViewChange { .. }
            | Wire::StateSummary { .. }
            | Wire::ViewFloor { .. }
            | Wire::StateDigest { .. } => {}
        }
    }

    fn ingest_data(&mut self, me: SiteId, msg: Message<P>, out: &mut Vec<EngineAction<P>>) {
        let Some(fresh) = self.dis.accept(me, &msg) else {
            return; // duplicate
        };
        let id = msg.id;
        if fresh {
            out.push(EngineAction::OptDeliver(msg));
        }
        if me == self.sequencer && self.numbered.insert(id) {
            let seqno = self.next_global;
            self.next_global += 1;
            // The assignment is definitive the moment it is made: record it
            // locally so the sequencer's own delivery (and its snapshots)
            // never depend on the multicast looping back.
            self.order.entry(seqno).or_insert(id);
            self.pending_order.push((seqno, id));
            if self.order_batch_delay > SimDuration::ZERO && !self.batch_timer_armed {
                self.batch_timer_armed = true;
                out.push(EngineAction::SetTimer {
                    token: TimerToken { instance: 0, round: SEQ_BATCH_ROUND },
                    delay: self.order_batch_delay,
                });
            }
        }
    }

    fn ingest_order(&mut self, me: SiteId, epoch: u64, seqno: u64, id: MsgId) {
        // A frame tagged below the fence comes from a sequencer incarnation
        // a view change already declared dead: its assignment may have been
        // renumbered by the restored incarnation, so applying it could put
        // two different messages at one position. Reject it loudly (the
        // counter reaches the run-stats digest) — every assignment that is
        // still live was re-announced under the new epoch.
        if epoch < self.order_fence {
            self.stale_rejects.incr();
            return;
        }
        self.epoch = self.epoch.max(epoch);
        if seqno >= self.deliver_next() {
            self.order.entry(seqno).or_insert(id);
        }
        // A sequencer must never reassign a sequence number it has seen
        // assigned — a restored sequencer learns its own pre-crash
        // assignments through replayed order wires.
        if me == self.sequencer {
            self.next_global = self.next_global.max(seqno + 1);
        }
    }
}

impl<P: Clone + std::fmt::Debug> AtomicBroadcast<P> for SeqAbcast<P> {
    fn broadcast(&mut self, ctx: &EngineCtx<'_>, payload: P) -> (MsgId, Vec<EngineAction<P>>) {
        self.epoch = self.epoch.max(ctx.epoch);
        let id = self.dis.next_id(ctx.me);
        let msg = Message { id, payload };
        (id, vec![EngineAction::Multicast(Wire::Data(msg))])
    }

    fn on_receive_batch(
        &mut self,
        ctx: &EngineCtx<'_>,
        wires: Vec<(SiteId, Wire<P>)>,
    ) -> Vec<EngineAction<P>> {
        self.epoch = self.epoch.max(ctx.epoch);
        let mut out = Vec::new();
        for (_, wire) in wires {
            self.ingest(ctx.me, wire, &mut out);
        }
        // One flush and one delivery sweep for the whole tick: several data
        // frames arriving together cost one ordering frame, not one each.
        if self.order_batch_delay == SimDuration::ZERO {
            self.flush_pending(&mut out);
        }
        self.try_deliver(&mut out);
        out
    }

    fn on_timer(&mut self, ctx: &EngineCtx<'_>, token: TimerToken) -> Vec<EngineAction<P>> {
        self.epoch = self.epoch.max(ctx.epoch);
        if token.round != SEQ_BATCH_ROUND {
            return Vec::new();
        }
        self.batch_timer_armed = false;
        let mut out = Vec::new();
        self.flush_pending(&mut out);
        out
    }

    fn definitive_log(&self) -> &[MsgId] {
        self.dis.definitive_log()
    }

    fn payload(&self, id: MsgId) -> Option<&P> {
        self.dis.payload(id)
    }

    fn snapshot(&self) -> EngineSnapshot<P> {
        EngineSnapshot {
            // Every sequence assignment seen so far, delivered or not — a
            // restored sequencer must never reassign one of them.
            order_tags: self.assignments(0).map(|(seqno, id)| (id, seqno)).collect(),
            epoch: self.epoch,
            order_fence: self.order_fence,
            ..self.dis.snapshot()
        }
    }

    fn restore(
        &mut self,
        ctx: &EngineCtx<'_>,
        snapshot: EngineSnapshot<P>,
    ) -> Vec<EngineAction<P>> {
        self.epoch = self.epoch.max(snapshot.epoch).max(ctx.epoch);
        self.order_fence = self.order_fence.max(snapshot.order_fence);
        // Every tag counts for the own-id cursor, delivered or not: a tag
        // below the log's end names what the log holds there.
        let tagged = snapshot.order_tags.iter().map(|(id, _)| *id);
        self.dis.restore(ctx.me, snapshot.received, snapshot.definitive_log, tagged);
        let deliver_next = self.deliver_next();
        // The delta re-announce floor: every member whose state is folded
        // into this snapshot has delivered (hence applied) all assignments
        // below the minimum delivered length, so the repair pass need not
        // re-teach them. Clamped by the base log length — a floor can never
        // exceed what the base itself delivered.
        self.reannounce_floor = snapshot.min_delivered.min(deliver_next);
        // Undelivered assignments the donor knew about (e.g. an order wire
        // that outran its data) survive the transfer, and the sequencing
        // cursor moves past everything ever assigned — reassigning a seqno
        // would make sites TO-deliver different messages at one position.
        // A tag below the log's end names what the log holds there.
        self.next_global = deliver_next;
        for (id, seqno) in snapshot.order_tags {
            if seqno >= deliver_next {
                self.order.insert(seqno, id);
            }
            self.next_global = self.next_global.max(seqno + 1);
        }
        // Received-but-undelivered messages are tentative again: re-emit
        // their Opt-deliveries so the application can rebuild its queues,
        // then whatever is sequenced and ready.
        let mut actions: Vec<EngineAction<P>> = self
            .dis
            .undelivered()
            .into_iter()
            .map(|id| EngineAction::OptDeliver(self.dis.message(id)))
            .collect();
        if ctx.me == self.sequencer {
            self.numbered = self.assignments(0).map(|(_, id)| id).collect();
        }
        self.try_deliver(&mut actions);
        actions
    }

    /// A restored *sequencer* must close the assignment gap itself: with
    /// order batching, assignments accumulated in an unflushed window die
    /// with the crash — no surviving wire can re-teach them, so any
    /// received-but-unassigned message would stall at every site forever.
    /// Re-number them deterministically, then re-announce the order map's
    /// undelivered suffix under the current epoch and multicast at once.
    ///
    /// The view-change driver calls this after the union-of-survivors
    /// restore: assignments in any survivor's digest are already in
    /// `order` and are not renumbered, while assignments that existed only
    /// in hold buffers or in flight are renumbered — safe, because every
    /// view member fenced the dead epoch at the announcement, so no held
    /// or late copy of those assignments can ever be applied anywhere.
    /// The re-announce then matters exactly for those fenced copies: a
    /// peer whose only copy of a live assignment gets rejected as
    /// dead-epoch traffic re-learns it under the new epoch, and
    /// `or_insert` makes the re-announce idempotent at peers that already
    /// have it.
    ///
    /// The re-announce is a **delta**: it starts at the minimum delivered
    /// length across every snapshot folded into the restore
    /// (`reannounce_floor`). An assignment below the floor was delivered —
    /// hence applied — at every live member, so re-teaching it could only
    /// ever be a redundant `or_insert`; an assignment at or above the
    /// floor is undelivered at *some* member, which is exactly the case
    /// where a fenced held copy can be that member's only other source.
    /// This bounds the repair frame by the in-flight window instead of the
    /// whole history.
    fn finish_restore(&mut self, ctx: &EngineCtx<'_>) -> Vec<EngineAction<P>> {
        let mut actions = Vec::new();
        if ctx.me != self.sequencer {
            return actions;
        }
        self.numbered = self.assignments(0).map(|(_, id)| id).collect();
        for id in self.dis.stored_where(|id| !self.numbered.contains(id)) {
            let seqno = self.next_global;
            self.next_global += 1;
            self.numbered.insert(id);
            self.order.insert(seqno, id);
        }
        self.pending_order = self.assignments(self.reannounce_floor).collect();
        self.flush_pending(&mut actions);
        self.try_deliver(&mut actions);
        actions
    }

    fn install_view(&mut self, epoch: u64, fence_orders: bool) {
        self.epoch = self.epoch.max(epoch);
        if fence_orders {
            self.order_fence = self.order_fence.max(epoch);
        }
    }

    fn bump_incarnation(&mut self) {
        self.dis.bump_incarnation();
    }

    fn retained(&self) -> EngineRetention {
        self.dis.retained(self.numbered.runs() + self.order.len())
    }

    fn attach_counters(&mut self, counters: EngineCounters) {
        self.stale_rejects = counters.stale_reject;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::OrderDomain;
    use crate::msg::RECOVERY_SEQ_GAP;

    fn dom4() -> OrderDomain {
        OrderDomain::global(4)
    }

    /// The assignment of `id` to position `seqno`, tagged `epoch`.
    fn order(epoch: u64, seqno: u64, id: MsgId) -> Wire<u32> {
        Wire::SeqOrderBatch { epoch, start_seqno: seqno, ids: vec![id] }
    }

    fn engines(n: usize) -> Vec<SeqAbcast<u32>> {
        (0..n).map(|_| SeqAbcast::new(SiteId::new(0))).collect()
    }

    fn pump(engines: &mut [SeqAbcast<u32>], mut wires: Vec<(SiteId, Option<SiteId>, Wire<u32>)>) {
        let n = engines.len();
        let dom = OrderDomain::global(n);
        let mut guard = 0;
        while !wires.is_empty() {
            guard += 1;
            assert!(guard < 100_000, "pump did not quiesce");
            let (from, to, wire) = wires.remove(0);
            let targets: Vec<SiteId> = match to {
                Some(t) => vec![t],
                None => SiteId::all(n).collect(),
            };
            for t in targets {
                let ctx = EngineCtx::new(t, &dom);
                for a in engines[t.index()].on_receive(&ctx, from, wire.clone()) {
                    match a {
                        EngineAction::Multicast(w) => wires.push((t, None, w)),
                        EngineAction::Send(dst, w) => wires.push((t, Some(dst), w)),
                        _ => {}
                    }
                }
            }
        }
    }

    fn bcast(
        dom: &OrderDomain,
        e: &mut SeqAbcast<u32>,
        me: SiteId,
        p: u32,
    ) -> Vec<(SiteId, Option<SiteId>, Wire<u32>)> {
        let (_, actions) = e.broadcast(&EngineCtx::new(me, dom), p);
        actions
            .into_iter()
            .filter_map(|a| match a {
                EngineAction::Multicast(w) => Some((me, None, w)),
                EngineAction::Send(t, w) => Some((me, Some(t), w)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequencer_orders_everything() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let mut wires = Vec::new();
        for (i, e) in es.iter_mut().enumerate() {
            for k in 0..4u32 {
                wires.extend(bcast(&dom, e, SiteId::new(i as u16), k));
            }
        }
        pump(&mut es, wires);
        let log0 = es[0].definitive_log().to_vec();
        assert_eq!(log0.len(), 12);
        for e in &es {
            assert_eq!(e.definitive_log(), log0.as_slice());
        }
    }

    #[test]
    fn order_before_data_stalls_until_data() {
        let dom = dom4();
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let mut e: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let id = MsgId::new(SiteId::new(2), 0);
        // Order assignment arrives first (data raced behind it).
        let a1 = e.on_receive(&c1, SiteId::new(0), order(0, 0, id));
        assert!(a1.is_empty());
        // Data arrives: opt-deliver then to-deliver, in that order.
        let a2 = e.on_receive(&c1, SiteId::new(2), Wire::Data(Message { id, payload: 9 }));
        let kinds: Vec<&str> = a2
            .iter()
            .map(|a| match a {
                EngineAction::OptDeliver(_) => "opt",
                EngineAction::ToDeliver(_) => "to",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["opt", "to"]);
    }

    #[test]
    fn gaps_block_subsequent_deliveries() {
        let dom = dom4();
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let mut e: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let id0 = MsgId::new(SiteId::new(2), 0);
        let id1 = MsgId::new(SiteId::new(2), 1);
        e.on_receive(&c1, SiteId::new(2), Wire::Data(Message { id: id1, payload: 1 }));
        // seqno 1 known, seqno 0 missing → nothing TO-delivered.
        let a = e.on_receive(&c1, SiteId::new(0), order(0, 1, id1));
        assert!(a.is_empty());
        e.on_receive(&c1, SiteId::new(2), Wire::Data(Message { id: id0, payload: 0 }));
        let a = e.on_receive(&c1, SiteId::new(0), order(0, 0, id0));
        // Both deliver now, in order — and in ONE batch (they became
        // definitive at the same instant).
        let tos: Vec<Vec<MsgId>> = a
            .iter()
            .filter_map(|x| match x {
                EngineAction::ToDeliver(ids) => Some(ids.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(tos, vec![vec![id0, id1]]);
    }

    #[test]
    fn duplicate_data_not_renumbered_by_sequencer() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut e: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let id = MsgId::new(SiteId::new(1), 0);
        let m = Message { id, payload: 4 };
        let a1 = e.on_receive(&c0, SiteId::new(1), Wire::Data(m.clone()));
        let orders1 = a1
            .iter()
            .filter(|a| matches!(a, EngineAction::Multicast(Wire::SeqOrderBatch { .. })))
            .count();
        assert_eq!(orders1, 1);
        let a2 = e.on_receive(&c0, SiteId::new(1), Wire::Data(m));
        assert!(a2.is_empty());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut es = engines(2);
        let dom = OrderDomain::global(2);
        let mut wires = Vec::new();
        for k in 0..5u32 {
            wires.extend(bcast(&dom, &mut es[1], SiteId::new(1), k));
        }
        pump(&mut es, wires);
        let snap = es[0].snapshot();
        let mut fresh: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        fresh.restore(&EngineCtx::new(SiteId::new(1), &dom), snap);
        assert_eq!(fresh.definitive_log(), es[0].definitive_log());
        es[1] = fresh;
        let wires = bcast(&dom, &mut es[1], SiteId::new(1), 100);
        pump(&mut es, wires);
        assert_eq!(es[0].definitive_log().len(), 6);
        assert_eq!(es[0].definitive_log(), es[1].definitive_log());
    }

    /// A restored sequencer must not reassign a sequence number the donor
    /// had seen assigned but not yet delivered (an order wire can outrun
    /// its data): reassignment would make sites TO-deliver different
    /// messages at the same position.
    #[test]
    fn restored_sequencer_skips_donor_known_undelivered_seqnos() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let id_m = MsgId::new(SiteId::new(0), 0);
        // Donor (site 1) saw the assignment 0 → M but never M's data, so its
        // definitive log is empty while order[0] is taken.
        let mut donor: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        donor.on_receive(&c1, SiteId::new(0), order(0, 0, id_m));
        assert!(donor.definitive_log().is_empty());
        // The sequencer (site 0) recovers from that donor and numbers a
        // fresh message: it must pick seqno 1, not 0.
        let mut seq: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        seq.restore(&c0, donor.snapshot());
        let (_, actions) = seq.broadcast(&c0, 42);
        let data = actions
            .iter()
            .find_map(|a| match a {
                EngineAction::Multicast(Wire::Data(m)) => Some(m.clone()),
                _ => None,
            })
            .expect("broadcast multicasts data");
        let assigned = seq
            .on_receive(&c0, SiteId::new(0), Wire::Data(data))
            .iter()
            .find_map(|a| match a {
                EngineAction::Multicast(Wire::SeqOrderBatch { start_seqno, .. }) => {
                    Some(*start_seqno)
                }
                _ => None,
            })
            .expect("sequencer numbers the new message");
        assert_eq!(assigned, 1, "seqno 0 is already taken by the undelivered assignment");
    }

    /// Order wires emitted per engine action list, flattened over batches.
    fn order_assignments(actions: &[EngineAction<u32>]) -> Vec<(u64, MsgId)> {
        let mut out = Vec::new();
        for a in actions {
            if let EngineAction::Multicast(Wire::SeqOrderBatch { start_seqno, ids, .. }) = a {
                for (k, id) in ids.iter().enumerate() {
                    out.push((start_seqno + k as u64, *id));
                }
            }
        }
        out
    }

    /// A zero window is the unbatched sequencer: each receive call
    /// multicasts its own assignments at its end and arms no flush timer.
    #[test]
    fn a_zero_window_is_the_unbatched_sequencer() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut zero: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::ZERO);
        let mut plain: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        for k in 0..3u64 {
            let id = MsgId::new(SiteId::new(1), k);
            let wire = || Wire::Data(Message { id, payload: k as u32 });
            let a = zero.on_receive(&c0, SiteId::new(1), wire());
            assert!(!a.iter().any(|x| matches!(x, EngineAction::SetTimer { .. })), "{a:?}");
            assert_eq!(order_assignments(&a), vec![(k, id)]);
            let b = plain.on_receive(&c0, SiteId::new(1), wire());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn order_batching_coalesces_assignments_into_one_wire() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::from_micros(200));
        let ids: Vec<MsgId> = (0..3).map(|k| MsgId::new(SiteId::new(1), k)).collect();
        let mut timers = 0;
        for (k, id) in ids.iter().enumerate() {
            let a = seq.on_receive(
                &c0,
                SiteId::new(1),
                Wire::Data(Message { id: *id, payload: k as u32 }),
            );
            assert!(order_assignments(&a).is_empty(), "assignments held back: {a:?}");
            timers += a.iter().filter(|x| matches!(x, EngineAction::SetTimer { .. })).count();
        }
        assert_eq!(timers, 1, "one flush timer per window");
        // The flush timer fires: one SeqOrderBatch carrying all three.
        let a = seq.on_timer(&c0, TimerToken { instance: 0, round: u64::MAX - 2 });
        let batches = a
            .iter()
            .filter(|x| matches!(x, EngineAction::Multicast(Wire::SeqOrderBatch { .. })))
            .count();
        assert_eq!(batches, 1, "{a:?}");
        assert_eq!(order_assignments(&a), vec![(0, ids[0]), (1, ids[1]), (2, ids[2])]);
        // A receiver applies the batch and TO-delivers everything at once.
        let mut peer: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        for (k, id) in ids.iter().enumerate() {
            peer.on_receive(
                &c1,
                SiteId::new(1),
                Wire::Data(Message { id: *id, payload: k as u32 }),
            );
        }
        let a = peer.on_receive(
            &c1,
            SiteId::new(0),
            Wire::SeqOrderBatch { epoch: 0, start_seqno: 0, ids: ids.clone() },
        );
        let tos: Vec<Vec<MsgId>> = a
            .iter()
            .filter_map(|x| match x {
                EngineAction::ToDeliver(d) => Some(d.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(tos, vec![ids.clone()]);
        assert_eq!(peer.definitive_log(), ids.as_slice());
    }

    #[test]
    fn batched_sequencer_delivers_locally_without_loopback() {
        // The sequencer's own assignment is definitive immediately: it can
        // TO-deliver before the order multicast loops back.
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::from_micros(200));
        let id = MsgId::new(SiteId::new(1), 0);
        let a = seq.on_receive(&c0, SiteId::new(1), Wire::Data(Message { id, payload: 1 }));
        assert!(
            a.iter().any(|x| matches!(x, EngineAction::ToDeliver(d) if d.as_slice() == [id])),
            "{a:?}"
        );
    }

    #[test]
    fn flush_splits_non_contiguous_runs() {
        // A replayed pre-crash assignment bumps next_global mid-window: the
        // flush must not pretend the runs are contiguous.
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::from_millis(1));
        let a0 = MsgId::new(SiteId::new(1), 0);
        let b0 = MsgId::new(SiteId::new(2), 0);
        seq.on_receive(&c0, SiteId::new(1), Wire::Data(Message { id: a0, payload: 1 }));
        // Stray assignment from a previous incarnation at seqno 5.
        seq.on_receive(&c0, SiteId::new(0), order(0, 5, MsgId::new(SiteId::new(3), 9)));
        seq.on_receive(&c0, SiteId::new(2), Wire::Data(Message { id: b0, payload: 2 }));
        let a = seq.on_timer(&c0, TimerToken { instance: 0, round: u64::MAX - 2 });
        assert_eq!(order_assignments(&a), vec![(0, a0), (6, b0)]);
        // Two separate wires, one assignment each.
        let singles = a
            .iter()
            .filter(|x| {
                matches!(x, EngineAction::Multicast(Wire::SeqOrderBatch { ids, .. }) if ids.len() == 1)
            })
            .count();
        assert_eq!(singles, 2, "{a:?}");
    }

    #[test]
    fn restored_sequencer_renumbers_unflushed_window() {
        // The sequencer crashes with assignments still in its accumulation
        // window. The donor knows the data but no assignment — the restored
        // sequencer must renumber, or the messages stall cluster-wide.
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let id = MsgId::new(SiteId::new(1), 0);
        let mut donor: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        donor.on_receive(&c1, SiteId::new(1), Wire::Data(Message { id, payload: 7 }));
        assert!(donor.definitive_log().is_empty(), "no assignment ever arrived");
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::from_millis(1));
        let restore_actions = seq.restore(&c0, donor.snapshot());
        assert!(
            order_assignments(&restore_actions).is_empty(),
            "renumbering waits until the driver has re-fed surviving wires: {restore_actions:?}"
        );
        let actions = seq.finish_restore(&c0);
        assert_eq!(order_assignments(&actions), vec![(0, id)], "{actions:?}");
        assert!(
            actions.iter().any(|x| matches!(x, EngineAction::ToDeliver(d) if d.as_slice() == [id])),
            "restored sequencer delivers what it renumbered: {actions:?}"
        );
        // The peer applies the fresh assignment and catches up.
        let a = donor.on_receive(&c1, SiteId::new(0), order(0, 0, id));
        assert!(a.iter().any(|x| matches!(x, EngineAction::ToDeliver(d) if d.as_slice() == [id])));
    }

    /// The two-phase restore exists so a flushed-then-held assignment is
    /// re-learned, not renumbered: a batch the crashed sequencer multicast
    /// into a partition hold comes back via the driver before
    /// `finish_restore`, which must then keep the original slot — the
    /// repair pass re-announces it (under the current epoch, for peers
    /// whose own held copies get epoch-fenced) but must not renumber it.
    #[test]
    fn finish_restore_keeps_retaught_assignments_in_their_slots() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let id = MsgId::new(SiteId::new(1), 0);
        let mut donor: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        donor.on_receive(&c1, SiteId::new(1), Wire::Data(Message { id, payload: 7 }));
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(SiteId::new(0)).with_order_batching(SimDuration::from_millis(1));
        seq.restore(&c0, donor.snapshot());
        // Driver re-teaches the crashed incarnation's held order wire…
        seq.on_receive(
            &c0,
            SiteId::new(0),
            Wire::SeqOrderBatch { epoch: 0, start_seqno: 0, ids: vec![id] },
        );
        // …so the repair pass has no gap to close: the re-announce carries
        // the original assignment, nothing is renumbered.
        let actions = seq.finish_restore(&c0);
        assert_eq!(order_assignments(&actions), vec![(0, id)], "{actions:?}");
        assert_eq!(seq.definitive_log(), [id], "delivered under the original seqno");
    }

    /// Delta re-announce: a restored sequencer announces only the order-map
    /// suffix past the survivors' *minimum* delivered length. Everything
    /// below the floor was delivered (hence applied) at every live member,
    /// so re-teaching it would be pure frame growth — with history, the
    /// old full re-announce grew without bound.
    #[test]
    fn finish_restore_re_announces_only_past_the_survivors_min_delivered() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let c2 = EngineCtx::new(SiteId::new(2), &dom);
        let ids: Vec<MsgId> = (0..4).map(|k| MsgId::new(SiteId::new(3), k)).collect();
        // Survivor A delivered all four...
        let mut a: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        for (k, id) in ids.iter().enumerate() {
            a.on_receive(&c1, SiteId::new(3), Wire::Data(Message { id: *id, payload: k as u32 }));
            a.on_receive(&c1, SiteId::new(0), order(0, k as u64, *id));
        }
        assert_eq!(a.definitive_log().len(), 4);
        // ...survivor B knows every assignment but only delivered two (the
        // data of the tail never reached it).
        let mut b: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        for (k, id) in ids.iter().enumerate() {
            if k < 2 {
                b.on_receive(
                    &c2,
                    SiteId::new(3),
                    Wire::Data(Message { id: *id, payload: k as u32 }),
                );
            }
            b.on_receive(&c2, SiteId::new(0), order(0, k as u64, *id));
        }
        assert_eq!(b.definitive_log().len(), 2);
        // Union-of-survivors transfer: base = the most advanced (A).
        let mut snap = a.snapshot();
        assert_eq!(snap.min_delivered, 4);
        snap.merge(b.snapshot());
        assert_eq!(snap.min_delivered, 2, "merge takes the minimum");
        let mut seq: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        seq.restore(&c0, snap);
        let actions = seq.finish_restore(&c0);
        assert_eq!(
            order_assignments(&actions),
            vec![(2, ids[2]), (3, ids[3])],
            "only the undelivered-somewhere suffix travels: {actions:?}"
        );
        // The delta is idempotent at the lagging peer and completes it.
        for (k, id) in ids.iter().enumerate().skip(2) {
            b.on_receive(&c2, SiteId::new(3), Wire::Data(Message { id: *id, payload: k as u32 }));
        }
        for a in &actions {
            if let EngineAction::Multicast(w) = a {
                b.on_receive(&c2, SiteId::new(0), w.clone());
            }
        }
        assert_eq!(b.definitive_log(), seq.definitive_log());
        assert_eq!(b.definitive_log().len(), 4);
    }

    /// Pins what a snapshot carries and what a restore derives from it:
    /// `order_tags` lists every assignment, delivered or not, in position
    /// order (a merge re-delivers a digest's tail through them), and the
    /// repair pass re-announces from the floor across the delivered and
    /// undelivered parts alike.
    #[test]
    fn snapshot_tags_and_re_announce_are_pinned() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let seq0 = SiteId::new(0);
        let id = |origin: u16, seq: u64| MsgId::new(SiteId::new(origin), seq);
        let (a, b, c, d, e) = (id(2, 0), id(3, 0), id(2, 1), id(3, 1), id(1, 0));
        let data = |m: MsgId| Wire::Data(Message { id: m, payload: m.seq as u32 });
        let ids = |snap: &EngineSnapshot<u32>| -> Vec<MsgId> {
            snap.received.iter().map(|m| m.id).collect()
        };
        // Order before data, a gap, then the data that fills it.
        let mut member: SeqAbcast<u32> = SeqAbcast::new(seq0);
        member.on_receive(&c1, seq0, order(0, 0, a));
        member.on_receive(
            &c1,
            seq0,
            Wire::SeqOrderBatch { epoch: 0, start_seqno: 1, ids: vec![b, c] },
        );
        member.on_receive(&c1, b.origin, data(b));
        assert!(member.definitive_log().is_empty(), "position 0 is open");
        member.on_receive(&c1, a.origin, data(a));
        assert!(member.on_receive(&c1, a.origin, data(a)).is_empty(), "a duplicate is silent");
        member.on_receive(&c1, seq0, order(0, 4, e));
        member.on_receive(&c1, d.origin, data(d));
        assert_eq!(member.definitive_log(), [a, b]);
        let mut snap = member.snapshot();
        assert_eq!(snap.order_tags, vec![(a, 0), (b, 1), (c, 2), (e, 4)]);
        assert_eq!(ids(&snap), vec![a, b, d]);
        // A lagging member sets the re-announce floor at 1.
        let mut lagging: SeqAbcast<u32> = SeqAbcast::new(seq0);
        lagging.on_receive(&c1, seq0, order(0, 0, a));
        lagging.on_receive(&c1, a.origin, data(a));
        snap.merge(lagging.snapshot());
        assert_eq!(snap.min_delivered, 1);
        let mut seq: SeqAbcast<u32> =
            SeqAbcast::new(seq0).with_order_batching(SimDuration::from_millis(1));
        let restored = seq.restore(&c0, snap);
        assert_eq!(restored, vec![EngineAction::OptDeliver(Message { id: d, payload: 1 })]);
        let finished = seq.finish_restore(&c0);
        assert_eq!(order_assignments(&finished), vec![(1, b), (2, c), (4, e), (5, d)]);
        assert_eq!(finished.len(), 2, "two contiguous runs: {finished:?}");
        let after = seq.snapshot();
        assert_eq!(after.order_tags, vec![(a, 0), (b, 1), (c, 2), (e, 4), (d, 5)]);
        assert_eq!(ids(&after), vec![a, b, d]);
        assert_eq!(after.definitive_log, [a, b]);
        // The last payload fills position 2; position 3 was never assigned.
        let delivered = seq.on_receive(&c0, c.origin, data(c));
        assert!(delivered.contains(&EngineAction::ToDeliver(vec![c])), "{delivered:?}");
        assert_eq!(seq.snapshot().order_tags, after.order_tags);
    }

    /// One id at two positions is a broken invariant, not a case to skip:
    /// every delivery appends to the log, whose length is the next
    /// position. (The single-donor restore that `otp-view`'s
    /// `union_recovery` tests replay produced exactly this.)
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds two positions")]
    fn one_id_at_two_positions_is_refused() {
        let dom = dom4();
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let mut e: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let id = MsgId::new(SiteId::new(2), 0);
        e.on_receive(&c1, SiteId::new(2), Wire::Data(Message { id, payload: 1 }));
        let twice = Wire::SeqOrderBatch { epoch: 0, start_seqno: 0, ids: vec![id, id] };
        e.on_receive(&c1, SiteId::new(0), twice);
    }

    /// The incarnation gap must be anchored at the highest own id *any*
    /// survivor reported — here one known only through an order tag, with
    /// a reported window wider than `RECOVERY_SEQ_GAP` itself (the
    /// overflow case: a relative jump from a stale cursor would land on
    /// ids the dead incarnation already used). The oracle engine's tags
    /// count the same way; its tag names a delivered position, because an
    /// undelivered one is re-armed from its payload.
    #[test]
    fn incarnation_gap_clears_order_tag_only_ids_beyond_the_gap() {
        use crate::scramble::{Oracle, ScrambleConfig, ScrambledAbcast};
        let dom = dom4();
        let me = SiteId::new(0);
        let c0 = EngineCtx::new(me, &dom);
        let huge = RECOVERY_SEQ_GAP * 3;
        let mut snap: EngineSnapshot<u32> = EngineSnapshot::empty();
        snap.order_tags = vec![(MsgId::new(me, huge), 7)];
        snap.min_delivered = 0;
        let mut delivered = EngineSnapshot::empty();
        delivered.order_tags = vec![(MsgId::new(me, huge), 0)];
        delivered.definitive_log = vec![MsgId::new(me, huge)];
        delivered.min_delivered = 1;
        let cfg = ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let oracle = ScrambledAbcast::new(cfg, Oracle::new(), otp_simnet::SimRng::seed_from(1));
        let inputs: [(Box<dyn AtomicBroadcast<u32>>, _); 2] =
            [(Box::new(SeqAbcast::new(SiteId::new(0))), snap), (Box::new(oracle), delivered)];
        for (mut engine, snap) in inputs {
            engine.restore(&c0, snap);
            engine.bump_incarnation();
            let (id, _) = engine.broadcast(&c0, 1);
            assert!(id.seq > huge, "{engine:?} must clear every reported id: {} <= {huge}", id.seq);
        }
    }

    /// Epoch fencing: after a view change fences the dead sequencer
    /// incarnation, its late assignment frames are rejected (and counted),
    /// while same-or-newer-epoch assignments are applied.
    #[test]
    fn order_fence_rejects_dead_epoch_assignments() {
        let dom = dom4();
        let c1 = EngineCtx::new(SiteId::new(1), &dom);
        let mut e: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let rejects = Arc::new(Counter::new());
        e.attach_counters(EngineCounters {
            stale_reject: Arc::clone(&rejects),
            ..Default::default()
        });
        let m_old = MsgId::new(SiteId::new(2), 0);
        let m_new = MsgId::new(SiteId::new(2), 1);
        e.install_view(1, true);
        // Late frame from the dead epoch-0 incarnation: rejected.
        e.on_receive(&c1, SiteId::new(0), order(0, 0, m_old));
        assert_eq!(rejects.get(), 1);
        // The restored incarnation's epoch-1 re-announce lands fine.
        e.on_receive(&c1, SiteId::new(0), order(1, 0, m_new));
        let a = e.on_receive(&c1, SiteId::new(2), Wire::Data(Message { id: m_new, payload: 9 }));
        assert!(
            a.iter().any(|x| matches!(x, EngineAction::ToDeliver(d) if d.as_slice() == [m_new])),
            "{a:?}"
        );
        assert_eq!(rejects.get(), 1, "accepted frames are not counted");
        // A batch from the dead epoch is fenced as a whole.
        e.on_receive(
            &c1,
            SiteId::new(0),
            Wire::SeqOrderBatch { epoch: 0, start_seqno: 1, ids: vec![m_old] },
        );
        assert_eq!(rejects.get(), 2);
    }

    /// An installed view stamps subsequent assignments with its epoch, and
    /// a snapshot carries both the epoch and the fence across a restore.
    #[test]
    fn installed_epoch_tags_assignments_and_survives_snapshots() {
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c2 = EngineCtx::new(SiteId::new(2), &dom);
        let mut seq: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        seq.install_view(3, true);
        let id = MsgId::new(SiteId::new(1), 0);
        let a = seq.on_receive(&c0, SiteId::new(1), Wire::Data(Message { id, payload: 1 }));
        let epochs: Vec<u64> = a
            .iter()
            .filter_map(|x| match x {
                EngineAction::Multicast(Wire::SeqOrderBatch { epoch, .. }) => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![3]);
        let snap = seq.snapshot();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.order_fence, 3);
        let mut fresh: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let rejects = Arc::new(Counter::new());
        fresh.attach_counters(EngineCounters {
            stale_reject: Arc::clone(&rejects),
            ..Default::default()
        });
        fresh.restore(&c2, snap);
        fresh.on_receive(&c2, SiteId::new(0), order(2, 9, id));
        assert_eq!(rejects.get(), 1, "fence survives the transfer");
    }

    #[test]
    fn batched_receive_coalesces_immediate_mode_orders() {
        // Two data frames landing in the same tick at an immediate-mode
        // sequencer cost ONE ordering wire, not two.
        let dom = dom4();
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut seq: SeqAbcast<u32> = SeqAbcast::new(SiteId::new(0));
        let a0 = MsgId::new(SiteId::new(1), 0);
        let a1 = MsgId::new(SiteId::new(1), 1);
        let actions = seq.on_receive_batch(
            &c0,
            vec![
                (SiteId::new(1), Wire::Data(Message { id: a0, payload: 1 })),
                (SiteId::new(1), Wire::Data(Message { id: a1, payload: 2 })),
            ],
        );
        let wires = actions.iter().filter(|x| matches!(x, EngineAction::Multicast(_))).count();
        assert_eq!(wires, 1, "{actions:?}");
        assert_eq!(order_assignments(&actions), vec![(0, a0), (1, a1)]);
    }
}
