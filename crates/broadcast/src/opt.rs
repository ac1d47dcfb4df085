//! Atomic broadcast with optimistic delivery (Pedone–Schiper style).
//!
//! This is the paper's communication primitive. Data messages are multicast
//! and **Opt-delivered the moment they arrive** — the receive order is the
//! tentative total order. Agreement on the *definitive* order runs in the
//! background as a sequence of consensus instances: instance `k` decides
//! the `k`-th batch of the definitive order, each site proposing its
//! currently received-but-undecided messages in receive order. Because LANs
//! deliver multicasts spontaneously ordered most of the time (Figure 1),
//! the decided batch usually equals the tentative order and the
//! confirmation arrives while the application is still busy processing —
//! the latency of ordering is hidden.
//!
//! ## Definitive delivery
//!
//! Decided batches are concatenated in instance order; within the
//! concatenation, already-delivered ids are skipped (a message can appear
//! in two batches when a site's proposal raced a decision) and delivery
//! *stalls* on an id whose data has not arrived yet (TO-deliver must follow
//! Opt-deliver — the Local Order property).
//!
//! ## Liveness
//!
//! A site initiates instance `k+1` as soon as instance `k` has decided and
//! it still has undecided messages; a site joins any instance it first
//! hears about from others (with its own undecided list as its proposal,
//! possibly empty). Ties between equally-fresh consensus estimates are
//! broken by `Vec<MsgId>`'s lexicographic order, which prefers non-empty
//! batches — so progress is made as long as some site has undecided
//! messages.

use crate::domain::EngineCtx;
use crate::msg::{EngineAction, Message, MsgId, OrderBatch, TimerToken, Wire, RECOVERY_SEQ_GAP};
use crate::traits::{AtomicBroadcast, EngineSnapshot};
use otp_consensus::{Action as CAction, ConsensusMsg, Instance, InstanceConfig};
use otp_simnet::{SimDuration, SiteId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Marker in [`TimerToken::round`] identifying batch-initiation timers
/// (consensus round timers use small round numbers).
const BATCH_ROUND: u64 = u64::MAX - 1;

/// Configuration of the optimistic engine.
#[derive(Debug, Clone, Copy)]
pub struct OptAbcastConfig {
    /// Number of sites.
    pub sites: usize,
    /// Base timeout of a consensus round (failure-detector patience).
    pub consensus_timeout: SimDuration,
    /// Batch-initiation delay: wait this long after the previous decision
    /// before starting the next consensus instance, letting more messages
    /// accumulate into one batch. `None` starts instances immediately
    /// (lowest confirmation latency); batching trades confirmation
    /// latency for fewer agreement messages — the paper's "tradeoff
    /// between optimistic and conservative decisions". Opt-delivery
    /// latency is unaffected either way.
    pub batch_delay: Option<SimDuration>,
}

impl OptAbcastConfig {
    /// Creates a configuration with immediate (unbatched) initiation.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0`.
    pub fn new(sites: usize, consensus_timeout: SimDuration) -> Self {
        assert!(sites > 0, "need at least one site");
        OptAbcastConfig { sites, consensus_timeout, batch_delay: None }
    }

    /// Enables batch initiation with the given accumulation delay.
    pub fn with_batch_delay(mut self, delay: SimDuration) -> Self {
        self.batch_delay = Some(delay);
        self
    }
}

/// The optimistic atomic broadcast endpoint at one site.
///
/// See the [module documentation](self) for the protocol; see
/// [`AtomicBroadcast`] for the delivery guarantees.
#[derive(Debug)]
pub struct OptAbcast<P> {
    cfg: OptAbcastConfig,
    ccfg: InstanceConfig,
    next_seq: u64,
    /// Payload store for every received data message.
    received: HashMap<MsgId, Message<P>>,
    /// Ids opt-delivered, in receive order (the tentative order).
    opt_log: Vec<MsgId>,
    opt_set: HashSet<MsgId>,
    /// Ids TO-delivered, in definitive order.
    definitive_log: Vec<MsgId>,
    to_set: HashSet<MsgId>,
    /// Received (opt-delivered) but not yet covered by a processed
    /// decision, in receive order — this is what we propose.
    undecided: Vec<MsgId>,
    /// Running consensus instances. The value type is [`OrderBatch`]
    /// (`Arc`-shared): one proposal allocation per joined instance, and all
    /// the estimate/propose/decide fan-out is reference-count bumps.
    instances: HashMap<u64, Instance<OrderBatch>>,
    /// Decided batches by instance (shared with helpout frames and the
    /// delivery cursor — cloning a batch is a refcount bump).
    decided: BTreeMap<u64, OrderBatch>,
    /// Next instance this site would initiate.
    next_initiate: u64,
    /// Batch timer currently armed for this instance number, if any.
    batch_timer_for: Option<u64>,
    /// Delivery cursor: next instance to drain and offset within it.
    cursor_instance: u64,
    cursor_pos: usize,
    /// Decision help-outs owed to stragglers, accumulated during one
    /// receive call and flushed as one frame per target — a straggler that
    /// asks about several already-decided instances in one tick gets a
    /// single [`Wire::DecideBatch`] instead of one decide frame each.
    pending_helpouts: BTreeMap<SiteId, BTreeSet<u64>>,
}

impl<P: Clone + std::fmt::Debug> OptAbcast<P> {
    /// Creates an endpoint. The site it lives on and the domain it
    /// orders within arrive per call via [`EngineCtx`].
    pub fn new(cfg: OptAbcastConfig) -> Self {
        OptAbcast {
            cfg,
            ccfg: InstanceConfig::new(cfg.sites, cfg.consensus_timeout),
            next_seq: 0,
            received: HashMap::new(),
            opt_log: Vec::new(),
            opt_set: HashSet::new(),
            definitive_log: Vec::new(),
            to_set: HashSet::new(),
            undecided: Vec::new(),
            instances: HashMap::new(),
            decided: BTreeMap::new(),
            next_initiate: 0,
            batch_timer_for: None,
            cursor_instance: 0,
            cursor_pos: 0,
            pending_helpouts: BTreeMap::new(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &OptAbcastConfig {
        &self.cfg
    }

    /// The tentative (receive) order observed so far.
    pub fn tentative_log(&self) -> &[MsgId] {
        &self.opt_log
    }

    /// Number of consensus instances this site has seen decided.
    pub fn decided_instances(&self) -> usize {
        self.decided.len()
    }

    fn consensus_actions(
        &mut self,
        me: SiteId,
        instance: u64,
        actions: Vec<CAction<OrderBatch>>,
    ) -> Vec<EngineAction<P>> {
        let mut out = Vec::new();
        for a in actions {
            match a {
                CAction::Send(to, msg) => {
                    out.push(EngineAction::Send(to, Wire::Consensus { instance, msg }));
                }
                CAction::Broadcast(msg) => {
                    out.push(EngineAction::Multicast(Wire::Consensus { instance, msg }));
                }
                CAction::SetTimer { round, delay } => {
                    out.push(EngineAction::SetTimer {
                        token: TimerToken { instance, round },
                        delay,
                    });
                }
                CAction::Decided(batch) => {
                    out.extend(self.on_decided(me, instance, batch));
                }
            }
        }
        out
    }

    fn on_decided(&mut self, me: SiteId, instance: u64, batch: OrderBatch) -> Vec<EngineAction<P>> {
        self.decided.entry(instance).or_insert(batch);
        self.instances.remove(&instance);
        let mut out = self.try_deliver();
        out.extend(self.maybe_initiate(me));
        out
    }

    /// Starts the next instance if the previous one is decided and there
    /// is something to order. With batching enabled, arms a timer instead
    /// and initiates when it fires.
    fn maybe_initiate(&mut self, me: SiteId) -> Vec<EngineAction<P>> {
        // Find the first instance number not yet decided and not running.
        while self.decided.contains_key(&self.next_initiate) {
            self.next_initiate += 1;
        }
        let k = self.next_initiate;
        if self.undecided.is_empty()
            || self.instances.contains_key(&k)
            // Only initiate k if every instance below k is decided —
            // otherwise we would be racing our own proposals.
            || (k > 0 && !self.decided.contains_key(&(k - 1)))
        {
            return Vec::new();
        }
        if let Some(delay) = self.cfg.batch_delay {
            if self.batch_timer_for == Some(k) {
                return Vec::new(); // timer already armed for this batch
            }
            self.batch_timer_for = Some(k);
            return vec![EngineAction::SetTimer {
                token: TimerToken { instance: k, round: BATCH_ROUND },
                delay,
            }];
        }
        self.join_instance(me, k)
    }

    /// Fires the batch timer: initiate the instance if it is still needed
    /// (it may have been joined meanwhile through another site's traffic,
    /// or decided already).
    fn on_batch_timer(&mut self, me: SiteId, instance: u64) -> Vec<EngineAction<P>> {
        if self.batch_timer_for == Some(instance) {
            self.batch_timer_for = None;
        }
        if self.undecided.is_empty()
            || self.instances.contains_key(&instance)
            || self.decided.contains_key(&instance)
        {
            // Re-evaluate: a later batch may still be owed a timer.
            return self.maybe_initiate(me);
        }
        self.join_instance(me, instance)
    }

    fn join_instance(&mut self, me: SiteId, instance: u64) -> Vec<EngineAction<P>> {
        if self.instances.contains_key(&instance) || self.decided.contains_key(&instance) {
            return Vec::new();
        }
        // The one allocation per joined instance; every subsequent clone of
        // the proposal (estimates, proposes, decides, per-receiver wire
        // fan-out) shares it.
        let proposal: OrderBatch = Arc::new(self.undecided.clone());
        let (inst, actions) = Instance::new(me, self.ccfg, proposal);
        self.instances.insert(instance, inst);
        self.consensus_actions(me, instance, actions)
    }

    /// Drains decided batches through the delivery cursor. Everything that
    /// becomes definitive in this step leaves as one `ToDeliver` batch.
    fn try_deliver(&mut self) -> Vec<EngineAction<P>> {
        let mut delivered: Vec<MsgId> = Vec::new();
        while let Some(batch) = self.decided.get(&self.cursor_instance) {
            let batch = Arc::clone(batch);
            let mut stalled = false;
            while self.cursor_pos < batch.len() {
                let id = batch[self.cursor_pos];
                if self.to_set.contains(&id) {
                    self.cursor_pos += 1;
                    continue;
                }
                if !self.received.contains_key(&id) {
                    // Data not here yet: TO-delivery must wait for the
                    // Opt-delivery (Local Order).
                    stalled = true;
                    break;
                }
                self.to_set.insert(id);
                self.definitive_log.push(id);
                delivered.push(id);
                self.cursor_pos += 1;
            }
            if stalled {
                break;
            }
            if self.cursor_pos >= batch.len() {
                self.cursor_instance += 1;
                self.cursor_pos = 0;
            }
        }
        if delivered.is_empty() {
            return Vec::new();
        }
        // One sweep over the proposal queue for the whole batch instead of
        // one retain per delivered message (that was quadratic under load).
        let gone: HashSet<MsgId> = delivered.iter().copied().collect();
        self.undecided.retain(|u| !gone.contains(u));
        vec![EngineAction::ToDeliver(delivered)]
    }

    fn on_data(&mut self, me: SiteId, msg: Message<P>) -> Vec<EngineAction<P>> {
        if self.received.contains_key(&msg.id) {
            return Vec::new(); // duplicate
        }
        let id = msg.id;
        // A message tagged with our own origin is one a previous
        // incarnation of this endpoint sent before crashing: never reuse
        // its sequence number.
        if id.origin == me {
            self.next_seq = self.next_seq.max(id.seq + 1);
        }
        self.received.insert(id, msg.clone());
        let mut out = Vec::new();
        if self.to_set.contains(&id) {
            // Arrived after recovery sync already accounted for it — the
            // application has the effects; do not re-deliver.
        } else if self.opt_set.insert(id) {
            self.opt_log.push(id);
            self.undecided.push(id);
            out.push(EngineAction::OptDeliver(msg));
        }
        // A decided batch may have been stalled waiting for this data.
        out.extend(self.try_deliver());
        out.extend(self.maybe_initiate(me));
        out
    }

    fn on_consensus(
        &mut self,
        me: SiteId,
        from: SiteId,
        instance: u64,
        msg: ConsensusMsg<OrderBatch>,
    ) -> Vec<EngineAction<P>> {
        // Already decided instance: help the straggler with the decision.
        // Buffered, not sent — the receive path flushes everything owed to
        // one target as a single frame per tick (see `flush_helpouts`).
        if self.decided.contains_key(&instance) {
            if !matches!(msg, ConsensusMsg::Decide { .. }) {
                self.pending_helpouts.entry(from).or_default().insert(instance);
            }
            return Vec::new();
        }
        // Join unknown instances on first contact.
        let mut out = if !self.instances.contains_key(&instance) {
            self.join_instance(me, instance)
        } else {
            Vec::new()
        };
        if let Some(inst) = self.instances.get_mut(&instance) {
            let actions = inst.on_message(from, msg);
            out.extend(self.consensus_actions(me, instance, actions));
        }
        out
    }

    /// Handles one wire without flushing the helpout buffer — the receive
    /// entry points flush exactly once per call, however many wires landed.
    fn ingest_wire(&mut self, me: SiteId, from: SiteId, wire: Wire<P>) -> Vec<EngineAction<P>> {
        match wire {
            Wire::Data(msg) => self.on_data(me, msg),
            Wire::Consensus { instance, msg } => self.on_consensus(me, from, instance, msg),
            Wire::DecideBatch { decides } => {
                let mut out = Vec::new();
                for (instance, value) in decides {
                    out.extend(self.on_consensus(
                        me,
                        from,
                        instance,
                        ConsensusMsg::Decide { value },
                    ));
                }
                out
            }
            Wire::SeqOrder { .. }
            | Wire::SeqOrderBatch { .. }
            | Wire::OracleData { .. }
            | Wire::ViewChange { .. }
            | Wire::StateSummary { .. }
            | Wire::ViewFloor { .. }
            | Wire::StateDigest { .. } => Vec::new(),
        }
    }

    /// Emits every buffered decision help-out: one target owed a single
    /// decision gets the legacy `Consensus`/`Decide` frame, a target owed
    /// several gets one [`Wire::DecideBatch`].
    fn flush_helpouts(&mut self, out: &mut Vec<EngineAction<P>>) {
        if self.pending_helpouts.is_empty() {
            return;
        }
        // `owed`, not `instances`: the BTreeSet of instance ids owed to
        // one target (the `instances` *field* is the HashMap of live
        // consensus instances — shadowing it here trips `otp-lint`'s
        // name-keyed unordered-iter heuristic, and deserves to).
        for (to, owed) in std::mem::take(&mut self.pending_helpouts) {
            let decides: Vec<(u64, OrderBatch)> = owed
                .into_iter()
                .filter_map(|k| self.decided.get(&k).map(|batch| (k, Arc::clone(batch))))
                .collect();
            match decides.len() {
                0 => {}
                1 => {
                    let (instance, value) = decides.into_iter().next().expect("one decide");
                    out.push(EngineAction::Send(
                        to,
                        Wire::Consensus { instance, msg: ConsensusMsg::Decide { value } },
                    ));
                }
                _ => out.push(EngineAction::Send(to, Wire::DecideBatch { decides })),
            }
        }
    }
}

impl<P: Clone + std::fmt::Debug> AtomicBroadcast<P> for OptAbcast<P> {
    fn broadcast(&mut self, ctx: &EngineCtx<'_>, payload: P) -> (MsgId, Vec<EngineAction<P>>) {
        let id = MsgId::new(ctx.me, self.next_seq);
        self.next_seq += 1;
        let msg = Message { id, payload };
        // The data is multicast to everyone including ourselves; our own
        // Opt-delivery happens when the loopback copy arrives, exactly as
        // with IP multicast — so the sender sees the same tentative order
        // as everyone else.
        (id, vec![EngineAction::Multicast(Wire::Data(msg))])
    }

    fn on_receive(
        &mut self,
        ctx: &EngineCtx<'_>,
        from: SiteId,
        wire: Wire<P>,
    ) -> Vec<EngineAction<P>> {
        let mut out = self.ingest_wire(ctx.me, from, wire);
        self.flush_helpouts(&mut out);
        out
    }

    fn on_receive_batch(
        &mut self,
        ctx: &EngineCtx<'_>,
        wires: Vec<(SiteId, Wire<P>)>,
    ) -> Vec<EngineAction<P>> {
        let mut out = Vec::new();
        for (from, wire) in wires {
            out.extend(self.ingest_wire(ctx.me, from, wire));
        }
        // One helpout flush for the whole tick: a straggler's burst of
        // questions about decided instances costs one frame, not one per
        // instance.
        self.flush_helpouts(&mut out);
        out
    }

    fn on_timer(&mut self, ctx: &EngineCtx<'_>, token: TimerToken) -> Vec<EngineAction<P>> {
        if token.round == BATCH_ROUND {
            return self.on_batch_timer(ctx.me, token.instance);
        }
        let Some(inst) = self.instances.get_mut(&token.instance) else {
            return Vec::new();
        };
        let actions = inst.on_timeout(token.round);
        self.consensus_actions(ctx.me, token.instance, actions)
    }

    fn definitive_log(&self) -> &[MsgId] {
        &self.definitive_log
    }

    fn snapshot(&self) -> EngineSnapshot<P> {
        // Sorted collect: `received` is a HashMap, and a snapshot is
        // state-transfer payload — its Vec order must not depend on
        // hash iteration order.
        let mut received: Vec<Message<P>> = self.received.values().cloned().collect();
        received.sort_by_key(|m| m.id);
        EngineSnapshot {
            decided: self.decided.iter().map(|(k, v)| (*k, v.as_ref().clone())).collect(),
            received,
            definitive_log: self.definitive_log.clone(),
            order_tags: Vec::new(),
            epoch: 0,
            order_fence: 0,
            min_delivered: self.definitive_log.len() as u64,
        }
    }

    fn restore(
        &mut self,
        ctx: &EngineCtx<'_>,
        snapshot: EngineSnapshot<P>,
    ) -> Vec<EngineAction<P>> {
        self.decided = snapshot.decided.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        self.definitive_log = snapshot.definitive_log.clone();
        self.to_set = snapshot.definitive_log.iter().copied().collect();
        // Everything already TO-delivered is also considered opt-delivered.
        self.opt_set = self.to_set.clone();
        self.opt_log = snapshot.definitive_log;
        for m in snapshot.received {
            self.received.insert(m.id, m);
        }
        // Messages received but not yet definitively delivered become our
        // undecided proposal material, in deterministic id order (the
        // donor's receive order is unknown to us). They are re-emitted as
        // fresh Opt-deliveries: tentative again at this site.
        let mut pending: Vec<MsgId> =
            self.received.keys().filter(|id| !self.to_set.contains(id)).copied().collect();
        pending.sort_unstable();
        let mut actions: Vec<EngineAction<P>> = Vec::new();
        for id in &pending {
            if self.opt_set.insert(*id) {
                self.opt_log.push(*id);
                actions.push(EngineAction::OptDeliver(self.received[id].clone()));
            }
        }
        self.undecided = pending;
        // Fast-forward the cursor past fully-delivered decided batches.
        self.cursor_instance = 0;
        self.cursor_pos = 0;
        while let Some(batch) = self.decided.get(&self.cursor_instance) {
            if batch.iter().all(|id| self.to_set.contains(id)) {
                self.cursor_instance += 1;
            } else {
                break;
            }
        }
        self.next_initiate = self.cursor_instance;
        // Our own sequence numbers must not collide with pre-crash ones.
        // Scan *everything* the snapshot reports, not just the payload
        // store: a decided batch can name an own id whose data the donor
        // never received (a proposal can outrun its data wire). Missing
        // those made the post-restore incarnation gap start from a stale
        // cursor — with more than RECOVERY_SEQ_GAP ids in the reported
        // window, the jump landed on ids the dead incarnation had already
        // used and peers silently deduplicated the new messages.
        let my_max = self
            .received
            .keys()
            .copied()
            .chain(self.decided.values().flat_map(|batch| batch.iter().copied()))
            .filter(|id| id.origin == ctx.me)
            .map(|id| id.seq)
            .max();
        if let Some(mx) = my_max {
            self.next_seq = self.next_seq.max(mx + 1);
        }
        // Decided batches may be immediately deliverable from the restored
        // state (data present, not yet in the definitive log).
        actions.extend(self.try_deliver());
        actions
    }

    fn bump_incarnation(&mut self) {
        self.next_seq += RECOVERY_SEQ_GAP;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::OrderDomain;

    fn engines(n: usize) -> Vec<OptAbcast<u32>> {
        let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(20));
        (0..n).map(|_| OptAbcast::new(cfg)).collect()
    }

    fn ctx_at(dom: &OrderDomain, me: SiteId) -> EngineCtx<'_> {
        EngineCtx::new(me, dom)
    }

    /// Synchronous lock-step driver: delivers all pending wires in FIFO
    /// order with zero delay. Good enough for unit-level protocol checks;
    /// the jittery/lossy cases live in the harness-based tests.
    fn pump(engines: &mut [OptAbcast<u32>], mut wires: Vec<(SiteId, Option<SiteId>, Wire<u32>)>) {
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
                let actions = engines[t.index()].on_receive(&ctx_at(&dom, t), from, wire.clone());
                for a in actions {
                    match a {
                        EngineAction::Multicast(w) => wires.push((t, None, w)),
                        EngineAction::Send(dst, w) => wires.push((t, Some(dst), w)),
                        _ => {}
                    }
                }
            }
        }
    }

    fn collect_broadcast(
        dom: &OrderDomain,
        e: &mut OptAbcast<u32>,
        me: SiteId,
        payload: u32,
    ) -> Vec<(SiteId, Option<SiteId>, Wire<u32>)> {
        let (_, actions) = e.broadcast(&ctx_at(dom, me), payload);
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
    fn single_message_is_opt_and_to_delivered_everywhere() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let wires = collect_broadcast(&dom, &mut es[0], SiteId::new(0), 42);
        pump(&mut es, wires);
        for (i, e) in es.iter().enumerate() {
            assert_eq!(e.tentative_log().len(), 1, "opt-delivered at site {i}");
            assert_eq!(e.definitive_log().len(), 1, "to-delivered at site {i}");
            assert_eq!(e.definitive_log()[0], MsgId::new(SiteId::new(0), 0));
        }
    }

    #[test]
    fn definitive_order_identical_across_sites() {
        let mut es = engines(4);
        let dom = OrderDomain::global(4);
        let mut wires = Vec::new();
        for (i, e) in es.iter_mut().enumerate() {
            for k in 0..5u32 {
                wires.extend(collect_broadcast(
                    &dom,
                    e,
                    SiteId::new(i as u16),
                    (i as u32) * 100 + k,
                ));
            }
        }
        pump(&mut es, wires);
        let log0: Vec<MsgId> = es[0].definitive_log().to_vec();
        assert_eq!(log0.len(), 20);
        for (i, e) in es.iter().enumerate().skip(1) {
            assert_eq!(e.definitive_log(), log0.as_slice(), "global order at site {i}");
        }
    }

    #[test]
    fn local_order_opt_before_to() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let wires = collect_broadcast(&dom, &mut es[1], SiteId::new(1), 7);
        // Track the interleaving at site 2 manually.
        let mut seen_opt = false;
        let mut order_ok = true;
        let mut queue = wires;
        let mut guard = 0;
        while !queue.is_empty() {
            guard += 1;
            assert!(guard < 10_000);
            let (from, to, wire) = queue.remove(0);
            let targets: Vec<SiteId> = match to {
                Some(t) => vec![t],
                None => SiteId::all(3).collect(),
            };
            for t in targets {
                for a in es[t.index()].on_receive(&ctx_at(&dom, t), from, wire.clone()) {
                    match a {
                        EngineAction::Multicast(w) => queue.push((t, None, w)),
                        EngineAction::Send(d, w) => queue.push((t, Some(d), w)),
                        EngineAction::OptDeliver(_) if t == SiteId::new(2) => seen_opt = true,
                        EngineAction::ToDeliver(_) if t == SiteId::new(2) && !seen_opt => {
                            order_ok = false;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(seen_opt && order_ok, "opt must precede to");
    }

    #[test]
    fn duplicate_data_is_ignored() {
        let mut es = engines(2);
        let dom = OrderDomain::global(2);
        let c1 = ctx_at(&dom, SiteId::new(1));
        let msg = Message { id: MsgId::new(SiteId::new(0), 0), payload: 1u32 };
        let a1 = es[1].on_receive(&c1, SiteId::new(0), Wire::Data(msg.clone()));
        assert!(a1.iter().any(|a| matches!(a, EngineAction::OptDeliver(_))));
        let a2 = es[1].on_receive(&c1, SiteId::new(0), Wire::Data(msg));
        assert!(a2.is_empty(), "duplicate must be silent: {a2:?}");
    }

    #[test]
    fn snapshot_restore_suppresses_redelivery() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let mut wires = Vec::new();
        for k in 0..4u32 {
            wires.extend(collect_broadcast(&dom, &mut es[0], SiteId::new(0), k));
        }
        pump(&mut es, wires);
        assert_eq!(es[1].definitive_log().len(), 4);

        // Site 2 "crashes"; a fresh engine restores from site 1.
        let snap = es[1].snapshot();
        let cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
        let c2 = ctx_at(&dom, SiteId::new(2));
        let mut recovered: OptAbcast<u32> = OptAbcast::new(cfg);
        recovered.restore(&c2, snap);
        assert_eq!(recovered.definitive_log().len(), 4);

        // Old data arriving again after recovery must not re-deliver.
        let old = Message { id: MsgId::new(SiteId::new(0), 2), payload: 2u32 };
        let actions = recovered.on_receive(&c2, SiteId::new(0), Wire::Data(old));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, EngineAction::OptDeliver(_) | EngineAction::ToDeliver(_))),
            "{actions:?}"
        );
    }

    #[test]
    fn restore_continues_with_new_traffic() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let mut wires = Vec::new();
        for k in 0..3u32 {
            wires.extend(collect_broadcast(&dom, &mut es[0], SiteId::new(0), k));
        }
        pump(&mut es, wires);
        let snap = es[0].snapshot();
        let cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
        let mut fresh: OptAbcast<u32> = OptAbcast::new(cfg);
        fresh.restore(&ctx_at(&dom, SiteId::new(2)), snap);
        es[2] = fresh;
        // New broadcast flows through all three, including the recovered one.
        let wires = collect_broadcast(&dom, &mut es[1], SiteId::new(1), 99);
        pump(&mut es, wires);
        assert_eq!(es[2].definitive_log().len(), 4);
        assert_eq!(es[0].definitive_log(), es[2].definitive_log());
    }

    /// A straggler asking about several already-decided instances in one
    /// tick is helped with ONE `DecideBatch` frame, not one decide frame
    /// per instance — and applying the batch catches the straggler up.
    #[test]
    fn decide_helpouts_batch_per_tick() {
        let mut es = engines(3);
        let dom = OrderDomain::global(3);
        let mut wires = Vec::new();
        for k in 0..2u32 {
            wires.extend(collect_broadcast(&dom, &mut es[0], SiteId::new(0), k));
            pump(&mut es, std::mem::take(&mut wires));
        }
        assert!(es[0].decided_instances() >= 2, "two decided instances to ask about");
        // A straggler (fresh engine at site 2) asks about both instances in
        // one tick.
        let straggler_asks: Vec<(SiteId, Wire<u32>)> = (0..2u64)
            .map(|instance| {
                (
                    SiteId::new(2),
                    Wire::Consensus {
                        instance,
                        msg: ConsensusMsg::Estimate { round: 0, est: Arc::new(vec![]), ts: 0 },
                    },
                )
            })
            .collect();
        let actions = es[0].on_receive_batch(&ctx_at(&dom, SiteId::new(0)), straggler_asks);
        let decide_frames: Vec<&Wire<u32>> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::Send(to, w) if *to == SiteId::new(2) => Some(w),
                _ => None,
            })
            .collect();
        assert_eq!(decide_frames.len(), 1, "one frame for the whole tick: {actions:?}");
        let Wire::DecideBatch { decides } = decide_frames[0] else {
            panic!("expected a DecideBatch, got {:?}", decide_frames[0]);
        };
        assert_eq!(decides.len(), 2);
        // The straggler applies the batch and decides both instances.
        let cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
        let c2 = ctx_at(&dom, SiteId::new(2));
        let mut straggler: OptAbcast<u32> = OptAbcast::new(cfg);
        straggler.on_receive(
            &c2,
            SiteId::new(0),
            Wire::Data(Message { id: MsgId::new(SiteId::new(0), 0), payload: 0 }),
        );
        straggler.on_receive(
            &c2,
            SiteId::new(0),
            Wire::Data(Message { id: MsgId::new(SiteId::new(0), 1), payload: 1 }),
        );
        straggler.on_receive(&c2, SiteId::new(0), decide_frames[0].clone());
        assert_eq!(straggler.decided_instances(), 2);
        assert_eq!(straggler.definitive_log(), es[0].definitive_log());
    }

    /// A single owed decision still travels as the legacy `Decide` frame.
    #[test]
    fn single_decide_helpout_stays_legacy_frame() {
        let mut es = engines(2);
        let dom = OrderDomain::global(2);
        let wires = collect_broadcast(&dom, &mut es[0], SiteId::new(0), 7);
        pump(&mut es, wires);
        assert_eq!(es[0].decided_instances(), 1);
        let actions = es[0].on_receive(
            &ctx_at(&dom, SiteId::new(0)),
            SiteId::new(1),
            Wire::Consensus {
                instance: 0,
                msg: ConsensusMsg::Estimate { round: 0, est: Arc::new(vec![]), ts: 0 },
            },
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                EngineAction::Send(to, Wire::Consensus { msg: ConsensusMsg::Decide { .. }, .. })
                    if *to == SiteId::new(1)
            )),
            "{actions:?}"
        );
        assert!(
            !actions.iter().any(|a| matches!(a, EngineAction::Send(_, Wire::DecideBatch { .. }))),
            "{actions:?}"
        );
    }

    /// The incarnation-gap audit's overflow case: a decided consensus
    /// batch can name an own id whose *data* no survivor ever received (a
    /// proposal can outrun its data wire). With a reported window wider
    /// than `RECOVERY_SEQ_GAP`, deriving the post-restore cursor from the
    /// payload store alone would make `bump_incarnation`'s jump land on
    /// ids the dead incarnation already used — peers would silently
    /// deduplicate the new incarnation's messages. The cursor must be
    /// anchored at the highest id any digest reports, decided batches
    /// included.
    #[test]
    fn incarnation_gap_clears_decided_only_ids_beyond_the_gap() {
        let me = SiteId::new(2);
        let huge = RECOVERY_SEQ_GAP * 3;
        let mut snap: EngineSnapshot<u32> = EngineSnapshot::empty();
        snap.decided.insert(0, vec![MsgId::new(me, huge)]);
        snap.min_delivered = 0;
        let cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
        let dom = OrderDomain::global(3);
        let c2 = ctx_at(&dom, me);
        let mut fresh: OptAbcast<u32> = OptAbcast::new(cfg);
        fresh.restore(&c2, snap);
        fresh.bump_incarnation();
        let (id, _) = fresh.broadcast(&c2, 9);
        assert!(id.seq > huge, "must clear every reported id: {} <= {huge}", id.seq);
    }

    #[test]
    fn own_broadcast_not_delivered_until_loopback() {
        let mut es = engines(2);
        let dom = OrderDomain::global(2);
        let (_, actions) = es[0].broadcast(&ctx_at(&dom, SiteId::new(0)), 5);
        // Broadcasting alone does not deliver anything locally.
        assert!(actions
            .iter()
            .all(|a| !matches!(a, EngineAction::OptDeliver(_) | EngineAction::ToDeliver(_))));
        assert!(es[0].tentative_log().is_empty());
    }
}
