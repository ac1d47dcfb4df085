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
//! ## One-step definitive order
//!
//! A site's proposal for instance `k` goes to every member and doubles as
//! its vote (`otp_consensus`, step 0): when all `n` proposals are the same
//! batch — the spontaneous-order case, i.e. almost always — every site
//! decides one hop after the last proposal left and the instance sends
//! nothing more. The rotating-coordinator rounds start at the same instant
//! and are the fallback for every other case; this engine only drops what
//! of their traffic has become moot (see `drop_moot`) and answers a
//! decided instance's messages only when they are a straggler's pull.
//!
//! A restored endpoint does not vote in instances its previous incarnation
//! may have voted in — those up to the horizon the survivors' snapshots
//! report ([`EngineSnapshot::instance_horizon`]): it joins them with
//! [`Instance::rejoin`], so its second proposal can complete a
//! coordinator's majority but never outrank a survivor's estimate, and a
//! batch some site decided in one step on the first incarnation's vote
//! stays the only batch the rounds can decide.
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
//! possibly empty, minus what a lower instance still running at this site
//! is about to settle). Ties between equally-fresh consensus estimates are
//! broken by `Vec<MsgId>`'s lexicographic order, which prefers non-empty
//! batches — so progress is made as long as some site has undecided
//! messages.

use crate::dissemination::Dissemination;
use crate::domain::EngineCtx;
use crate::msg::{EngineAction, Message, MsgId, OrderBatch, TimerToken, Wire};
use crate::traits::{AtomicBroadcast, EngineRetention, EngineSnapshot};
use otp_consensus::{Action as CAction, ConsensusMsg, Instance, InstanceConfig};
use otp_simnet::{SimDuration, SiteId};
use otp_telemetry::Counter;
use std::collections::{BTreeMap, BTreeSet, HashSet};
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
    /// Payloads, definitive log and own-id cursor (DESIGN.md §18).
    dis: Dissemination<P>,
    /// Received (opt-delivered) but not yet covered by a processed
    /// decision, in receive order — this is what we propose.
    undecided: Vec<MsgId>,
    /// Running consensus instances (a handful at most; ordered, because a
    /// view change visits them all). The value type is [`OrderBatch`]
    /// (`Arc`-shared): one proposal allocation per joined instance, and all
    /// the estimate/propose/decide fan-out is reference-count bumps.
    instances: BTreeMap<u64, Instance<OrderBatch>>,
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
    /// Instances below this number are ones a previous incarnation of this
    /// endpoint may have voted in: it joins them as a rejoined site
    /// ([`Instance::rejoin`]) — no vote, and an estimate no coordinator
    /// prefers to a survivor's. 0 until the endpoint is restored.
    rejoined_below: u64,
    /// Instances this site decided in one step / through a round, a
    /// `Decide` or a help-out (restored decisions are neither). Detached
    /// until [`AtomicBroadcast::set_decide_counters`] swaps in the
    /// driver's registry handles.
    fast_decides: Arc<Counter>,
    slow_decides: Arc<Counter>,
}

impl<P: Clone + std::fmt::Debug> OptAbcast<P> {
    /// Creates an endpoint. The site it lives on and the domain it
    /// orders within arrive per call via [`EngineCtx`].
    pub fn new(cfg: OptAbcastConfig) -> Self {
        OptAbcast {
            cfg,
            ccfg: InstanceConfig::new(cfg.sites, cfg.consensus_timeout),
            dis: Dissemination::new(),
            undecided: Vec::new(),
            instances: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_initiate: 0,
            batch_timer_for: None,
            cursor_instance: 0,
            cursor_pos: 0,
            pending_helpouts: BTreeMap::new(),
            rejoined_below: 0,
            fast_decides: Arc::new(Counter::new()),
            slow_decides: Arc::new(Counter::new()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &OptAbcastConfig {
        &self.cfg
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
                    let one_step =
                        self.instances.get(&instance).is_some_and(Instance::decided_in_one_step);
                    if one_step { &self.fast_decides } else { &self.slow_decides }.incr();
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
        let mut proposal = self.undecided.clone();
        // Joining on first contact can get ahead of this site's own
        // decisions: a peer decided `instance - 1` in one step and moved
        // on while the last vote for it is still on its way here. What a
        // lower instance still running here is about to settle is left out
        // — the peers that are ahead have left it out — or the proposals
        // would differ by exactly the batch everybody already agrees on.
        // (Should the lower instance settle on something else, the ids are
        // still in `undecided` and go into the next proposal.)
        for running in self.instances.range(..instance).map(|(_, inst)| inst.estimate()) {
            proposal.retain(|id| !running.contains(id));
        }
        let proposal: OrderBatch = Arc::new(proposal);
        let (inst, actions) = if instance < self.rejoined_below {
            Instance::rejoin(me, self.ccfg, proposal)
        } else {
            Instance::new(me, self.ccfg, proposal)
        };
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
                if self.dis.is_delivered(id) {
                    self.cursor_pos += 1;
                    continue;
                }
                if !self.dis.has(id) {
                    // Data not here yet: TO-delivery must wait for the
                    // Opt-delivery (Local Order).
                    stalled = true;
                    break;
                }
                self.dis.deliver(id);
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
        let Some(fresh) = self.dis.accept(me, &msg) else {
            return Vec::new(); // duplicate
        };
        let mut out = Vec::new();
        if fresh {
            self.undecided.push(msg.id);
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
        // Already decided instance: help a straggler that pulls — its
        // estimate or nack reaching this site as the round's coordinator —
        // with the decision. (Nobody relays decisions, so this is how a
        // site that missed one gets it; a late `Propose` or `Ack` is a
        // peer still running a round, and the round will serve it.)
        // Buffered, not sent — the receive path flushes everything owed to
        // one target as a single frame per tick (see `flush_helpouts`).
        if self.decided.contains_key(&instance) {
            if let ConsensusMsg::Estimate { round, .. } | ConsensusMsg::Nack { round } = msg {
                if self.ccfg.coordinator(round) == me {
                    self.pending_helpouts.entry(from).or_default().insert(instance);
                }
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
    /// path flushes exactly once per call, however many wires landed.
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
            Wire::SeqOrderBatch { .. }
            | Wire::OracleData { .. }
            | Wire::ViewChange { .. }
            | Wire::StateSummary { .. }
            | Wire::ViewFloor { .. }
            | Wire::StateDigest { .. } => Vec::new(),
        }
    }

    /// Drops round traffic emitted earlier in this receive call for an
    /// instance that decided later in the same call (typically: the
    /// coordinator proposed at a majority of votes, or a site acked, and
    /// the last vote of a unanimous tally was further down the batch).
    /// Nobody needs it — the decision needs no round — and each frame
    /// dropped here is `n` deliveries the peers do not have to ignore.
    /// Estimates always go out: they are the votes the peers are counting.
    fn drop_moot(&self, decided_before: usize, out: &mut Vec<EngineAction<P>>) {
        if self.decided.len() == decided_before {
            return;
        }
        out.retain(|a| {
            let instance = match a {
                EngineAction::Multicast(Wire::Consensus { instance, msg })
                | EngineAction::Send(_, Wire::Consensus { instance, msg })
                    if matches!(msg, ConsensusMsg::Propose { .. } | ConsensusMsg::Ack { .. }) =>
                {
                    instance
                }
                EngineAction::SetTimer { token, .. } if token.round != BATCH_ROUND => {
                    &token.instance
                }
                _ => return true,
            };
            !self.decided.contains_key(instance)
        });
    }

    /// Emits every buffered decision help-out: one target owed a single
    /// decision gets the legacy `Consensus`/`Decide` frame, a target owed
    /// several gets one [`Wire::DecideBatch`].
    fn flush_helpouts(&mut self, out: &mut Vec<EngineAction<P>>) {
        if self.pending_helpouts.is_empty() {
            return;
        }
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
        let id = self.dis.next_id(ctx.me);
        let msg = Message { id, payload };
        // The data is multicast to everyone including ourselves; our own
        // Opt-delivery happens when the loopback copy arrives, exactly as
        // with IP multicast — so the sender sees the same tentative order
        // as everyone else.
        (id, vec![EngineAction::Multicast(Wire::Data(msg))])
    }

    fn on_receive_batch(
        &mut self,
        ctx: &EngineCtx<'_>,
        wires: Vec<(SiteId, Wire<P>)>,
    ) -> Vec<EngineAction<P>> {
        let decided_before = self.decided.len();
        let mut out = Vec::new();
        for (from, wire) in wires {
            out.extend(self.ingest_wire(ctx.me, from, wire));
        }
        self.drop_moot(decided_before, &mut out);
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
        self.dis.definitive_log()
    }

    fn snapshot(&self) -> EngineSnapshot<P> {
        EngineSnapshot {
            decided: self.decided.iter().map(|(k, v)| (*k, v.as_ref().clone())).collect(),
            instance_horizon: Some(
                self.decided
                    .keys()
                    .chain(self.instances.keys())
                    .max()
                    .map_or(0, |highest| highest + 1),
            ),
            ..self.dis.snapshot()
        }
    }

    fn restore(
        &mut self,
        ctx: &EngineCtx<'_>,
        snapshot: EngineSnapshot<P>,
    ) -> Vec<EngineAction<P>> {
        // The dead incarnation may have voted in every instance up to the
        // horizon, the one above the highest any live member knows of
        // included (it could have decided that one alone and moved on) —
        // and in none beyond: deciding takes a majority's participation.
        self.rejoined_below = snapshot.instance_horizon.unwrap_or(0) + 1;
        let decided_ids = snapshot.decided.values().flatten().copied();
        self.dis.restore(ctx.me, snapshot.received, snapshot.definitive_log, decided_ids);
        self.decided = snapshot.decided.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        // Messages received but not yet definitively delivered are
        // tentative again: our undecided proposal material, and fresh
        // Opt-deliveries.
        let pending = self.dis.undelivered();
        let mut actions: Vec<EngineAction<P>> =
            pending.iter().map(|id| EngineAction::OptDeliver(self.dis.message(*id))).collect();
        self.undecided = pending;
        // Fast-forward the cursor past fully-delivered decided batches.
        self.cursor_instance = 0;
        self.cursor_pos = 0;
        while let Some(batch) = self.decided.get(&self.cursor_instance) {
            if batch.iter().all(|id| self.dis.is_delivered(*id)) {
                self.cursor_instance += 1;
            } else {
                break;
            }
        }
        self.next_initiate = self.cursor_instance;
        // Decided batches may be immediately deliverable from the restored
        // state (data present, not yet in the definitive log).
        actions.extend(self.try_deliver());
        actions
    }

    fn bump_incarnation(&mut self) {
        self.dis.bump_incarnation();
    }

    fn retained(&self) -> EngineRetention {
        self.dis.retained(0)
    }

    fn decide_counts(&self) -> (u64, u64) {
        (self.fast_decides.get(), self.slow_decides.get())
    }

    fn set_decide_counters(&mut self, fast: Arc<Counter>, slow: Arc<Counter>) {
        fast.add(self.fast_decides.get());
        slow.add(self.slow_decides.get());
        self.fast_decides = fast;
        self.slow_decides = slow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::OrderDomain;
    use crate::msg::RECOVERY_SEQ_GAP;

    fn engines(n: usize) -> Vec<OptAbcast<u32>> {
        let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(20));
        (0..n).map(|_| OptAbcast::new(cfg)).collect()
    }

    fn ctx_at(dom: &OrderDomain, me: SiteId) -> EngineCtx<'_> {
        EngineCtx::new(me, dom)
    }

    /// Synchronous lock-step driver: delivers all pending wires in FIFO
    /// order with zero delay. Good enough for unit-level protocol checks;
    /// the jittery/lossy cases live in the harness-based tests. Returns
    /// each site's Opt-deliveries, in order.
    fn pump(
        engines: &mut [OptAbcast<u32>],
        mut wires: Vec<(SiteId, Option<SiteId>, Wire<u32>)>,
    ) -> Vec<Vec<MsgId>> {
        let n = engines.len();
        let dom = OrderDomain::global(n);
        let mut opt_logs = vec![Vec::new(); n];
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
                        EngineAction::OptDeliver(m) => opt_logs[t.index()].push(m.id),
                        _ => {}
                    }
                }
            }
        }
        opt_logs
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
        let opt_logs = pump(&mut es, wires);
        for (i, e) in es.iter().enumerate() {
            assert_eq!(opt_logs[i].len(), 1, "opt-delivered at site {i}");
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
        let silent = |actions: &[EngineAction<u32>]| {
            !actions
                .iter()
                .any(|a| matches!(a, EngineAction::OptDeliver(_) | EngineAction::ToDeliver(_)))
        };
        let actions = recovered.on_receive(&c2, SiteId::new(0), Wire::Data(old.clone()));
        assert!(silent(&actions), "{actions:?}");

        // Nor when the restored store no longer holds its payload: then
        // the data is no duplicate, only delivered. The same for every
        // engine; each reads its own wire kind and ignores the other.
        let mut cut: EngineSnapshot<u32> = EngineSnapshot::empty();
        cut.decided.insert(0, vec![old.id]);
        cut.order_tags = vec![(old.id, 0)];
        cut.definitive_log = vec![old.id];
        cut.min_delivered = 1;
        let scramble = crate::ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let rng = otp_simnet::SimRng::seed_from(1);
        let engines: [Box<dyn AtomicBroadcast<u32>>; 3] = [
            Box::new(OptAbcast::new(cfg)),
            Box::new(crate::SeqAbcast::new(SiteId::new(0))),
            Box::new(crate::ScrambledAbcast::new(scramble, crate::Oracle::new(), rng)),
        ];
        for mut engine in engines {
            engine.restore(&c2, cut.clone());
            let wires = vec![
                (SiteId::new(0), Wire::Data(old.clone())),
                (SiteId::new(0), Wire::OracleData { msg: old.clone(), oracle_seq: 0 }),
            ];
            let actions = engine.on_receive_batch(&c2, wires);
            assert!(silent(&actions), "{engine:?}: {actions:?}");
            assert_eq!(engine.definitive_log(), [old.id]);
        }
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
        let c0 = ctx_at(&dom, SiteId::new(0));
        let (_, actions) = es[0].broadcast(&c0, 5);
        // Broadcasting alone does not deliver anything locally.
        assert!(actions
            .iter()
            .all(|a| !matches!(a, EngineAction::OptDeliver(_) | EngineAction::ToDeliver(_))));
        // The loopback copy is what Opt-delivers it, once.
        let [EngineAction::Multicast(data)] = actions.as_slice() else {
            panic!("broadcast multicasts the data only: {actions:?}");
        };
        let opt_delivers = |actions: Vec<EngineAction<u32>>| {
            actions.iter().filter(|a| matches!(a, EngineAction::OptDeliver(_))).count()
        };
        assert_eq!(opt_delivers(es[0].on_receive(&c0, SiteId::new(0), data.clone())), 1);
        assert_eq!(opt_delivers(es[0].on_receive(&c0, SiteId::new(0), data.clone())), 0);
    }

    /// A hand-cranked network for the one-step tests: every frame an
    /// engine emits sits in `flight` (one entry per receiver) until the
    /// test delivers it, so a test decides who hears what and when; timers
    /// wait in `timers` until the test fires them.
    struct Lab {
        es: Vec<OptAbcast<u32>>,
        /// Each site's Opt-deliveries, in order.
        opt_logs: Vec<Vec<MsgId>>,
        dom: OrderDomain,
        flight: Vec<(SiteId, SiteId, Wire<u32>)>,
        timers: Vec<(SiteId, TimerToken)>,
    }

    fn is_vote(w: &Wire<u32>) -> bool {
        matches!(w, Wire::Consensus { msg: ConsensusMsg::Estimate { round: 0, ts: 0, .. }, .. })
    }

    impl Lab {
        fn new(n: usize) -> Self {
            Lab {
                es: engines(n),
                opt_logs: vec![Vec::new(); n],
                dom: OrderDomain::global(n),
                flight: Vec::new(),
                timers: Vec::new(),
            }
        }

        fn apply(&mut self, site: SiteId, actions: Vec<EngineAction<u32>>) {
            for a in actions {
                match a {
                    EngineAction::Multicast(w) => {
                        for to in SiteId::all(self.es.len()) {
                            self.flight.push((site, to, w.clone()));
                        }
                    }
                    EngineAction::Send(to, w) => self.flight.push((site, to, w)),
                    EngineAction::SetTimer { token, .. } => self.timers.push((site, token)),
                    EngineAction::OptDeliver(m) => self.opt_logs[site.index()].push(m.id),
                    EngineAction::ToDeliver(_) => {}
                }
            }
        }

        fn broadcast(&mut self, site: u16, payload: u32) -> MsgId {
            let site = SiteId::new(site);
            let (id, actions) = self.es[site.index()].broadcast(&ctx_at(&self.dom, site), payload);
            self.apply(site, actions);
            id
        }

        /// Delivers, in emission order and one frame per receive call,
        /// every frame in flight that `pick` selects — including what those
        /// deliveries emit — until none is left.
        fn deliver(&mut self, pick: impl Fn(SiteId, SiteId, &Wire<u32>) -> bool) {
            while let Some(i) = self.flight.iter().position(|(f, t, w)| pick(*f, *t, w)) {
                let (from, to, wire) = self.flight.remove(i);
                let actions = self.es[to.index()].on_receive(&ctx_at(&self.dom, to), from, wire);
                self.apply(to, actions);
            }
        }

        /// Fires every consensus round timer armed at `site`.
        fn fire_round_timers(&mut self, site: u16) {
            let site = SiteId::new(site);
            let (due, rest) = std::mem::take(&mut self.timers)
                .into_iter()
                .partition(|(s, token)| *s == site && token.round != BATCH_ROUND);
            self.timers = rest;
            for (_, token) in due {
                let actions = self.es[site.index()].on_timer(&ctx_at(&self.dom, site), token);
                self.apply(site, actions);
            }
        }
    }

    /// The spontaneous-order case end to end: four equal proposals, every
    /// site decides on the fourth vote, and apart from the votes the only
    /// consensus frame ever emitted is the coordinator's proposal at a
    /// majority — which nobody answers.
    #[test]
    fn unanimous_instance_decides_in_one_step_and_goes_quiet() {
        let mut lab = Lab::new(4);
        let id = lab.broadcast(1, 7);
        lab.deliver(|_, _, _| true);
        for e in &lab.es {
            assert_eq!(e.definitive_log(), [id]);
            assert_eq!(e.decide_counts(), (1, 0));
        }
        assert!(lab.flight.is_empty());
    }

    /// A site one vote behind on instance 0 joins instance 1 on first
    /// contact and must not re-propose what instance 0 is about to settle:
    /// its peers, already past instance 0, propose `[m2]` — so does it,
    /// and instance 1 is decided in one step everywhere.
    #[test]
    fn proposal_leaves_out_what_a_running_lower_instance_covers() {
        let mut lab = Lab::new(4);
        // Site 2's vote for instance 0 is slow to reach site 3.
        let slow = |f: SiteId, t: SiteId, w: &Wire<u32>| {
            f == SiteId::new(2)
                && t == SiteId::new(3)
                && matches!(w, Wire::Consensus { instance: 0, .. })
        };
        let m1 = lab.broadcast(1, 1);
        lab.deliver(|f, t, w| !slow(f, t, w));
        assert_eq!(lab.es[0].definitive_log(), [m1]);
        assert!(lab.es[3].definitive_log().is_empty(), "three votes of four");
        let m2 = lab.broadcast(0, 2);
        lab.deliver(|f, t, w| !slow(f, t, w));
        for site in 0..3 {
            assert_eq!(lab.es[site].definitive_log(), [m1, m2], "site {site}");
        }
        assert_eq!(lab.es[3].decided_instances(), 1, "instance 1, ahead of instance 0");
        lab.deliver(|_, _, _| true);
        for e in &lab.es {
            assert_eq!(e.definitive_log(), [m1, m2]);
            assert_eq!(e.decide_counts(), (2, 0));
        }
    }

    /// Round traffic emitted earlier in a receive call for an instance
    /// that decides later in the same call never leaves the site; the votes
    /// always do.
    #[test]
    fn moot_round_traffic_is_dropped_within_a_receive_call() {
        let mut lab = Lab::new(4);
        let id = lab.broadcast(1, 7);
        lab.deliver(|_, _, w| matches!(w, Wire::Data(_)));
        // The coordinator gets all four votes in one batch: it proposes at
        // the third and decides at the fourth.
        let coord = SiteId::new(0);
        let (votes, rest) =
            std::mem::take(&mut lab.flight).into_iter().partition(|(_, to, _)| *to == coord);
        lab.flight = rest;
        let batch: Vec<(SiteId, Wire<u32>)> = votes.into_iter().map(|(f, _, w)| (f, w)).collect();
        assert_eq!(batch.len(), 4);
        let out = lab.es[0].on_receive_batch(&ctx_at(&lab.dom, coord), batch);
        assert_eq!(out, vec![EngineAction::ToDeliver(vec![id])]);

        // A site that joins on first contact inside the deciding batch
        // still sends its vote — the peers are counting — but not the
        // round timer. Site 3 here: fresh engine, data and votes at once.
        let mut late: OptAbcast<u32> =
            OptAbcast::new(OptAbcastConfig::new(4, SimDuration::from_millis(20)));
        let three = SiteId::new(3);
        let mut batch = vec![(SiteId::new(1), Wire::Data(Message { id, payload: 7 }))];
        let vote =
            |est: &[MsgId]| ConsensusMsg::Estimate { round: 0, est: Arc::new(est.to_vec()), ts: 0 };
        for from in 0..4u16 {
            batch.push((SiteId::new(from), Wire::Consensus { instance: 0, msg: vote(&[id]) }));
        }
        let out = late.on_receive_batch(&ctx_at(&lab.dom, three), batch);
        assert!(
            out.iter().any(|a| matches!(a, EngineAction::Multicast(w) if is_vote(w))),
            "{out:?}"
        );
        assert!(!out.iter().any(|a| matches!(a, EngineAction::SetTimer { .. })), "{out:?}");
        assert_eq!(late.definitive_log(), [id]);
    }

    /// Only a straggler's pull is answered for a decided instance: its
    /// estimate or nack reaching the round's coordinator. A peer still
    /// running a round — a late `Propose` or `Ack` — gets no help-out
    /// frame, and neither does a vote that reaches a non-coordinator.
    #[test]
    fn decided_instance_answers_pulls_only() {
        let mut lab = Lab::new(3);
        lab.broadcast(0, 7);
        lab.deliver(|_, _, _| true);
        assert_eq!(lab.es[0].decided_instances(), 1);
        let batch = Arc::new(vec![]);
        let ask = |lab: &mut Lab, at: u16, msg| {
            let at = SiteId::new(at);
            lab.es[at.index()].on_receive(
                &ctx_at(&lab.dom, at),
                SiteId::new(2),
                Wire::Consensus { instance: 0, msg },
            )
        };
        let silent = [
            (0, ConsensusMsg::Propose { round: 2, value: Arc::clone(&batch) }),
            (0, ConsensusMsg::Ack { round: 0 }),
            (0, ConsensusMsg::Estimate { round: 1, est: Arc::clone(&batch), ts: 0 }),
            (1, ConsensusMsg::Estimate { round: 0, est: Arc::clone(&batch), ts: 0 }),
        ];
        for (at, msg) in silent {
            let out = ask(&mut lab, at, msg.clone());
            assert!(out.is_empty(), "site {at} answered {msg:?}: {out:?}");
        }
        let answered = [
            (0, ConsensusMsg::Estimate { round: 0, est: Arc::clone(&batch), ts: 0 }),
            (0, ConsensusMsg::Nack { round: 0 }),
            (1, ConsensusMsg::Estimate { round: 1, est: batch, ts: 0 }),
        ];
        for (at, msg) in answered {
            let out = ask(&mut lab, at, msg.clone());
            assert!(
                matches!(
                    out.as_slice(),
                    [EngineAction::Send(to, Wire::Consensus { msg: ConsensusMsg::Decide { .. }, .. })]
                        if *to == SiteId::new(2)
                ),
                "site {at} on {msg:?}: {out:?}"
            );
        }
    }

    /// What replaces the decision relay. Site 2 is cut off while sites 0
    /// and 1 decide instance 0 through a round; the coordinator's `Decide`
    /// for site 2 stays held past site 2's patience — and is never
    /// delivered in this test. Site 2's nack, once the cut heals, pulls the
    /// decision out of the decided coordinator.
    #[test]
    fn nack_pulls_the_decision_a_partition_held_back() {
        let mut lab = Lab::new(3);
        let loner = SiteId::new(2);
        let cut = move |from: SiteId, to: SiteId| (from == loner) != (to == loner);
        let m0 = lab.broadcast(0, 7);
        let m2 = lab.broadcast(2, 9);
        lab.deliver(|f, t, _| !cut(f, t));
        assert_eq!(lab.es[0].definitive_log(), [m0]);
        assert_eq!(lab.es[1].definitive_log(), [m0]);
        assert_eq!(lab.es[0].decide_counts(), (0, 1), "two of three: the rounds decided");
        assert_eq!(lab.opt_logs[2], [m2]);
        assert!(lab.es[2].definitive_log().is_empty());
        // One patience later, still cut off: site 2 suspects round 0.
        lab.fire_round_timers(2);
        // The coordinator's own `Decide` never arrives; the heal releases
        // everything else.
        let is_decide =
            |w: &Wire<u32>| matches!(w, Wire::Consensus { msg: ConsensusMsg::Decide { .. }, .. });
        let before = lab.flight.len();
        lab.flight.retain(|(f, t, w)| !(*f == SiteId::new(0) && *t == loner && is_decide(w)));
        assert_eq!(lab.flight.len(), before - 1, "one broadcast copy was waiting at the cut");
        lab.deliver(|_, _, _| true);
        for e in &lab.es {
            assert_eq!(e.definitive_log(), [m0, m2]);
        }
    }

    /// Re-incarnation safety, round 0's coordinator dead. Site 0 holds
    /// all four votes for `[m1]`, decides in one step and delivers; the
    /// vote of site 3 has reached nobody else. Then site 0 goes down — its
    /// proposal with it —, site 3 crashes and is rebuilt from the
    /// survivors, and proposes `[m2, m1]`. Sites 1 and 2 have instance 0
    /// open, so the snapshot's horizon covers it and site 3 rejoins it:
    /// their `[m1]` outranks its proposal whatever order round 1's
    /// coordinator hears them in, and the rounds decide what site 0
    /// delivered.
    #[test]
    fn reincarnated_voter_cannot_overturn_a_one_step_decision() {
        let mut lab = Lab::new(4);
        let (a, x) = (SiteId::new(0), SiteId::new(3));
        let m1 = lab.broadcast(2, 1);
        lab.deliver(|_, _, w| matches!(w, Wire::Data(_)));
        // Every vote reaches site 0; site 3's vote reaches only site 0,
        // and site 3 itself hears nothing more before it dies.
        lab.deliver(|f, t, w| is_vote(w) && t != x && (f != x || t == a));
        assert_eq!(lab.es[0].definitive_log(), [m1]);
        assert_eq!(lab.es[0].decide_counts(), (1, 0));
        assert!(lab.es[1].definitive_log().is_empty() && lab.es[2].definitive_log().is_empty());
        // Sites 0 and 3 are gone; what they had in flight is lost with
        // them, what was in flight to them waits.
        lab.flight.retain(|(f, _, _)| *f != a && *f != x);
        let m2 = lab.broadcast(1, 2);
        lab.deliver(|_, t, w| matches!(w, Wire::Data(_)) && t != a && t != x);
        // The newcomer is rebuilt from the union of what the members know.
        let mut snap = lab.es[1].snapshot();
        snap.merge(lab.es[2].snapshot());
        let mut reborn: OptAbcast<u32> =
            OptAbcast::new(OptAbcastConfig::new(4, SimDuration::from_millis(20)));
        reborn.restore(&ctx_at(&lab.dom, x), snap);
        lab.es[3] = reborn;
        // What waited for site 3 is replayed: it joins instance 0 with its
        // own idea of the order, and votes again.
        lab.deliver(|_, t, _| t != a);
        assert!(
            lab.es[1].definitive_log().is_empty(),
            "three survivors of four cannot skip the rounds"
        );
        // Round 0's coordinator is down: one patience, then round 1 — for
        // this instance, and again for the one that orders `m2`.
        for _instance in 0..2 {
            for site in 1..4 {
                lab.fire_round_timers(site);
            }
            lab.deliver(|_, t, _| t != a);
        }
        for site in 1..4 {
            assert_eq!(lab.es[site].definitive_log(), [m1, m2], "site {site}");
        }
    }

    /// Re-incarnation safety, round 0's coordinator alive — the
    /// interleaving no rule at the receivers covers. Every estimate in
    /// this run is sent, stamped 0, before anybody knows that site 3 will
    /// be rebuilt: site 0 (the coordinator) holds its own and site 2's,
    /// site 1 holds three of four, and the vote of site 3 for site 1 sits
    /// at a cut while site 3 crashes, the view changes and site 3 is
    /// restored from all three members. Then the cut heals: site 1 counts
    /// four of four and decides `[m1]`, and the new site 3's `[m2, m1]`
    /// completes site 0's majority. Site 0 must still propose `[m1]`.
    #[test]
    fn reincarnated_voter_cannot_overturn_a_one_step_decision_at_a_live_coordinator() {
        let mut lab = Lab::new(4);
        let (coord, a, x) = (SiteId::new(0), SiteId::new(1), SiteId::new(3));
        let m1 = lab.broadcast(2, 1);
        lab.deliver(|_, _, w| matches!(w, Wire::Data(_)));
        // The survivors' votes travel, except site 1's to the coordinator;
        // site 3's stay in flight.
        lab.deliver(|f, t, w| is_vote(w) && f != x && t != x && !(f == a && t == coord));
        assert!(lab.es.iter().all(|e| e.decided_instances() == 0));
        // Site 3 dies. Its votes to sites 0 and 2 are lost with it, the one
        // to site 1 waits at the cut; what is sent to it from now on waits.
        lab.flight.retain(|(f, t, _)| *f != x || *t == a);
        let m2 = lab.broadcast(1, 2);
        lab.deliver(|_, t, w| matches!(w, Wire::Data(_)) && t != x);
        // The view change: every member contributes, none has decided.
        let mut snap = lab.es[0].snapshot();
        snap.merge(lab.es[1].snapshot());
        snap.merge(lab.es[2].snapshot());
        assert_eq!(snap.instance_horizon, Some(1));
        let mut reborn: OptAbcast<u32> =
            OptAbcast::new(OptAbcastConfig::new(4, SimDuration::from_millis(20)));
        reborn.restore(&ctx_at(&lab.dom, x), snap);
        lab.es[3] = reborn;
        // The cut heals: the first incarnation's vote completes site 1's
        // tally.
        lab.deliver(|f, t, w| f == x && t == a && is_vote(w));
        assert_eq!(lab.es[1].decide_counts(), (1, 0));
        assert_eq!(lab.es[1].definitive_log()[0], m1);
        // What waited for site 3 is replayed: it joins instance 0 with its
        // own idea of the order — as a rejoined site, so without a vote.
        lab.deliver(|_, t, _| t == x);
        assert!(!lab.flight.iter().any(|(f, _, w)| *f == x && is_vote(w)), "{:?}", lab.flight);
        assert!(lab.flight.iter().any(|(f, t, w)| {
            *f == x
                && *t == coord
                && matches!(
                    w,
                    Wire::Consensus {
                        instance: 0,
                        msg: ConsensusMsg::Estimate { ts: otp_consensus::REJOINED_TS, est, .. },
                    } if **est == [m2, m1]
                )
        }));
        // Site 0 hears sites 0, 2 and — last — 3: a majority.
        lab.deliver(|f, t, w| !(f == a && t == coord && is_vote(w)));
        lab.deliver(|_, _, _| true);
        for (site, e) in lab.es.iter().enumerate() {
            assert_eq!(e.definitive_log(), [m1, m2], "site {site}");
        }
        assert_eq!(lab.es[3].decide_counts().0, 0, "a rejoined site decides nothing in one step");
    }
}
