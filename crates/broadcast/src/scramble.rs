//! Oracle broadcast with controllable mismatch — a measurement instrument.
//!
//! Experiments E2/E3 sweep *agreement delay* and *tentative-order mismatch
//! rate* as independent variables. With the real optimistic engine those
//! quantities are emergent (they depend on jitter, load and consensus
//! timing), which makes clean sweeps impossible. [`ScrambledAbcast`] fixes
//! them by construction:
//!
//! * the **definitive order** is the true global send order, obtained from
//!   a counter shared by the group (the "oracle") — no agreement traffic
//!   at all;
//! * each message's **TO-delivery** fires a configurable `agreement_delay`
//!   after its receipt (modelling the coordination phase of the real
//!   protocol);
//! * with probability `swap_probability`, a message's **Opt-delivery** is
//!   *held back* until the next data message arrives, producing exactly
//!   one adjacent tentative-order inversion — a controllable mismatch.
//!
//! The delivery guarantees (Termination, Agreement, Global/Local Order)
//! still hold, so OTP replicas run over it unchanged. It is *not* a real
//! protocol — it is the lab instrument the benches use; see DESIGN.md §5.

use crate::domain::EngineCtx;
use crate::msg::{EngineAction, Message, MsgId, TimerToken, Wire, RECOVERY_SEQ_GAP};
use crate::traits::{AtomicBroadcast, EngineSnapshot};
use otp_simnet::rng::SimRng;
use otp_simnet::{SimDuration, SiteId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Marker in [`TimerToken::round`] identifying oracle TO-delivery timers.
const ORACLE_ROUND: u64 = u64::MAX;

/// Configuration of the oracle engine.
#[derive(Debug, Clone, Copy)]
pub struct ScrambleConfig {
    /// Fixed delay between a message's receipt and its TO-delivery —
    /// stands in for the coordination phase of a real protocol.
    pub agreement_delay: SimDuration,
    /// Probability that a message's Opt-delivery is swapped with the next
    /// message's, producing one adjacent mismatch between tentative and
    /// definitive order.
    pub swap_probability: f64,
}

impl ScrambleConfig {
    /// A configuration with the given delay and no mismatches.
    pub fn delay_only(agreement_delay: SimDuration) -> Self {
        ScrambleConfig { agreement_delay, swap_probability: 0.0 }
    }
}

/// Shared oracle: hands out the global send order.
#[derive(Debug, Default)]
pub struct Oracle {
    counter: AtomicU64,
}

impl Oracle {
    /// Creates the group oracle.
    pub fn new() -> Arc<Oracle> {
        Arc::new(Oracle::default())
    }

    fn next(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }
}

/// The oracle-ordered endpoint at one site. See the
/// [module docs](self) for semantics.
#[derive(Debug)]
pub struct ScrambledAbcast<P> {
    cfg: ScrambleConfig,
    oracle: Arc<Oracle>,
    rng: SimRng,
    next_seq: u64,
    received: HashMap<MsgId, Message<P>>,
    /// oracle_seq → id, for messages whose TO-delivery timer has fired or
    /// is pending.
    order: BTreeMap<u64, MsgId>,
    /// Oracle seqs whose agreement delay has elapsed.
    ripe: BTreeMap<u64, bool>,
    deliver_next: u64,
    /// A message held back to be opt-delivered after its successor.
    swap_hold: Option<Message<P>>,
    opt_log: Vec<MsgId>,
    definitive_log: Vec<MsgId>,
}

impl<P: Clone + std::fmt::Debug> ScrambledAbcast<P> {
    /// Creates the endpoint. All endpoints of a group must share the same
    /// `oracle`; give each its own forked `rng` (the per-call
    /// [`EngineCtx`] says which site the endpoint is).
    pub fn new(cfg: ScrambleConfig, oracle: Arc<Oracle>, rng: SimRng) -> Self {
        ScrambledAbcast {
            cfg,
            oracle,
            rng,
            next_seq: 0,
            received: HashMap::new(),
            order: BTreeMap::new(),
            ripe: BTreeMap::new(),
            deliver_next: 0,
            swap_hold: None,
            opt_log: Vec::new(),
            definitive_log: Vec::new(),
        }
    }

    /// Convenience: builds a whole connected group of `n` endpoints.
    pub fn group(n: usize, cfg: ScrambleConfig, rng: &mut SimRng) -> Vec<ScrambledAbcast<P>> {
        let oracle = Oracle::new();
        (0..n).map(|_| ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork())).collect()
    }

    /// The tentative (Opt-delivery) order observed so far.
    pub fn tentative_log(&self) -> &[MsgId] {
        &self.opt_log
    }

    fn opt_deliver(&mut self, msg: Message<P>, out: &mut Vec<EngineAction<P>>) {
        self.opt_log.push(msg.id);
        out.push(EngineAction::OptDeliver(msg));
    }

    fn flush_hold(&mut self, out: &mut Vec<EngineAction<P>>) {
        if let Some(held) = self.swap_hold.take() {
            self.opt_deliver(held, out);
        }
    }

    fn try_to_deliver(&mut self, out: &mut Vec<EngineAction<P>>) {
        let mut delivered: Vec<MsgId> = Vec::new();
        while let (Some(&ready), Some(id)) =
            (self.ripe.get(&self.deliver_next), self.order.get(&self.deliver_next).copied())
        {
            if !ready {
                break;
            }
            // Local Order: if the message is still held back for a swap,
            // release its Opt-delivery first — closing the current batch so
            // the Opt-delivery stays ahead of the id's TO-delivery.
            if self.swap_hold.as_ref().is_some_and(|h| h.id == id) {
                if !delivered.is_empty() {
                    out.push(EngineAction::ToDeliver(std::mem::take(&mut delivered)));
                }
                self.flush_hold(out);
            }
            self.definitive_log.push(id);
            delivered.push(id);
            self.deliver_next += 1;
        }
        if !delivered.is_empty() {
            out.push(EngineAction::ToDeliver(delivered));
        }
    }
}

impl<P: Clone + std::fmt::Debug> AtomicBroadcast<P> for ScrambledAbcast<P> {
    fn broadcast(&mut self, ctx: &EngineCtx<'_>, payload: P) -> (MsgId, Vec<EngineAction<P>>) {
        let id = MsgId::new(ctx.me, self.next_seq);
        self.next_seq += 1;
        let oracle_seq = self.oracle.next();
        let msg = Message { id, payload };
        (id, vec![EngineAction::Multicast(Wire::OracleData { msg, oracle_seq })])
    }

    fn on_receive(
        &mut self,
        ctx: &EngineCtx<'_>,
        _from: SiteId,
        wire: Wire<P>,
    ) -> Vec<EngineAction<P>> {
        let Wire::OracleData { msg, oracle_seq } = wire else {
            return Vec::new();
        };
        if self.received.contains_key(&msg.id) {
            return Vec::new();
        }
        // Sent by a previous incarnation of this endpoint: never reuse its
        // sequence number.
        if msg.id.origin == ctx.me {
            self.next_seq = self.next_seq.max(msg.id.seq + 1);
        }
        self.received.insert(msg.id, msg.clone());
        self.order.insert(oracle_seq, msg.id);
        self.ripe.insert(oracle_seq, false);

        let mut out = Vec::new();
        // A previously held message is released by the next arrival: the
        // pair appears swapped in the tentative order.
        let had_hold = self.swap_hold.is_some();
        if had_hold {
            self.opt_deliver(msg.clone(), &mut out);
            self.flush_hold(&mut out);
        } else if self.rng.chance(self.cfg.swap_probability) {
            self.swap_hold = Some(msg.clone());
        } else {
            self.opt_deliver(msg.clone(), &mut out);
        }
        // Arm the agreement timer for this message.
        out.push(EngineAction::SetTimer {
            token: TimerToken { instance: oracle_seq, round: ORACLE_ROUND },
            delay: self.cfg.agreement_delay,
        });
        out
    }

    fn on_timer(&mut self, _ctx: &EngineCtx<'_>, token: TimerToken) -> Vec<EngineAction<P>> {
        if token.round != ORACLE_ROUND {
            return Vec::new();
        }
        self.ripe.insert(token.instance, true);
        let mut out = Vec::new();
        self.try_to_deliver(&mut out);
        out
    }

    fn definitive_log(&self) -> &[MsgId] {
        &self.definitive_log
    }

    fn snapshot(&self) -> EngineSnapshot<P> {
        // Sorted collect: state-transfer payload must not inherit
        // HashMap iteration order.
        let mut received: Vec<Message<P>> = self.received.values().cloned().collect();
        received.sort_by_key(|m| m.id);
        EngineSnapshot {
            decided: BTreeMap::new(),
            received,
            definitive_log: self.definitive_log.clone(),
            // The oracle seq of every known message: the only way a
            // restored endpoint can re-arm messages the donor had received
            // but not yet TO-delivered.
            order_tags: self.order.iter().map(|(seq, id)| (*id, *seq)).collect(),
            epoch: 0,
            order_fence: 0,
            min_delivered: self.definitive_log.len() as u64,
            instance_horizon: None,
        }
    }

    fn restore(
        &mut self,
        ctx: &EngineCtx<'_>,
        snapshot: EngineSnapshot<P>,
    ) -> Vec<EngineAction<P>> {
        self.definitive_log = snapshot.definitive_log.clone();
        self.opt_log = snapshot.definitive_log.clone();
        for m in snapshot.received {
            self.received.insert(m.id, m);
        }
        // TO-delivery is strictly in oracle-seq order from zero, so the
        // definitive log covers seqs 0..len densely.
        self.deliver_next = snapshot.definitive_log.len() as u64;
        let mut actions = Vec::new();
        for (id, seq) in snapshot.order_tags {
            self.order.insert(seq, id);
            if seq < self.deliver_next {
                self.ripe.insert(seq, true);
            } else {
                // Received by the donor but not yet TO-delivered: tentative
                // again at this site — re-emit the Opt-delivery and restart
                // the agreement timer (the pre-crash timer died with the
                // crashed endpoint).
                self.ripe.insert(seq, false);
                let msg = self.received[&id].clone();
                self.opt_deliver(msg, &mut actions);
                actions.push(EngineAction::SetTimer {
                    token: TimerToken { instance: seq, round: ORACLE_ROUND },
                    delay: self.cfg.agreement_delay,
                });
            }
        }
        // Our own sequence numbers must not collide with pre-crash ones —
        // peers would silently drop the reused ids and their oracle seqs
        // would become permanent holes in the delivery order. Scan the
        // order map as well as the payload store: a merged digest can tag
        // an own id this union's `received` happens to carry anyway, but
        // the comprehensive scan keeps the incarnation gap anchored at the
        // highest id *any* survivor reported, whatever shape the digest
        // took (same audit as the opt engine's decided-batch scan).
        let my_max = self
            .received
            .keys()
            .copied()
            .chain(self.order.values().copied())
            .filter(|id| id.origin == ctx.me)
            .map(|id| id.seq)
            .max();
        if let Some(mx) = my_max {
            self.next_seq = self.next_seq.max(mx + 1);
        }
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

    /// Timed mini-driver for the oracle engine (it needs timers).
    struct Driver {
        engines: Vec<ScrambledAbcast<u32>>,
        dom: OrderDomain,
        queue: otp_simnet::EventQueue<Ev>,
    }

    enum Ev {
        Deliver { to: SiteId, from: SiteId, wire: Wire<u32> },
        Timer { site: SiteId, token: TimerToken },
    }

    impl Driver {
        fn new(n: usize, cfg: ScrambleConfig, seed: u64) -> Self {
            let mut rng = SimRng::seed_from(seed);
            Driver {
                engines: ScrambledAbcast::group(n, cfg, &mut rng),
                dom: OrderDomain::global(n),
                queue: otp_simnet::EventQueue::new(),
            }
        }

        fn apply(&mut self, site: SiteId, actions: Vec<EngineAction<u32>>) {
            let now = self.queue.now();
            let hop = SimDuration::from_micros(100);
            for a in actions {
                match a {
                    EngineAction::Multicast(w) => {
                        for to in SiteId::all(self.engines.len()) {
                            self.queue.schedule(
                                now + hop,
                                Ev::Deliver { to, from: site, wire: w.clone() },
                            );
                        }
                    }
                    EngineAction::Send(to, w) => {
                        self.queue.schedule(now + hop, Ev::Deliver { to, from: site, wire: w });
                    }
                    EngineAction::SetTimer { token, delay } => {
                        self.queue.schedule(now + delay, Ev::Timer { site, token });
                    }
                    EngineAction::OptDeliver(_) | EngineAction::ToDeliver(_) => {}
                }
            }
        }

        fn broadcast(&mut self, site: SiteId, payload: u32) {
            let ctx = EngineCtx::new(site, &self.dom);
            let (_, actions) = self.engines[site.index()].broadcast(&ctx, payload);
            self.apply(site, actions);
        }

        fn run(&mut self) {
            while let Some((_, ev)) = self.queue.pop() {
                match ev {
                    Ev::Deliver { to, from, wire } => {
                        let ctx = EngineCtx::new(to, &self.dom);
                        let actions = self.engines[to.index()].on_receive(&ctx, from, wire);
                        self.apply(to, actions);
                    }
                    Ev::Timer { site, token } => {
                        let ctx = EngineCtx::new(site, &self.dom);
                        let actions = self.engines[site.index()].on_timer(&ctx, token);
                        self.apply(site, actions);
                    }
                }
            }
        }
    }

    #[test]
    fn definitive_order_matches_send_order() {
        let mut d = Driver::new(3, ScrambleConfig::delay_only(SimDuration::from_millis(2)), 1);
        for k in 0..10u32 {
            d.broadcast(SiteId::new((k % 3) as u16), k);
        }
        d.run();
        let log0 = d.engines[0].definitive_log().to_vec();
        assert_eq!(log0.len(), 10);
        for e in &d.engines {
            assert_eq!(e.definitive_log(), log0.as_slice());
        }
    }

    #[test]
    fn zero_swap_means_tentative_equals_definitive() {
        let mut d = Driver::new(2, ScrambleConfig::delay_only(SimDuration::from_millis(1)), 2);
        for k in 0..20u32 {
            d.broadcast(SiteId::new(0), k);
        }
        d.run();
        for e in &d.engines {
            assert_eq!(e.tentative_log(), e.definitive_log());
        }
    }

    #[test]
    fn swaps_produce_tentative_mismatches_but_not_definitive_ones() {
        let cfg =
            ScrambleConfig { agreement_delay: SimDuration::from_millis(1), swap_probability: 0.5 };
        let mut d = Driver::new(2, cfg, 3);
        for k in 0..100u32 {
            d.broadcast(SiteId::new(0), k);
        }
        d.run();
        let e = &d.engines[1];
        assert_eq!(e.definitive_log().len(), 100, "all TO-delivered");
        // Definitive order is the oracle order at every site.
        assert_eq!(d.engines[0].definitive_log(), e.definitive_log());
        // The tentative order should differ somewhere.
        assert_ne!(e.tentative_log(), e.definitive_log(), "swaps must show up");
        // But as a *set* it is the same 100 messages.
        let mut a = e.tentative_log().to_vec();
        let mut b = e.definitive_log().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn local_order_holds_even_with_swaps() {
        // With swap probability 1.0 every message is held; the hold must be
        // released before its TO-delivery.
        let cfg =
            ScrambleConfig { agreement_delay: SimDuration::from_micros(10), swap_probability: 1.0 };
        let oracle = Oracle::new();
        let mut rng = SimRng::seed_from(4);
        let dom = OrderDomain::global(2);
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut e: ScrambledAbcast<u32> =
            ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork());
        let id = MsgId::new(SiteId::new(1), 0);
        let a1 = e.on_receive(
            &c0,
            SiteId::new(1),
            Wire::OracleData { msg: Message { id, payload: 1 }, oracle_seq: 0 },
        );
        // Held: no opt-delivery yet.
        assert!(!a1.iter().any(|a| matches!(a, EngineAction::OptDeliver(_))));
        // Timer fires → opt then to, in that order.
        let a2 = e.on_timer(&c0, TimerToken { instance: 0, round: u64::MAX });
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
    fn restore_does_not_reuse_own_msg_ids() {
        // Found by the chaos swarm: a restored endpoint restarting at
        // next_seq = 0 reuses pre-crash MsgIds, which every peer silently
        // deduplicates — the reused ids' oracle seqs become permanent holes
        // and TO-delivery stalls cluster-wide.
        let cfg = ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let oracle = Oracle::new();
        let mut rng = SimRng::seed_from(8);
        let dom = OrderDomain::global(2);
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let mut a: ScrambledAbcast<u32> =
            ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork());
        let (id0, actions) = a.broadcast(&c0, 1);
        // The endpoint must see its own multicast to know the id is taken.
        for act in actions {
            if let EngineAction::Multicast(w) = act {
                a.on_receive(&c0, SiteId::new(0), w);
            }
        }
        let snap = a.snapshot();
        let mut fresh: ScrambledAbcast<u32> =
            ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork());
        fresh.restore(&c0, snap);
        let (id1, _) = fresh.broadcast(&c0, 2);
        assert_ne!(id0, id1, "restored endpoint must not reuse pre-crash ids");
        assert!(id1.seq > id0.seq);
    }

    #[test]
    fn restore_rearms_pending_messages() {
        // A message the donor had received but not yet TO-delivered must be
        // re-armed (fresh Opt-delivery + agreement timer) at the restored
        // endpoint, otherwise its oracle seq never ripens there.
        let cfg = ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let oracle = Oracle::new();
        let mut rng = SimRng::seed_from(9);
        let dom = OrderDomain::global(3);
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        let c2 = EngineCtx::new(SiteId::new(2), &dom);
        let mut donor: ScrambledAbcast<u32> =
            ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork());
        let id = MsgId::new(SiteId::new(1), 0);
        donor.on_receive(
            &c0,
            SiteId::new(1),
            Wire::OracleData { msg: Message { id, payload: 7 }, oracle_seq: 0 },
        );
        // Not yet ripe at the donor — snapshot now.
        let snap = donor.snapshot();
        let mut fresh: ScrambledAbcast<u32> =
            ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork());
        let actions = fresh.restore(&c2, snap);
        assert!(
            actions.iter().any(|a| matches!(a, EngineAction::OptDeliver(m) if m.id == id)),
            "pending message is tentative again"
        );
        let timer = actions.iter().find_map(|a| match a {
            EngineAction::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        let token = timer.expect("agreement timer re-armed");
        assert_eq!(token.instance, 0, "armed with the original oracle seq");
        // When the timer fires the message TO-delivers.
        let fired = fresh.on_timer(&c2, token);
        assert!(fired.iter().any(|a| matches!(a, EngineAction::ToDeliver(d) if d.contains(&id))));
    }

    #[test]
    fn measured_mismatch_rate_tracks_probability() {
        let cfg =
            ScrambleConfig { agreement_delay: SimDuration::from_millis(1), swap_probability: 0.3 };
        let mut d = Driver::new(2, cfg, 5);
        for k in 0..2000u32 {
            d.broadcast(SiteId::new(0), k);
        }
        d.run();
        let e = &d.engines[1];
        let mismatches =
            e.tentative_log().iter().zip(e.definitive_log()).filter(|(a, b)| a != b).count();
        let rate = mismatches as f64 / 2000.0;
        // Each swap displaces two adjacent positions ⇒ position-mismatch
        // rate ≈ 2·p·(1-p) ± noise. For p=0.3 that is ≈ 0.42.
        assert!(rate > 0.25 && rate < 0.60, "rate {rate}");
    }
}
