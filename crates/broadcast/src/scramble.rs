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

use crate::dissemination::Dissemination;
use crate::domain::EngineCtx;
use crate::msg::{EngineAction, Message, MsgId, TimerToken, Wire};
use crate::traits::{AtomicBroadcast, EngineRetention, EngineSnapshot};
use otp_simnet::rng::SimRng;
use otp_simnet::{SimDuration, SiteId};
use std::collections::BTreeMap;
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
    /// Payloads, definitive log and own-id cursor (DESIGN.md §18).
    dis: Dissemination<P>,
    /// oracle_seq → id, for messages whose TO-delivery timer has fired or
    /// is pending.
    order: BTreeMap<u64, MsgId>,
    /// Oracle seqs whose agreement delay has elapsed.
    ripe: BTreeMap<u64, bool>,
    /// A message held back to be opt-delivered after its successor.
    swap_hold: Option<Message<P>>,
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
            dis: Dissemination::new(),
            order: BTreeMap::new(),
            ripe: BTreeMap::new(),
            swap_hold: None,
        }
    }

    /// Convenience: builds a whole connected group of `n` endpoints.
    pub fn group(n: usize, cfg: ScrambleConfig, rng: &mut SimRng) -> Vec<ScrambledAbcast<P>> {
        let oracle = Oracle::new();
        (0..n).map(|_| ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork())).collect()
    }

    fn try_to_deliver(&mut self, out: &mut Vec<EngineAction<P>>) {
        let mut delivered: Vec<MsgId> = Vec::new();
        loop {
            // TO-delivery is strictly in oracle-seq order from zero, so the
            // log's length is the next seq to deliver.
            let next = self.dis.definitive_log().len() as u64;
            let (Some(true), Some(&id)) = (self.ripe.get(&next).copied(), self.order.get(&next))
            else {
                break;
            };
            // Local Order: if the message is still held back for a swap,
            // release its Opt-delivery first — closing the current batch so
            // the Opt-delivery stays ahead of the id's TO-delivery.
            if let Some(held) = self.swap_hold.take_if(|h| h.id == id) {
                if !delivered.is_empty() {
                    out.push(EngineAction::ToDeliver(std::mem::take(&mut delivered)));
                }
                out.push(EngineAction::OptDeliver(held));
            }
            self.dis.deliver(id);
            delivered.push(id);
        }
        if !delivered.is_empty() {
            out.push(EngineAction::ToDeliver(delivered));
        }
    }

    /// Handles one wire of a receive batch.
    fn on_wire(&mut self, me: SiteId, wire: Wire<P>, out: &mut Vec<EngineAction<P>>) {
        let Wire::OracleData { msg, oracle_seq } = wire else {
            return;
        };
        // A duplicate, or delivered already: its oracle seq is behind the
        // delivery cursor.
        let Some(true) = self.dis.accept(me, &msg) else {
            return;
        };
        self.order.insert(oracle_seq, msg.id);
        self.ripe.insert(oracle_seq, false);
        // A previously held message is released by the next arrival: the
        // pair appears swapped in the tentative order.
        if let Some(held) = self.swap_hold.take() {
            out.push(EngineAction::OptDeliver(msg));
            out.push(EngineAction::OptDeliver(held));
        } else if self.rng.chance(self.cfg.swap_probability) {
            self.swap_hold = Some(msg);
        } else {
            out.push(EngineAction::OptDeliver(msg));
        }
        // Arm the agreement timer for this message.
        out.push(EngineAction::SetTimer {
            token: TimerToken { instance: oracle_seq, round: ORACLE_ROUND },
            delay: self.cfg.agreement_delay,
        });
    }
}

impl<P: Clone + std::fmt::Debug> AtomicBroadcast<P> for ScrambledAbcast<P> {
    fn broadcast(&mut self, ctx: &EngineCtx<'_>, payload: P) -> (MsgId, Vec<EngineAction<P>>) {
        let id = self.dis.next_id(ctx.me);
        let oracle_seq = self.oracle.next();
        let msg = Message { id, payload };
        (id, vec![EngineAction::Multicast(Wire::OracleData { msg, oracle_seq })])
    }

    fn on_receive_batch(
        &mut self,
        ctx: &EngineCtx<'_>,
        wires: Vec<(SiteId, Wire<P>)>,
    ) -> Vec<EngineAction<P>> {
        let mut out = Vec::new();
        for (_, wire) in wires {
            self.on_wire(ctx.me, wire, &mut out);
        }
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
        self.dis.definitive_log()
    }

    fn payload(&self, id: MsgId) -> Option<&P> {
        self.dis.payload(id)
    }

    fn snapshot(&self) -> EngineSnapshot<P> {
        EngineSnapshot {
            // The oracle seq of every known message: the only way a
            // restored endpoint can re-arm messages the donor had received
            // but not yet TO-delivered.
            order_tags: self.order.iter().map(|(seq, id)| (*id, *seq)).collect(),
            ..self.dis.snapshot()
        }
    }

    fn restore(
        &mut self,
        ctx: &EngineCtx<'_>,
        snapshot: EngineSnapshot<P>,
    ) -> Vec<EngineAction<P>> {
        let tagged = snapshot.order_tags.iter().map(|(id, _)| *id);
        self.dis.restore(ctx.me, snapshot.received, snapshot.definitive_log, tagged);
        let deliver_next = self.dis.definitive_log().len() as u64;
        let mut actions = Vec::new();
        for (id, seq) in snapshot.order_tags {
            self.order.insert(seq, id);
            let delivered = seq < deliver_next;
            self.ripe.insert(seq, delivered);
            if !delivered {
                // Received by the donor but not yet TO-delivered: tentative
                // again at this site — re-emit the Opt-delivery and restart
                // the agreement timer (the pre-crash timer died with the
                // crashed endpoint).
                actions.push(EngineAction::OptDeliver(self.dis.message(id)));
                actions.push(EngineAction::SetTimer {
                    token: TimerToken { instance: seq, round: ORACLE_ROUND },
                    delay: self.cfg.agreement_delay,
                });
            }
        }
        actions
    }

    fn bump_incarnation(&mut self) {
        self.dis.bump_incarnation();
    }

    fn retained(&self) -> EngineRetention {
        // Oracle positions are kept delivered or not, so this index grows
        // with the run.
        self.dis.retained(self.order.len() + self.ripe.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::OrderDomain;
    use crate::harness::{Delivered, Engines};
    use otp_simnet::sched::{Links, Sched};
    use otp_simnet::SimTime;

    /// The oracle engines on the scheduler (they need timers), every link
    /// 100 µs.
    struct Driver {
        engines: Engines<u32, ScrambledAbcast<u32>>,
        sched: Sched<Engines<u32, ScrambledAbcast<u32>>>,
        /// Each site's Opt-deliveries, in order: its tentative order.
        opt_logs: Vec<Vec<MsgId>>,
    }

    impl Driver {
        fn new(n: usize, cfg: ScrambleConfig, seed: u64) -> Self {
            let mut rng = SimRng::seed_from(seed);
            let group = ScrambledAbcast::group(n, cfg, &mut rng);
            let hop = SimDuration::from_micros(100);
            Driver {
                engines: Engines::with_engines(group, Box::new(|_| unreachable!("no recovery"))),
                sched: Sched::new(Links::uniform(n, hop), rng),
                opt_logs: vec![Vec::new(); n],
            }
        }

        fn engine(&self, i: usize) -> &ScrambledAbcast<u32> {
            self.engines.engine(SiteId::new(i as u16))
        }

        /// Broadcasts `payload` from `site` at time 0.
        fn broadcast(&mut self, site: SiteId, payload: u32) {
            self.sched.schedule_submit(SimTime::ZERO, site, payload);
        }

        fn run(&mut self) {
            let logs = &mut self.opt_logs;
            self.sched.run_until(SimTime::MAX, &mut self.engines, |site, _, delivered| {
                if let Delivered::Opt(id) = delivered {
                    logs[site.index()].push(id);
                }
            });
        }
    }

    #[test]
    fn definitive_order_matches_send_order() {
        let mut d = Driver::new(3, ScrambleConfig::delay_only(SimDuration::from_millis(2)), 1);
        for k in 0..10u32 {
            d.broadcast(SiteId::new((k % 3) as u16), k);
        }
        d.run();
        let log0 = d.engine(0).definitive_log().to_vec();
        assert_eq!(log0.len(), 10);
        for i in 0..3 {
            assert_eq!(d.engine(i).definitive_log(), log0.as_slice());
        }
    }

    #[test]
    fn zero_swap_means_tentative_equals_definitive() {
        let mut d = Driver::new(2, ScrambleConfig::delay_only(SimDuration::from_millis(1)), 2);
        for k in 0..20u32 {
            d.broadcast(SiteId::new(0), k);
        }
        d.run();
        for (i, tentative) in d.opt_logs.iter().enumerate() {
            assert_eq!(tentative, d.engine(i).definitive_log());
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
        let e = d.engine(1);
        assert_eq!(e.definitive_log().len(), 100, "all TO-delivered");
        // Definitive order is the oracle order at every site.
        assert_eq!(d.engine(0).definitive_log(), e.definitive_log());
        // The tentative order should differ somewhere.
        assert_ne!(d.opt_logs[1], e.definitive_log(), "swaps must show up");
        // But as a *set* it is the same 100 messages.
        let mut a = d.opt_logs[1].clone();
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
        // and TO-delivery stalls cluster-wide. A restored endpoint learns
        // that an id is taken from the donor's snapshot or from the dead
        // incarnation's wire arriving after the restore; both hold for
        // every engine.
        type Engine = Box<dyn AtomicBroadcast<u32>>;
        let cfg = ScrambleConfig::delay_only(SimDuration::from_millis(1));
        let oracle = Oracle::new();
        let mut rng = SimRng::seed_from(8);
        let mut scrambled =
            || -> Engine { Box::new(ScrambledAbcast::new(cfg, Arc::clone(&oracle), rng.fork())) };
        let opt_cfg = crate::OptAbcastConfig::new(2, SimDuration::from_millis(20));
        let mut opt = || -> Engine { Box::new(crate::OptAbcast::new(opt_cfg)) };
        let mut seq = || -> Engine { Box::new(crate::SeqAbcast::new(SiteId::new(1))) };
        let kinds: [&mut dyn FnMut() -> Engine; 3] = [&mut scrambled, &mut opt, &mut seq];
        let dom = OrderDomain::global(2);
        let c0 = EngineCtx::new(SiteId::new(0), &dom);
        for new_engine in kinds {
            let mut a = new_engine();
            let (id0, actions) = a.broadcast(&c0, 1);
            let [EngineAction::Multicast(wire)] = actions.as_slice() else {
                panic!("broadcast multicasts the data only: {actions:?}");
            };
            // Restored before the loopback copy arrived: only the wire can
            // teach this incarnation the id.
            let mut taught_by_wire = new_engine();
            taught_by_wire.restore(&c0, a.snapshot());
            // The endpoint must see its own multicast to know the id is
            // taken, and then its snapshot carries it.
            a.on_receive(&c0, SiteId::new(0), wire.clone());
            let mut taught_by_snapshot = new_engine();
            taught_by_snapshot.restore(&c0, a.snapshot());
            taught_by_wire.on_receive(&c0, SiteId::new(0), wire.clone());
            for mut restored in [taught_by_snapshot, taught_by_wire] {
                let (id1, _) = restored.broadcast(&c0, 2);
                assert!(id1.seq > id0.seq, "{restored:?} reuses {id0}");
            }
        }
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
        let e = d.engine(1);
        let mismatches =
            d.opt_logs[1].iter().zip(e.definitive_log()).filter(|(a, b)| a != b).count();
        let rate = mismatches as f64 / 2000.0;
        // Each swap displaces two adjacent positions ⇒ position-mismatch
        // rate ≈ 2·p·(1-p) ± noise. For p=0.3 that is ≈ 0.42.
        assert!(rate > 0.25 && rate < 0.60, "rate {rate}");
    }
}
