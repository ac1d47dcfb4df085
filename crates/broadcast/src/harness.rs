//! Broadcast engines on the simulated LAN.
//!
//! [`LanCluster`] runs `n` engine endpoints on the one deterministic
//! scheduler ([`otp_simnet::sched::Sched`]) over a [`MulticastNet`]: the
//! engines are one scheduler node, engine actions become its outputs
//! (sends, multicasts, timers), arrivals become `on_receive` calls, and
//! Opt-/TO-deliveries are logged per site. Crash and recovery (with state
//! transfer from a donor site, which must be up) can be scheduled at
//! absolute times; the scheduler holds what reaches a crashed site and
//! replays it after the recovery, 10 µs apart. A timer fires whenever its
//! site is up, whichever incarnation armed it.
//!
//! The harness powers this crate's property tests and the protocol-level
//! experiments in `otp-bench`; the full transaction-processing cluster in
//! `otp-core` runs on the same scheduler with a replica beside each
//! engine.
//!
//! # Examples
//!
//! ```
//! use otp_broadcast::harness::LanCluster;
//! use otp_broadcast::{OptAbcast, OptAbcastConfig};
//! use otp_simnet::{NetConfig, SimDuration, SimTime, SiteId};
//!
//! let cfg = OptAbcastConfig::new(3, SimDuration::from_millis(20));
//! let mut cluster = LanCluster::new(
//!     NetConfig::lan_10mbps(3),
//!     7, // seed
//!     Box::new(move |_| OptAbcast::<u64>::new(cfg)),
//! );
//! cluster.schedule_broadcast(SimTime::from_millis(1), SiteId::new(0), 42u64, 64);
//! cluster.run_until(SimTime::from_secs(5));
//! // Every site TO-delivered the message, in the same (trivial) order.
//! assert_eq!(cluster.to_logs[0].len(), 1);
//! assert_eq!(cluster.to_logs[1], cluster.to_logs[0]);
//! ```

use crate::domain::{EngineCtx, OrderDomain};
use crate::msg::{EngineAction, MsgId, PayloadSize, TimerToken, Wire};
use crate::traits::AtomicBroadcast;
use otp_simnet::sched::{Data, Input, Links, Node, Output, Outputs, Sched};
use otp_simnet::{MulticastNet, NetConfig, SimRng, SimTime, SiteId};

/// Factory producing a fresh engine for a site — used at startup and again
/// when a crashed site recovers with a blank state.
pub type EngineFactory<E> = Box<dyn Fn(SiteId) -> E>;

/// One engine per site, as one scheduler node over the single global
/// order domain (sharded domains live in the `otp-core` cluster driver).
pub struct Engines<P, E> {
    engines: Vec<E>,
    factory: EngineFactory<E>,
    domain: OrderDomain,
    _payload: std::marker::PhantomData<P>,
}

/// What an engine site reports to its driver.
#[derive(Debug)]
pub enum Delivered {
    /// A data wire arrived (the raw receive order, before any engine
    /// logic).
    Received(MsgId),
    /// The site broadcast a message under this id.
    Broadcast(MsgId),
    /// Opt-delivery.
    Opt(MsgId),
    /// TO-delivery, in order.
    To(Vec<MsgId>),
    /// The site was restored: both its delivery logs restart from this
    /// definitive log.
    Restored(Vec<MsgId>),
}

impl<P: Clone + PayloadSize, E> Data for Engines<P, E> {
    type Wire = Wire<P>;
    type Timer = TimerToken;
    type Work = ();
    type Submit = P;
    /// Recover from this donor.
    type Control = SiteId;
    type Report = Delivered;

    fn wire_size(wire: &Wire<P>) -> u32 {
        wire.size_bytes()
    }
}

impl<P: Clone + PayloadSize, E: AtomicBroadcast<P>> Engines<P, E> {
    /// The engines `factory` builds for sites `0..n`.
    pub fn new(n: usize, factory: EngineFactory<E>) -> Self {
        let engines = SiteId::all(n).map(&factory).collect();
        Self::with_engines(engines, factory)
    }

    /// `engines`, one per site in site order; `factory` builds a
    /// recovering site's fresh engine.
    pub fn with_engines(engines: Vec<E>, factory: EngineFactory<E>) -> Self {
        let n = engines.len();
        Engines {
            engines,
            factory,
            domain: OrderDomain::global(n),
            _payload: std::marker::PhantomData,
        }
    }

    /// Site `site`'s engine.
    pub fn engine(&self, site: SiteId) -> &E {
        &self.engines[site.index()]
    }
}

/// Pushes `actions` as the node's outputs, in order.
fn push_actions<P: Clone + PayloadSize, E>(
    actions: Vec<EngineAction<P>>,
    out: &mut Outputs<Engines<P, E>>,
) {
    for a in actions {
        match a {
            EngineAction::Multicast(wire) => out.push(Output::Multicast { group: 0, wire }),
            EngineAction::Send(to, wire) => out.push(Output::Send { group: 0, to, wire }),
            EngineAction::SetTimer { token, delay } => {
                out.push(Output::Timer { after: delay, timer: token })
            }
            EngineAction::OptDeliver(msg) => out.push(Output::Report(Delivered::Opt(msg.id))),
            EngineAction::ToDeliver(ids) => out.push(Output::Report(Delivered::To(ids))),
        }
    }
}

impl<P: Clone + PayloadSize, E: AtomicBroadcast<P>> Node for Engines<P, E> {
    type Data = Self;

    fn handle(&mut self, at: SiteId, _now: SimTime, input: Input<Self>, out: &mut Outputs<Self>) {
        let ctx = EngineCtx::new(at, &self.domain);
        let engine = &mut self.engines[at.index()];
        match input {
            Input::Wires(batch) => {
                for a in batch {
                    if let Wire::Data(m) | Wire::OracleData { msg: m, .. } = &a.wire {
                        out.push(Output::Report(Delivered::Received(m.id)));
                    }
                    push_actions(engine.on_receive(&ctx, a.from, a.wire), out);
                }
            }
            Input::Timer(token) => push_actions(engine.on_timer(&ctx, token), out),
            Input::Submit(payload) => {
                let (id, actions) = engine.broadcast(&ctx, payload);
                out.push(Output::Report(Delivered::Broadcast(id)));
                push_actions(actions, out);
            }
            // Fresh engine + state transfer from the donor, then the
            // post-restore repair (the harness holds no partition buffers,
            // so there are no self-sent wires to re-teach first — see the
            // cluster driver for the full sequence).
            Input::Control(donor) => {
                let snapshot = self.engines[donor.index()].snapshot();
                let mut fresh = (self.factory)(at);
                let actions = fresh.restore(&ctx, snapshot);
                out.push(Output::Report(Delivered::Restored(fresh.definitive_log().to_vec())));
                push_actions(actions, out);
                push_actions(fresh.finish_restore(&ctx), out);
                self.engines[at.index()] = fresh;
            }
            Input::Done(()) => {}
        }
    }
}

/// A deterministic simulated cluster of broadcast endpoints.
///
/// Public log fields hold, per site: the raw data receive order
/// ([`LanCluster::receive_logs`] — the input to the Figure 1 metric), the
/// Opt-delivery order and the TO-delivery order.
pub struct LanCluster<P: Clone + PayloadSize, E> {
    engines: Engines<P, E>,
    sched: Sched<Engines<P, E>>,
    /// Raw data-message receive order per site (tentative order source).
    pub receive_logs: Vec<Vec<MsgId>>,
    /// Opt-delivery order per site.
    pub opt_logs: Vec<Vec<MsgId>>,
    /// TO-delivery order per site.
    pub to_logs: Vec<Vec<MsgId>>,
    /// Ids broadcast so far (submission order, global).
    pub broadcasts: Vec<MsgId>,
}

impl<P, E> LanCluster<P, E>
where
    P: Clone + PayloadSize + std::fmt::Debug,
    E: AtomicBroadcast<P>,
{
    /// Creates a cluster over `net_config.sites` endpoints.
    pub fn new(net_config: NetConfig, seed: u64, factory: EngineFactory<E>) -> Self {
        let n = net_config.sites;
        let links = Links::Net(Box::new(MulticastNet::new(net_config)));
        LanCluster {
            engines: Engines::new(n, factory),
            sched: Sched::new(links, SimRng::seed_from(seed)),
            receive_logs: vec![Vec::new(); n],
            opt_logs: vec![Vec::new(); n],
            to_logs: vec![Vec::new(); n],
            broadcasts: Vec::new(),
        }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.to_logs.len()
    }

    /// Immutable access to an engine (for assertions).
    pub fn engine(&self, site: SiteId) -> &E {
        self.engines.engine(site)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total frames the simulated network carried.
    pub fn network_frames(&self) -> u64 {
        self.sched.net().sent_frames()
    }

    /// Schedules a TO-broadcast of `payload` from `site` at absolute time
    /// `at`. `size` is not used: a frame's size on the wire is its
    /// [`PayloadSize`].
    pub fn schedule_broadcast(&mut self, at: SimTime, site: SiteId, payload: P, size: u32) {
        let _ = size;
        self.sched.schedule_submit(at, site, payload);
    }

    /// Schedules a crash of `site` at `at`. A crashed site stops processing
    /// and its inbound messages are buffered (reliable channels).
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.sched.schedule_crash(at, site);
    }

    /// Schedules recovery of `site` at `at`, with state transferred from
    /// `donor`.
    ///
    /// # Panics
    ///
    /// [`LanCluster::run_until`] panics when it reaches the recovery and
    /// `donor` is down.
    pub fn schedule_recover(&mut self, at: SimTime, site: SiteId, donor: SiteId) {
        self.sched.schedule_restore(at, site, donor);
    }

    /// Runs until the queue empties or `deadline` passes, whichever comes
    /// first. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.sched.events();
        let (receive, opt, to, broadcasts) =
            (&mut self.receive_logs, &mut self.opt_logs, &mut self.to_logs, &mut self.broadcasts);
        let mut record = |site: SiteId, _, delivered| {
            let s = site.index();
            match delivered {
                Delivered::Received(id) => receive[s].push(id),
                Delivered::Broadcast(id) => broadcasts.push(id),
                Delivered::Opt(id) => opt[s].push(id),
                Delivered::To(ids) => to[s].extend(ids),
                // The pre-crash prefix is gone from the fresh engine's
                // perspective: both logs restart from its definitive log.
                Delivered::Restored(log) => {
                    opt[s] = log.clone();
                    to[s] = log;
                }
            }
        };
        // `Sched::run_until`'s loop, with the donor checked before a
        // restore (the only control this driver schedules) copies it.
        let mut out = Vec::new();
        while let Some((site, input)) = self.sched.next(deadline) {
            if let Input::Control(donor) = &input {
                assert!(self.sched.is_up(*donor), "donor {donor} must be up");
            }
            let restore = matches!(input, Input::Control(_));
            let input = match input {
                Input::Wires(batch) => Input::Wires(self.sched.admit(site, batch)),
                input => input,
            };
            self.engines.handle(site, self.sched.now(), input, &mut out);
            self.sched.apply(site, &mut out, &mut record);
            if restore {
                self.sched.replay_held(site);
            }
        }
        self.sched.events() - start
    }
}

impl<P: Clone + PayloadSize, E> std::fmt::Debug for LanCluster<P, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanCluster")
            .field("sites", &self.to_logs.len())
            .field("now", &self.sched.now())
            .field("broadcasts", &self.broadcasts.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::{OptAbcast, OptAbcastConfig};
    use crate::seq::SeqAbcast;
    use otp_simnet::SimDuration;

    fn opt_cluster(n: usize, seed: u64) -> LanCluster<u64, OptAbcast<u64>> {
        let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(50));
        LanCluster::new(NetConfig::lan_10mbps(n), seed, Box::new(move |_| OptAbcast::new(cfg)))
    }

    fn seq_cluster(n: usize, seed: u64) -> LanCluster<u64, SeqAbcast<u64>> {
        LanCluster::new(
            NetConfig::lan_10mbps(n),
            seed,
            Box::new(move |_| SeqAbcast::new(SiteId::new(0))),
        )
    }

    #[test]
    fn opt_engine_delivers_under_realistic_jitter() {
        let mut c = opt_cluster(4, 11);
        let mut t = SimTime::from_millis(1);
        for k in 0..40u64 {
            let site = SiteId::new((k % 4) as u16);
            c.schedule_broadcast(t, site, k, 200);
            t += SimDuration::from_micros(700);
        }
        c.run_until(SimTime::from_secs(30));
        for s in 0..4 {
            assert_eq!(c.to_logs[s].len(), 40, "site {s} TO-delivered everything");
            assert_eq!(c.to_logs[s], c.to_logs[0], "global order");
            assert_eq!(c.opt_logs[s].len(), 40, "site {s} opt-delivered everything");
        }
    }

    #[test]
    fn seq_engine_delivers_under_realistic_jitter() {
        let mut c = seq_cluster(4, 13);
        let mut t = SimTime::from_millis(1);
        for k in 0..40u64 {
            let site = SiteId::new((k % 4) as u16);
            c.schedule_broadcast(t, site, k, 200);
            t += SimDuration::from_micros(700);
        }
        c.run_until(SimTime::from_secs(30));
        for s in 0..4 {
            assert_eq!(c.to_logs[s].len(), 40);
            assert_eq!(c.to_logs[s], c.to_logs[0]);
        }
    }

    #[test]
    fn local_order_invariant_holds_sitewide() {
        let mut c = opt_cluster(3, 17);
        let mut t = SimTime::from_millis(1);
        for k in 0..30u64 {
            c.schedule_broadcast(t, SiteId::new((k % 3) as u16), k, 100);
            t += SimDuration::from_micros(300);
        }
        c.run_until(SimTime::from_secs(30));
        // Every TO-delivered id must appear in the opt log (Local Order is
        // checked in-engine; here we check the harness view).
        for s in 0..3 {
            for id in &c.to_logs[s] {
                assert!(c.opt_logs[s].contains(id));
            }
        }
    }

    #[test]
    fn crash_and_recovery_converges() {
        let mut c = opt_cluster(4, 23);
        let mut t = SimTime::from_millis(1);
        for k in 0..20u64 {
            c.schedule_broadcast(t, SiteId::new((k % 2) as u16), k, 100);
            t += SimDuration::from_millis(2);
        }
        // Site 3 crashes early and recovers later; more traffic follows.
        c.schedule_crash(SimTime::from_millis(5), SiteId::new(3));
        c.schedule_recover(SimTime::from_millis(120), SiteId::new(3), SiteId::new(0));
        let mut t = SimTime::from_millis(150);
        for k in 20..30u64 {
            c.schedule_broadcast(t, SiteId::new((k % 2) as u16), k, 100);
            t += SimDuration::from_millis(2);
        }
        c.run_until(SimTime::from_secs(60));
        assert_eq!(c.to_logs[3].len(), 30, "recovered site has the full log");
        assert_eq!(c.to_logs[3], c.to_logs[0]);
    }

    #[test]
    #[should_panic(expected = "donor N0 must be up")]
    fn recovering_from_a_down_donor_panics() {
        let mut c = opt_cluster(3, 5);
        c.schedule_crash(SimTime::from_millis(1), SiteId::new(2));
        c.schedule_crash(SimTime::from_millis(2), SiteId::new(0));
        c.schedule_recover(SimTime::from_millis(3), SiteId::new(2), SiteId::new(0));
        c.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn majority_survives_minority_crash() {
        let mut c = opt_cluster(5, 29);
        c.schedule_crash(SimTime::from_millis(3), SiteId::new(4));
        let mut t = SimTime::from_millis(5);
        for k in 0..15u64 {
            c.schedule_broadcast(t, SiteId::new((k % 4) as u16), k, 100);
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(60));
        for s in 0..4 {
            assert_eq!(c.to_logs[s].len(), 15, "site {s}");
            assert_eq!(c.to_logs[s], c.to_logs[0]);
        }
    }

    #[test]
    fn batched_initiation_delivers_everything_with_fewer_frames() {
        let run = |batch: Option<SimDuration>| {
            let mut cfg = OptAbcastConfig::new(3, SimDuration::from_millis(50));
            if let Some(d) = batch {
                cfg = cfg.with_batch_delay(d);
            }
            let mut c: LanCluster<u64, OptAbcast<u64>> = LanCluster::new(
                NetConfig::lan_10mbps(3),
                41,
                Box::new(move |_| OptAbcast::new(cfg)),
            );
            let mut t = SimTime::from_millis(1);
            for k in 0..30u64 {
                c.schedule_broadcast(t, SiteId::new((k % 3) as u16), k, 100);
                t += SimDuration::from_micros(400);
            }
            c.run_until(SimTime::from_secs(60));
            for s in 0..3 {
                assert_eq!(c.to_logs[s].len(), 30, "site {s} delivered all");
                assert_eq!(c.to_logs[s], c.to_logs[0], "global order");
            }
            c.network_frames()
        };
        let unbatched = run(None);
        let batched = run(Some(SimDuration::from_millis(4)));
        assert!(
            batched < unbatched * 3 / 4,
            "batching must cut agreement traffic: {batched} vs {unbatched}"
        );
    }

    #[test]
    fn lossy_network_still_delivers() {
        let n = 3;
        let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(50));
        let mut c: LanCluster<u64, OptAbcast<u64>> = LanCluster::new(
            NetConfig::lan_10mbps(n).with_loss(0.05),
            31,
            Box::new(move |_| OptAbcast::new(cfg)),
        );
        let mut t = SimTime::from_millis(1);
        for k in 0..25u64 {
            c.schedule_broadcast(t, SiteId::new((k % 3) as u16), k, 150);
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(60));
        for s in 0..n {
            assert_eq!(c.to_logs[s].len(), 25, "site {s}");
            assert_eq!(c.to_logs[s], c.to_logs[0]);
        }
    }
}
