//! LAN multicast network models.
//!
//! The ICDCS'99 paper's Figure 1 measures *spontaneous total order* on a
//! 4-site Ethernet (10 Mbit/s) cluster using IP multicast: frames serialize
//! on the shared medium, so every receiver sees nearly the same arrival
//! order; disagreements come from per-host receive-path jitter. This module
//! reproduces that physics:
//!
//! * a **shared bus** serializes transmissions (a frame occupies the wire
//!   for `size / bandwidth`, queuing behind earlier frames) — and
//!   [`MulticastNet::add_segments`] can split the medium into independent
//!   per-group collision domains plus a shared backbone, the switched
//!   topology a sharded cluster's sequencing groups run on,
//! * every receiver observes `wire_done + propagation + jitter`, with
//!   jitter sampled per `(message, receiver)` from a clamped normal,
//! * optional per-receiver loss is modeled as a retransmission *delay*
//!   (geometric number of timeouts), preserving the paper's reliable-
//!   channel assumption ("a message sent by Nᵢ to Nⱼ is eventually
//!   received by Nⱼ").
//!
//! The model is a *timing calculator*: it maps a send to per-receiver
//! arrival instants, for every receiver, up or not. The faults in force
//! ([`Faults`]: a loss burst, a jitter spike) come with each send the
//! scheduler makes; the scheduler ([`crate::sched::Sched`]) owns them,
//! owns the event queue, schedules the receive events and holds what a
//! crash or a cut keeps from a site, so reliability is preserved across
//! both; this keeps the network model independent of the message type
//! flowing through it.
//!
//! # Examples
//!
//! ```
//! use otp_simnet::net::{MulticastNet, NetConfig, SiteId};
//! use otp_simnet::rng::SimRng;
//! use otp_simnet::time::SimTime;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut net = MulticastNet::new(NetConfig::lan_10mbps(4));
//! let arrivals = net.multicast(SiteId::new(0), 128, SimTime::ZERO, &mut rng);
//! assert_eq!(arrivals.len(), 4); // every site, including the sender
//! ```

use crate::faults::Faults;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a site (replica host) in the system.
///
/// Sites are numbered densely from zero, which lets components index
/// per-site state with `SiteId::index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(u16);

impl SiteId {
    /// Creates a site identifier.
    #[inline]
    pub const fn new(id: u16) -> Self {
        SiteId(id)
    }

    /// Raw numeric id.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `usize`, for indexing per-site vectors.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` site ids: `N0, N1, …`.
    ///
    /// ```
    /// # use otp_simnet::net::SiteId;
    /// let all: Vec<_> = SiteId::all(3).collect();
    /// assert_eq!(all.len(), 3);
    /// assert_eq!(all[2].index(), 2);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = SiteId> {
        (0..n as u16).map(SiteId)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Timing parameters of the simulated LAN.
///
/// Use the presets ([`NetConfig::lan_10mbps`], [`NetConfig::lan_fast`]) or
/// build a custom configuration and adjust fields through the `with_*`
/// methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Number of sites attached to the network.
    pub sites: usize,
    /// Shared-medium bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Per-frame overhead added to every payload (headers, preamble).
    pub frame_overhead_bytes: u32,
    /// One-way propagation plus fixed stack traversal cost.
    pub propagation: SimDuration,
    /// Mean of the per-receiver processing jitter.
    pub jitter_mean: SimDuration,
    /// Standard deviation of the per-receiver processing jitter. This is
    /// the knob that destroys spontaneous order when messages are close
    /// together on the wire.
    pub jitter_std: SimDuration,
    /// Probability that a given receiver misses the first transmission and
    /// waits for a retransmission (applied independently per receiver).
    pub loss_probability: f64,
    /// Extra delay for each retransmission round after a loss.
    pub retransmit_delay: SimDuration,
    /// Probability of a receive-path *processing spike* (OS scheduling,
    /// interrupt coalescing): the receiver's stack stalls for an extra
    /// exponentially-distributed delay. Spikes are what keeps measured
    /// spontaneous order below 100 % even at large send intervals.
    pub spike_probability: f64,
    /// Mean of the exponential spike delay.
    pub spike_mean: SimDuration,
}

impl NetConfig {
    /// The paper's testbed: a 10 Mbit/s Ethernet with UDP/IP multicast.
    ///
    /// Jitter values are calibrated so the Figure 1 reproduction matches
    /// the paper's curve shape (≈82–85 % spontaneously ordered messages at
    /// back-to-back sends, ≥99 % at 4 ms inter-send interval); see
    /// EXPERIMENTS.md.
    pub fn lan_10mbps(sites: usize) -> Self {
        NetConfig {
            sites,
            bandwidth_bps: 10_000_000,
            frame_overhead_bytes: 58, // Ethernet + IP + UDP headers
            propagation: SimDuration::from_micros(50),
            jitter_mean: SimDuration::from_micros(120),
            jitter_std: SimDuration::from_micros(220),
            loss_probability: 0.0,
            retransmit_delay: SimDuration::from_millis(5),
            spike_probability: 0.0,
            spike_mean: SimDuration::from_millis(1),
        }
    }

    /// The Figure 1 testbed calibration: jitter and spike parameters tuned
    /// so that 4 sites multicasting 64-byte UDP messages over 10 Mbit/s
    /// Ethernet reproduce the paper's spontaneous-order curve (≈82–85 %
    /// ordered at back-to-back sends, ≈99 % at 4 ms intervals). See
    /// EXPERIMENTS.md §E1 for the calibration procedure.
    pub fn fig1_testbed(sites: usize) -> Self {
        NetConfig {
            sites,
            bandwidth_bps: 10_000_000,
            frame_overhead_bytes: 58,
            propagation: SimDuration::from_micros(50),
            jitter_mean: SimDuration::from_micros(80),
            jitter_std: SimDuration::from_micros(40),
            loss_probability: 0.0,
            retransmit_delay: SimDuration::from_millis(5),
            spike_probability: 0.004,
            spike_mean: SimDuration::from_micros(1500),
        }
    }

    /// A modern switched LAN (1 Gbit/s, low jitter); useful to show the
    /// protocols are not tied to the 1999 testbed.
    pub fn lan_fast(sites: usize) -> Self {
        NetConfig {
            sites,
            bandwidth_bps: 1_000_000_000,
            frame_overhead_bytes: 58,
            propagation: SimDuration::from_micros(10),
            jitter_mean: SimDuration::from_micros(15),
            jitter_std: SimDuration::from_micros(25),
            loss_probability: 0.0,
            retransmit_delay: SimDuration::from_millis(1),
            spike_probability: 0.0,
            spike_mean: SimDuration::from_millis(1),
        }
    }

    /// Sets the per-receiver jitter (mean and standard deviation).
    pub fn with_jitter(mut self, mean: SimDuration, std: SimDuration) -> Self {
        self.jitter_mean = mean;
        self.jitter_std = std;
        self
    }

    /// Sets the per-receiver loss probability (clamped to `[0, 1)`).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p.clamp(0.0, 0.999);
        self
    }

    /// Sets the propagation delay.
    pub fn with_propagation(mut self, d: SimDuration) -> Self {
        self.propagation = d;
        self
    }

    /// Time a frame of `payload_bytes` occupies the shared medium.
    pub fn transmission_time(&self, payload_bytes: u32) -> SimDuration {
        let bits = (payload_bytes as u64 + self.frame_overhead_bytes as u64) * 8;
        // ceil(bits / bandwidth) in nanoseconds.
        let ns = bits.saturating_mul(1_000_000_000).div_ceil(self.bandwidth_bps);
        SimDuration::from_nanos(ns)
    }
}

/// A planned delivery of one transmission to one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving site.
    pub to: SiteId,
    /// Instant at which the receiver's protocol stack hands the message up.
    pub arrival: SimTime,
}

/// The shared-medium multicast network.
///
/// Tracks the wire occupancy (for serialization of frames). See the module
/// documentation for the model.
#[derive(Debug)]
pub struct MulticastNet {
    config: NetConfig,
    /// Busy-until instant of each wire segment. Index 0 is the shared
    /// backbone every network has; [`MulticastNet::add_segments`] appends
    /// further independent collision domains (one per sequencing group in
    /// a sharded cluster), each serializing only its own frames. An
    /// unsegmented network has exactly one entry, which reproduces the
    /// single-shared-bus model byte for byte.
    wires: Vec<SimTime>,
    /// The configured jitter mean in seconds.
    /// [`MulticastNet::receiver_arrival`] runs once per `(message,
    /// receiver)` pair — the hottest call in the whole simulation — so the
    /// duration→f64 conversion is hoisted here.
    jitter_mean_s: f64,
    /// The configured jitter standard deviation in seconds.
    jitter_std_s: f64,
    sent_frames: u64,
    sent_bytes: u64,
    /// The last [`MulticastNet::multicast_to_on`]'s deliveries.
    fanout: Vec<Delivery>,
}

impl MulticastNet {
    /// Creates a network.
    pub fn new(config: NetConfig) -> Self {
        let jitter_mean_s = config.jitter_mean.as_secs_f64();
        let jitter_std_s = config.jitter_std.as_secs_f64();
        MulticastNet {
            config,
            wires: vec![SimTime::ZERO],
            jitter_mean_s,
            jitter_std_s,
            sent_frames: 0,
            sent_bytes: 0,
            fanout: Vec::new(),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Appends `n` independent wire segments to the backbone, turning the
    /// single shared bus into a switched topology: segment 0 stays the
    /// shared backbone (inter-group links, relay traffic), segments
    /// `1..=n` are per-group collision domains whose frames serialize only
    /// against their own segment. Faults are properties of sites and
    /// links, so they apply across all segments unchanged.
    pub fn add_segments(&mut self, n: usize) {
        let len = self.wires.len() + n;
        self.wires.resize(len, SimTime::ZERO);
    }

    /// Number of wire segments (1 for the unsegmented shared bus).
    pub fn num_segments(&self) -> usize {
        self.wires.len()
    }

    /// Number of frames put on the wire so far.
    pub fn sent_frames(&self) -> u64 {
        self.sent_frames
    }

    /// Total payload bytes put on the wire so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Computes per-receiver arrivals for a multicast of `payload_bytes`
    /// sent at `now` by `_from` (the bus times every sender alike), with
    /// no fault in force. Every site — including the sender, which
    /// receives its own multicast through the loopback of the stack — gets
    /// a delivery.
    ///
    /// Deliveries to crashed sites are returned too (the scheduler holds
    /// them — the channel is reliable), and so are deliveries over cut
    /// links.
    pub fn multicast(
        &mut self,
        _from: SiteId,
        payload_bytes: u32,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Delivery> {
        let wire_done = self.occupy_wire(0, payload_bytes, now);
        let sites = self.config.sites;
        let calm = Faults::new(0);
        let mut out = Vec::with_capacity(sites);
        for to in SiteId::all(sites) {
            let arrival = self.receiver_arrival(wire_done, &calm, rng);
            out.push(Delivery { to, arrival });
        }
        out
    }

    /// Computes per-receiver arrivals for a multicast addressed to an
    /// explicit member set instead of every site, on an explicit wire
    /// segment: one wire occupancy, one delivery per target (the sender
    /// gets its loopback delivery only when it is itself a target), and
    /// the frame serializes only against that segment's earlier frames,
    /// under the loss and jitter `faults` put in force. The sharded
    /// cluster puts each group's stream on the group's own segment and
    /// relay traffic on the backbone (segment 0). The deliveries are one
    /// per target, in target order, in a buffer the next call reuses.
    pub fn multicast_to_on(
        &mut self,
        segment: usize,
        targets: &[SiteId],
        payload_bytes: u32,
        now: SimTime,
        faults: &Faults,
        rng: &mut SimRng,
    ) -> &[Delivery] {
        let wire_done = self.occupy_wire(segment, payload_bytes, now);
        let mut fanout = std::mem::take(&mut self.fanout);
        fanout.clear();
        for &to in targets {
            let arrival = self.receiver_arrival(wire_done, faults, rng);
            fanout.push(Delivery { to, arrival });
        }
        self.fanout = fanout;
        &self.fanout
    }

    /// Computes the arrival of a point-to-point message on a wire segment,
    /// under the loss and jitter `faults` put in force. Unicasts share the
    /// medium with multicasts (it is one wire).
    pub fn unicast_on(
        &mut self,
        segment: usize,
        to: SiteId,
        payload_bytes: u32,
        now: SimTime,
        faults: &Faults,
        rng: &mut SimRng,
    ) -> Delivery {
        let wire_done = self.occupy_wire(segment, payload_bytes, now);
        let arrival = self.receiver_arrival(wire_done, faults, rng);
        Delivery { to, arrival }
    }

    fn occupy_wire(&mut self, segment: usize, payload_bytes: u32, now: SimTime) -> SimTime {
        let start = self.wires[segment].max(now);
        let done = start + self.config.transmission_time(payload_bytes);
        self.wires[segment] = done;
        self.sent_frames += 1;
        self.sent_bytes += payload_bytes as u64;
        done
    }

    /// One receiver's arrival for a frame off the wire at `wire_done`:
    /// every link is alike, so the sender and the receiver do not enter.
    fn receiver_arrival(&self, wire_done: SimTime, faults: &Faults, rng: &mut SimRng) -> SimTime {
        let scale = faults.jitter_scale();
        let (mean, std) = (self.jitter_mean_s * scale, self.jitter_std_s * scale);
        let jitter = SimDuration::from_secs_f64(rng.normal_min(mean, std, 0.0));
        let mut arrival = wire_done + self.config.propagation + jitter;
        // Rare receive-path processing spike.
        if self.config.spike_probability > 0.0 && rng.chance(self.config.spike_probability) {
            arrival +=
                SimDuration::from_secs_f64(rng.exponential(self.config.spike_mean.as_secs_f64()));
        }
        // Loss → geometric number of retransmission rounds, each adding a
        // fixed delay. The message is never dropped: channels are reliable.
        let loss = faults.loss(self.config.loss_probability);
        while loss > 0.0 && rng.chance(loss) {
            arrival += self.config.retransmit_delay;
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemesis::NemesisEvent;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    /// The arrival at site 1 of a 64-byte unicast sent at `now`.
    fn unicast(net: &mut MulticastNet, now: SimTime, faults: &Faults, r: &mut SimRng) -> SimTime {
        net.unicast_on(0, SiteId::new(1), 64, now, faults, r).arrival
    }

    #[test]
    fn site_id_basics() {
        let s = SiteId::new(3);
        assert_eq!(s.raw(), 3);
        assert_eq!(s.index(), 3);
        assert_eq!(format!("{s}"), "N3");
        assert_eq!(SiteId::all(4).count(), 4);
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let cfg = NetConfig::lan_10mbps(4);
        let small = cfg.transmission_time(100);
        let big = cfg.transmission_time(1000);
        assert!(big > small);
        // 1058 bytes at 10 Mbit/s ≈ 846 µs.
        assert!(big.as_micros() > 800 && big.as_micros() < 900, "{big}");
    }

    #[test]
    fn multicast_reaches_every_site() {
        let mut net = MulticastNet::new(NetConfig::lan_10mbps(4));
        let ds = net.multicast(SiteId::new(1), 100, SimTime::ZERO, &mut rng());
        assert_eq!(ds.len(), 4);
        let tx = net.config().transmission_time(100);
        for d in &ds {
            assert!(d.arrival >= SimTime::ZERO + tx);
        }
        assert_eq!(net.sent_frames(), 1);
        assert_eq!(net.sent_bytes(), 100);
    }

    #[test]
    fn wire_serializes_back_to_back_sends() {
        let mut net = MulticastNet::new(
            NetConfig::lan_10mbps(4).with_jitter(SimDuration::ZERO, SimDuration::ZERO),
        );
        let mut r = rng();
        let a = net.multicast(SiteId::new(0), 500, SimTime::ZERO, &mut r);
        let b = net.multicast(SiteId::new(1), 500, SimTime::ZERO, &mut r);
        // With zero jitter, the second frame arrives strictly after the
        // first at every site: the wire is serial.
        for (da, db) in a.iter().zip(&b) {
            assert!(db.arrival > da.arrival);
        }
    }

    #[test]
    fn segments_serialize_independently() {
        let mut net = MulticastNet::new(
            NetConfig::lan_10mbps(8).with_jitter(SimDuration::ZERO, SimDuration::ZERO),
        );
        net.add_segments(2);
        assert_eq!(net.num_segments(), 3);
        let mut r = rng();
        let g0: Vec<SiteId> = (0..4).map(SiteId::new).collect();
        let g1: Vec<SiteId> = (4..8).map(SiteId::new).collect();
        let f = Faults::new(8);
        let a = net.multicast_to_on(1, &g0, 500, SimTime::ZERO, &f, &mut r).to_vec();
        let b = net.multicast_to_on(2, &g1, 500, SimTime::ZERO, &f, &mut r).to_vec();
        // Independent segments transmit concurrently: with zero jitter the
        // two frames arrive at the same instant instead of queueing.
        assert_eq!(a[0].arrival, b[0].arrival);
        // A second frame on an occupied segment queues behind the first.
        let c = net.multicast_to_on(1, &g0, 500, SimTime::ZERO, &f, &mut r);
        assert!(c[0].arrival > a[0].arrival);
        // The backbone is its own segment too.
        let d = net.unicast_on(0, SiteId::new(7), 500, SimTime::ZERO, &f, &mut r);
        assert_eq!(d.arrival, a[0].arrival);
    }

    #[test]
    fn jitter_can_reorder_close_sends() {
        let cfg = NetConfig::lan_10mbps(4)
            .with_jitter(SimDuration::from_micros(100), SimDuration::from_micros(400));
        let mut net = MulticastNet::new(cfg);
        let mut r = rng();
        let mut reordered = 0;
        for _ in 0..200 {
            let now = net.wires[0].max(SimTime::ZERO);
            let a = net.multicast(SiteId::new(0), 64, now, &mut r);
            let b = net.multicast(SiteId::new(1), 64, now, &mut r);
            // Does any site see b before a?
            if a.iter().zip(&b).any(|(da, db)| db.arrival < da.arrival) {
                reordered += 1;
            }
        }
        assert!(reordered > 0, "high jitter should occasionally reorder");
    }

    #[test]
    fn loss_adds_retransmit_delay_but_delivers() {
        let cfg = NetConfig::lan_10mbps(2).with_loss(0.5);
        let mut net = MulticastNet::new(cfg);
        let mut r = rng();
        let mut delayed = 0;
        for i in 0..100 {
            let now = SimTime::from_millis(i * 20);
            let arrival = unicast(&mut net, now, &Faults::new(2), &mut r);
            if arrival.saturating_since(now) >= SimDuration::from_millis(5) {
                delayed += 1;
            }
        }
        assert!(delayed > 20, "with p=0.5 many messages should be delayed: {delayed}");
    }

    #[test]
    fn spikes_occasionally_delay_arrivals() {
        let mut cfg = NetConfig::lan_10mbps(2).with_jitter(SimDuration::ZERO, SimDuration::ZERO);
        cfg.spike_probability = 0.2;
        cfg.spike_mean = SimDuration::from_millis(2);
        let mut net = MulticastNet::new(cfg);
        let mut r = rng();
        let mut spiked = 0;
        for i in 0..200 {
            let now = SimTime::from_millis(i * 10);
            let arrival = unicast(&mut net, now, &Faults::new(2), &mut r);
            if arrival.saturating_since(now) > SimDuration::from_millis(1) {
                spiked += 1;
            }
        }
        assert!(spiked > 10 && spiked < 120, "~20% spike with 2ms mean: {spiked}");
    }

    #[test]
    fn fig1_preset_has_spikes_and_tight_jitter() {
        let cfg = NetConfig::fig1_testbed(4);
        assert_eq!(cfg.sites, 4);
        assert!(cfg.spike_probability > 0.0);
        assert!(cfg.jitter_std < NetConfig::lan_10mbps(4).jitter_std);
        assert_eq!(cfg.bandwidth_bps, 10_000_000);
    }

    #[test]
    fn loss_override_raises_and_restores_delay_behaviour() {
        // Baseline has zero loss; a loss burst must introduce retransmit
        // delays, and ending it must restore clean arrivals.
        let cfg = NetConfig::lan_10mbps(2).with_jitter(SimDuration::ZERO, SimDuration::ZERO);
        let mut net = MulticastNet::new(cfg);
        let mut r = rng();
        let mut faults = Faults::new(2);
        faults.apply(&NemesisEvent::LossBurst { probability: 0.9 });
        let mut delayed = 0;
        for i in 0..50 {
            let now = SimTime::from_millis(i * 20);
            if unicast(&mut net, now, &faults, &mut r).saturating_since(now)
                >= SimDuration::from_millis(5)
            {
                delayed += 1;
            }
        }
        assert!(delayed > 25, "p=0.9 burst must delay most messages: {delayed}");
        faults.apply(&NemesisEvent::LossEnd);
        for i in 50..80 {
            let now = SimTime::from_millis(i * 20);
            let arrival = unicast(&mut net, now, &faults, &mut r);
            assert!(arrival.saturating_since(now) < SimDuration::from_millis(5));
        }
    }

    #[test]
    fn jitter_scale_widens_and_restores() {
        let cfg =
            NetConfig::lan_10mbps(2).with_jitter(SimDuration::from_micros(100), SimDuration::ZERO);
        let mut net = MulticastNet::new(cfg);
        let mut r = rng();
        let mut faults = Faults::new(2);
        let base = unicast(&mut net, SimTime::ZERO, &faults, &mut r);
        faults.apply(&NemesisEvent::JitterSpike { scale: 10.0 });
        let now = SimTime::from_millis(10);
        let spiked = unicast(&mut net, now, &faults, &mut r);
        assert!(
            spiked.saturating_since(now) > base.saturating_since(SimTime::ZERO),
            "scaled jitter dominates"
        );
        faults.apply(&NemesisEvent::JitterSpike { scale: 0.0 }); // invalid → 1.0
        let now2 = SimTime::from_millis(20);
        let restored = unicast(&mut net, now2, &faults, &mut r);
        assert_eq!(restored.saturating_since(now2), base.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn unicast_and_multicast_share_the_wire() {
        let mut net = MulticastNet::new(
            NetConfig::lan_10mbps(3).with_jitter(SimDuration::ZERO, SimDuration::ZERO),
        );
        let mut r = rng();
        let d1 = net.unicast_on(0, SiteId::new(1), 1000, SimTime::ZERO, &Faults::new(3), &mut r);
        let ds = net.multicast(SiteId::new(2), 1000, SimTime::ZERO, &mut r);
        assert!(ds[0].arrival > d1.arrival, "multicast queued behind the unicast");
    }
}
