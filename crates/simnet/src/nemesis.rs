//! Deterministic fault-injection schedules — the *nemesis*.
//!
//! The paper's guarantees (1-copy-serializability, abort-and-reschedule on
//! tentative/definitive mismatch) are most interesting under adversarial
//! message schedules: partitions, crashes, loss bursts and jitter spikes.
//! This module turns "imagine a bad network" into an enumerable surface: a
//! [`NemesisSchedule`] is a timed list of [`NemesisEvent`]s generated
//! *deterministically* from `(seed, sites, horizon, knobs)`, so any failing
//! run is reproducible from a single seed. What each event does is written
//! once, for both drivers, in [`Faults::apply`](crate::faults::Faults::apply).
//!
//! The generator is deliberately conservative so that every generated
//! schedule is *survivable* by construction:
//!
//! * fault windows are disjoint (no overlapping partitions, no crash during
//!   a partition) — handcrafted schedules built with
//!   [`NemesisSchedule::from_events`] can still compose faults arbitrarily;
//! * at most one site is crashed at a time and every crash is paired with a
//!   recovery (majority stays live, so consensus-based engines keep making
//!   progress);
//! * partitions always cut off a *minority* group and are always healed;
//! * all faults end by [`NemesisSchedule::quiet_from`], leaving a quiescent
//!   tail in which liveness-after-heal can be asserted.
//!
//! # Examples
//!
//! ```
//! use otp_simnet::nemesis::{NemesisKnobs, NemesisSchedule};
//! use otp_simnet::time::SimTime;
//!
//! let a = NemesisSchedule::generate(7, 4, SimTime::from_secs(1), &NemesisKnobs::rough());
//! let b = NemesisSchedule::generate(7, 4, SimTime::from_secs(1), &NemesisKnobs::rough());
//! assert_eq!(a.events, b.events); // same seed → same chaos
//! assert!(a.quiet_from <= SimTime::from_secs(1));
//! ```

use crate::net::SiteId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One fault-injection action. Window-style faults come in begin/end pairs
/// (`PartitionHalves`/`Heal`, `Crash`/`Recover`, `LossBurst`/`LossEnd`,
/// `JitterSpike`/`JitterEnd`). The two *live-only* faults —
/// [`ThreadStall`] and [`PressureSpike`] — are one-shot events that carry
/// their own duration: they describe thread/channel phenomena that have no
/// analogue in the virtual-time driver, which ignores them (the simulator
/// has no OS threads to stall and its queues are unbounded).
///
/// [`ThreadStall`]: NemesisEvent::ThreadStall
/// [`PressureSpike`]: NemesisEvent::PressureSpike
#[derive(Debug, Clone, PartialEq)]
pub enum NemesisEvent {
    /// Split the network in two: `group_a` on one side, everyone else on
    /// the other. Cross-group traffic is held until the next [`Heal`].
    ///
    /// [`Heal`]: NemesisEvent::Heal
    PartitionHalves {
        /// Sites on the isolated side of the cut.
        group_a: Vec<SiteId>,
    },
    /// Remove every active partition and release held cross-group traffic.
    Heal,
    /// Crash a site (no-op if it is already down).
    Crash {
        /// The victim.
        site: SiteId,
    },
    /// Recover a crashed site with state transfer from a live donor chosen
    /// by the driver at event time (no-op if the site is up).
    Recover {
        /// The recovering site.
        site: SiteId,
    },
    /// Raise the per-receiver loss probability (modeled as retransmission
    /// delay — channels stay reliable) until [`LossEnd`].
    ///
    /// [`LossEnd`]: NemesisEvent::LossEnd
    LossBurst {
        /// Loss probability during the burst.
        probability: f64,
    },
    /// End the current loss burst, restoring the configured baseline.
    LossEnd,
    /// Scale receive-path jitter (mean and deviation) by `scale` until
    /// [`JitterEnd`].
    ///
    /// [`JitterEnd`]: NemesisEvent::JitterEnd
    JitterSpike {
        /// Multiplier applied to the configured jitter.
        scale: f64,
    },
    /// End the current jitter spike, restoring the configured baseline.
    JitterEnd,
    /// *(live-only)* Stall a site's worker thread: it sleeps mid-drain for
    /// `duration` without processing messages or firing timers. Ignored by
    /// the virtual-time driver.
    ThreadStall {
        /// The stalled site.
        site: SiteId,
        /// How long the thread sleeps.
        duration: SimDuration,
    },
    /// *(live-only)* Shrink a site's effective per-batch drain budget to
    /// `drain_limit` (with a small pause between drains) for `duration`,
    /// so its bounded inbound queue saturates and admission backpressure
    /// fires. Ignored by the virtual-time driver.
    PressureSpike {
        /// The throttled site.
        site: SiteId,
        /// Effective drain budget during the spike (normally
        /// `LiveConfig::drain_limit`).
        drain_limit: usize,
        /// How long the throttle lasts.
        duration: SimDuration,
    },
}

impl NemesisEvent {
    /// Whether the event changes which wires can arrive (a cut, a heal, a
    /// crash or a recovery): a driver that batches arrivals delivers what
    /// arrived before it first. What the event does is [`Faults::apply`]'s.
    ///
    /// [`Faults::apply`]: crate::faults::Faults::apply
    pub fn changes_topology(&self) -> bool {
        matches!(
            self,
            NemesisEvent::PartitionHalves { .. }
                | NemesisEvent::Heal
                | NemesisEvent::Crash { .. }
                | NemesisEvent::Recover { .. }
        )
    }
}

/// Intensity knobs for [`NemesisSchedule::generate`]: how many windows of
/// each fault kind to inject.
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisKnobs {
    /// Number of partition/heal windows.
    pub partitions: u32,
    /// Number of crash/recover windows.
    pub crashes: u32,
    /// Number of loss-burst windows.
    pub loss_bursts: u32,
    /// Number of jitter-spike windows.
    pub jitter_spikes: u32,
    /// Number of thread-stall windows (live-only; the sim driver ignores
    /// the generated events).
    pub stalls: u32,
    /// Number of channel-pressure-spike windows (live-only).
    pub pressures: u32,
    /// Upper bound of the sampled burst loss probability.
    pub max_loss: f64,
    /// Upper bound of the sampled jitter scale.
    pub max_jitter_scale: f64,
}

impl NemesisKnobs {
    /// No faults at all — the control cell of a chaos grid.
    pub fn calm() -> Self {
        NemesisKnobs {
            partitions: 0,
            crashes: 0,
            loss_bursts: 0,
            jitter_spikes: 0,
            stalls: 0,
            pressures: 0,
            max_loss: 0.0,
            max_jitter_scale: 1.0,
        }
    }

    /// One partition, one crash, one loss burst.
    pub fn rough() -> Self {
        NemesisKnobs {
            partitions: 1,
            crashes: 1,
            loss_bursts: 1,
            jitter_spikes: 0,
            stalls: 0,
            pressures: 0,
            max_loss: 0.15,
            max_jitter_scale: 4.0,
        }
    }

    /// Two partitions, two crashes, two loss bursts, one jitter spike.
    pub fn hostile() -> Self {
        NemesisKnobs {
            partitions: 2,
            crashes: 2,
            loss_bursts: 2,
            jitter_spikes: 1,
            stalls: 0,
            pressures: 0,
            max_loss: 0.3,
            max_jitter_scale: 8.0,
        }
    }

    /// The live-runtime mix: one partition, one crash, one thread stall,
    /// one pressure spike — every fault family the threaded driver can
    /// express, one window each. Run through the sim driver the same
    /// schedule degrades gracefully (the live-only events are ignored).
    pub fn live() -> Self {
        NemesisKnobs {
            partitions: 1,
            crashes: 1,
            loss_bursts: 0,
            jitter_spikes: 0,
            stalls: 1,
            pressures: 1,
            max_loss: 0.0,
            max_jitter_scale: 1.0,
        }
    }

    /// Total number of fault windows this knob set produces.
    pub fn windows(&self) -> u32 {
        self.partitions
            + self.crashes
            + self.loss_bursts
            + self.jitter_spikes
            + self.stalls
            + self.pressures
    }
}

/// A timed fault-injection plan, plus the instant from which the run is
/// guaranteed quiescent (all partitions healed, all sites recovered).
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisSchedule {
    /// Events sorted by time (ties resolve in vector order).
    pub events: Vec<(SimTime, NemesisEvent)>,
    /// No fault is active at or after this instant.
    pub quiet_from: SimTime,
}

/// The window-style fault kinds the generator draws from. `Stall` and
/// `Pressure` occupy a window slot like the others but emit a single
/// one-shot event carrying the window length as its duration.
#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Partition,
    Crash,
    Loss,
    Jitter,
    Stall,
    Pressure,
}

impl NemesisSchedule {
    /// An empty schedule (no faults, quiescent from time zero).
    pub fn empty() -> Self {
        NemesisSchedule { events: Vec::new(), quiet_from: SimTime::ZERO }
    }

    /// Wraps a handcrafted event list. `quiet_from` is set to the last
    /// event's time; the caller is responsible for the list being
    /// survivable (every crash recovered, every partition healed).
    pub fn from_events(mut events: Vec<(SimTime, NemesisEvent)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        let quiet_from = events.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO);
        NemesisSchedule { events, quiet_from }
    }

    /// Generates a survivable schedule deterministically from a seed.
    ///
    /// Fault windows are placed in disjoint slots inside
    /// `[5 %, 75 %] × horizon`; see the module docs for the guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0`.
    pub fn generate(seed: u64, sites: usize, horizon: SimTime, knobs: &NemesisKnobs) -> Self {
        assert!(sites > 0, "need at least one site");
        let mut kinds: Vec<FaultKind> = Vec::new();
        // Partitions and crashes need somebody left to talk to.
        if sites >= 2 {
            kinds.extend(std::iter::repeat_n(FaultKind::Partition, knobs.partitions as usize));
            kinds.extend(std::iter::repeat_n(FaultKind::Crash, knobs.crashes as usize));
        }
        kinds.extend(std::iter::repeat_n(FaultKind::Loss, knobs.loss_bursts as usize));
        kinds.extend(std::iter::repeat_n(FaultKind::Jitter, knobs.jitter_spikes as usize));
        kinds.extend(std::iter::repeat_n(FaultKind::Stall, knobs.stalls as usize));
        kinds.extend(std::iter::repeat_n(FaultKind::Pressure, knobs.pressures as usize));
        if kinds.is_empty() {
            return NemesisSchedule::empty();
        }

        // The generator has its own stream, domain-separated from the
        // cluster's master seed usage so schedules do not shift when the
        // cluster adds samples.
        let mut rng = SimRng::seed_from(seed ^ 0x006e_656d_6573_6973); // "nemesis"
        rng.shuffle(&mut kinds);

        let span_ns = horizon.as_nanos();
        let chaos_start = SimTime::from_nanos(span_ns / 20); // 5 %
        let chaos_end = SimTime::from_nanos(span_ns / 4 * 3); // 75 %
        let slot = chaos_end.saturating_since(chaos_start).div_u64(kinds.len() as u64);

        let mut events: Vec<(SimTime, NemesisEvent)> = Vec::new();
        // Every window — paired or one-shot — is over by its `end`, so the
        // quiescent point is the max end (one-shot events sit at `begin`
        // but their *effect* runs to `end`).
        let mut quiet_from = SimTime::ZERO;
        for (i, kind) in kinds.iter().enumerate() {
            let slot_start = chaos_start + slot.mul_u64(i as u64);
            // Begin in the first third of the slot, end in the last third,
            // leaving a gap before the next slot so windows never touch.
            let begin = slot_start + slot.mul_f64(0.05 + 0.25 * rng.uniform_f64());
            let end = slot_start + slot.mul_f64(0.60 + 0.30 * rng.uniform_f64());
            quiet_from = quiet_from.max(end);
            let duration = end.saturating_since(begin);
            match kind {
                FaultKind::Partition => {
                    // Cut off a strict minority so the majority side keeps
                    // deciding; heal releases the held traffic.
                    let max_minority = (sites - 1) / 2;
                    let g = 1 + rng.uniform_range(0, max_minority.max(1) as u64) as usize;
                    let mut all: Vec<SiteId> = SiteId::all(sites).collect();
                    rng.shuffle(&mut all);
                    all.truncate(g.min(max_minority.max(1)));
                    all.sort_unstable();
                    events.push((begin, NemesisEvent::PartitionHalves { group_a: all }));
                    events.push((end, NemesisEvent::Heal));
                }
                FaultKind::Crash => {
                    let site = SiteId::new(rng.uniform_range(0, sites as u64) as u16);
                    events.push((begin, NemesisEvent::Crash { site }));
                    events.push((end, NemesisEvent::Recover { site }));
                }
                FaultKind::Loss => {
                    let p = 0.05 + (knobs.max_loss - 0.05).max(0.0) * rng.uniform_f64();
                    events.push((begin, NemesisEvent::LossBurst { probability: p }));
                    events.push((end, NemesisEvent::LossEnd));
                }
                FaultKind::Jitter => {
                    let s = 2.0 + (knobs.max_jitter_scale - 2.0).max(0.0) * rng.uniform_f64();
                    events.push((begin, NemesisEvent::JitterSpike { scale: s }));
                    events.push((end, NemesisEvent::JitterEnd));
                }
                FaultKind::Stall => {
                    let site = SiteId::new(rng.uniform_range(0, sites as u64) as u16);
                    events.push((begin, NemesisEvent::ThreadStall { site, duration }));
                }
                FaultKind::Pressure => {
                    let site = SiteId::new(rng.uniform_range(0, sites as u64) as u16);
                    events.push((
                        begin,
                        NemesisEvent::PressureSpike { site, drain_limit: 1, duration },
                    ));
                }
            }
        }
        events.sort_by_key(|(t, _)| *t);
        NemesisSchedule { events, quiet_from }
    }

    /// A schedule aimed squarely at view-change recovery (the chaos grid's
    /// `viewchange` intensity). Unlike [`NemesisSchedule::generate`], the
    /// windows deliberately *compose*:
    ///
    /// 1. a partition isolates site 1 — the site the nemesis recovery
    ///    handler will pick as the donor hint;
    /// 2. site 0 — the sequencer of the `seq`/`seqbatch` engines — crashes
    ///    **inside** the partition window (for a batched sequencer that
    ///    means mid-accumulation-window for some seeds) and recovers while
    ///    the cut is still up: the donor is partitioned mid-transfer, so
    ///    the view-change round can only complete at the heal;
    /// 3. after the heal, the last site and site 1 crash back-to-back
    ///    (recover, then the next crash lands right after), driving two
    ///    more views in quick succession;
    /// 4. site 0 crashes and recovers once more, and this time the faults
    ///    land *inside* its round (announce → summaries → floor → digests,
    ///    four LAN hops): within 0.1–1.5 ms of the recovery the last site
    ///    crashes — for some seeds before it summarised, for some between
    ///    its summary and the floor, for some after its digest — and a
    ///    partition cuts site 1 off, holding whichever round message is in
    ///    flight to or from it (for most seeds the floor) until the heal.
    ///
    /// Event times carry a small seed-derived jitter so a sweep explores
    /// different interleavings while staying survivable: every crash is
    /// recovered and every cut is healed. Steps 1–3 keep a live majority
    /// at every instant for 4+ sites; step 4 deliberately does not.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 3` (the composition needs a donor, a victim and
    /// a witness).
    pub fn view_change_targeted(seed: u64, sites: usize, horizon: SimTime) -> Self {
        assert!(sites >= 3, "view-change schedule needs at least 3 sites");
        let mut rng = SimRng::seed_from(seed ^ 0x0076_6965_7763_6867); // "viewchg"
        let span = horizon.as_nanos();
        // A time at `pct`% of the horizon, jittered by up to ±1.5%.
        let mut at = |pct: u64| {
            let jitter = rng.uniform_range(0, span / 33) as i64 - (span / 66) as i64;
            SimTime::from_nanos((span * pct / 100).saturating_add_signed(jitter))
        };
        let seq = SiteId::new(0);
        let donor = SiteId::new(1);
        let last = SiteId::new((sites - 1) as u16);
        let mut events = vec![
            (at(8), NemesisEvent::PartitionHalves { group_a: vec![donor] }),
            (at(14), NemesisEvent::Crash { site: seq }),
            (at(20), NemesisEvent::Recover { site: seq }),
            (at(32), NemesisEvent::Heal),
            (at(40), NemesisEvent::Crash { site: last }),
            (at(46), NemesisEvent::Recover { site: last }),
            (at(50), NemesisEvent::Crash { site: donor }),
            (at(58), NemesisEvent::Recover { site: donor }),
        ];
        // Step 4. The two mid-round faults are placed in LAN time after
        // the recovery, not in shares of the horizon: a round's phases are
        // a few hundred microseconds apart whatever the run length.
        events.push((at(66), NemesisEvent::Crash { site: seq }));
        let round_start = at(72);
        events.push((round_start, NemesisEvent::Recover { site: seq }));
        events.push((at(80), NemesisEvent::Heal));
        events.push((at(86), NemesisEvent::Recover { site: last }));
        let mut mid_round =
            || round_start + SimDuration::from_nanos(rng.uniform_range(100_000, 1_500_000));
        events.push((mid_round(), NemesisEvent::Crash { site: last }));
        events.push((mid_round(), NemesisEvent::PartitionHalves { group_a: vec![donor] }));
        NemesisSchedule::from_events(events)
    }

    /// A schedule aimed at the one-step exchange of the optimistic engine
    /// (the chaos grid's `fastpath` intensity): every fault starts within a
    /// few hundred microseconds *after* a broadcast — while the proposals
    /// that double as votes are in the air — and ends well inside one
    /// consensus patience, so the instance it hit is still open. The
    /// workload is expected to broadcast at `first_beat + k × beat`.
    ///
    /// 1. a cut separates one voter (and enough company to make a half)
    ///    from the rest of the members for 1–6 beats: no side holds `n`
    ///    votes, on an even split no side holds a majority either, and the
    ///    heal delivers the held votes on top of whatever the rounds did in
    ///    the meantime;
    /// 2. site 0 — round 0's coordinator — crashes one hop after a
    ///    broadcast, having voted or not, and recovers 2–10 beats later
    ///    with the instance still waiting out its first patience: the
    ///    rebuilt site votes a second time in it;
    /// 3. a loss burst covers a run of back-to-back instances, and inside
    ///    it a random member crashes one hop after a broadcast and
    ///    recovers 2–8 beats later — votes of the dead incarnation are
    ///    still being retransmitted when the view changes;
    /// 4. a second cut, around a different voter;
    /// 5. a cut that spans a member's crash *and* its recovery: the member
    ///    votes, the cut comes down with some of those votes in the air,
    ///    the member crashes 30–300 µs later and is told to recover 1–2
    ///    beats after that — but the view-change round needs every live
    ///    member, so it waits at the cut next to the dead incarnation's
    ///    votes. The heal, another 1–2 beats on, releases both: members on
    ///    the far side count a vote of a site whose successor is being
    ///    assembled from their own snapshots at that moment, and that
    ///    successor rejoins the instances the vote belongs to.
    ///
    /// Event times carry seed-derived jitter so a sweep explores the
    /// interleavings; every crash is recovered, every cut healed, one site
    /// is down at a time and windows do not overlap except the burst around
    /// the second crash and the cut around the third — given a horizon of
    /// at least ~90 beats.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 3` or `beat` is zero.
    pub fn fast_path_targeted(
        seed: u64,
        sites: usize,
        horizon: SimTime,
        first_beat: SimTime,
        beat: SimDuration,
    ) -> Self {
        assert!(sites >= 3, "fast-path schedule needs at least 3 sites");
        assert!(beat > SimDuration::ZERO, "the workload needs a rhythm");
        let mut rng = SimRng::seed_from(seed ^ 0x0066_6173_7470_6174); // "fastpat"
        let beats = horizon.saturating_since(first_beat).as_nanos() / beat.as_nanos();
        // A broadcast near `pct`% of the horizon, as a beat number.
        let near = |rng: &mut SimRng, pct: u64| beats * pct / 100 + rng.uniform_range(0, 4);
        let at_beat = |k: u64| first_beat + beat.mul_u64(k);
        // An instant inside the exchange that follows broadcast `k`.
        let in_exchange = |rng: &mut SimRng, k: u64| {
            at_beat(k) + SimDuration::from_nanos(rng.uniform_range(20_000, 400_000))
        };
        let beats_later = |rng: &mut SimRng, lo: u64, hi: u64| {
            beat.mul_u64(rng.uniform_range(lo, hi + 1))
                + SimDuration::from_nanos(rng.uniform_range(0, beat.as_nanos()))
        };
        let mut events = Vec::new();
        for pct in [8, 66] {
            let k = near(&mut rng, pct);
            let cut = in_exchange(&mut rng, k);
            let mut group_a: Vec<SiteId> = SiteId::all(sites).collect();
            rng.shuffle(&mut group_a);
            group_a.truncate(sites / 2);
            group_a.sort_unstable();
            events.push((cut, NemesisEvent::PartitionHalves { group_a }));
            events.push((cut + beats_later(&mut rng, 1, 5), NemesisEvent::Heal));
        }
        let coordinator = SiteId::new(0);
        let k = near(&mut rng, 24);
        let crash = in_exchange(&mut rng, k);
        events.push((crash, NemesisEvent::Crash { site: coordinator }));
        events.push((
            crash + beats_later(&mut rng, 2, 9),
            NemesisEvent::Recover { site: coordinator },
        ));

        let member = SiteId::new(rng.uniform_range(0, sites as u64) as u16);
        let k = near(&mut rng, 44);
        let crash = in_exchange(&mut rng, k);
        let back = crash + beats_later(&mut rng, 2, 7);
        let burst = at_beat(k.saturating_sub(rng.uniform_range(1, 4)));
        let probability = 0.1 + 0.25 * rng.uniform_f64();
        events.push((burst, NemesisEvent::LossBurst { probability }));
        events.push((crash, NemesisEvent::Crash { site: member }));
        events.push((back, NemesisEvent::Recover { site: member }));
        events.push((back + beats_later(&mut rng, 1, 3), NemesisEvent::LossEnd));

        let k = near(&mut rng, 76);
        let cut = in_exchange(&mut rng, k);
        let mut group_a: Vec<SiteId> = SiteId::all(sites).collect();
        rng.shuffle(&mut group_a);
        let voter = group_a[rng.uniform_range(0, sites as u64) as usize];
        group_a.truncate(sites / 2);
        group_a.sort_unstable();
        let crash = cut + SimDuration::from_nanos(rng.uniform_range(30_000, 300_000));
        let back = crash + beats_later(&mut rng, 1, 1);
        events.push((cut, NemesisEvent::PartitionHalves { group_a }));
        events.push((crash, NemesisEvent::Crash { site: voter }));
        events.push((back, NemesisEvent::Recover { site: voter }));
        events.push((back + beats_later(&mut rng, 1, 1), NemesisEvent::Heal));
        NemesisSchedule::from_events(events)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in 0..20 {
            let a = NemesisSchedule::generate(seed, 5, horizon(), &NemesisKnobs::hostile());
            let b = NemesisSchedule::generate(seed, 5, horizon(), &NemesisKnobs::hostile());
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = NemesisSchedule::generate(1, 5, horizon(), &NemesisKnobs::hostile());
        let b = NemesisSchedule::generate(2, 5, horizon(), &NemesisKnobs::hostile());
        assert_ne!(a, b);
    }

    #[test]
    fn calm_is_empty() {
        let s = NemesisSchedule::generate(3, 4, horizon(), &NemesisKnobs::calm());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.quiet_from, SimTime::ZERO);
    }

    #[test]
    fn windows_are_balanced_and_sorted() {
        for seed in 0..50 {
            let s = NemesisSchedule::generate(seed, 4, horizon(), &NemesisKnobs::hostile());
            assert_eq!(s.len() as u32, 2 * NemesisKnobs::hostile().windows(), "seed {seed}");
            let times: Vec<SimTime> = s.events.iter().map(|(t, _)| *t).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted, "seed {seed}: sorted by time");
            // Every opening event is later closed, in order.
            let mut depth = 0i32;
            for (_, ev) in &s.events {
                match ev {
                    NemesisEvent::PartitionHalves { .. }
                    | NemesisEvent::Crash { .. }
                    | NemesisEvent::LossBurst { .. }
                    | NemesisEvent::JitterSpike { .. } => depth += 1,
                    _ => depth -= 1,
                }
                assert!((0..=1).contains(&depth), "seed {seed}: windows are disjoint");
            }
            assert_eq!(depth, 0, "seed {seed}: every window closes");
        }
    }

    #[test]
    fn faults_fit_inside_the_horizon() {
        for seed in 0..50 {
            let s = NemesisSchedule::generate(seed, 4, horizon(), &NemesisKnobs::hostile());
            assert!(s.quiet_from < horizon(), "seed {seed}");
            for (t, _) in &s.events {
                assert!(*t >= SimTime::from_millis(50), "seed {seed}: after 5% warmup");
                assert!(*t <= s.quiet_from, "seed {seed}");
            }
        }
    }

    #[test]
    fn partitions_cut_minorities_and_crashes_hit_valid_sites() {
        for seed in 0..50 {
            let sites = 4 + (seed as usize % 3);
            let s = NemesisSchedule::generate(seed, sites, horizon(), &NemesisKnobs::hostile());
            for (_, ev) in &s.events {
                match ev {
                    NemesisEvent::PartitionHalves { group_a } => {
                        assert!(!group_a.is_empty());
                        assert!(group_a.len() <= (sites - 1) / 2, "minority cut: {group_a:?}");
                        for site in group_a {
                            assert!(site.index() < sites);
                        }
                    }
                    NemesisEvent::Crash { site } | NemesisEvent::Recover { site } => {
                        assert!(site.index() < sites);
                    }
                    NemesisEvent::LossBurst { probability } => {
                        assert!((0.05..=0.3).contains(probability));
                    }
                    NemesisEvent::JitterSpike { scale } => {
                        assert!((2.0..=8.0).contains(scale));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn single_site_cluster_gets_no_partitions_or_crashes() {
        let s = NemesisSchedule::generate(9, 1, horizon(), &NemesisKnobs::hostile());
        for (_, ev) in &s.events {
            assert!(
                matches!(
                    ev,
                    NemesisEvent::LossBurst { .. }
                        | NemesisEvent::LossEnd
                        | NemesisEvent::JitterSpike { .. }
                        | NemesisEvent::JitterEnd
                ),
                "{ev:?}"
            );
        }
    }

    #[test]
    fn live_knobs_emit_one_shot_events_covered_by_quiet_from() {
        for seed in 0..50 {
            let a = NemesisSchedule::generate(seed, 4, horizon(), &NemesisKnobs::live());
            let b = NemesisSchedule::generate(seed, 4, horizon(), &NemesisKnobs::live());
            assert_eq!(a, b, "seed {seed}: deterministic");
            // 1 partition + 1 crash are paired; 1 stall + 1 pressure are
            // one-shot: 2×2 + 2 events.
            assert_eq!(a.len(), 6, "seed {seed}");
            let mut stalls = 0;
            let mut pressures = 0;
            for (t, ev) in &a.events {
                match ev {
                    NemesisEvent::ThreadStall { site, duration } => {
                        stalls += 1;
                        assert!(site.index() < 4, "seed {seed}");
                        assert!(*duration > SimDuration::ZERO, "seed {seed}");
                        assert!(*t + *duration <= a.quiet_from, "seed {seed}: effect covered");
                    }
                    NemesisEvent::PressureSpike { site, drain_limit, duration } => {
                        pressures += 1;
                        assert!(site.index() < 4, "seed {seed}");
                        assert_eq!(*drain_limit, 1, "seed {seed}");
                        assert!(*duration > SimDuration::ZERO, "seed {seed}");
                        assert!(*t + *duration <= a.quiet_from, "seed {seed}: effect covered");
                    }
                    _ => {}
                }
            }
            assert_eq!((stalls, pressures), (1, 1), "seed {seed}");
        }
    }

    #[test]
    fn live_only_knobs_do_not_shift_existing_streams() {
        // The paired-fault schedules must stay byte-identical when the new
        // knob fields are zero: the 720-seed sim sweep's reproducers depend
        // on the generator's rng stream not moving.
        for seed in 0..20 {
            for knobs in [NemesisKnobs::rough(), NemesisKnobs::hostile()] {
                let s = NemesisSchedule::generate(seed, 5, horizon(), &knobs);
                for (_, ev) in &s.events {
                    assert!(
                        !matches!(
                            ev,
                            NemesisEvent::ThreadStall { .. } | NemesisEvent::PressureSpike { .. }
                        ),
                        "seed {seed}: zero knobs emit no live-only events"
                    );
                }
                assert_eq!(s.len() as u32, 2 * knobs.windows(), "seed {seed}");
            }
        }
    }

    #[test]
    fn view_change_targeted_is_deterministic_and_survivable() {
        for seed in 0..50 {
            let a = NemesisSchedule::view_change_targeted(seed, 4, horizon());
            let b = NemesisSchedule::view_change_targeted(seed, 4, horizon());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.len(), 14);
            // Sorted, inside the horizon, quiescent tail preserved.
            let times: Vec<SimTime> = a.events.iter().map(|(t, _)| *t).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted, "seed {seed}");
            assert!(a.quiet_from < horizon(), "seed {seed}");
            // Every crash recovered, every partition healed. One site is
            // down at a time until the last composition, where a member
            // dies inside the sequencer's recovery round.
            let mut down: Vec<SiteId> = Vec::new();
            let mut cut = false;
            for (i, (_, ev)) in a.events.iter().enumerate() {
                match ev {
                    NemesisEvent::PartitionHalves { group_a } => {
                        assert_eq!(group_a, &vec![SiteId::new(1)], "donor cut");
                        assert!(!cut, "seed {seed}: cuts do not nest");
                        cut = true;
                    }
                    NemesisEvent::Heal => cut = false,
                    NemesisEvent::Crash { site } => {
                        assert!(!down.contains(site), "seed {seed}: double crash");
                        down.push(*site);
                        assert!(i >= 8 || down.len() == 1, "seed {seed}: one site down at a time");
                    }
                    NemesisEvent::Recover { site } => {
                        assert!(down.contains(site), "seed {seed}: recovery of a live site");
                        down.retain(|s| s != site);
                    }
                    _ => panic!("unexpected event {ev:?}"),
                }
            }
            assert!(down.is_empty() && !cut, "seed {seed}: everything healed");
            // The last composition lands inside the round: a member crash
            // and a cut within 1.5 ms of the sequencer's second recovery.
            let round_start = a.events[9].0;
            assert_eq!(a.events[9].1, NemesisEvent::Recover { site: SiteId::new(0) });
            for (t, ev) in &a.events[10..12] {
                assert!(
                    matches!(ev, NemesisEvent::Crash { .. } | NemesisEvent::PartitionHalves { .. }),
                    "seed {seed}: {ev:?}"
                );
                let after = t.saturating_since(round_start);
                assert!(
                    after >= SimDuration::from_micros(100)
                        && after < SimDuration::from_micros(1500),
                    "seed {seed}: {after:?} after the recovery"
                );
            }
            // The sequencer's crash/recover pair sits inside the cut: the
            // donor is partitioned for the whole transfer.
            let crash0 = a
                .events
                .iter()
                .position(|(_, e)| matches!(e, NemesisEvent::Crash { site } if site.index() == 0))
                .unwrap();
            let heal = a.events.iter().position(|(_, e)| matches!(e, NemesisEvent::Heal)).unwrap();
            assert!(crash0 < heal, "seed {seed}: sequencer dies mid-partition");
        }
        assert_ne!(
            NemesisSchedule::view_change_targeted(1, 4, horizon()),
            NemesisSchedule::view_change_targeted(2, 4, horizon()),
            "seeds shift the interleaving"
        );
    }

    #[test]
    fn fast_path_targeted_is_deterministic_survivable_and_on_the_beat() {
        let first = SimTime::from_millis(1);
        let beat = SimDuration::from_millis(4);
        let make = |seed| {
            NemesisSchedule::fast_path_targeted(seed, 4, SimTime::from_millis(400), first, beat)
        };
        for seed in 0..50 {
            let a = make(seed);
            assert_eq!(a, make(seed), "seed {seed}");
            assert_eq!(a.len(), 14, "two cuts, two crashes, one burst, one crash inside a cut");
            assert!(
                a.quiet_from < SimTime::from_millis(400) && a.quiet_from > first,
                "seed {seed}"
            );
            let mut down: Option<SiteId> = None;
            let mut cut = false;
            let mut lossy = false;
            // The last four events are the cut that spans a crash and its
            // recovery; everything before them keeps its windows disjoint.
            let (disjoint, spanning) = a.events.split_at(10);
            assert!(
                matches!(
                    spanning,
                    [
                        (_, NemesisEvent::PartitionHalves { .. }),
                        (_, NemesisEvent::Crash { site: died }),
                        (_, NemesisEvent::Recover { site: back }),
                        (_, NemesisEvent::Heal),
                    ] if died == back
                ),
                "seed {seed}: {spanning:?}"
            );
            let since_cut = spanning[1].0.saturating_since(spanning[0].0);
            assert!(
                (30_000..300_000).contains(&since_cut.as_nanos()),
                "seed {seed}: the crash follows the cut by less than a hop or three"
            );
            for (t, ev) in disjoint {
                // Every fault begins inside an exchange: 20–400 µs after a
                // beat (the burst: on one).
                let into_beat = (t.saturating_since(first).as_nanos() % beat.as_nanos()) as i64;
                match ev {
                    NemesisEvent::PartitionHalves { group_a } => {
                        assert_eq!(group_a.len(), 2, "seed {seed}: a half");
                        assert!(!cut && down.is_none(), "seed {seed}: windows are disjoint");
                        assert!((20_000..400_000).contains(&into_beat), "seed {seed}: {into_beat}");
                        cut = true;
                    }
                    NemesisEvent::Heal => cut = false,
                    NemesisEvent::Crash { site } => {
                        assert!(down.is_none() && !cut, "seed {seed}: one site down at a time");
                        assert!((20_000..400_000).contains(&into_beat), "seed {seed}: {into_beat}");
                        down = Some(*site);
                    }
                    NemesisEvent::Recover { site } => {
                        assert_eq!(down.take(), Some(*site), "seed {seed}");
                    }
                    NemesisEvent::LossBurst { probability } => {
                        assert!((0.1..=0.35).contains(probability), "seed {seed}");
                        assert_eq!(into_beat, 0, "seed {seed}");
                        lossy = true;
                    }
                    NemesisEvent::LossEnd => lossy = false,
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert!(down.is_none() && !cut && !lossy, "seed {seed}: everything ends");
            // Round 0's coordinator is the first to die; the second crash
            // sits inside the burst, recovery included.
            let pos = |want: &dyn Fn(&NemesisEvent) -> bool| {
                a.events.iter().position(|(_, e)| want(e)).unwrap()
            };
            let first_crash = pos(&|e| matches!(e, NemesisEvent::Crash { .. }));
            assert_eq!(a.events[first_crash].1, NemesisEvent::Crash { site: SiteId::new(0) });
            let burst = pos(&|e| matches!(e, NemesisEvent::LossBurst { .. }));
            let burst_end = pos(&|e| matches!(e, NemesisEvent::LossEnd));
            let inside = &a.events[burst + 1..burst_end];
            assert!(
                matches!(
                    inside,
                    [(_, NemesisEvent::Crash { .. }), (_, NemesisEvent::Recover { .. })]
                ),
                "seed {seed}: {inside:?}"
            );
        }
        assert_ne!(make(1), make(2), "seeds shift the interleaving");
    }

    #[test]
    fn from_events_sorts_and_sets_quiet_from() {
        let s = NemesisSchedule::from_events(vec![
            (SimTime::from_millis(50), NemesisEvent::Heal),
            (
                SimTime::from_millis(10),
                NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(0)] },
            ),
        ]);
        assert_eq!(s.events[0].0, SimTime::from_millis(10));
        assert_eq!(s.quiet_from, SimTime::from_millis(50));
        assert!(NemesisSchedule::empty().is_empty());
    }
}
