//! The fault rules in force, for both drivers.
//!
//! The paper assumes crash-stop sites joined by reliable channels. A
//! [`Faults`] value is that model's current state, written down once: the
//! partition cut (one side-vector), the sites that are down, the loss
//! probability override and the jitter scale. [`Faults::apply`] is the one
//! interpreter of the [`NemesisEvent`] vocabulary; what an event asks of a
//! driver beyond the wire rules (ending an incarnation, stalling a thread)
//! comes back as a [`Todo`].
//!
//! The value holds no clock and no wires. It answers, for one wire, whether
//! `from → to` is cut or `to` is down ([`Faults::cut`], [`Faults::is_down`]),
//! and which loss and jitter scale are in force ([`Faults::loss`],
//! [`Faults::jitter_scale`]). The simulator's scheduler
//! ([`crate::sched::Sched`]) owns one and holds what it blocks; the
//! threaded runtime shares one behind a lock and parks what it blocks.
//!
//! One clamp rule serves both: a loss probability is clamped to
//! `[0, 0.999]` (a wire is delayed, never dropped, so certain loss is not
//! a loss), and a non-finite or non-positive jitter scale means 1.0.
//!
//! # Example
//!
//! ```
//! use otp_simnet::faults::{Faults, Todo};
//! use otp_simnet::{NemesisEvent, SiteId};
//!
//! let (a, b) = (SiteId::new(0), SiteId::new(1));
//! let mut faults = Faults::new(3);
//! faults.apply(&NemesisEvent::PartitionHalves { group_a: vec![a] });
//! assert!(faults.cut(a, b) && faults.cut(b, a));
//! assert_eq!(faults.apply(&NemesisEvent::Crash { site: b }), Todo::Crash(b));
//! assert!(faults.is_down(b));
//! faults.apply(&NemesisEvent::LossBurst { probability: 1.5 });
//! assert_eq!(faults.loss(0.0), 0.999);
//! ```

use crate::nemesis::NemesisEvent;
use crate::net::SiteId;
use crate::time::SimDuration;

/// Highest loss probability in force: a lost frame is retransmitted, so
/// every wire still arrives.
const MAX_LOSS: f64 = 0.999;

/// What a fault event leaves its driver to carry out, once
/// [`Faults::apply`] has taken in the wire rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Todo {
    /// Nothing: the event changed only what wires meet (or nothing at all,
    /// as a crash of a site already down does).
    Nothing,
    /// `site` went down: end its incarnation.
    Crash(SiteId),
    /// `site` came up again: bring its state back.
    Recover(SiteId),
    /// Stall `site`'s worker thread for `duration` (the threaded runtime
    /// only; the simulator has no threads).
    Stall {
        /// The stalled site.
        site: SiteId,
        /// How long the thread sleeps.
        duration: SimDuration,
    },
    /// Throttle `site`'s drain budget to `drain_limit` for `duration` (the
    /// threaded runtime only; the simulator's queues are unbounded).
    Pressure {
        /// The throttled site.
        site: SiteId,
        /// The drain budget during the spike.
        drain_limit: usize,
        /// How long the throttle lasts.
        duration: SimDuration,
    },
}

/// The fault rules in force. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// `side[i]`: site `i` is on the isolated side of the cut. Empty when
    /// no cut is in force.
    side: Vec<bool>,
    /// `down[i]`: site `i` is down.
    down: Vec<bool>,
    /// Loss probability replacing the configured one, clamped.
    loss: Option<f64>,
    /// Multiplier on the configured jitter, positive and finite.
    jitter_scale: f64,
}

impl Faults {
    /// No fault in force over `sites` sites.
    pub fn new(sites: usize) -> Self {
        Faults { side: Vec::new(), down: vec![false; sites], loss: None, jitter_scale: 1.0 }
    }

    /// Takes `ev` in and returns what it leaves the driver to do. A crash
    /// of a site already down and a recovery of a site that is up change
    /// nothing.
    pub fn apply(&mut self, ev: &NemesisEvent) -> Todo {
        match ev {
            NemesisEvent::PartitionHalves { group_a } => {
                self.side = SiteId::all(self.down.len()).map(|s| group_a.contains(&s)).collect();
            }
            NemesisEvent::Heal => self.side.clear(),
            NemesisEvent::Crash { site } if !self.is_down(*site) => {
                self.set_down(*site, true);
                return Todo::Crash(*site);
            }
            NemesisEvent::Recover { site } if self.is_down(*site) => {
                self.set_down(*site, false);
                return Todo::Recover(*site);
            }
            NemesisEvent::Crash { .. } | NemesisEvent::Recover { .. } => {}
            NemesisEvent::LossBurst { probability } => {
                self.loss = Some(probability.clamp(0.0, MAX_LOSS));
            }
            NemesisEvent::LossEnd => self.loss = None,
            NemesisEvent::JitterSpike { scale } => {
                self.jitter_scale = if scale.is_finite() && *scale > 0.0 { *scale } else { 1.0 };
            }
            NemesisEvent::JitterEnd => self.jitter_scale = 1.0,
            NemesisEvent::ThreadStall { site, duration } => {
                return Todo::Stall { site: *site, duration: *duration };
            }
            NemesisEvent::PressureSpike { site, drain_limit, duration } => {
                let (site, drain_limit, duration) = (*site, *drain_limit, *duration);
                return Todo::Pressure { site, drain_limit, duration };
            }
        }
        Todo::Nothing
    }

    /// Whether the cut separates `from` and `to`. A loopback wire is never
    /// cut.
    pub fn cut(&self, from: SiteId, to: SiteId) -> bool {
        !self.side.is_empty() && self.side[from.index()] != self.side[to.index()]
    }

    /// Whether `site` is down. A wire *from* a down site still arrives:
    /// what a site sent before it crashed is not clawed back.
    pub fn is_down(&self, site: SiteId) -> bool {
        self.down[site.index()]
    }

    /// Marks `site` down or up, for a driver that crashes and restores
    /// sites outside a nemesis schedule.
    pub(crate) fn set_down(&mut self, site: SiteId, down: bool) {
        self.down[site.index()] = down;
    }

    /// The loss probability in force: a burst's, else `baseline`.
    pub fn loss(&self, baseline: f64) -> f64 {
        self.loss.unwrap_or(baseline)
    }

    /// The multiplier on the configured jitter in force (1.0 outside a
    /// spike).
    pub fn jitter_scale(&self) -> f64 {
        self.jitter_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u16) -> SiteId {
        SiteId::new(i)
    }

    /// Every variant of the vocabulary, applied in turn to one value over
    /// four sites, with what it leaves the driver and the answers after it:
    /// the cut as the directed pairs it separates, the down sites, the loss
    /// in force over a 0.01 baseline and the jitter scale.
    #[test]
    fn every_event_yields_the_one_rule() {
        let ms = SimDuration::from_millis;
        let all_pairs = |f: &Faults| -> Vec<(u16, u16)> {
            let n = 4;
            (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .filter(|&(a, b)| f.cut(s(a), s(b)))
                .collect()
        };
        let down = |f: &Faults| -> Vec<u16> { (0..4).filter(|&i| f.is_down(s(i))).collect() };
        let cross = vec![(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)];
        /// An event, what it leaves, the cut pairs, the down sites, the
        /// loss and the jitter scale after it.
        type Row = (NemesisEvent, Todo, Vec<(u16, u16)>, Vec<u16>, f64, f64);
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            (NemesisEvent::PartitionHalves { group_a: vec![s(0), s(3)] }, Todo::Nothing, cross.clone(), vec![], 0.01, 1.0),
            (NemesisEvent::Crash { site: s(2) }, Todo::Crash(s(2)), cross.clone(), vec![2], 0.01, 1.0),
            (NemesisEvent::Crash { site: s(2) }, Todo::Nothing, cross.clone(), vec![2], 0.01, 1.0),
            (NemesisEvent::Heal, Todo::Nothing, vec![], vec![2], 0.01, 1.0),
            (NemesisEvent::Recover { site: s(2) }, Todo::Recover(s(2)), vec![], vec![], 0.01, 1.0),
            (NemesisEvent::Recover { site: s(2) }, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::LossBurst { probability: 1.5 }, Todo::Nothing, vec![], vec![], 0.999, 1.0),
            (NemesisEvent::LossBurst { probability: -0.5 }, Todo::Nothing, vec![], vec![], 0.0, 1.0),
            (NemesisEvent::LossBurst { probability: 0.3 }, Todo::Nothing, vec![], vec![], 0.3, 1.0),
            (NemesisEvent::LossEnd, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::JitterSpike { scale: 0.5 }, Todo::Nothing, vec![], vec![], 0.01, 0.5),
            (NemesisEvent::JitterSpike { scale: 0.0 }, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::JitterSpike { scale: 4.0 }, Todo::Nothing, vec![], vec![], 0.01, 4.0),
            (NemesisEvent::JitterSpike { scale: f64::NAN }, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::JitterSpike { scale: -2.0 }, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::JitterSpike { scale: f64::INFINITY }, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::JitterSpike { scale: 4.0 }, Todo::Nothing, vec![], vec![], 0.01, 4.0),
            (NemesisEvent::JitterEnd, Todo::Nothing, vec![], vec![], 0.01, 1.0),
            (NemesisEvent::ThreadStall { site: s(1), duration: ms(3) }, Todo::Stall { site: s(1), duration: ms(3) }, vec![], vec![], 0.01, 1.0),
            (
                NemesisEvent::PressureSpike { site: s(3), drain_limit: 2, duration: ms(4) },
                Todo::Pressure { site: s(3), drain_limit: 2, duration: ms(4) },
                vec![], vec![], 0.01, 1.0,
            ),
        ];
        let mut f = Faults::new(4);
        for (i, (ev, todo, cut, downs, loss, scale)) in table.into_iter().enumerate() {
            assert_eq!(f.apply(&ev), todo, "row {i}: {ev:?}");
            assert_eq!(all_pairs(&f), cut, "row {i}: {ev:?} cuts");
            assert_eq!(down(&f), downs, "row {i}: {ev:?} downs");
            assert_eq!(f.loss(0.01), loss, "row {i}: {ev:?} loss");
            assert_eq!(f.jitter_scale(), scale, "row {i}: {ev:?} jitter scale");
        }
        assert_eq!(f, Faults::new(4), "every fault ended");
    }

    /// Same-side pairs and loopback are never cut, and a cut does not
    /// care which side was named.
    #[test]
    fn partition_halves_blocks_exactly_the_cross_pairs() {
        let mut f = Faults::new(5);
        f.apply(&NemesisEvent::PartitionHalves { group_a: vec![s(1), s(4)] });
        for a in 0..5 {
            assert!(!f.cut(s(a), s(a)), "loopback {a} is never cut");
        }
        assert!(!f.cut(s(1), s(4)) && !f.cut(s(0), s(2)) && !f.cut(s(3), s(0)), "same side");
        assert!(f.cut(s(4), s(3)) && f.cut(s(3), s(4)), "both directions");
        let mut g = Faults::new(5);
        g.apply(&NemesisEvent::PartitionHalves { group_a: vec![s(0), s(2), s(3)] });
        for (a, b) in (0..5).flat_map(|a| (0..5).map(move |b| (a, b))) {
            assert_eq!(
                f.cut(s(a), s(b)),
                g.cut(s(a), s(b)),
                "{a} → {b}: the complement cuts alike"
            );
        }
        f.apply(&NemesisEvent::PartitionHalves { group_a: vec![s(0)] });
        assert!(!f.cut(s(1), s(3)), "a new cut replaces the old one");
    }

    /// A down site blocks what is sent to it, not what it sent.
    #[test]
    fn wires_from_a_down_site_still_deliver() {
        let mut f = Faults::new(3);
        f.apply(&NemesisEvent::Crash { site: s(0) });
        assert!(f.is_down(s(0)));
        assert!(!f.is_down(s(1)) && !f.is_down(s(2)));
        assert!(!f.cut(s(0), s(1)), "a crash cuts no link");
    }
}
