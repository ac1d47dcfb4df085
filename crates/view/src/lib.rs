//! # otp-view — group membership and view-change recovery
//!
//! The OPT-delivery guarantees of the broadcast layer assume an order
//! assignment is never lost or renumbered across a crash. Single-donor
//! recovery cannot honor that: an assignment known only to sites *other*
//! than the donor (delivered there, or still in their hold buffers) is
//! invisible to the restored engine, and a restored sequencer will renumber
//! the message — two sites then TO-deliver different messages at one
//! position. This crate provides the standard fix from the ABC literature:
//! **view-change recovery** — before a site is re-admitted, it collects an
//! ordering-state digest from *every* live member of the proposed view and
//! restores from the **union of survivors**.
//!
//! Three pieces:
//!
//! * [`ViewId`] / [`Membership`] — the epoch counter and the live set it
//!   governs. Epochs are strictly monotonic; every installed view is
//!   observed by all live members (the cluster's invariant bundle enforces
//!   this across chaos runs).
//! * [`ViewChange`] — the round state machine at the recovering site:
//!   *propose* (multicast `Wire::ViewChange`), *summarise* (one
//!   `Wire::StateSummary` per live member: how far it has delivered),
//!   *floor* (multicast `Wire::ViewFloor` with the minimum), *collect*
//!   (one `Wire::StateDigest` per member, cut above the floor and merged
//!   incrementally with [`otp_broadcast::EngineSnapshot::merge`]),
//!   *install* (when every expected member replied or crashed). The
//!   driver executes the wires; the machine is pure state, so it runs
//!   identically in the simulator.
//! * The **union argument** (see DESIGN.md §7): with crash faults only and
//!   a live majority, every order assignment that any site will ever act
//!   on is either (a) present in some survivor's digest — the union honors
//!   it, and the restored sequencer re-announces it under the new epoch —
//!   or (b) still in flight when every digest was taken, in which case it
//!   is tagged with the dead incarnation's epoch and fenced out at every
//!   member that installed the view. Either way no position is ever bound
//!   to two messages.
//!
//! # Example: a three-member round
//!
//! ```
//! use otp_broadcast::EngineSnapshot;
//! use otp_simnet::SiteId;
//! use otp_view::{DigestOutcome, SummaryOutcome, ViewChange};
//!
//! let (s0, s1, s2) = (SiteId::new(0), SiteId::new(1), SiteId::new(2));
//! // Site 0 recovers: it proposes epoch 1 over the live members {1, 2}.
//! let mut round: ViewChange<u32> = ViewChange::propose(1, s0, [s1, s2]);
//! assert!(!round.is_complete());
//! // Phase 1: both members say how far they delivered; the floor is the min.
//! assert_eq!(round.on_summary(s1, 1, 7), SummaryOutcome::Accepted);
//! assert_eq!(round.on_summary(s2, 1, 5), SummaryOutcome::FloorReady(5));
//! // Phase 2: both members ship their state above slot 5.
//! assert_eq!(round.on_digest(s1, 1, EngineSnapshot::empty()), DigestOutcome::Accepted);
//! assert_eq!(round.on_digest(s2, 1, EngineSnapshot::empty()), DigestOutcome::Completed);
//! let merged = round.into_merged();
//! assert_eq!(merged.epoch, 0); // two empty digests merge to an empty base
//! ```

use otp_broadcast::EngineSnapshot;
use otp_simnet::SiteId;
use std::collections::BTreeSet;
use std::fmt;

/// A view epoch: strictly increasing across installed views, cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u64);

impl ViewId {
    /// The initial view every cluster boots in.
    pub const INITIAL: ViewId = ViewId(0);

    /// The epoch that would follow this one.
    pub fn next(self) -> ViewId {
        ViewId(self.0 + 1)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A membership view: the epoch plus the set of sites it declares live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// The view's epoch.
    pub id: ViewId,
    /// Sites the view declares live.
    pub live: BTreeSet<SiteId>,
}

impl Membership {
    /// The boot view: epoch 0, all `sites` live.
    pub fn initial(sites: usize) -> Self {
        Membership { id: ViewId::INITIAL, live: SiteId::all(sites).collect() }
    }

    /// A view at `id` over the given live set.
    pub fn new(id: ViewId, live: impl IntoIterator<Item = SiteId>) -> Self {
        Membership { id, live: live.into_iter().collect() }
    }

    /// Whether `site` is a member of this view.
    pub fn contains(&self, site: SiteId) -> bool {
        self.live.contains(&site)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the view has no members.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, s) in self.live.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

/// What [`ViewChange::on_summary`] did with an incoming summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryOutcome {
    /// Counted; more summaries are still expected.
    Accepted,
    /// Counted, and it was the last one: the driver must multicast
    /// `Wire::ViewFloor` with this floor. The round now expects one digest
    /// from every member that summarised.
    FloorReady(u64),
    /// Carried a different epoch than this round — ignored (see
    /// [`DigestOutcome::WrongEpoch`]).
    WrongEpoch {
        /// Epoch the summary answered.
        got: u64,
    },
    /// Sent by a site the round does not expect a summary from (not a
    /// member, a duplicate, or the floor is already out) — ignored.
    Unexpected,
}

/// What a member crash did to a round ([`ViewChange::on_member_crashed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOutcome {
    /// The round still waits on somebody else (or never waited on the
    /// crashed site).
    Pending,
    /// The crashed member was the last missing summary: the driver must
    /// multicast `Wire::ViewFloor` with this floor.
    FloorReady(u64),
    /// Nothing is outstanding any more: the round is complete.
    Completed,
}

/// What [`ViewChange::on_digest`] did with an incoming digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestOutcome {
    /// Counted towards the round; more members are still expected.
    Accepted,
    /// Counted, and it was the last one: the round is now complete.
    Completed,
    /// Carried a different epoch than this round — ignored. Stale digests
    /// are normal under crash/recover churn (a reply to a round that was
    /// superseded); the driver surfaces a counter so they stay visible.
    WrongEpoch {
        /// Epoch the digest answered.
        got: u64,
    },
    /// Sent by a site the round does not expect a digest from (not a
    /// member, already collected, or the floor is not out yet) — ignored.
    Unexpected,
}

/// The view-change round state machine at the recovering site.
///
/// Propose → summarise → floor → collect → install; see the
/// [crate docs](self) for the protocol and the union argument. The machine
/// never touches a network: the driver multicasts the `ViewChange`
/// announcement, routes incoming `StateSummary` wires into
/// [`ViewChange::on_summary`], multicasts `ViewFloor` when told the floor
/// is ready, routes `StateDigest` wires into [`ViewChange::on_digest`],
/// reports crashes via [`ViewChange::on_member_crashed`], and calls
/// [`ViewChange::into_merged`] once [`ViewChange::is_complete`].
///
/// The floor is the **minimum** delivered length over every summary —
/// including those of members that crashed after summarising. Definitive
/// logs only grow, so every member still alive at install has delivered at
/// least `floor` messages, and so has the base snapshot the driver picks
/// among them: digests cut above the floor lose nothing the base lacks.
#[derive(Debug, Clone)]
pub struct ViewChange<P> {
    epoch: u64,
    initiator: SiteId,
    /// Members still owing the current phase's reply.
    expected: BTreeSet<SiteId>,
    /// Summary phase only: members that summarised and are still alive —
    /// the digest phase's expected set.
    summarised: BTreeSet<SiteId>,
    /// Minimum delivered length over every summary so far.
    low: u64,
    /// `Some` once the summary phase closed.
    floor: Option<u64>,
    collected: BTreeSet<SiteId>,
    merged: EngineSnapshot<P>,
}

impl<P: Clone + fmt::Debug> ViewChange<P> {
    /// Starts a round: the recovering `initiator` proposes `epoch` over the
    /// given live members (the initiator itself is never expected — it has
    /// nothing to contribute).
    pub fn propose(
        epoch: u64,
        initiator: SiteId,
        members: impl IntoIterator<Item = SiteId>,
    ) -> Self {
        let mut expected: BTreeSet<SiteId> = members.into_iter().collect();
        expected.remove(&initiator);
        ViewChange {
            epoch,
            initiator,
            expected,
            summarised: BTreeSet::new(),
            low: u64::MAX,
            floor: None,
            collected: BTreeSet::new(),
            merged: EngineSnapshot::empty(),
        }
    }

    /// The round's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The recovering site driving the round.
    pub fn initiator(&self) -> SiteId {
        self.initiator
    }

    /// The supersession rule for overlapping rounds of **one** site:
    /// newest epoch wins. A driver about to propose `newer_epoch` for this
    /// round's initiator must abort this round (explicitly — its late
    /// digests become stale, its merged state is discarded) exactly when
    /// this returns true; proposing a non-newer epoch is a caller bug and
    /// must be dropped instead. Rounds for *different* sites never
    /// supersede each other — they resolve monotonically at install time.
    pub fn superseded_by(&self, newer_epoch: u64) -> bool {
        newer_epoch > self.epoch
    }

    /// Members whose reply to the current phase (summary, then digest) is
    /// still outstanding.
    pub fn outstanding(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.expected.iter().copied()
    }

    /// The digest floor, once every member summarised or crashed; `None`
    /// while summaries are still outstanding (and for a round nobody
    /// summarised in — it collects no digests either).
    pub fn floor(&self) -> Option<u64> {
        self.floor
    }

    /// Members whose digests have been merged.
    pub fn collected(&self) -> usize {
        self.collected.len()
    }

    /// True when every expected member has sent its digest or crashed.
    pub fn is_complete(&self) -> bool {
        self.expected.is_empty() && self.summarised.is_empty()
    }

    /// Closes the summary phase if nobody owes a summary any more: the
    /// members that summarised now owe a digest. Returns the floor when
    /// there is one to announce.
    fn close_summaries(&mut self) -> Option<u64> {
        if !self.expected.is_empty() || self.summarised.is_empty() {
            return None;
        }
        self.expected = std::mem::take(&mut self.summarised);
        self.floor = Some(self.low);
        self.floor
    }

    /// Feeds one member's delivered length into the round.
    pub fn on_summary(&mut self, from: SiteId, epoch: u64, delivered: u64) -> SummaryOutcome {
        if epoch != self.epoch {
            return SummaryOutcome::WrongEpoch { got: epoch };
        }
        if self.floor.is_some() || !self.expected.remove(&from) {
            return SummaryOutcome::Unexpected;
        }
        self.summarised.insert(from);
        self.low = self.low.min(delivered);
        match self.close_summaries() {
            Some(floor) => SummaryOutcome::FloorReady(floor),
            None => SummaryOutcome::Accepted,
        }
    }

    /// Feeds one member's digest (cut above [`ViewChange::floor`]) into
    /// the round.
    pub fn on_digest(
        &mut self,
        from: SiteId,
        epoch: u64,
        snapshot: EngineSnapshot<P>,
    ) -> DigestOutcome {
        if epoch != self.epoch {
            return DigestOutcome::WrongEpoch { got: epoch };
        }
        if self.floor.is_none() || !self.expected.remove(&from) {
            return DigestOutcome::Unexpected;
        }
        self.collected.insert(from);
        self.merged.merge(snapshot);
        if self.is_complete() {
            DigestOutcome::Completed
        } else {
            DigestOutcome::Accepted
        }
    }

    /// Removes a crashed member from the round (its knowledge is lost with
    /// it; whatever it already contributed — a summary that lowered the
    /// floor, a merged digest — stays). A member that summarised and then
    /// crashed owes no digest.
    pub fn on_member_crashed(&mut self, site: SiteId) -> CrashOutcome {
        let was_waiting = self.expected.remove(&site) | self.summarised.remove(&site);
        if !was_waiting {
            return CrashOutcome::Pending;
        }
        if self.floor.is_none() {
            if let Some(floor) = self.close_summaries() {
                return CrashOutcome::FloorReady(floor);
            }
        }
        if self.is_complete() {
            CrashOutcome::Completed
        } else {
            CrashOutcome::Pending
        }
    }

    /// Consumes the round and yields the union of every collected digest.
    ///
    /// # Panics
    ///
    /// Panics if the round is not complete — installing a partial union
    /// would silently reopen the divergence window the round exists to
    /// close.
    pub fn into_merged(self) -> EngineSnapshot<P> {
        assert!(
            self.is_complete(),
            "view-change round {} still waiting on {:?}",
            self.epoch,
            self.expected.union(&self.summarised).collect::<Vec<_>>()
        );
        self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_broadcast::{Message, MsgId};

    fn id(origin: u16, seq: u64) -> MsgId {
        MsgId::new(SiteId::new(origin), seq)
    }

    fn snap_with(tags: &[(MsgId, u64)], log: &[MsgId], epoch: u64) -> EngineSnapshot<u32> {
        let mut s = EngineSnapshot::empty();
        s.order_tags = tags.to_vec();
        s.definitive_log = log.to_vec();
        s.received = tags.iter().map(|(id, _)| Message { id: *id, payload: 1 }).collect();
        s.epoch = epoch;
        s.min_delivered = log.len() as u64;
        s
    }

    /// A round over `sites` (initiator first) whose summary phase already
    /// closed: every other member reported `delivered`.
    fn round_at_floor(epoch: u64, sites: usize, delivered: u64) -> ViewChange<u32> {
        let mut round = ViewChange::propose(epoch, SiteId::new(0), SiteId::all(sites));
        for s in 1..sites as u16 {
            round.on_summary(SiteId::new(s), epoch, delivered);
        }
        assert_eq!(round.floor(), Some(delivered));
        round
    }

    #[test]
    fn view_ids_and_memberships() {
        assert_eq!(ViewId::INITIAL.next(), ViewId(1));
        assert!(ViewId(1) < ViewId(2));
        let m = Membership::initial(3);
        assert_eq!(m.len(), 3);
        assert!(m.contains(SiteId::new(2)));
        assert!(!m.is_empty());
        assert_eq!(format!("{m}"), "v0{N0,N1,N2}");
        let m2 = Membership::new(ViewId(4), [SiteId::new(1)]);
        assert_eq!(format!("{m2}"), "v4{N1}");
    }

    #[test]
    fn floor_is_the_minimum_over_all_summaries() {
        let mut round: ViewChange<u32> = ViewChange::propose(2, SiteId::new(0), SiteId::all(4));
        assert_eq!(round.outstanding().count(), 3, "initiator is never expected");
        assert_eq!(round.on_summary(SiteId::new(1), 2, 9), SummaryOutcome::Accepted);
        assert_eq!(round.on_summary(SiteId::new(2), 2, 4), SummaryOutcome::Accepted);
        assert_eq!(round.floor(), None, "one summary still outstanding");
        // A digest before the floor is out answers nothing the round asked.
        assert_eq!(
            round.on_digest(SiteId::new(1), 2, EngineSnapshot::empty()),
            DigestOutcome::Unexpected
        );
        assert_eq!(round.on_summary(SiteId::new(3), 2, 6), SummaryOutcome::FloorReady(4));
        assert_eq!(round.floor(), Some(4));
        assert!(!round.is_complete(), "the digest phase has only begun");
        assert_eq!(round.outstanding().count(), 3, "every summariser owes a digest");
    }

    #[test]
    fn round_collects_all_expected_members() {
        let mut round = round_at_floor(2, 4, 0);
        assert_eq!(
            round.on_digest(SiteId::new(1), 2, EngineSnapshot::empty()),
            DigestOutcome::Accepted
        );
        assert_eq!(
            round.on_digest(SiteId::new(2), 2, EngineSnapshot::empty()),
            DigestOutcome::Accepted
        );
        assert!(!round.is_complete());
        assert_eq!(
            round.on_digest(SiteId::new(3), 2, EngineSnapshot::empty()),
            DigestOutcome::Completed
        );
        assert!(round.is_complete());
        assert_eq!(round.collected(), 3);
    }

    #[test]
    fn stale_duplicate_and_foreign_summaries_are_ignored() {
        let mut round: ViewChange<u32> = ViewChange::propose(5, SiteId::new(0), SiteId::all(3));
        assert_eq!(round.on_summary(SiteId::new(1), 4, 7), SummaryOutcome::WrongEpoch { got: 4 });
        assert_eq!(round.on_summary(SiteId::new(1), 5, 7), SummaryOutcome::Accepted);
        // Duplicate from the same member: ignored — it cannot lower the floor.
        assert_eq!(round.on_summary(SiteId::new(1), 5, 0), SummaryOutcome::Unexpected);
        // A site outside the view, and the initiator itself: ignored.
        assert_eq!(round.on_summary(SiteId::new(9), 5, 0), SummaryOutcome::Unexpected);
        assert_eq!(round.on_summary(SiteId::new(0), 5, 0), SummaryOutcome::Unexpected);
        assert_eq!(round.on_summary(SiteId::new(2), 5, 8), SummaryOutcome::FloorReady(7));
        // The floor is out: a late summary changes nothing.
        assert_eq!(round.on_summary(SiteId::new(2), 5, 0), SummaryOutcome::Unexpected);
        assert_eq!(round.floor(), Some(7));
    }

    #[test]
    fn stale_duplicate_and_foreign_digests_are_ignored() {
        let mut round = round_at_floor(5, 3, 0);
        assert_eq!(
            round.on_digest(SiteId::new(1), 4, EngineSnapshot::empty()),
            DigestOutcome::WrongEpoch { got: 4 }
        );
        assert_eq!(
            round.on_digest(SiteId::new(1), 5, EngineSnapshot::empty()),
            DigestOutcome::Accepted
        );
        // Duplicate from the same member: ignored, not double-counted.
        assert_eq!(
            round.on_digest(SiteId::new(1), 5, EngineSnapshot::empty()),
            DigestOutcome::Unexpected
        );
        // A site outside the view: ignored.
        assert_eq!(
            round.on_digest(SiteId::new(9), 5, EngineSnapshot::empty()),
            DigestOutcome::Unexpected
        );
        assert!(!round.is_complete());
    }

    #[test]
    fn member_crash_can_complete_the_round() {
        let mut round: ViewChange<u32> = ViewChange::propose(1, SiteId::new(3), SiteId::all(4));
        for s in 0..3 {
            round.on_summary(SiteId::new(s), 1, 0);
        }
        round.on_digest(SiteId::new(0), 1, snap_with(&[(id(0, 0), 0)], &[], 0));
        assert_eq!(round.on_member_crashed(SiteId::new(1)), CrashOutcome::Pending);
        assert_eq!(round.on_member_crashed(SiteId::new(2)), CrashOutcome::Completed);
        assert!(round.is_complete());
        // A crash of an already-collected member changes nothing.
        assert_eq!(round.on_member_crashed(SiteId::new(0)), CrashOutcome::Pending);
        // The crashed members' knowledge is gone, the collected digest stays.
        let merged = round.into_merged();
        assert_eq!(merged.order_tags, vec![(id(0, 0), 0)]);
    }

    /// A member that crashes between its summary and the floor owes no
    /// digest, but its summary still bounds the floor from below (a lower
    /// floor only ships more).
    #[test]
    fn member_crash_between_summary_and_digest_completes_the_round() {
        let mut round: ViewChange<u32> = ViewChange::propose(1, SiteId::new(0), SiteId::all(4));
        assert_eq!(round.on_summary(SiteId::new(1), 1, 3), SummaryOutcome::Accepted);
        assert_eq!(round.on_summary(SiteId::new(2), 1, 8), SummaryOutcome::Accepted);
        // Member 1 summarised, then died; member 3 dies before summarising
        // — the last outstanding summary, so the floor goes out.
        assert_eq!(round.on_member_crashed(SiteId::new(1)), CrashOutcome::Pending);
        assert_eq!(round.on_member_crashed(SiteId::new(3)), CrashOutcome::FloorReady(3));
        assert_eq!(round.outstanding().collect::<Vec<_>>(), vec![SiteId::new(2)]);
        assert_eq!(
            round.on_digest(SiteId::new(1), 1, EngineSnapshot::empty()),
            DigestOutcome::Unexpected,
            "the crashed member is no longer expected"
        );
        assert_eq!(
            round.on_digest(SiteId::new(2), 1, EngineSnapshot::empty()),
            DigestOutcome::Completed
        );
    }

    /// Every member crashing before the floor leaves nothing to collect.
    #[test]
    fn round_nobody_summarised_in_completes_without_a_floor() {
        let mut round: ViewChange<u32> = ViewChange::propose(1, SiteId::new(0), SiteId::all(3));
        round.on_summary(SiteId::new(1), 1, 3);
        assert_eq!(round.on_member_crashed(SiteId::new(1)), CrashOutcome::Pending);
        assert_eq!(round.on_member_crashed(SiteId::new(2)), CrashOutcome::Completed);
        assert_eq!(round.floor(), None);
        assert_eq!(round.into_merged(), EngineSnapshot::empty());
    }

    #[test]
    fn union_covers_assignments_no_single_donor_has() {
        // Survivor 1 knows slots 0-1, survivor 2 knows slots 1-2 and is
        // further along: the union must cover all of 0-2.
        let mut round = round_at_floor(1, 3, 0);
        let (a, b, c) = (id(1, 0), id(2, 0), id(2, 1));
        round.on_digest(SiteId::new(1), 1, snap_with(&[(a, 0), (b, 1)], &[a], 3).delta_above(0));
        round.on_digest(SiteId::new(2), 1, snap_with(&[(b, 1), (c, 2)], &[a, b], 3).delta_above(0));
        let merged = round.into_merged();
        assert_eq!(merged.order_tags, vec![(a, 0), (b, 1), (c, 2)], "max-seqno union");
        // The digests' definitive logs are NOT adopted: the restore pairs
        // the merged state with the base snapshot's replica, and only the
        // base's log may be suppressed from re-delivery. The digests'
        // delivered tails live on as order tags.
        assert_eq!(merged.definitive_log, Vec::<MsgId>::new(), "base log wins (empty base)");
        let mut ids: Vec<MsgId> = merged.received.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![a, b, c], "payload union, deduplicated");
        assert_eq!(merged.epoch, 3);
    }

    /// Regression (found in review): a digest sender that was *ahead* of
    /// every survivor and crashed after replying must not drag the merged
    /// definitive log past the base — everything in the log is suppressed
    /// from re-delivery, so the base replica would permanently miss the
    /// tail. The tail must instead come back as deliverable order tags —
    /// also when the digest is a delta above the round's floor.
    #[test]
    fn ahead_then_crashed_digest_does_not_extend_the_base_log() {
        let (a, b) = (id(1, 0), id(1, 1));
        let mut round: ViewChange<u32> = ViewChange::propose(1, SiteId::new(0), SiteId::all(3));
        // Member 2 was ahead (delivered A and B), member 1 only delivered A.
        round.on_summary(SiteId::new(2), 1, 2);
        assert_eq!(round.on_summary(SiteId::new(1), 1, 1), SummaryOutcome::FloorReady(1));
        // Member 2 replies above the floor, then crashes; so does member 1
        // before replying.
        round.on_digest(SiteId::new(2), 1, snap_with(&[(a, 0), (b, 1)], &[a, b], 0).delta_above(1));
        assert_eq!(round.on_member_crashed(SiteId::new(1)), CrashOutcome::Completed);
        // Base: a survivor that only delivered A.
        let mut base = snap_with(&[(a, 0)], &[a], 0);
        base.merge(round.into_merged());
        assert_eq!(base.definitive_log, vec![a], "log stays the base replica's");
        assert_eq!(base.order_tags, vec![(a, 0), (b, 1)], "the tail is re-deliverable");
        assert!(base.received.iter().any(|m| m.id == b), "payload of the tail survives");
    }

    /// Supersession (newest epoch wins): only a strictly newer epoch may
    /// replace a pending round for the same site — in either phase.
    #[test]
    fn supersession_requires_a_strictly_newer_epoch() {
        let summarising: ViewChange<u32> = ViewChange::propose(5, SiteId::new(0), SiteId::all(3));
        let collecting = round_at_floor(5, 3, 2);
        for round in [summarising, collecting] {
            assert!(round.superseded_by(6));
            assert!(round.superseded_by(u64::MAX));
            assert!(!round.superseded_by(5), "same epoch never supersedes");
            assert!(!round.superseded_by(4), "older rounds never win");
        }
    }

    /// The merged snapshot's `min_delivered` is the minimum over every
    /// collected digest — the restored sequencer's delta re-announce
    /// floor. The fold identity (`empty()` = MAX) must never survive a
    /// real digest, and the digest floor does not touch it.
    #[test]
    fn merged_min_delivered_is_the_minimum_over_digests() {
        let (a, b) = (id(1, 0), id(1, 1));
        let mut round = round_at_floor(1, 3, 1);
        assert_eq!(round.merged.min_delivered, u64::MAX, "fold identity");
        round.on_digest(SiteId::new(1), 1, snap_with(&[(a, 0), (b, 1)], &[a, b], 0).delta_above(1));
        round.on_digest(SiteId::new(2), 1, snap_with(&[(a, 0)], &[a], 0).delta_above(1));
        let merged = round.into_merged();
        assert_eq!(merged.min_delivered, 1, "the laggard's delivered length wins");
        assert_eq!(merged.order_tags, vec![(b, 1)], "nothing below the floor was shipped");
    }

    #[test]
    #[should_panic(expected = "still waiting")]
    fn partial_round_refuses_to_install() {
        let round: ViewChange<u32> = ViewChange::propose(1, SiteId::new(0), SiteId::all(3));
        let _ = round.into_merged();
    }

    #[test]
    #[should_panic(expected = "still waiting")]
    fn round_between_phases_refuses_to_install() {
        let _ = round_at_floor(1, 3, 0).into_merged();
    }
}
