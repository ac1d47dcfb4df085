//! # otp-consensus — rotating-coordinator consensus
//!
//! The optimistic atomic broadcast of Pedone & Schiper (DISC'98), which the
//! ICDCS'99 OTP paper builds on, reaches agreement on the *definitive* total
//! order by running a sequence of consensus instances. This crate provides
//! that agreement substrate: a crash-tolerant, Chandra–Toueg-style consensus
//! with a rotating coordinator and a timeout-based (◇S-like) failure
//! detector, implemented as a pure event-driven state machine so it runs
//! unchanged inside the deterministic simulator or a threaded runtime.
//!
//! The protocol tolerates `f < n/2` crash failures and satisfies:
//!
//! * **Validity** — a decided value was proposed by some site;
//! * **Agreement** — no two sites decide differently;
//! * **Termination** — every correct site eventually decides (given that
//!   eventually some correct coordinator is not suspected — the ◇S
//!   assumption, realized here by exponentially growing round timeouts).
//!
//! # Protocol sketch (one instance)
//!
//! Rounds rotate through the sites: coordinator of round `r` is site
//! `r mod n`.
//!
//! 0. **One step.** A site's first message is its round-0 estimate with
//!    `ts = 0` — its initial proposal, which doubles as its *vote* — and it
//!    goes to every member, not to the coordinator only. A site that has
//!    received `n` of `n` votes carrying one value decides that value at
//!    once and sends nothing. Validity makes this safe against crash
//!    faults: if all `n` initial proposals are `v`, every estimate any
//!    round can ever carry is `v`, so no round decides anything else. The
//!    rounds below start at the same instant and are not waited for, held
//!    back or changed, so a vote that differs, is late or never comes costs
//!    the slow path nothing.
//! 1. every site sends its current estimate (with the round it was last
//!    adopted in) to the round's coordinator;
//! 2. the coordinator collects a majority of estimates, picks the one with
//!    the highest adoption stamp, and proposes it to all;
//! 3. a site that receives the proposal adopts it and acknowledges; a site
//!    whose round timer fires first moves to the next round instead;
//! 4. on a majority of acks the coordinator broadcasts *decide*; receivers
//!    decide. Nobody relays: channels are reliable, so the coordinator's
//!    broadcast reaches every member, and a site that still misses the
//!    decision *pulls* it — its `Nack`, or its estimate for a later round,
//!    reaches a decided coordinator, which answers with the decision.
//!
//! ## Adoption stamps and re-incarnation
//!
//! A coordinator proposes the estimate with the highest *adoption stamp* in
//! its majority: a proposal adopted in round `r` is stamped `ts = r + 1`,
//! an initial proposal `ts = 0`, and only `round = 0, ts = 0` estimates
//! count as votes.
//!
//! The one-step rule assumes a site votes once per instance. A site that
//! crashes after voting and is rebuilt without its memory could vote
//! again, with a different value, while a site that counted its first vote
//! has already decided. So a rebuilt site does not vote: in every instance
//! its previous incarnation may have voted in it starts with
//! [`Instance::rejoin`], whose initial estimate is stamped
//! [`REJOINED_TS`] — below every other stamp, sent to the round's
//! coordinator only, never a vote. It still counts towards a coordinator's
//! majority (a rejoined site keeps the rounds live), but it is proposed
//! only if the whole majority rejoined. The rule lives at the sender, the
//! one place that knows: it holds whatever was in flight, held at a
//! partition or collected when the site came back, and whichever members
//! opened the instance before or after the view changed.
//!
//! With it, once any site has decided `v` in one step, every estimate that
//! is not a rejoined site's initial one carries `v` (all `n` first
//! incarnations proposed `v`, and a proposal is always picked from
//! estimates), and every majority holds at least one of those unless a
//! majority of the members lost their state. The rounds' own locking rule
//! is weaker than that and is not changed here: a site that forgets what
//! it acked can break it, and where two majorities may share a single
//! site — odd `n` — one such site is enough.
//!
//! # Example
//!
//! ```
//! use otp_consensus::{Action, Instance, InstanceConfig};
//! use otp_simnet::{SimDuration, SiteId};
//!
//! // A single-site "cluster" decides on its own proposal as soon as its
//! // vote is looped back: one of one.
//! let cfg = InstanceConfig::new(1, SimDuration::from_millis(10));
//! let (mut inst, actions) = Instance::new(SiteId::new(0), cfg, "value");
//! // Drive the self-messages back into the instance until it decides.
//! let mut pending: Vec<_> = actions;
//! while inst.decided().is_none() {
//!     let mut next = Vec::new();
//!     for a in pending.drain(..) {
//!         match a {
//!             Action::Send(_, m) | Action::Broadcast(m) => {
//!                 next.extend(inst.on_message(SiteId::new(0), m));
//!             }
//!             _ => {}
//!         }
//!     }
//!     pending = next;
//! }
//! assert_eq!(inst.decided(), Some(&"value"));
//! ```

use otp_simnet::{SimDuration, SiteId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Wire messages exchanged by a consensus instance.
///
/// `V` is the proposal type; the broadcast layer instantiates it with a
/// batch of message identifiers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsensusMsg<V> {
    /// Phase 1: a site's current estimate for round `round`, tagged with
    /// its adoption stamp. The round-0 estimate with `ts = 0` is the site's
    /// initial proposal and its one-step vote; it is the only estimate sent
    /// to every member.
    Estimate {
        /// Round this estimate is sent for.
        round: u64,
        /// The sender's current estimate.
        est: V,
        /// Adoption stamp of `est`: 0 if initial, `r + 1` if adopted in
        /// round `r`, [`REJOINED_TS`] if initial at a rejoined site.
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal for `round`.
    Propose {
        /// Round of the proposal.
        round: u64,
        /// Proposed value.
        value: V,
    },
    /// Phase 3: acknowledgment that the sender adopted the proposal.
    Ack {
        /// Acknowledged round.
        round: u64,
    },
    /// Phase 3 (negative): the sender suspected the coordinator and moved
    /// on; the coordinator should abandon the round.
    Nack {
        /// Rejected round.
        round: u64,
    },
    /// Phase 4: the decision, broadcast once by the coordinator that
    /// gathered the acks and sent to a straggler that asks.
    Decide {
        /// Decided value.
        value: V,
    },
}

/// Output of feeding an event into an [`Instance`].
///
/// The caller (simulation driver or runtime) is responsible for delivering
/// `Send`/`Broadcast` through its transport — including messages a site
/// addresses to itself — and for scheduling `SetTimer` callbacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<V> {
    /// Send a message to one site (possibly the sender itself).
    Send(SiteId, ConsensusMsg<V>),
    /// Send a message to every site, including the sender.
    Broadcast(ConsensusMsg<V>),
    /// Arm a timer: deliver [`Instance::on_timeout`] with this round after
    /// the delay, unless the instance has decided.
    SetTimer {
        /// Round the timer guards.
        round: u64,
        /// How long to wait.
        delay: SimDuration,
    },
    /// The instance decided; emitted exactly once.
    Decided(V),
}

/// Adoption stamp of the initial estimate of a site that *rejoined* an
/// instance ([`Instance::rejoin`]): it ranks below every other stamp,
/// initial (`0`) and adopted (`r + 1`) alike, and is never a vote.
pub const REJOINED_TS: u64 = u64::MAX;

/// Orders adoption stamps: [`REJOINED_TS`] first, then `0`, then `r + 1`.
fn rank(ts: u64) -> u64 {
    ts.wrapping_add(1)
}

/// Static parameters of a consensus instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Number of participating sites.
    pub sites: usize,
    /// Base round timeout; doubles each round (capped at 64× base) so that
    /// eventually a correct coordinator has enough time — the ◇S
    /// assumption made operational.
    pub base_timeout: SimDuration,
}

impl InstanceConfig {
    /// Creates a configuration for `sites` participants.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0`.
    pub fn new(sites: usize, base_timeout: SimDuration) -> Self {
        assert!(sites > 0, "consensus needs at least one site");
        InstanceConfig { sites, base_timeout }
    }

    /// Majority quorum size: `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.sites / 2 + 1
    }

    /// Coordinator of a round: sites rotate by round number.
    pub fn coordinator(&self, round: u64) -> SiteId {
        SiteId::new((round % self.sites as u64) as u16)
    }

    /// Timeout used for `round`, with exponential backoff.
    pub fn timeout_for(&self, round: u64) -> SimDuration {
        let factor = 1u64 << round.min(6); // cap at 64×
        self.base_timeout.mul_u64(factor)
    }
}

/// A set of member sites as a bit-vector sized by the instance's site
/// count. Quorum and unanimity arguments need *distinct* processes, so
/// every tally goes through one of these: a duplicated message (a
/// retransmitting channel) can never count twice. The first 64 members
/// live inline — an instance of a cluster that size allocates nothing for
/// its three sets.
#[derive(Debug, Clone)]
struct SiteSet {
    low: u64,
    high: Vec<u64>,
    len: usize,
}

impl SiteSet {
    fn new(sites: usize) -> Self {
        SiteSet { low: 0, high: vec![0; sites.saturating_sub(64).div_ceil(64)], len: 0 }
    }

    /// Adds `site`; false if it was already a member.
    fn insert(&mut self, site: SiteId) -> bool {
        let i = site.index();
        let word = if i < 64 { &mut self.low } else { &mut self.high[i / 64 - 1] };
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    fn clear(&mut self) {
        self.low = 0;
        self.high.fill(0);
        self.len = 0;
    }
}

/// Coordinator bookkeeping for the one round this site is currently
/// coordinating (the highest of its rounds anyone has addressed so far).
#[derive(Debug, Clone)]
struct CoordState<V> {
    round: u64,
    est_from: SiteSet,
    /// The estimate with the highest-ranking adoption stamp received so
    /// far; among equal stamps, the latest to arrive.
    freshest: Option<(u64, V)>,
    proposal: Option<V>,
    acks: SiteSet,
    abandoned: bool,
}

impl<V> CoordState<V> {
    fn new(sites: usize) -> Self {
        CoordState {
            round: 0,
            est_from: SiteSet::new(sites),
            freshest: None,
            proposal: None,
            acks: SiteSet::new(sites),
            abandoned: false,
        }
    }

    /// Moves the bookkeeping to `round` if that is newer; false if `round`
    /// is one this coordinator has already left behind.
    fn turn_to(&mut self, round: u64) -> bool {
        if round > self.round {
            self.round = round;
            self.est_from.clear();
            self.freshest = None;
            self.proposal = None;
            self.acks.clear();
            self.abandoned = false;
        }
        round == self.round
    }
}

/// A single consensus instance at one site.
///
/// Drive it with [`Instance::on_message`] and [`Instance::on_timeout`];
/// execute the returned [`Action`]s. The instance is silent after deciding
/// except for answering, as a round's coordinator, a straggler's `Estimate`
/// or `Nack` with the decision — the pull that replaces a relay.
#[derive(Debug, Clone)]
pub struct Instance<V> {
    me: SiteId,
    cfg: InstanceConfig,
    round: u64,
    est: V,
    ts: u64,
    decided: Option<V>,
    decided_in_one_step: bool,
    coord: CoordState<V>,
    /// The round this site last acked, to suppress duplicate acks.
    acked_round: Option<u64>,
    /// Members whose round-0 vote has been counted.
    voters: SiteSet,
    /// The value every counted vote carries — the copy round 0's
    /// coordinator sent once that has arrived, so that sites deciding in
    /// one step end up sharing one allocation the way sites deciding on a
    /// `Decide` do. `None` before the first vote and after two differed.
    vote: Option<V>,
    votes_differ: bool,
}

impl<V: Clone + PartialEq + fmt::Debug> Instance<V> {
    /// Starts an instance with this site's `initial` proposal.
    ///
    /// Returns the instance plus the initial actions (the round-0 estimate,
    /// which is the site's vote, and the round-0 timer).
    pub fn new(me: SiteId, cfg: InstanceConfig, initial: V) -> (Self, Vec<Action<V>>) {
        Self::start(me, cfg, initial, 0)
    }

    /// Starts an instance at a site rebuilt without its memory, whose
    /// previous incarnation may have voted in it already: `initial` is
    /// stamped [`REJOINED_TS`], so it is no vote and no coordinator prefers
    /// it to an estimate of a site that kept its state (see the module
    /// docs, "Adoption stamps and re-incarnation").
    pub fn rejoin(me: SiteId, cfg: InstanceConfig, initial: V) -> (Self, Vec<Action<V>>) {
        Self::start(me, cfg, initial, REJOINED_TS)
    }

    fn start(me: SiteId, cfg: InstanceConfig, initial: V, ts: u64) -> (Self, Vec<Action<V>>) {
        let mut inst = Instance {
            me,
            cfg,
            round: 0,
            est: initial,
            ts,
            decided: None,
            decided_in_one_step: false,
            coord: CoordState::new(cfg.sites),
            acked_round: None,
            voters: SiteSet::new(cfg.sites),
            vote: None,
            votes_differ: false,
        };
        let actions = inst.enter_round(0);
        (inst, actions)
    }

    /// The decision, if this instance has decided.
    pub fn decided(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// Whether the decision came from `n` of `n` equal votes rather than
    /// from a round.
    pub fn decided_in_one_step(&self) -> bool {
        self.decided_in_one_step
    }

    /// The value this site currently holds for the instance: its proposal,
    /// or the last coordinator's proposal it adopted.
    pub fn estimate(&self) -> &V {
        &self.est
    }

    /// Current round (for observability/tests).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Feeds a message from `from` into the state machine. A sender outside
    /// the configured membership is ignored.
    pub fn on_message(&mut self, from: SiteId, msg: ConsensusMsg<V>) -> Vec<Action<V>> {
        if from.index() >= self.cfg.sites {
            return Vec::new();
        }
        match msg {
            ConsensusMsg::Decide { value } => self.decide(value),
            ConsensusMsg::Estimate { round, est, ts } => self.on_estimate(from, round, est, ts),
            ConsensusMsg::Propose { round, value } => self.on_propose(round, value),
            ConsensusMsg::Ack { round } => self.on_ack(from, round),
            ConsensusMsg::Nack { round } => self.on_nack(from, round),
        }
    }

    /// Fires the round timer armed by a previous [`Action::SetTimer`].
    ///
    /// If the instance is still undecided and still in `round`, the site
    /// suspects the coordinator, notifies it (so it can abandon the round)
    /// and advances to the next round.
    pub fn on_timeout(&mut self, round: u64) -> Vec<Action<V>> {
        if self.decided.is_some() || round != self.round {
            return Vec::new();
        }
        let coord = self.cfg.coordinator(round);
        let mut actions = vec![Action::Send(coord, ConsensusMsg::Nack { round })];
        actions.extend(self.advance_to(round + 1));
        actions
    }

    fn enter_round(&mut self, round: u64) -> Vec<Action<V>> {
        self.round = round;
        let estimate = ConsensusMsg::Estimate { round, est: self.est.clone(), ts: self.ts };
        vec![
            // Round 0's estimate is the vote every member tallies; later
            // rounds, and a rejoined site's estimate, only concern the
            // coordinator.
            if round == 0 && self.ts == 0 {
                Action::Broadcast(estimate)
            } else {
                Action::Send(self.cfg.coordinator(round), estimate)
            },
            Action::SetTimer { round, delay: self.cfg.timeout_for(round) },
        ]
    }

    fn advance_to(&mut self, round: u64) -> Vec<Action<V>> {
        if round <= self.round {
            return Vec::new();
        }
        self.enter_round(round)
    }

    /// The decision, for a straggler whose `Estimate` or `Nack` reached
    /// this site as coordinator of `round`.
    fn answer_straggler(&self, from: SiteId, round: u64, value: &V) -> Vec<Action<V>> {
        if self.cfg.coordinator(round) != self.me {
            return Vec::new();
        }
        vec![Action::Send(from, ConsensusMsg::Decide { value: value.clone() })]
    }

    /// Counts `from`'s vote; true once all `n` members have voted one value.
    fn count_vote(&mut self, from: SiteId, est: &V) -> bool {
        if self.votes_differ || !self.voters.insert(from) {
            return false;
        }
        match &self.vote {
            Some(v) if v != est => {
                self.votes_differ = true;
                self.vote = None;
                return false;
            }
            Some(_) if from != self.cfg.coordinator(0) => {}
            _ => self.vote = Some(est.clone()),
        }
        self.voters.len == self.cfg.sites
    }

    fn on_estimate(&mut self, from: SiteId, round: u64, est: V, ts: u64) -> Vec<Action<V>> {
        if let Some(v) = &self.decided {
            return self.answer_straggler(from, round, v);
        }
        if round == 0 && ts == 0 && self.count_vote(from, &est) {
            self.decided_in_one_step = true;
            let value = self.vote.take().expect("a unanimous tally holds its value");
            return self.decide(value);
        }
        if self.cfg.coordinator(round) != self.me || !self.coord.turn_to(round) {
            return Vec::new();
        }
        let state = &mut self.coord;
        if state.proposal.is_some() || state.abandoned || !state.est_from.insert(from) {
            return Vec::new();
        }
        // Keep the estimate with the highest adoption stamp — the locking
        // rule that makes agreement safe across rounds.
        if state.freshest.as_ref().is_none_or(|(best, _)| rank(ts) >= rank(*best)) {
            state.freshest = Some((ts, est));
        }
        if state.est_from.len >= self.cfg.quorum() {
            let (_, value) = state.freshest.take().expect("quorum is non-empty");
            state.proposal = Some(value.clone());
            return vec![Action::Broadcast(ConsensusMsg::Propose { round, value })];
        }
        Vec::new()
    }

    fn on_propose(&mut self, round: u64, value: V) -> Vec<Action<V>> {
        if self.decided.is_some() || round < self.round {
            return Vec::new();
        }
        let mut actions = Vec::new();
        if round > self.round {
            // We lagged; jump to the proposal's round first.
            actions.extend(self.advance_to(round));
        }
        if self.acked_round == Some(round) {
            return actions;
        }
        self.est = value;
        self.ts = round + 1; // adopted in this round; +1 keeps initial ts=0 distinct
        self.acked_round = Some(round);
        actions.push(Action::Send(self.cfg.coordinator(round), ConsensusMsg::Ack { round }));
        actions
    }

    fn on_ack(&mut self, from: SiteId, round: u64) -> Vec<Action<V>> {
        if self.decided.is_some() || self.cfg.coordinator(round) != self.me {
            return Vec::new();
        }
        let state = &mut self.coord;
        if state.round != round || state.abandoned {
            return Vec::new();
        }
        let Some(proposal) = state.proposal.clone() else {
            return Vec::new();
        };
        state.acks.insert(from);
        if state.acks.len < self.cfg.quorum() {
            return Vec::new();
        }
        // The one broadcast of the decision: nobody relays it.
        let mut actions = vec![Action::Broadcast(ConsensusMsg::Decide { value: proposal.clone() })];
        actions.extend(self.decide(proposal));
        actions
    }

    fn on_nack(&mut self, from: SiteId, round: u64) -> Vec<Action<V>> {
        if let Some(v) = &self.decided {
            return self.answer_straggler(from, round, v);
        }
        if self.cfg.coordinator(round) == self.me && self.coord.turn_to(round) {
            self.coord.abandoned = true;
        }
        Vec::new()
    }

    fn decide(&mut self, value: V) -> Vec<Action<V>> {
        if self.decided.is_some() {
            return Vec::new();
        }
        self.decided = Some(value.clone());
        vec![Action::Decided(value)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_simnet::sched::{Data, Input, Links, Node, Output, Outputs, Sched};
    use otp_simnet::SimTime;

    const HOP: SimDuration = SimDuration::from_micros(100);
    const PATIENCE: SimDuration = SimDuration::from_millis(20);

    /// Kinds of [`ConsensusMsg`], for the driver's per-kind counts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Estimate,
        Propose,
        Ack,
        Nack,
        Decide,
    }

    fn kind_of(msg: &ConsensusMsg<u32>) -> Kind {
        match msg {
            ConsensusMsg::Estimate { .. } => Kind::Estimate,
            ConsensusMsg::Propose { .. } => Kind::Propose,
            ConsensusMsg::Ack { .. } => Kind::Ack,
            ConsensusMsg::Nack { .. } => Kind::Nack,
            ConsensusMsg::Decide { .. } => Kind::Decide,
        }
    }

    /// The instances, one per site, as one scheduler node: what each site
    /// decided and when, and the messages sent and consumed.
    struct Sites {
        instances: Vec<Instance<u32>>,
        /// Incarnation of each site, bumped when it rejoins: a timer
        /// carries the one it was armed in and dies with it.
        life: Vec<u32>,
        /// Every `Decided` any incarnation ever emitted: site, value, and
        /// whether it was decided in one step.
        decided_log: Vec<(usize, u32, bool)>,
        decided_at: Vec<Option<SimTime>>,
        /// Messages handed to the transport, one per Send or Broadcast.
        sent: Vec<Kind>,
        /// Messages delivered to an instance that had not decided yet.
        consumed: Vec<Kind>,
    }

    impl Data for Sites {
        type Wire = ConsensusMsg<u32>;
        /// The incarnation that armed it, and the round whose patience ran
        /// out.
        type Timer = (u32, u64);
        type Work = ();
        type Submit = ();
        /// Rejoin without memory, proposing this.
        type Control = u32;
        type Report = ();
    }

    impl Sites {
        /// Pushes `actions` of site `me` as outputs and records decisions.
        fn push(
            &mut self,
            me: SiteId,
            now: SimTime,
            actions: Vec<Action<u32>>,
            out: &mut Outputs<Self>,
        ) {
            for a in actions {
                match a {
                    Action::Send(to, msg) => {
                        self.sent.push(kind_of(&msg));
                        out.push(Output::Send { group: 0, to, wire: msg });
                    }
                    Action::Broadcast(msg) => {
                        self.sent.push(kind_of(&msg));
                        out.push(Output::Multicast { group: 0, wire: msg });
                    }
                    Action::SetTimer { round, delay } => {
                        let timer = (self.life[me.index()], round);
                        out.push(Output::Timer { after: delay, timer });
                    }
                    Action::Decided(v) => {
                        self.decided_at[me.index()] = Some(now);
                        let one_step = self.instances[me.index()].decided_in_one_step();
                        self.decided_log.push((me.index(), v, one_step));
                    }
                }
            }
        }
    }

    impl Node for Sites {
        type Data = Self;

        fn handle(
            &mut self,
            at: SiteId,
            now: SimTime,
            input: Input<Self>,
            out: &mut Outputs<Self>,
        ) {
            let i = at.index();
            match input {
                Input::Wires(batch) => {
                    for a in batch {
                        if self.instances[i].decided().is_none() {
                            self.consumed.push(kind_of(&a.wire));
                        }
                        let actions = self.instances[i].on_message(a.from, a.wire);
                        self.push(at, now, actions, out);
                    }
                }
                Input::Timer((life, round)) if life == self.life[i] => {
                    let actions = self.instances[i].on_timeout(round);
                    self.push(at, now, actions, out);
                }
                Input::Control(proposal) => {
                    self.life[i] += 1;
                    self.decided_at[i] = None;
                    let cfg = InstanceConfig::new(self.decided_at.len(), PATIENCE);
                    let (inst, actions) = Instance::rejoin(at, cfg, proposal);
                    self.instances[i] = inst;
                    self.push(at, now, actions, out);
                }
                Input::Timer(_) | Input::Done(()) | Input::Submit(()) => {}
            }
        }
    }

    /// The instances on the scheduler: every message takes a fixed hop
    /// plus a per-sender skew and a per-link extra; a site can crash at an
    /// instant, and come back without its memory, when what reached it
    /// meanwhile is replayed to the new incarnation (reliable channels)
    /// and the old incarnation's timers are dead.
    struct Driver {
        sites: Sites,
        sched: Sched<Sites>,
        /// Instant from which a site that never comes back processes
        /// nothing.
        crash_at: Vec<Option<SimTime>>,
        skew: Vec<SimDuration>,
        /// Extra delay of the directed link `[from][to]`.
        link: Vec<Vec<SimDuration>>,
    }

    impl std::ops::Deref for Driver {
        type Target = Sites;
        fn deref(&self) -> &Sites {
            &self.sites
        }
    }

    impl std::ops::DerefMut for Driver {
        fn deref_mut(&mut self) -> &mut Sites {
            &mut self.sites
        }
    }

    impl Driver {
        fn new(n: usize, proposals: &[u32]) -> Self {
            let mut d = Driver::idle(n);
            for (i, &p) in proposals.iter().enumerate() {
                d.start(SiteId::new(i as u16), p);
            }
            d
        }

        /// A driver whose sites have not proposed yet; call
        /// [`Driver::start`] after shaping the links.
        fn idle(n: usize) -> Self {
            Driver {
                sites: Sites {
                    instances: Vec::new(),
                    life: vec![0; n],
                    decided_log: Vec::new(),
                    decided_at: vec![None; n],
                    sent: Vec::new(),
                    consumed: Vec::new(),
                },
                sched: Sched::new(Links::uniform(n, HOP), otp_simnet::SimRng::seed_from(0)),
                crash_at: vec![None; n],
                skew: vec![SimDuration::ZERO; n],
                link: vec![vec![SimDuration::ZERO; n]; n],
            }
        }

        /// Brings the scheduler's delay table up to the skews and links.
        fn sync_links(&mut self) {
            let delays = self.sched.delays_mut();
            for (from, row) in delays.iter_mut().enumerate() {
                for (to, d) in row.iter_mut().enumerate() {
                    *d = HOP + self.skew[from] + self.link[from][to];
                }
            }
        }

        /// Sites must start in index order.
        fn start(&mut self, me: SiteId, proposal: u32) {
            assert_eq!(me.index(), self.sites.instances.len());
            self.sync_links();
            let cfg = InstanceConfig::new(self.crash_at.len(), PATIENCE);
            let (inst, actions) = Instance::new(me, cfg, proposal);
            self.sites.instances.push(inst);
            let mut out = Vec::new();
            self.sites.push(me, self.sched.now(), actions, &mut out);
            self.sched.apply(me, &mut out, |_, _, ()| {});
        }

        fn crash(&mut self, site: usize) {
            self.crash_at(site, SimTime::ZERO);
        }

        /// `site` processes nothing from `at` on. The crash must precede
        /// every event of its instant, so it is scheduled before any site
        /// starts, or at time zero, when nothing arrives.
        fn crash_at(&mut self, site: usize, at: SimTime) {
            assert!(self.instances.is_empty() || at == SimTime::ZERO, "crash scheduled too late");
            self.crash_at[site] = Some(at);
            self.sched.schedule_crash(at, SiteId::new(site as u16));
        }

        /// `site` crashes at `crash` and comes back at `back`, rebuilt
        /// without its memory, proposing `proposal`. Scheduled before any
        /// site starts, like [`Driver::crash_at`].
        fn crash_and_rejoin(&mut self, site: usize, crash: SimTime, back: SimTime, proposal: u32) {
            assert!(self.instances.is_empty(), "crash scheduled too late");
            let site = SiteId::new(site as u16);
            self.sched.schedule_crash(crash, site);
            self.sched.schedule_restore(back, site, proposal);
        }

        fn run(&mut self, deadline: SimTime) {
            self.sync_links();
            self.sched.run_until(deadline, &mut self.sites, |_, _, ()| {});
        }

        fn decisions(&self) -> Vec<Option<u32>> {
            self.instances.iter().map(|i| i.decided().copied()).collect()
        }

        fn count(kinds: &[Kind], kind: Kind) -> usize {
            kinds.iter().filter(|k| **k == kind).count()
        }
    }

    fn vote(est: u32) -> ConsensusMsg<u32> {
        ConsensusMsg::Estimate { round: 0, est, ts: 0 }
    }

    #[test]
    fn quorum_and_coordinator() {
        let cfg = InstanceConfig::new(4, SimDuration::from_millis(1));
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.coordinator(0), SiteId::new(0));
        assert_eq!(cfg.coordinator(5), SiteId::new(1));
        let cfg3 = InstanceConfig::new(3, SimDuration::from_millis(1));
        assert_eq!(cfg3.quorum(), 2);
    }

    #[test]
    fn timeout_backoff_caps() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        assert_eq!(cfg.timeout_for(0), SimDuration::from_millis(10));
        assert_eq!(cfg.timeout_for(1), SimDuration::from_millis(20));
        assert_eq!(cfg.timeout_for(6), SimDuration::from_millis(640));
        assert_eq!(cfg.timeout_for(60), SimDuration::from_millis(640));
    }

    #[test]
    fn site_set_counts_distinct_members_beyond_one_word() {
        let mut set = SiteSet::new(130);
        for i in [0u16, 63, 64, 129, 64, 0] {
            set.insert(SiteId::new(i));
        }
        assert_eq!(set.len, 4);
        assert!(!set.insert(SiteId::new(129)));
        set.clear();
        assert_eq!(set.len, 0);
        assert!(set.insert(SiteId::new(129)));
    }

    #[test]
    fn all_decide_same_value_no_failures() {
        let mut d = Driver::new(4, &[10, 20, 30, 40]);
        d.run(SimTime::from_secs(10));
        let ds = d.decisions();
        assert!(ds.iter().all(|x| x.is_some()), "all decide: {ds:?}");
        let v = ds[0].unwrap();
        assert!(ds.iter().all(|x| x.unwrap() == v), "agreement: {ds:?}");
        assert!([10, 20, 30, 40].contains(&v), "validity: {v}");
    }

    #[test]
    fn single_site_decides_own_value() {
        let mut d = Driver::new(1, &[99]);
        d.run(SimTime::from_secs(1));
        assert_eq!(d.decisions(), vec![Some(99)]);
    }

    #[test]
    fn unanimous_proposals_decide_in_one_step() {
        let mut d = Driver::new(4, &[7, 7, 7, 7]);
        d.run(SimTime::from_secs(10));
        assert_eq!(d.decisions(), vec![Some(7); 4]);
        assert!(d.instances.iter().all(|i| i.decided_in_one_step()));
        // One hop: every vote reaches every site at the same instant.
        assert!(d.decided_at.iter().all(|t| *t == Some(SimTime::ZERO + HOP)), "{:?}", d.decided_at);
        // The coordinator proposed at a majority, as always — but nobody
        // was still listening, and nothing else was ever sent.
        assert_eq!(Driver::count(&d.consumed, Kind::Propose), 0);
        assert_eq!(Driver::count(&d.sent, Kind::Ack), 0);
        assert_eq!(Driver::count(&d.sent, Kind::Decide), 0);
        assert_eq!(d.sent.len(), 4 + 1, "four votes and one moot proposal: {:?}", d.sent);
    }

    /// The slow path's instants with every hop taking `HOP`, as the
    /// rotating coordinator has always had them: the coordinator of the
    /// deciding round decides three hops after the round's estimates left
    /// (estimates in, proposal out, acks in), everyone else one hop later.
    fn assert_slow_path_instants(
        d: &Driver,
        sites: &[usize],
        round_start: SimDuration,
        coord: usize,
    ) {
        for &i in sites {
            let hops = if i == coord { 3 } else { 4 };
            assert_eq!(
                d.decided_at[i],
                Some(SimTime::ZERO + round_start + HOP.mul_u64(hops)),
                "site {i} of {:?}",
                d.decided_at
            );
        }
    }

    #[test]
    fn one_dissenter_falls_back_at_the_slow_path_instant() {
        let mut d = Driver::new(4, &[7, 7, 8, 7]);
        d.run(SimTime::from_secs(10));
        let ds = d.decisions();
        assert!(ds.iter().all(|x| *x == ds[0]), "agreement: {ds:?}");
        assert!([7, 8].contains(&ds[0].unwrap()), "validity: {ds:?}");
        assert!(d.instances.iter().all(|i| !i.decided_in_one_step()));
        assert_slow_path_instants(&d, &[0, 1, 2, 3], SimDuration::ZERO, 0);
        // Estimates, one proposal, acks, one decide — and no relay.
        assert_eq!(Driver::count(&d.sent, Kind::Decide), 1);
    }

    #[test]
    fn one_missing_vote_falls_back_at_the_slow_path_instant() {
        // Site 3 is alive but everything it sends is a second late.
        let mut d = Driver::idle(4);
        d.skew[3] = SimDuration::from_secs(1);
        for i in 0..4 {
            d.start(SiteId::new(i), 7);
        }
        d.run(SimTime::from_secs(10));
        assert_eq!(d.decisions(), vec![Some(7); 4]);
        assert!(d.instances.iter().all(|i| !i.decided_in_one_step()));
        assert_slow_path_instants(&d, &[0, 1, 2], SimDuration::ZERO, 0);
    }

    #[test]
    fn one_crashed_member_falls_back_at_the_slow_path_instant() {
        let mut d = Driver::new(4, &[7, 7, 7, 7]);
        d.crash(2);
        d.run(SimTime::from_secs(10));
        let ds = d.decisions();
        assert_eq!((ds[0], ds[1], ds[3]), (Some(7), Some(7), Some(7)));
        // Site 2's vote left before it died, so the others may well have
        // counted four of four — what matters is that nobody waited for it.
        assert!(d.decided_at.iter().flatten().all(|t| *t <= SimTime::ZERO + HOP.mul_u64(4)));
    }

    #[test]
    fn silent_member_falls_back_at_the_slow_path_instant() {
        // Site 2 never starts: its vote does not exist.
        let mut d = Driver::idle(4);
        d.crash(2);
        for (i, p) in [7, 7, 9, 7].into_iter().enumerate() {
            if i == 2 {
                // Keep the index space dense without letting it speak.
                let cfg = InstanceConfig::new(4, PATIENCE);
                d.instances.push(Instance::new(SiteId::new(2), cfg, p).0);
            } else {
                d.start(SiteId::new(i as u16), p);
            }
        }
        d.run(SimTime::from_secs(10));
        let ds = d.decisions();
        assert_eq!((ds[0], ds[1], ds[3]), (Some(7), Some(7), Some(7)));
        assert_slow_path_instants(&d, &[0, 1, 3], SimDuration::ZERO, 0);
    }

    #[test]
    fn coordinator_crash_rotates_round() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.crash(0); // round-0 coordinator is dead from the start
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        assert!(ds[1].is_some() && ds[2].is_some(), "survivors decide: {ds:?}");
        assert_eq!(ds[1], ds[2]);
        assert!(d.instances[1].round() >= 1, "must have advanced past round 0");
        // One patience, then round 1 runs at the slow path's pace.
        assert_slow_path_instants(&d, &[1, 2], PATIENCE, 1);
    }

    #[test]
    fn minority_crash_does_not_block() {
        let mut d = Driver::new(5, &[5, 6, 7, 8, 9]);
        d.crash(1);
        d.crash(3);
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        for i in [0usize, 2, 4] {
            assert!(ds[i].is_some(), "site {i} must decide: {ds:?}");
            assert_eq!(ds[i], ds[0]);
        }
    }

    #[test]
    fn skewed_links_still_agree() {
        let mut d = Driver::new(4, &[100, 200, 300, 400]);
        d.skew = vec![
            SimDuration::from_micros(0),
            SimDuration::from_millis(3),
            SimDuration::from_micros(500),
            SimDuration::from_millis(1),
        ];
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        assert!(ds.iter().all(|x| x.is_some()), "{ds:?}");
        assert!(ds.iter().all(|x| *x == ds[0]));
    }

    /// Sites 1 and 4 hold all five votes after one hop and decide; the vote
    /// of site 4 crawls towards the other three, who finish the rounds
    /// without an ack from either.
    #[test]
    fn one_step_deciders_agree_with_sites_finishing_the_rounds() {
        let mut d = Driver::idle(5);
        for to in [0, 2, 3] {
            d.link[4][to] = SimDuration::from_millis(5);
        }
        for i in 0..5 {
            d.start(SiteId::new(i), 7);
        }
        d.run(SimTime::from_secs(10));
        assert_eq!(d.decisions(), vec![Some(7); 5]);
        for i in [1, 4] {
            assert_eq!(d.decided_at[i], Some(SimTime::ZERO + HOP));
            assert!(d.instances[i].decided_in_one_step());
        }
        assert_eq!(d.instances.iter().filter(|i| i.decided_in_one_step()).count(), 2);
        assert_slow_path_instants(&d, &[0, 2, 3], SimDuration::ZERO, 0);
    }

    #[test]
    fn duplicated_vote_never_counts_twice() {
        let cfg = InstanceConfig::new(3, PATIENCE);
        let (mut inst, _) = Instance::new(SiteId::new(2), cfg, 7u32);
        for _ in 0..5 {
            assert!(inst.on_message(SiteId::new(1), vote(7)).is_empty());
        }
        inst.on_message(SiteId::new(2), vote(7));
        assert!(inst.decided().is_none(), "two distinct voters of three");
        let a = inst.on_message(SiteId::new(0), vote(7));
        assert_eq!(a, vec![Action::Decided(7)]);
    }

    #[test]
    fn only_fresh_round_zero_estimates_are_votes() {
        let cfg = InstanceConfig::new(3, PATIENCE);
        let (mut inst, _) = Instance::new(SiteId::new(2), cfg, 7u32);
        inst.on_message(SiteId::new(2), vote(7));
        inst.on_message(SiteId::new(1), vote(7));
        // Site 0 speaks, but never with a fresh round-0 estimate.
        for (round, ts) in [(0, 1), (0, 2), (0, REJOINED_TS), (1, 0), (3, 0), (2, 3)] {
            let a = inst.on_message(SiteId::new(0), ConsensusMsg::Estimate { round, est: 7, ts });
            assert!(a.is_empty() && inst.decided().is_none(), "round {round} ts {ts}: {a:?}");
        }
        // ... and a voter from outside the membership does not exist.
        assert!(inst.on_message(SiteId::new(3), vote(7)).is_empty());
        assert!(inst.decided().is_none());
    }

    #[test]
    fn a_differing_vote_closes_the_tally_for_good() {
        let cfg = InstanceConfig::new(3, PATIENCE);
        let (mut inst, _) = Instance::new(SiteId::new(2), cfg, 7u32);
        inst.on_message(SiteId::new(2), vote(7));
        inst.on_message(SiteId::new(1), vote(8));
        inst.on_message(SiteId::new(0), vote(7));
        assert!(inst.decided().is_none());
    }

    /// The value a one-step decision stores is the copy round 0's
    /// coordinator sent, whatever order the votes arrive in.
    #[test]
    fn one_step_decision_keeps_the_coordinators_copy() {
        use std::rc::Rc;
        let cfg = InstanceConfig::new(3, PATIENCE);
        let copies: Vec<Rc<u32>> = (0..3).map(|_| Rc::new(7)).collect();
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let (mut inst, _) = Instance::new(SiteId::new(2), cfg, Rc::clone(&copies[2]));
            for from in order {
                let est = Rc::clone(&copies[from]);
                inst.on_message(
                    SiteId::new(from as u16),
                    ConsensusMsg::Estimate { round: 0, est, ts: 0 },
                );
            }
            let decided = inst.decided().expect("three of three");
            assert!(Rc::ptr_eq(decided, &copies[0]), "order {order:?}");
        }
    }

    fn rejoined(round: u64, est: u32) -> ConsensusMsg<u32> {
        ConsensusMsg::Estimate { round, est, ts: REJOINED_TS }
    }

    #[test]
    fn rejoined_site_casts_no_vote_and_ranks_below_everyone() {
        let cfg = InstanceConfig::new(3, PATIENCE);
        let (mut reborn, actions) = Instance::rejoin(SiteId::new(2), cfg, 9u32);
        // Its estimate goes to the coordinator alone: nobody tallies it.
        assert_eq!(
            actions,
            vec![
                Action::Send(SiteId::new(0), rejoined(0, 9)),
                Action::SetTimer { round: 0, delay: PATIENCE },
            ]
        );
        // Later rounds keep the stamp until a proposal is adopted.
        let actions = reborn.on_timeout(0);
        assert!(actions.contains(&Action::Send(SiteId::new(1), rejoined(1, 9))), "{actions:?}");
        reborn.on_message(SiteId::new(1), ConsensusMsg::Propose { round: 1, value: 7 });
        let actions = reborn.on_timeout(1);
        assert!(
            actions.contains(&Action::Send(
                SiteId::new(2),
                ConsensusMsg::Estimate { round: 2, est: 7, ts: 2 }
            )),
            "{actions:?}"
        );
        // A coordinator counts it towards its majority but proposes the
        // other estimate, whichever arrives last — even a fresh initial one.
        for rejoined_first in [true, false] {
            let (mut coord, _) = Instance::new(SiteId::new(0), cfg, 7u32);
            let mut msgs = vec![(SiteId::new(2), rejoined(0, 9)), (SiteId::new(0), vote(7))];
            if !rejoined_first {
                msgs.reverse();
            }
            let (first, second) = (msgs.remove(0), msgs.remove(0));
            assert!(coord.on_message(first.0, first.1).is_empty());
            let a = coord.on_message(second.0, second.1);
            assert_eq!(a, vec![Action::Broadcast(ConsensusMsg::Propose { round: 0, value: 7 })]);
        }
        // Only a majority made of rejoined sites gets one of theirs.
        let (mut coord, _) = Instance::rejoin(SiteId::new(0), cfg, 8u32);
        coord.on_message(SiteId::new(0), rejoined(0, 8));
        let a = coord.on_message(SiteId::new(2), rejoined(0, 9));
        assert_eq!(a, vec![Action::Broadcast(ConsensusMsg::Propose { round: 0, value: 9 })]);
    }

    /// The interleaving that a stamp raised at the *receivers* cannot
    /// cover: site 1 holds all four votes for 1 and has decided; round 0's
    /// coordinator is alive and holds two estimates, both sent — stamped 0
    /// — before anybody knew site 3 would be rebuilt. Site 3's second
    /// proposal completes the coordinator's majority and must not win it.
    #[test]
    fn rejoined_voter_cannot_overturn_a_one_step_decision_at_a_live_coordinator() {
        let cfg = InstanceConfig::new(4, PATIENCE);
        let mut sites: Vec<Instance<u32>> =
            (0..4).map(|i| Instance::new(SiteId::new(i), cfg, 1).0).collect();
        for from in 0..4 {
            sites[1].on_message(SiteId::new(from), vote(1));
        }
        assert_eq!(sites[1].decided(), Some(&1));
        assert!(sites[1].decided_in_one_step());
        for from in [0, 2] {
            assert!(sites[0].on_message(SiteId::new(from), vote(1)).is_empty());
        }
        // Site 3 crashes; what it sent to sites 0 and 2 is lost with it.
        let (reborn, actions) = Instance::rejoin(SiteId::new(3), cfg, 2);
        sites[3] = reborn;
        let Action::Send(to, estimate) = actions[0].clone() else {
            panic!("a rejoined site addresses the coordinator: {actions:?}");
        };
        assert_eq!(to, SiteId::new(0));
        let a = sites[0].on_message(SiteId::new(3), estimate);
        assert_eq!(a, vec![Action::Broadcast(ConsensusMsg::Propose { round: 0, value: 1 })]);
        // Sites 0, 2 and 3 finish the round on site 1's value.
        let mut decide = Vec::new();
        for i in [0, 2, 3] {
            let acks =
                sites[i].on_message(SiteId::new(0), ConsensusMsg::Propose { round: 0, value: 1 });
            assert_eq!(acks, vec![Action::Send(SiteId::new(0), ConsensusMsg::Ack { round: 0 })]);
            decide = sites[0].on_message(SiteId::new(i as u16), ConsensusMsg::Ack { round: 0 });
        }
        assert!(decide.contains(&Action::Decided(1)), "{decide:?}");
    }

    #[test]
    fn decided_instance_ignores_further_traffic() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.run(SimTime::from_secs(10));
        let v = d.decisions()[0];
        let a = d.instances[0]
            .on_message(SiteId::new(1), ConsensusMsg::Propose { round: 99, value: 777 });
        assert!(a.is_empty());
        let a = d.instances[0].on_message(SiteId::new(1), ConsensusMsg::Ack { round: 0 });
        assert!(a.is_empty());
        let b = d.instances[0].on_timeout(0);
        assert!(b.is_empty());
        assert_eq!(d.instances[0].decided().copied(), v);
    }

    /// The pull that replaces the relay: a straggler's estimate or nack
    /// reaching a decided coordinator is answered with the decision, to the
    /// straggler alone; the same message at any other decided site is not.
    #[test]
    fn straggler_pulls_the_decision_from_a_rounds_coordinator() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.run(SimTime::from_secs(10));
        let value = d.decisions()[0].unwrap();
        let reply = vec![Action::Send(SiteId::new(2), ConsensusMsg::Decide { value })];
        // Round 51's coordinator is site 0, round 50's is site 2.
        let est = |round| ConsensusMsg::Estimate { round, est: 9, ts: 0 };
        assert_eq!(d.instances[0].on_message(SiteId::new(2), est(51)), reply);
        assert_eq!(d.instances[0].on_message(SiteId::new(2), vote(9)), reply);
        assert_eq!(
            d.instances[0].on_message(SiteId::new(2), ConsensusMsg::Nack { round: 0 }),
            reply
        );
        assert!(d.instances[0].on_message(SiteId::new(2), est(50)).is_empty());
        assert!(d.instances[1].on_message(SiteId::new(2), vote(9)).is_empty());
    }

    #[test]
    fn nack_abandons_round_for_coordinator() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        let (mut inst, _) = Instance::new(SiteId::new(0), cfg, 7u32);
        // Coordinator gathers a quorum and proposes.
        let a1 = inst.on_message(SiteId::new(0), vote(7));
        assert!(a1.is_empty());
        let a2 = inst.on_message(SiteId::new(1), vote(8));
        assert!(a2.iter().any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Propose { .. }))));
        // A nack arrives before the acks; the acks must then be ignored.
        inst.on_message(SiteId::new(2), ConsensusMsg::Nack { round: 0 });
        let a3 = inst.on_message(SiteId::new(1), ConsensusMsg::Ack { round: 0 });
        let a4 = inst.on_message(SiteId::new(2), ConsensusMsg::Ack { round: 0 });
        assert!(a3.is_empty() && a4.is_empty());
        assert!(inst.decided().is_none());
    }

    /// A coordinator keeps the books of one round: traffic for a later
    /// round of its own replaces them, traffic for an earlier one is void.
    #[test]
    fn coordinator_turns_to_its_newest_round() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        let (mut inst, _) = Instance::new(SiteId::new(0), cfg, 7u32);
        let est = |round, est, ts| ConsensusMsg::Estimate { round, est, ts };
        inst.on_message(SiteId::new(1), est(0, 8, 0));
        // Round 3 is this site's again; round 0's lone estimate is gone.
        inst.on_message(SiteId::new(1), est(3, 8, 0));
        assert!(inst.on_message(SiteId::new(2), est(0, 8, 0)).is_empty());
        let a = inst.on_message(SiteId::new(2), est(3, 9, 2));
        assert_eq!(a, vec![Action::Broadcast(ConsensusMsg::Propose { round: 3, value: 9 })]);
        assert!(inst.on_message(SiteId::new(1), ConsensusMsg::Ack { round: 0 }).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Agreement + validity + termination under random minority crash
        /// sets and random link skews.
        #[test]
        fn prop_agreement_under_crashes(
            seed in 0u64..1000,
            n in 3usize..7,
        ) {
            use otp_simnet::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let proposals: Vec<u32> = (0..n).map(|i| (i as u32 + 1) * 11).collect();
            let mut d = Driver::new(n, &proposals);
            // Crash a strict minority.
            let max_crash = (n - 1) / 2;
            let crash_count = (rng.next_u64() as usize) % (max_crash + 1);
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for &i in order.iter().take(crash_count) {
                d.crash(i);
            }
            // Random skews up to 2ms.
            for s in &mut d.skew {
                *s = SimDuration::from_micros(rng.uniform_range(0, 2000));
            }
            d.run(SimTime::from_secs(60));
            let ds = d.decisions();
            let alive: Vec<usize> = (0..n).filter(|&i| d.crash_at[i].is_none()).collect();
            let first = ds[alive[0]];
            proptest::prop_assert!(first.is_some(), "termination failed: {:?}", ds);
            for &i in &alive {
                proptest::prop_assert_eq!(ds[i], first, "agreement failed");
            }
            proptest::prop_assert!(proposals.contains(&first.unwrap()), "validity failed");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The one-step rule against the rounds: proposals drawn from two
        /// values (so unanimity, one dissenter and an even split all
        /// occur), every directed link with its own delay (so each site
        /// sees the votes, the proposal and the decide in its own order,
        /// some past a round's patience), and one site crashing at a random
        /// instant — possibly right after deciding alone. Agreement and
        /// validity hold among everything that decided, crashed site
        /// included; every survivor decides once the round timers have had
        /// their say.
        #[test]
        fn prop_one_step_agrees_with_the_rounds(
            seed in 0u64..100_000,
            n in 3usize..6,
        ) {
            use otp_simnet::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let mut d = Driver::idle(n);
            for from in 0..n {
                for to in 0..n {
                    let slow = rng.chance(0.1);
                    let span = if slow { 30_000 } else { 400 };
                    d.link[from][to] = SimDuration::from_micros(rng.uniform_range(0, span));
                }
            }
            let victim = rng.uniform_range(0, n as u64) as usize;
            if rng.chance(0.7) {
                d.crash_at(victim, SimTime::ZERO + SimDuration::from_micros(rng.uniform_range(0, 1500)));
            }
            let bias = rng.uniform_range(0, 3);
            let proposals: Vec<u32> = (0..n)
                .map(|_| if bias == 0 || rng.chance(0.2 * bias as f64) { 1 } else { 2 })
                .collect();
            for (i, &p) in proposals.iter().enumerate() {
                d.start(SiteId::new(i as u16), p);
            }
            d.run(SimTime::from_secs(120));
            let ds = d.decisions();
            let decided: Vec<u32> = ds.iter().flatten().copied().collect();
            proptest::prop_assert!(
                decided.iter().all(|v| *v == decided[0]),
                "agreement failed: {:?} from {:?}", ds, proposals
            );
            proptest::prop_assert!(
                decided.iter().all(|v| proposals.contains(v)),
                "validity failed: {:?} from {:?}", ds, proposals
            );
            for i in (0..n).filter(|&i| d.crash_at[i].is_none()) {
                proptest::prop_assert!(ds[i].is_some(), "site {} never decided: {:?}", i, ds);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// One site loses its memory while the instance is open: it
        /// crashes at a random instant — before, between or after its
        /// votes land, possibly right after deciding — and rejoins up to
        /// two patiences later with a proposal nobody else made, while its
        /// first incarnation's messages are still arriving and what was
        /// sent to it meanwhile is replayed. A value decided in one step
        /// by any incarnation is the only value anybody decides. Full
        /// agreement is asserted for even `n` only: there any two
        /// majorities share two sites, so one forgetful site cannot break
        /// the rounds' locking rule either; for odd `n` it can (the
        /// rounds' own limit, module docs), one-step decision or not.
        #[test]
        fn prop_rejoined_site_never_overturns_one_step(
            seed in 0u64..100_000,
            n in 3usize..7,
        ) {
            use otp_simnet::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let mut d = Driver::idle(n);
            for from in 0..n {
                for to in 0..n {
                    let slow = rng.chance(0.1);
                    let span = if slow { 30_000 } else { 400 };
                    d.link[from][to] = SimDuration::from_micros(rng.uniform_range(0, span));
                }
            }
            let victim = rng.uniform_range(0, n as u64) as usize;
            let crash = SimTime::ZERO + SimDuration::from_micros(rng.uniform_range(0, 1500));
            let back = crash + SimDuration::from_micros(rng.uniform_range(1, 40_000));
            const SECOND_PROPOSAL: u32 = 3;
            d.crash_and_rejoin(victim, crash, back, SECOND_PROPOSAL);
            let unanimous = rng.chance(0.6);
            let proposals: Vec<u32> =
                (0..n).map(|_| if unanimous || rng.chance(0.7) { 1 } else { 2 }).collect();
            for (i, &p) in proposals.iter().enumerate() {
                d.start(SiteId::new(i as u16), p);
            }
            d.run(SimTime::from_secs(120));
            let log = &d.decided_log;
            for (site, v, _) in log {
                proptest::prop_assert!(
                    proposals.contains(v) || *v == SECOND_PROPOSAL,
                    "validity failed at site {}: {:?} from {:?}", site, log, proposals
                );
            }
            if let Some((_, v, _)) = log.iter().find(|(_, _, one_step)| *one_step) {
                proptest::prop_assert!(
                    log.iter().all(|(_, w, _)| w == v),
                    "a one-step decision was overturned: {:?} from {:?}, site {} rejoined",
                    log, proposals, victim
                );
            }
            if n % 2 == 0 {
                proptest::prop_assert!(
                    log.iter().all(|(_, w, _)| *w == log[0].1),
                    "agreement failed: {:?} from {:?}, site {} rejoined", log, proposals, victim
                );
            }
            let ds = d.decisions();
            for i in 0..n {
                proptest::prop_assert!(ds[i].is_some(), "site {} never decided: {:?}", i, ds);
            }
        }
    }
}
