//! The engine-agnostic atomic-broadcast interface.

use crate::domain::EngineCtx;
use crate::msg::{EngineAction, Message, MsgId, TimerToken, Wire};
use otp_simnet::SiteId;
use std::collections::BTreeMap;
use std::fmt;

/// State carried from a live site to a recovering one.
///
/// Recovery model (see DESIGN.md §4 and §7): the recovering driver takes a
/// base snapshot from the most advanced survivor and *merges in* the state
/// digests of every other live member (union-of-survivors), so an order
/// assignment or payload known to any survivor — not just one donor —
/// reaches the restored engine. The engine restores the merged snapshot,
/// suppresses re-delivery of everything already in the definitive log, and
/// joins new consensus instances as their first messages arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot<P> {
    /// Decided batches by consensus instance (empty for engines that do
    /// not agree in batches: the sequencer and oracle engines carry their
    /// order in `order_tags`).
    pub decided: BTreeMap<u64, Vec<MsgId>>,
    /// All received data messages (payload store).
    pub received: Vec<Message<P>>,
    /// Definitive log: every TO-delivered id, in delivery order.
    pub definitive_log: Vec<MsgId>,
    /// Engine-specific global sequence tags for received messages (empty
    /// for engines whose order is reconstructible from `decided`; the
    /// oracle engine needs them to re-arm undelivered messages after a
    /// restore, the sequencer engine to never reassign a seqno).
    pub order_tags: Vec<(MsgId, u64)>,
    /// View epoch the snapshotting engine had installed.
    pub epoch: u64,
    /// Order-assignment fence the snapshotting engine enforced: frames
    /// tagged with an epoch below this come from a dead sequencer
    /// incarnation and are rejected.
    pub order_fence: u64,
    /// Definitive-log length of the snapshotting engine; under
    /// [`EngineSnapshot::merge`] the **minimum** over every folded-in
    /// snapshot. A restored sequencer re-announces its order map only from
    /// this floor upward (delta re-announce): every live member has already
    /// delivered — and therefore applied — all assignments below the
    /// minimum, so re-teaching them could only ever be a redundant
    /// `or_insert`. Bounds the re-announce frame by the in-flight window
    /// instead of by history.
    pub min_delivered: u64,
    /// One past the highest consensus instance the snapshotting engine has
    /// joined or knows decided (`None` for engines that run no instances);
    /// under [`EngineSnapshot::merge`] the maximum. A site can only have
    /// voted in an instance whose predecessor a majority had joined, so a
    /// site restored from the union of the live members may have voted, in
    /// its previous life, in instances up to and including this one and in
    /// none above — which is where the optimistic engine stops treating
    /// itself as rejoined (`otp_consensus::Instance::rejoin`).
    pub instance_horizon: Option<u64>,
}

impl<P> EngineSnapshot<P> {
    /// A snapshot with no state at all (epoch 0, nothing delivered).
    ///
    /// `min_delivered` starts at `u64::MAX` — the identity of the min-fold
    /// in [`EngineSnapshot::merge`] — because this constructor is the fold
    /// base of a view-change round, not a digest from a real engine (every
    /// real engine's `snapshot()` reports its actual delivered length).
    pub fn empty() -> Self {
        EngineSnapshot {
            decided: BTreeMap::new(),
            received: Vec::new(),
            definitive_log: Vec::new(),
            order_tags: Vec::new(),
            epoch: 0,
            order_fence: 0,
            min_delivered: u64::MAX,
            instance_horizon: None,
        }
    }

    /// Union-of-survivors merge: folds `other` into `self`.
    ///
    /// * `decided` — union by instance (consensus Agreement guarantees any
    ///   two values for one instance are equal, so first-writer wins);
    /// * `received` — union, deduplicated by [`MsgId`];
    /// * `definitive_log` — **`self`'s log wins, always.** A restore pairs
    ///   the merged engine state with the replica of the site the *base*
    ///   snapshot came from, and everything in the definitive log is
    ///   suppressed from re-delivery — so the log must never grow past
    ///   what that replica actually executed. A digest whose sender was
    ///   further along (it may even have crashed since replying) loses
    ///   nothing: its delivered tail re-delivers through `order_tags` /
    ///   `decided`, which cover every slot the sender ever knew;
    /// * `order_tags` — union by seqno (the sequencer never reassigns a
    ///   seqno, so any two tags for one slot agree); the max-seqno union is
    ///   what closes the single-donor renumber window;
    /// * `epoch` / `order_fence` — max;
    /// * `min_delivered` — min: the floor of the restored sequencer's
    ///   delta re-announce (everything below it is delivered everywhere);
    /// * `instance_horizon` — max (`None` below everything).
    pub fn merge(&mut self, other: EngineSnapshot<P>) {
        for (instance, batch) in other.decided {
            self.decided.entry(instance).or_insert(batch);
        }
        let mut known: std::collections::HashSet<MsgId> =
            self.received.iter().map(|m| m.id).collect();
        for m in other.received {
            if known.insert(m.id) {
                self.received.push(m);
            }
        }
        // `other.definitive_log` is deliberately dropped — see above. Its
        // entries survive in the unions below (a sequencer/oracle digest
        // tags every slot it ever saw; an opt digest's decided map covers
        // its whole log).
        let mut slots: BTreeMap<u64, MsgId> =
            self.order_tags.iter().map(|(id, seqno)| (*seqno, *id)).collect();
        for (id, seqno) in other.order_tags {
            slots.entry(seqno).or_insert(id);
        }
        self.order_tags = slots.into_iter().map(|(seqno, id)| (id, seqno)).collect();
        self.epoch = self.epoch.max(other.epoch);
        self.order_fence = self.order_fence.max(other.order_fence);
        self.min_delivered = self.min_delivered.min(other.min_delivered);
        self.instance_horizon = self.instance_horizon.max(other.instance_horizon);
    }

    /// Cuts this snapshot down to a view-change **delta digest**: what a
    /// restore still needs from this sender when the base snapshot it is
    /// merged into has delivered at least `floor` messages.
    ///
    /// Definitive logs are prefix-consistent (Global Order), so the base's
    /// first `floor` deliveries are this sender's `definitive_log[..floor]`,
    /// and the base snapshot already carries their payloads, their order
    /// tags and every decided instance that first delivered one of them.
    /// The delta therefore drops
    ///
    /// * the `definitive_log` copy ([`EngineSnapshot::merge`] never adopts
    ///   a digest's log);
    /// * `received` / `order_tags` entries for ids inside that prefix;
    /// * `decided` instances all of whose ids lie inside it, up to the last
    ///   instance that touches it (an instance that straddles the floor is
    ///   kept whole — consensus values are never edited — and so is an
    ///   empty instance above it: with `floor == 0` nothing is dropped);
    ///
    /// and keeps everything else, `min_delivered` / `epoch` / `order_fence`
    /// / `instance_horizon` included. The sender's delivered tail *above* the floor survives in
    /// `order_tags` / `decided`, so a sender that was ahead of the base
    /// still re-delivers every slot ≥ `floor` (DESIGN.md §7).
    ///
    /// The caller owes the precondition: `floor` must not exceed the
    /// delivered length of the base the delta will be merged into. A floor
    /// past this sender's own log is clamped to it.
    pub fn delta_above(mut self, floor: u64) -> Self {
        let cut = usize::try_from(floor)
            .map_or(self.definitive_log.len(), |f| f.min(self.definitive_log.len()));
        let below: std::collections::HashSet<MsgId> =
            self.definitive_log[..cut].iter().copied().collect();
        self.received.retain(|m| !below.contains(&m.id));
        self.order_tags.retain(|(id, _)| !below.contains(id));
        let last_touching = self
            .decided
            .iter()
            .rev()
            .find(|(_, batch)| batch.iter().any(|id| below.contains(id)))
            .map(|(instance, _)| *instance);
        if let Some(last) = last_touching {
            self.decided.retain(|k, batch| *k > last || !batch.iter().all(|id| below.contains(id)));
        }
        self.definitive_log = Vec::new();
        self
    }
}

/// What an engine holds that grows with traffic, in entries
/// ([`AtomicBroadcast::retained`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineRetention {
    /// Payloads in the payload store.
    pub payloads: usize,
    /// Ids in the definitive log.
    pub log: usize,
    /// Dedup and ordering index entries: id-set runs plus undelivered
    /// order assignments. Bounded by reordering, not by message count.
    pub index: usize,
}

/// An atomic broadcast endpoint at one site.
///
/// All engines in this crate implement the paper's primitive: messages are
/// `Opt-deliver`ed in *tentative* (receive) order as soon as they arrive
/// and `TO-deliver`ed in the *definitive* total order once agreement is
/// reached. Implementations must guarantee, for correct sites:
///
/// * **Termination** — a TO-broadcast message is eventually Opt- and
///   TO-delivered everywhere;
/// * **Global Agreement** — if one site TO-delivers `m`, every site does;
/// * **Local Agreement** — an Opt-delivered message is eventually
///   TO-delivered;
/// * **Global Order** — all sites TO-deliver in the same order;
/// * **Local Order** — a site Opt-delivers `m` before TO-delivering `m`.
///
/// Engines are pure state machines: they never look at a clock and never
/// touch a network. The driver executes the returned [`EngineAction`]s —
/// this is what lets the same code run in the deterministic simulator, the
/// property-test harnesses and the threaded runtime.
///
/// Every behavior method takes an [`EngineCtx`]: the site this endpoint
/// lives on, the [`crate::OrderDomain`] it orders within, and the view
/// epoch the driver installed for that domain. One engine instance serves
/// one domain; `MsgId` sequence spaces, seqnos and epochs are all scoped
/// to it. The context replaces the old `me()` accessor and the site/epoch
/// fields each engine used to stash — the driver owns that state.
pub trait AtomicBroadcast<P>: fmt::Debug {
    /// TO-broadcasts a payload. Returns the new message's id and the
    /// actions to execute (typically a `Multicast` of the data).
    fn broadcast(&mut self, ctx: &EngineCtx<'_>, payload: P) -> (MsgId, Vec<EngineAction<P>>);

    /// Handles a whole tick's worth of wire messages received from the
    /// network — an engine's one receive path. Both drivers call it: the
    /// simulator coalesces same-instant (and, with a delivery quantum,
    /// same-window) arrivals, and the threaded runtime drains its site
    /// channel in bounded adaptive batches. Engines amortize per-message
    /// work over the batch (the sequencer coalesces order assignments into
    /// one [`crate::Wire::SeqOrderBatch`] frame per batch).
    fn on_receive_batch(
        &mut self,
        ctx: &EngineCtx<'_>,
        wires: Vec<(SiteId, Wire<P>)>,
    ) -> Vec<EngineAction<P>>;

    /// Handles one wire message received from the network: a batch of one.
    fn on_receive(
        &mut self,
        ctx: &EngineCtx<'_>,
        from: SiteId,
        wire: Wire<P>,
    ) -> Vec<EngineAction<P>> {
        self.on_receive_batch(ctx, vec![(from, wire)])
    }

    /// Handles a timer armed via [`EngineAction::SetTimer`].
    fn on_timer(&mut self, ctx: &EngineCtx<'_>, token: TimerToken) -> Vec<EngineAction<P>>;

    /// The definitive log so far: TO-delivered ids in delivery order.
    fn definitive_log(&self) -> &[MsgId];

    /// Produces a state snapshot for transferring to a recovering site.
    fn snapshot(&self) -> EngineSnapshot<P>;

    /// Restores this (fresh) engine from a donor snapshot. Everything in
    /// the snapshot's definitive log is treated as already delivered: it is
    /// not re-OptDelivered nor re-ToDelivered. Messages that were received
    /// but not yet definitively delivered are re-emitted as `OptDeliver`
    /// actions (they are tentative again at the recovering site), followed
    /// by any `ToDeliver`s that are immediately ready.
    fn restore(&mut self, ctx: &EngineCtx<'_>, snapshot: EngineSnapshot<P>)
        -> Vec<EngineAction<P>>;

    /// Called by the driver once, after [`AtomicBroadcast::restore`] *and*
    /// after it has re-fed the engine every surviving wire this site sent
    /// before crashing (copies held at partitions or for down receivers).
    /// Engines that must repair state no snapshot can carry do it here —
    /// the batched sequencer renumbers order assignments that died in an
    /// unflushed accumulation window. Default: nothing to repair.
    fn finish_restore(&mut self, _ctx: &EngineCtx<'_>) -> Vec<EngineAction<P>> {
        Vec::new()
    }

    /// Installs a view epoch, called by the driver when a
    /// [`crate::Wire::ViewChange`] round touches this site. `fence_orders`
    /// is true when the round recovers the *ordering authority* (the
    /// sequencer site): order-assignment frames tagged with an epoch below
    /// the fence come from the dead incarnation and must be rejected — the
    /// restored incarnation re-announces (or renumbers) every live
    /// assignment under the new epoch. Engines without an ordering
    /// authority have nothing to fence; default: ignore.
    fn install_view(&mut self, _epoch: u64, _fence_orders: bool) {}

    /// Jumps this endpoint's own message-sequence space by
    /// [`crate::msg::RECOVERY_SEQ_GAP`] so a fresh incarnation can never
    /// collide with an id of the dead one that is still in flight to every
    /// receiver (known to no survivor, digest or hold buffer). The
    /// view-change recovery driver calls this once per restore; default:
    /// nothing (engines without own-id state).
    fn bump_incarnation(&mut self) {}

    /// Order-assignment frames this endpoint rejected because they carried
    /// a dead sequencer incarnation's epoch (below the installed fence).
    /// Surfaced in run statistics so stale traffic is loud, not silent.
    fn stale_epoch_rejects(&self) -> u64 {
        0
    }

    /// Sizes of the structures this endpoint keeps per message, for a
    /// cluster's retention gauges. Sampled off the hot path. Default:
    /// nothing reported.
    fn retained(&self) -> EngineRetention {
        EngineRetention::default()
    }

    /// `(fast, slow)`: consensus instances this endpoint decided in one
    /// step — on `n` of `n` equal round-0 proposals, the paper's Figure 1
    /// case measured where it is cashed in — and instances it decided
    /// through a round, a `Decide` or a help-out. Engines that run no
    /// consensus report none; default: `(0, 0)`.
    fn decide_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Attaches the shared counters behind
    /// [`AtomicBroadcast::decide_counts`], the way
    /// [`AtomicBroadcast::set_stale_counter`] does for rejects: the tally
    /// becomes readable from a running cluster's registry and survives the
    /// engine being replaced at a recovery. Default: nothing to count.
    fn set_decide_counters(
        &mut self,
        _fast: std::sync::Arc<otp_telemetry::Counter>,
        _slow: std::sync::Arc<otp_telemetry::Counter>,
    ) {
    }

    /// Attaches a shared [`otp_telemetry`] counter that the engine bumps
    /// instead of (or in addition to) its private tally, folding the
    /// engine's rejects into the driver's unified
    /// [`otp_telemetry::MetricsRegistry`]. Engines that never reject
    /// (no ordering authority) ignore the handle; default: nothing.
    fn set_stale_counter(&mut self, _counter: std::sync::Arc<otp_telemetry::Counter>) {}
}
