//! The exact pre-fix divergence, demonstrated engine-by-engine.
//!
//! The old driver restored a crashed site from a *single* donor snapshot
//! (`engine.restore(donor.snapshot())` + `finish_restore()` — the code path
//! below labelled "legacy"). An order assignment known to a survivor other
//! than the donor, or a message id known only to a non-donor survivor, was
//! invisible to the restored engine:
//!
//! * a restored **sequencer** renumbered the message, binding one sequence
//!   number to two different messages across sites;
//! * a restored **oracle endpoint** reused its own pre-crash `MsgId`, which
//!   peers silently deduplicate — the new message was lost at every peer
//!   that knew the old one.
//!
//! Union-of-survivors recovery (`EngineSnapshot::merge` over every live
//! member's digest, as collected by `otp_view::ViewChange`) closes both
//! windows. Each test drives the legacy path to the observable divergence
//! first, then shows the union path converging on the same inputs.

use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCtx, EngineSnapshot, Message, MsgId, OptAbcast,
    OptAbcastConfig, Oracle, OrderDomain, ScrambleConfig, ScrambledAbcast, SeqAbcast, Wire,
};
use otp_simnet::{SimDuration, SimRng, SiteId};
use otp_view::{CrashOutcome, SummaryOutcome, ViewChange};
use std::sync::OnceLock;

fn site(n: u16) -> SiteId {
    SiteId::new(n)
}

/// Per-endpoint call context over the one global 4-site domain.
fn ctx(me: u16) -> EngineCtx<'static> {
    static DOMAIN: OnceLock<OrderDomain> = OnceLock::new();
    EngineCtx::new(site(me), DOMAIN.get_or_init(|| OrderDomain::global(4)))
}

fn data(origin: u16, seq: u64, payload: u32) -> Wire<u32> {
    Wire::Data(Message { id: MsgId::new(site(origin), seq), payload })
}

/// The sequencer's epoch-0 assignment of `id` to position `seqno`.
fn order(seqno: u64, id: MsgId) -> Wire<u32> {
    Wire::SeqOrderBatch { epoch: 0, start_seqno: seqno, ids: vec![id] }
}

/// Applies every multicast order assignment in `actions` to `peer`.
fn apply_orders(peer: &mut SeqAbcast<u32>, me: u16, from: SiteId, actions: &[EngineAction<u32>]) {
    for a in actions {
        if let EngineAction::Multicast(w @ Wire::SeqOrderBatch { .. }) = a {
            peer.on_receive(&ctx(me), from, w.clone());
        }
    }
}

/// Builds the survivor states of the renumber-collision scenario.
///
/// The sequencer (site 0) crashed. Among the survivors:
/// * everyone delivered `A` at slot 0;
/// * the *witness* (site 2) also holds the assignment `1 → M2` — the dead
///   sequencer ordered `M2` before `M1` (receive order need not match id
///   order) and the frame reached only the witness;
/// * the *donor* (site 1) knows the payloads of `M1`/`M2` but no assignment
///   for either — the wire to it is still in flight, in no hold buffer.
fn renumber_scenario() -> (SeqAbcast<u32>, SeqAbcast<u32>, [MsgId; 3]) {
    let a = MsgId::new(site(3), 0);
    let m1 = MsgId::new(site(3), 1);
    let m2 = MsgId::new(site(3), 2);
    let mut donor: SeqAbcast<u32> = SeqAbcast::new(site(0));
    let mut witness: SeqAbcast<u32> = SeqAbcast::new(site(0));
    for (peer, me) in [(&mut donor, 1u16), (&mut witness, 2)] {
        peer.on_receive(&ctx(me), site(3), data(3, 0, 10));
        peer.on_receive(&ctx(me), site(0), order(0, a));
        peer.on_receive(&ctx(me), site(3), data(3, 1, 11));
        peer.on_receive(&ctx(me), site(3), data(3, 2, 12));
    }
    witness.on_receive(&ctx(2), site(0), order(1, m2));
    assert_eq!(donor.definitive_log(), [a]);
    assert_eq!(witness.definitive_log(), [a, m2]);
    (donor, witness, [a, m1, m2])
}

/// The legacy single-donor path binds slot 1 to two different messages:
/// the restored sequencer renumbers in deterministic id order (`M1` first)
/// while the witness already holds `1 → M2`. The witness then ignores the
/// conflicting re-announce and stalls on `M1` forever. (The re-announce
/// also gives `M2` slot 2, a second position for one id, which an engine
/// treats as a broken invariant: only the slot-1 assignment is applied.)
fn seq_legacy_diverges(restored: &mut SeqAbcast<u32>) {
    let (donor, mut witness, [a, m1, m2]) = renumber_scenario();
    let mut actions = restored.restore(&ctx(0), donor.snapshot());
    actions.extend(restored.finish_restore(&ctx(0)));
    assert_eq!(restored.definitive_log(), [a, m1, m2], "renumbered in id order");
    let announced: Vec<(u64, MsgId)> = actions
        .iter()
        .flat_map(|x| match x {
            EngineAction::Multicast(Wire::SeqOrderBatch { start_seqno, ids, .. }) => {
                ids.iter().zip(*start_seqno..).map(|(id, seqno)| (seqno, *id)).collect()
            }
            _ => Vec::new(),
        })
        .collect();
    assert_eq!(announced, [(1, m1), (2, m2)]);
    witness.on_receive(&ctx(2), site(0), order(1, m1));
    // Slot 1: M1 at the restored sequencer, M2 at the witness.
    assert_eq!(restored.definitive_log()[1], m1);
    assert_eq!(witness.definitive_log()[1], m2, "same slot, different message");
    assert!(
        !witness.definitive_log().contains(&m1),
        "witness can never deliver M1: its slot is taken"
    );
}

/// Union-of-survivors over the same survivors: the witness's digest
/// teaches the restored sequencer `1 → M2`, so only `M1` is renumbered
/// (into a fresh slot) and every site converges on `[A, M2, M1]`.
fn seq_union_converges(restored: &mut SeqAbcast<u32>) {
    let (mut donor, mut witness, [a, m1, m2]) = renumber_scenario();
    let mut merged = donor.snapshot();
    merged.merge(witness.snapshot());
    let mut actions = restored.restore(&ctx(0), merged);
    restored.bump_incarnation();
    restored.install_view(1, true);
    actions.extend(restored.finish_restore(&ctx(0)));
    assert_eq!(restored.definitive_log(), [a, m2, m1]);
    apply_orders(&mut witness, 2, site(0), &actions);
    apply_orders(&mut donor, 1, site(0), &actions);
    assert_eq!(witness.definitive_log(), [a, m2, m1], "witness converges");
    assert_eq!(donor.definitive_log(), [a, m2, m1], "donor converges");
}

#[test]
fn sequencer_single_donor_renumber_collision_fixed_by_union() {
    seq_legacy_diverges(&mut SeqAbcast::new(site(0)));
    seq_union_converges(&mut SeqAbcast::new(site(0)));
}

#[test]
fn batched_sequencer_single_donor_renumber_collision_fixed_by_union() {
    // Same window, batched incarnation: the restored sequencer also has an
    // unflushed-window repair to run — renumbering must still respect the
    // union of survivor order maps.
    let window = SimDuration::from_micros(250);
    seq_legacy_diverges(&mut SeqAbcast::new(site(0)).with_order_batching(window));
    seq_union_converges(&mut SeqAbcast::new(site(0)).with_order_batching(window));
}

/// Builds the id-reuse scenario for the oracle engine: the origin (site 0)
/// broadcast `M` and crashed; the copy to the donor is still in flight, so
/// only the witness knows the id is taken.
fn scramble_scenario() -> (ScrambledAbcast<u32>, ScrambledAbcast<u32>, ScrambledAbcast<u32>, MsgId)
{
    let cfg = ScrambleConfig::delay_only(SimDuration::from_millis(1));
    let oracle = Oracle::new();
    let mut rng = SimRng::seed_from(77);
    let mut origin: ScrambledAbcast<u32> =
        ScrambledAbcast::new(cfg, std::sync::Arc::clone(&oracle), rng.fork());
    let donor: ScrambledAbcast<u32> =
        ScrambledAbcast::new(cfg, std::sync::Arc::clone(&oracle), rng.fork());
    let mut witness: ScrambledAbcast<u32> =
        ScrambledAbcast::new(cfg, std::sync::Arc::clone(&oracle), rng.fork());
    let (m, actions) = origin.broadcast(&ctx(0), 41);
    let wire = actions
        .iter()
        .find_map(|a| match a {
            EngineAction::Multicast(w) => Some(w.clone()),
            _ => None,
        })
        .expect("broadcast multicasts");
    witness.on_receive(&ctx(2), site(0), wire);
    // The donor's copy is in flight; the origin crashes before loopback.
    let fresh: ScrambledAbcast<u32> =
        ScrambledAbcast::new(cfg, std::sync::Arc::clone(&oracle), rng.fork());
    (fresh, donor, witness, m)
}

#[test]
fn scramble_single_donor_id_reuse_fixed_by_union() {
    // Legacy: the donor never saw M, so the restored origin reuses its id —
    // the witness silently drops the new message (a permanent hole).
    let (mut restored, donor, mut witness, m) = scramble_scenario();
    restored.restore(&ctx(0), donor.snapshot());
    let (reused, actions) = restored.broadcast(&ctx(0), 42);
    assert_eq!(reused, m, "single-donor restore reuses the dead incarnation's id");
    let wire = actions
        .iter()
        .find_map(|a| match a {
            EngineAction::Multicast(w) => Some(w.clone()),
            _ => None,
        })
        .expect("broadcast multicasts");
    let at_witness = witness.on_receive(&ctx(2), site(0), wire);
    assert!(at_witness.is_empty(), "witness deduplicates the reused id: message lost");

    // Union: the witness's digest knows M, so the restored origin starts
    // past it (plus the incarnation gap) and the new message is delivered.
    let (mut restored, donor, mut witness, m) = scramble_scenario();
    let mut merged = donor.snapshot();
    merged.merge(witness.snapshot());
    restored.restore(&ctx(0), merged);
    restored.bump_incarnation();
    let (fresh_id, actions) = restored.broadcast(&ctx(0), 42);
    assert_ne!(fresh_id, m, "union knows the id is taken");
    let wire = actions
        .iter()
        .find_map(|a| match a {
            EngineAction::Multicast(w) => Some(w.clone()),
            _ => None,
        })
        .expect("broadcast multicasts");
    let at_witness = witness.on_receive(&ctx(2), site(0), wire);
    assert!(
        at_witness.iter().any(|a| matches!(a, EngineAction::OptDeliver(msg) if msg.id == fresh_id)),
        "witness accepts the fresh incarnation's message: {at_witness:?}"
    );
}

/// Ids delivered definitively by `actions`, in order.
fn to_delivered(actions: &[EngineAction<u32>]) -> Vec<MsgId> {
    actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::ToDeliver(ids) => Some(ids.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The digest sender is *ahead* of the base and crashes after replying
/// (sequencer engine). Its digest is a delta above the round's floor — the
/// base's delivered length — so it ships nothing about slot 0, and still
/// the restored engine re-delivers the sender's whole tail: every slot at
/// or above the floor comes back through the delta's order tags.
#[test]
fn ahead_then_crashed_sender_redelivers_its_tail_from_the_delta() {
    let ids: Vec<MsgId> = (0..3).map(|k| MsgId::new(site(3), k)).collect();
    let mut base: SeqAbcast<u32> = SeqAbcast::new(site(0));
    let mut ahead: SeqAbcast<u32> = SeqAbcast::new(site(0));
    for (k, id) in ids.iter().enumerate() {
        // Both survivors hold every payload; the base saw only slot 0's
        // assignment before the sequencer died.
        for (peer, me) in [(&mut base, 1u16), (&mut ahead, 2)] {
            peer.on_receive(&ctx(me), site(3), data(3, k as u64, 10 + k as u32));
        }
        let assignment = order(k as u64, *id);
        ahead.on_receive(&ctx(2), site(0), assignment.clone());
        if k == 0 {
            base.on_receive(&ctx(1), site(0), assignment);
        }
    }
    assert_eq!(base.definitive_log(), [ids[0]]);
    assert_eq!(ahead.definitive_log(), ids);

    let mut round: ViewChange<u32> = ViewChange::propose(1, site(0), [site(1), site(2)]);
    round.on_summary(site(2), 1, ahead.definitive_log().len() as u64);
    let outcome = round.on_summary(site(1), 1, base.definitive_log().len() as u64);
    assert_eq!(outcome, SummaryOutcome::FloorReady(1), "floor = the laggard's length");
    let delta = ahead.snapshot().delta_above(1);
    assert!(delta.definitive_log.is_empty(), "no log copy is shipped");
    assert_eq!(delta.order_tags, vec![(ids[1], 1), (ids[2], 2)], "only slots >= floor");
    assert_eq!(delta.received.len(), 2, "slot 0's payload stays home");
    round.on_digest(site(2), 1, delta);
    // The sender dies after replying; the base never gets to reply.
    assert_eq!(round.on_member_crashed(site(2)), CrashOutcome::Pending);
    assert_eq!(round.on_member_crashed(site(1)), CrashOutcome::Completed);

    let mut merged = base.snapshot();
    merged.merge(round.into_merged());
    let mut restored: SeqAbcast<u32> = SeqAbcast::new(site(0));
    let mut actions = restored.restore(&ctx(0), merged);
    restored.bump_incarnation();
    restored.install_view(1, true);
    actions.extend(restored.finish_restore(&ctx(0)));
    assert_eq!(to_delivered(&actions), ids[1..], "the tail re-delivers, slot 0 does not");
    assert_eq!(restored.definitive_log(), ids);
    apply_orders(&mut base, 1, site(0), &actions);
    assert_eq!(base.definitive_log(), ids, "the base catches up from the re-announce");
}

/// Same shape for the optimistic engine, where the tail lives in decided
/// consensus instances: the delta drops the instance wholly below the
/// floor and keeps the later ones whole — including an empty one, which
/// the delivery cursor must still step over.
#[test]
fn opt_delta_keeps_the_decided_instances_above_the_floor() {
    let ids: Vec<MsgId> = (0..4).map(|k| MsgId::new(site(3), k)).collect();
    let payloads = |range: std::ops::Range<usize>| -> Vec<Message<u32>> {
        range.map(|k| Message { id: ids[k], payload: k as u32 }).collect()
    };
    // The sender decided {0: [m0], 1: [m0, m1] (m0 raced), 2: [], 3: [m2, m3]}
    // and delivered everything; the base stopped after instance 0.
    let mut ahead = EngineSnapshot::empty();
    ahead.decided.insert(0, vec![ids[0]]);
    ahead.decided.insert(1, vec![ids[0], ids[1]]);
    ahead.decided.insert(2, Vec::new());
    ahead.decided.insert(3, vec![ids[2], ids[3]]);
    ahead.received = payloads(0..4);
    ahead.definitive_log = ids.clone();
    ahead.min_delivered = 4;
    let mut base = EngineSnapshot::empty();
    base.decided.insert(0, vec![ids[0]]);
    base.received = payloads(0..4);
    base.definitive_log = vec![ids[0]];
    base.min_delivered = 1;

    let full = ahead.clone().delta_above(0);
    assert_eq!(full.decided, ahead.decided, "floor 0 cuts nothing but the log copy");
    assert_eq!(full.received, ahead.received);
    let delta = ahead.delta_above(1);
    assert_eq!(
        delta.decided.keys().copied().collect::<Vec<_>>(),
        vec![1, 2, 3],
        "instance 0 is wholly below the floor; 1 straddles it and stays whole"
    );
    assert_eq!(delta.decided[&1], vec![ids[0], ids[1]]);
    assert_eq!(delta.received, payloads(1..4));
    assert_eq!(delta.min_delivered, 4, "the cut leaves min_delivered alone");

    base.merge(delta);
    let cfg = OptAbcastConfig::new(4, SimDuration::from_millis(20));
    let mut restored: OptAbcast<u32> = OptAbcast::new(cfg);
    let actions = restored.restore(&ctx(0), base);
    assert_eq!(to_delivered(&actions), ids[1..]);
    assert_eq!(restored.definitive_log(), ids);
}

/// A floor past the sender's own log (it can only come from a caller bug
/// or a sender that never summarised) is clamped, not trusted.
#[test]
fn delta_floor_is_clamped_to_the_senders_log() {
    let a = MsgId::new(site(3), 0);
    let b = MsgId::new(site(3), 1);
    let mut snap: EngineSnapshot<u32> = EngineSnapshot::empty();
    snap.definitive_log = vec![a];
    snap.order_tags = vec![(a, 0), (b, 1)];
    snap.received = vec![Message { id: a, payload: 0 }, Message { id: b, payload: 1 }];
    let delta = snap.delta_above(u64::MAX);
    assert_eq!(delta.order_tags, vec![(b, 1)], "the undelivered slot is still shipped");
    assert_eq!(delta.received.len(), 1);
}
