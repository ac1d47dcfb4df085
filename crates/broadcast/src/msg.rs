//! Message identifiers, wire formats and engine actions shared by every
//! atomic-broadcast implementation in this crate.

use crate::traits::EngineSnapshot;
use otp_consensus::ConsensusMsg;
use otp_simnet::{SimDuration, SiteId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The value type consensus agrees on: one batch of the definitive order.
///
/// Behind an [`Arc`] because a batch fans out hard: every site's proposal
/// for an instance goes to every member, a round's estimate and the
/// coordinator's proposal and decision carry it again, and the simulation
/// driver clones the wire per receiver — sharing one allocation turns all
/// of that into reference-count bumps, and a decided batch is one
/// allocation cluster-wide however the sites came to decide it.
pub type OrderBatch = Arc<Vec<MsgId>>;

/// How far a recovering endpoint jumps its own message-sequence space past
/// the highest id any survivor (or its own held wires) knew about.
///
/// A message this site multicast immediately before crashing can still be
/// in flight to *every* receiver when recovery runs — in that window no
/// snapshot, digest or hold buffer can teach the restored endpoint that the
/// id is taken, and reusing it would make peers silently deduplicate the
/// new message (a permanent delivery hole). Jumping by more than any
/// realistic in-flight backlog makes the new incarnation's id space
/// disjoint from the dead one's. Applied by
/// [`crate::AtomicBroadcast::bump_incarnation`], which the view-change
/// recovery driver calls once per restore.
///
/// The gap covers only the *truly invisible* window — ids in flight to
/// every receiver at once, which is bounded by one network round-trip of
/// traffic, not by history. Everything any survivor digest reports (payload
/// store, order tags, **and decided consensus batches**) is folded into the
/// restored `next_seq` *before* the gap is applied, so a long-running site
/// whose reported ids span more than `RECOVERY_SEQ_GAP` cannot overflow it:
/// the jump starts from the highest reported id, not from a stale cursor.
pub const RECOVERY_SEQ_GAP: u64 = 1 << 20;

/// Globally unique message identifier: the originating site plus a local
/// sequence number.
///
/// The derived `Ord` (origin first, then sequence) is also used by the
/// consensus layer to break ties among equally-timestamped estimates, so
/// the identifier ordering must be deterministic — which a pair of integers
/// is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// Site that TO-broadcast the message.
    pub origin: SiteId,
    /// Per-origin sequence number, starting at 0.
    pub seq: u64,
}

impl MsgId {
    /// Creates a message id.
    pub const fn new(origin: SiteId, seq: u64) -> Self {
        MsgId { origin, seq }
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A broadcast message: identifier plus application payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message<P> {
    /// Unique identifier.
    pub id: MsgId,
    /// Application payload (the OTP layer carries a transaction request).
    pub payload: P,
}

/// Sizes for wire-level accounting. Implemented for the payload types used
/// in tests and by `otp-core` for transaction requests; the simulated
/// network charges transmission time based on this.
pub trait PayloadSize {
    /// Approximate serialized size of the payload in bytes.
    fn size_bytes(&self) -> u32;
}

impl PayloadSize for () {
    fn size_bytes(&self) -> u32 {
        0
    }
}
impl PayloadSize for u32 {
    fn size_bytes(&self) -> u32 {
        4
    }
}
impl PayloadSize for u64 {
    fn size_bytes(&self) -> u32 {
        8
    }
}
impl PayloadSize for Vec<u8> {
    fn size_bytes(&self) -> u32 {
        self.len() as u32
    }
}
impl PayloadSize for String {
    fn size_bytes(&self) -> u32 {
        self.len() as u32
    }
}

/// Everything the broadcast engines put on the network.
///
/// One shared enum (rather than one per engine) keeps the simulation driver
/// and the threaded runtime engine-agnostic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wire<P> {
    /// Application data, multicast by the origin.
    Data(Message<P>),
    /// Agreement traffic of the optimistic engine: consensus instance `k`
    /// deciding the next batch of the definitive order.
    Consensus {
        /// Consensus instance number (batch number).
        instance: u64,
        /// The inner consensus protocol message.
        msg: ConsensusMsg<OrderBatch>,
    },
    /// Batched decision help-out: one frame re-teaching a straggler every
    /// consensus decision it asked about in one tick, instead of one
    /// `Consensus`/`Decide` frame per instance.
    DecideBatch {
        /// `(instance, decided batch)` pairs, in instance order.
        decides: Vec<(u64, OrderBatch)>,
    },
    /// Sequencer engine: one wire carrying a run of consecutive sequence
    /// assignments — `ids[k]` gets position `start_seqno + k`. A run of
    /// one is a single assignment; a longer run amortizes the per-message
    /// ordering frame over a whole accumulation window (the Slim-ABC style
    /// throughput optimization).
    SeqOrderBatch {
        /// View epoch the assigning sequencer incarnation was installed in.
        /// Receivers reject assignments from an epoch below their order
        /// fence (a dead sequencer incarnation) — see DESIGN.md §7.
        epoch: u64,
        /// Position of `ids[0]` in the definitive total order.
        start_seqno: u64,
        /// The messages being ordered, in consecutive positions.
        ids: Vec<MsgId>,
    },
    /// Oracle engine (test/bench harness): data stamped with the global
    /// send order.
    OracleData {
        /// The data message.
        msg: Message<P>,
        /// Position in the oracle's definitive order.
        oracle_seq: u64,
    },
    /// View-change round announcement, multicast by a recovering site: the
    /// initiator asks every member of the proposed view how far it has
    /// delivered before it re-admits itself (union-of-survivors recovery).
    ViewChange {
        /// The proposed view's epoch (strictly above every installed one).
        epoch: u64,
        /// The recovering site driving the round.
        initiator: SiteId,
    },
    /// A member's reply to [`Wire::ViewChange`], sent as it fences the old
    /// epoch: the length of its definitive log. The minimum over all
    /// replies is the round's digest floor.
    StateSummary {
        /// Epoch of the round this summary answers.
        epoch: u64,
        /// The replying member.
        from: SiteId,
        /// The member's definitive-log length at reply time.
        delivered: u64,
    },
    /// Second announcement of a round, multicast by the initiator once
    /// every member has summarised (or crashed): every live member has
    /// delivered at least `floor` messages, so nobody needs to ship state
    /// below it.
    ViewFloor {
        /// Epoch of the round.
        epoch: u64,
        /// The recovering site driving the round.
        initiator: SiteId,
        /// Minimum delivered length over the round's summaries.
        floor: u64,
    },
    /// A member's reply to [`Wire::ViewFloor`]: its ordering state cut
    /// above the floor ([`EngineSnapshot::delta_above`]), unicast back to
    /// the initiator. The initiator installs the view only after the union
    /// of all live members' digests is merged.
    StateDigest {
        /// Epoch of the round this digest answers.
        epoch: u64,
        /// The replying member.
        from: SiteId,
        /// The member's broadcast-engine state above the round's floor.
        /// Boxed: a digest travels once per member per view change, and
        /// inline it would make every wire, action and queued event of
        /// the per-message path as large as a whole snapshot.
        snapshot: Box<EngineSnapshot<P>>,
    },
}

impl<P: PayloadSize> Wire<P> {
    /// Wire size used for transmission-time accounting.
    pub fn size_bytes(&self) -> u32 {
        const HDR: u32 = 24; // id + tag + framing
        match self {
            Wire::Data(m) => HDR + m.payload.size_bytes(),
            Wire::Consensus { msg, .. } => {
                let body = match msg {
                    ConsensusMsg::Estimate { est, .. } => 16 + 12 * est.len() as u32,
                    ConsensusMsg::Propose { value, .. } => 16 + 12 * value.len() as u32,
                    ConsensusMsg::Ack { .. } | ConsensusMsg::Nack { .. } => 8,
                    ConsensusMsg::Decide { value } => 8 + 12 * value.len() as u32,
                };
                HDR + body
            }
            Wire::DecideBatch { decides } => {
                HDR + decides.iter().map(|(_, v)| 16 + 12 * v.len() as u32).sum::<u32>()
            }
            Wire::SeqOrderBatch { ids, .. } => HDR + 16 + 12 * ids.len() as u32,
            Wire::OracleData { msg, .. } => HDR + 8 + msg.payload.size_bytes(),
            Wire::ViewChange { .. } => HDR + 12,
            Wire::StateSummary { .. } => HDR + 16,
            Wire::ViewFloor { .. } => HDR + 20,
            Wire::StateDigest { snapshot, .. } => {
                let payloads: u32 =
                    snapshot.received.iter().map(|m| 12 + m.payload.size_bytes()).sum();
                let orders = 12 * (snapshot.order_tags.len() + snapshot.definitive_log.len());
                let decided: usize =
                    snapshot.decided.values().map(|batch| 8 + 12 * batch.len()).sum();
                let horizon = snapshot.instance_horizon.map_or(0, |_| 8);
                HDR + 24 + horizon + payloads + orders as u32 + decided as u32
            }
        }
    }
}

/// Token identifying a timer armed by an engine.
///
/// The optimistic engine uses `(instance, round)` for consensus round
/// timeouts; the oracle engine repurposes `instance` as a per-message
/// sequence with `round == ORACLE_ROUND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimerToken {
    /// Engine-defined scope (consensus instance, or oracle sequence).
    pub instance: u64,
    /// Engine-defined sub-id (consensus round, or a marker).
    pub round: u64,
}

/// Instructions an engine hands back to its driver.
///
/// The driver must:
/// * put `Multicast`/`Send` wires on the network (including delivery back
///   to the sending site itself — IP multicast loopback),
/// * surface `OptDeliver`/`ToDeliver` to the application (the OTP replica),
/// * schedule `SetTimer` and call [`crate::AtomicBroadcast::on_timer`] when
///   it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineAction<P> {
    /// Multicast a wire message to all sites (loopback included).
    Multicast(Wire<P>),
    /// Send a wire message to a single site (possibly the sender).
    Send(SiteId, Wire<P>),
    /// Tentative delivery to the application, in receive order.
    OptDeliver(Message<P>),
    /// Definitive delivery confirmation — only the ids, matching the paper:
    /// "TO-deliver(m) will not deliver the entire body of the message …
    /// but rather deliver only a confirmation message". The driver reads
    /// each body from the engine that emitted the action
    /// ([`crate::AtomicBroadcast::payload`]). Engines emit one
    /// *batch* per causal step (a decided consensus batch, a filled order
    /// gap, a ripened timer run): everything that becomes definitive at one
    /// instant travels as one action, so drivers pay the dispatch and
    /// lookup overhead once per batch instead of once per message.
    ToDeliver(Vec<MsgId>),
    /// Arm a timer for `delay` from now, then call `on_timer(token)`.
    SetTimer {
        /// Identifies the timer when it fires.
        token: TimerToken,
        /// Delay from the current instant.
        delay: SimDuration,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_ordering_is_origin_then_seq() {
        let a = MsgId::new(SiteId::new(0), 5);
        let b = MsgId::new(SiteId::new(1), 0);
        let c = MsgId::new(SiteId::new(1), 1);
        assert!(a < b && b < c);
        assert_eq!(format!("{b}"), "N1#0");
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(().size_bytes(), 0);
        assert_eq!(7u32.size_bytes(), 4);
        assert_eq!(7u64.size_bytes(), 8);
        assert_eq!(vec![0u8; 10].size_bytes(), 10);
        assert_eq!(String::from("abc").size_bytes(), 3);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let m = Message { id: MsgId::new(SiteId::new(0), 0), payload: vec![0u8; 100] };
        assert_eq!(Wire::Data(m.clone()).size_bytes(), 124);
        let small = Wire::<Vec<u8>>::SeqOrderBatch { epoch: 0, start_seqno: 1, ids: vec![m.id] };
        assert!(small.size_bytes() < 64);
        let est = Wire::<Vec<u8>>::Consensus {
            instance: 0,
            msg: ConsensusMsg::Estimate { round: 0, est: Arc::new(vec![m.id; 10]), ts: 0 },
        };
        let ack = Wire::<Vec<u8>>::Consensus { instance: 0, msg: ConsensusMsg::Ack { round: 0 } };
        assert!(est.size_bytes() > ack.size_bytes());
    }
}
