//! # otp-broadcast — atomic broadcast with optimistic delivery
//!
//! Implementation of the communication primitive from *Processing
//! Transactions over Optimistic Atomic Broadcast Protocols* (Kemme, Pedone,
//! Alonso, Schiper — ICDCS 1999), Section 2.1. Three primitives:
//!
//! * `TO-broadcast(m)` — [`AtomicBroadcast::broadcast`];
//! * `Opt-deliver(m)` — emitted as [`EngineAction::OptDeliver`] the moment
//!   a message arrives from the network: the **tentative** order;
//! * `TO-deliver(m)` — emitted as [`EngineAction::ToDeliver`] (id only, a
//!   confirmation) once the sites agree: the **definitive** order.
//!
//! Guarantees (Termination, Global/Local Agreement, Global Order, Local
//! Order) are documented on [`AtomicBroadcast`] and exercised by this
//! crate's property tests.
//!
//! Three engines:
//!
//! * [`OptAbcast`] — the optimistic protocol (Pedone–Schiper style):
//!   Opt-deliver on receipt, definitive order agreed in the background by
//!   batched consensus ([`otp_consensus`]);
//! * [`SeqAbcast`] — fixed-sequencer total order, the conservative
//!   baseline;
//! * [`ScrambledAbcast`] — an oracle instrument with *controllable*
//!   agreement delay and mismatch rate, used by the E2/E3 experiments.
//!
//! Each engine is two halves (DESIGN.md §18): one shared dissemination
//! half — payload store, duplicate rule, own-id cursor, definitive log,
//! the payload part of snapshot and restore — and its own ordering half
//! (consensus batches, sequencer numbering, or the oracle).
//!
//! [`order`] computes the spontaneous-total-order metrics behind Figure 1,
//! and [`harness::LanCluster`] runs any engine over the simulated LAN.
//!
//! # Quick example
//!
//! ```
//! use otp_broadcast::harness::LanCluster;
//! use otp_broadcast::{OptAbcast, OptAbcastConfig};
//! use otp_simnet::{NetConfig, SimDuration, SimTime, SiteId};
//!
//! let cfg = OptAbcastConfig::new(4, SimDuration::from_millis(20));
//! let mut cluster = LanCluster::new(
//!     NetConfig::lan_10mbps(4),
//!     1,
//!     Box::new(move |_| OptAbcast::<u32>::new(cfg)),
//! );
//! for k in 0..8 {
//!     cluster.schedule_broadcast(
//!         SimTime::from_micros(500 * (k + 1)),
//!         SiteId::new((k % 4) as u16),
//!         k as u32,
//!         128,
//!     );
//! }
//! cluster.run_until(SimTime::from_secs(10));
//! assert_eq!(cluster.to_logs[0].len(), 8);
//! assert_eq!(cluster.to_logs[1], cluster.to_logs[0]); // Global Order
//! ```

mod dissemination;
pub mod domain;
pub mod harness;
mod idset;
pub mod msg;
pub mod opt;
pub mod order;
pub mod scramble;
pub mod seq;
mod traits;

pub use domain::{EngineCtx, GroupId, OrderDomain};
pub use idset::IdSet;
pub use msg::{EngineAction, Message, MsgId, PayloadSize, TimerToken, Wire, RECOVERY_SEQ_GAP};
pub use opt::{OptAbcast, OptAbcastConfig};
pub use scramble::{Oracle, ScrambleConfig, ScrambledAbcast};
pub use seq::SeqAbcast;
pub use traits::{AtomicBroadcast, EngineRetention, EngineSnapshot};
