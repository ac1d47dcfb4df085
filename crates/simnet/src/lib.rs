//! # otp-simnet — deterministic discrete-event simulation substrate
//!
//! This crate is the foundation of the `otpdb` reproduction of
//! *Processing Transactions over Optimistic Atomic Broadcast Protocols*
//! (Kemme, Pedone, Alonso, Schiper — ICDCS 1999). The paper's experiments
//! ran on a physical 4-site Ethernet cluster; this crate replaces that
//! testbed with a reproducible simulator:
//!
//! * [`time`] — integer-nanosecond virtual clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`event`] — the deterministic event heap ([`event::EventQueue`]) with
//!   FIFO tie-breaking;
//! * [`rng`] — seeded random streams and the distributions the models
//!   need ([`rng::SimRng`], [`rng::Zipf`]);
//! * [`net`] — shared-bus LAN multicast with per-receiver jitter and loss
//!   ([`net::MulticastNet`]) — the physics behind *spontaneous total
//!   order* (the paper's Figure 1);
//! * [`nemesis`] — seed-deterministic fault schedules
//!   ([`nemesis::NemesisSchedule`]): partitions, crashes, loss bursts and
//!   jitter spikes generated from intensity knobs, for chaos testing;
//! * [`faults`] — the fault rules in force ([`faults::Faults`]) and the one
//!   interpreter of the fault vocabulary, shared by the simulator and the
//!   threaded runtime;
//! * [`sched`] — the one deterministic scheduler ([`sched::Sched`]) every
//!   simulated part runs on: event order, links, crashes with
//!   per-incarnation timers and work, held wires and their replay;
//! * [`metrics`] — histograms, counters and result tables used by every
//!   experiment harness.
//!
//! # Example: watch spontaneous order emerge
//!
//! ```
//! use otp_simnet::net::{MulticastNet, NetConfig, SiteId};
//! use otp_simnet::rng::SimRng;
//! use otp_simnet::time::SimTime;
//!
//! let mut rng = SimRng::seed_from(7);
//! let mut net = MulticastNet::new(NetConfig::lan_10mbps(4));
//!
//! // Two sites multicast at nearly the same instant …
//! let a = net.multicast(SiteId::new(0), 128, SimTime::ZERO, &mut rng);
//! let b = net.multicast(SiteId::new(1), 128, SimTime::ZERO, &mut rng);
//!
//! // … the wire serializes them, so most receivers agree on the order,
//! // but per-receiver jitter can make some disagree. That disagreement is
//! // exactly what optimistic atomic broadcast gambles against.
//! assert_eq!(a.len(), 4);
//! assert_eq!(b.len(), 4);
//! ```

pub mod event;
pub mod faults;
pub mod metrics;
pub mod nemesis;
pub mod net;
pub mod rng;
pub mod sched;
pub mod time;

pub use event::EventQueue;
pub use faults::Faults;
pub use nemesis::{NemesisEvent, NemesisKnobs, NemesisSchedule};
pub use net::{MulticastNet, NetConfig, SiteId};
pub use rng::{DurationDist, SimRng};
pub use sched::Sched;
pub use time::{SimDuration, SimTime};
