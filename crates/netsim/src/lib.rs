//! # coic-netsim
//!
//! Deterministic discrete-event network simulation (plus a real framed-TCP
//! transport) underpinning the CoIC reproduction.
//!
//! The paper's testbed — a Pixel phone on shaped 802.11ac WiFi talking to an
//! edge box that talks to a cloud box — is replaced here by:
//!
//! * [`topology`] — nodes and directed links (the client–edge–cloud chain),
//! * [`link`] — bandwidth/propagation/jitter/loss + droptail queue model,
//! * [`shaper`] — `tc tbf`-style token bucket,
//! * [`sim`] — the event loop driving [`sim::Node`] state machines,
//! * [`rt`] — the same protocol over real TCP sockets for live runs.
//!
//! Everything is driven by a virtual clock ([`time::SimTime`]); no wall
//! clock is ever read, so every simulation is exactly reproducible from its
//! seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crc32;
pub mod event;
pub mod link;
pub mod rt;
pub mod shaper;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use link::{Link, LinkParams, LinkStats, TxOutcome};
pub use shaper::Shaper;
pub use sim::{Ctx, Node, SimStats, Simulator};
pub use stats::{Histogram, P2Quantile, Summary, Welford};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Topology};
pub use trace::{Trace, TraceEntry};
