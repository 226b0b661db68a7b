//! # CoIC — Immersion on the Edge
//!
//! A from-scratch Rust reproduction of *"Immersion on the Edge: A
//! Cooperative Framework for Mobile Immersive Computing"* (Lai, Cui, Wang,
//! Hu — SIGCOMM Posters & Demos 2018).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the CoIC framework (descriptors, protocol, client/edge/
//!   cloud services, simulation and live-TCP drivers, QoE reporting, §4
//!   extensions),
//! * [`netsim`] — deterministic discrete-event network simulator + framed
//!   TCP transport,
//! * [`vision`] — synthetic vision substrate (scenes, SimNet features,
//!   NN indexes, classifier),
//! * [`render`] — 3D substrate (meshes, CMF format, loader, software
//!   rasterizer, panoramas),
//! * [`cache`] — the edge cache (digests, eviction policies, exact and
//!   approximate indexes),
//! * [`obs`] — the unified observability layer (metrics registry,
//!   structured trace, canonical exporters),
//! * [`workload`] — Zipf/arrival/mobility workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use coic::core::{compare, SimConfig};
//! use coic::workload::{Population, SafeDrivingAr, ZoneId, ZoneModel};
//!
//! // Four co-located users running a safe-driving AR app.
//! let trace = SafeDrivingAr {
//!     population: Population::colocated(4, ZoneId(0)),
//!     zones: ZoneModel::new(1, 8, 1.0, 3),
//!     rate_per_sec: 5.0,
//!     zipf_s: 0.9,
//!     total_requests: 24,
//! }
//! .generate(7);
//!
//! let cfg = SimConfig { num_clients: 4, ..SimConfig::default() };
//! let (origin, coic, reduction) = compare(&trace, &cfg);
//! assert!(coic.mean_latency_ms() <= origin.mean_latency_ms());
//! println!("CoIC reduces mean latency by {reduction:.1}%");
//! ```

#![forbid(unsafe_code)]

pub use coic_cache as cache;
pub use coic_core as core;
pub use coic_netsim as netsim;
pub use coic_obs as obs;
pub use coic_render as render;
pub use coic_vision as vision;
pub use coic_workload as workload;
