//! # coic-render
//!
//! 3D rendering substrate for the CoIC reproduction, built from scratch:
//!
//! * [`math`] — vectors, matrices, camera transforms,
//! * [`mesh`] — indexed triangle meshes with validation,
//! * [`procgen`] — procedural models at controllable sizes (Fig. 2b sweeps
//!   model size),
//! * [`mod@format`] — CMF, a checksummed binary model container whose parse
//!   cost is real and size-proportional,
//! * [`loader`] — model loading with per-tier cost accounting (the "load
//!   latency" Fig. 2b measures),
//! * [`raster`] — a z-buffered software rasterizer proving cached models
//!   are drawable,
//! * [`output`] — PGM/PPM writers so experiments dump viewable artifacts,
//! * [`scene`] — scene graph + camera for the AR-annotation application,
//! * [`panorama`] — equirectangular VR frames and viewport cropping,
//! * [`cubemap`] — render real scenes into cubemaps and project them to
//!   equirect panoramas (the cloud side of the VR pipeline, done for real).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cubemap;
pub mod format;
pub mod loader;
pub mod math;
pub mod mesh;
pub mod output;
pub mod panorama;
pub mod procgen;
pub mod raster;
pub mod scene;

pub use cubemap::{cubemap_to_equirect, render_cubemap, render_equirect, sample_cubemap};
pub use format::{decode, encode, encoded_size, CmfError};
pub use loader::{load_cmf, LoadCostModel, LoadedModel};
pub use math::{Mat4, Vec3, Vec4};
pub use mesh::{Aabb, Mesh, MeshError, Vertex};
pub use output::{decode_pgm, encode_pgm, write_framebuffer_pgm, write_pgm};
pub use panorama::Panorama;
pub use raster::{draw, DrawStats, Framebuffer};
pub use scene::{Camera, Instance, Scene};
