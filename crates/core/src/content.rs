//! Shared content universe: models and panoramas, with their digests.
//!
//! All nodes derive content deterministically from ids (the substitution
//! for the paper's real model files and video frames), so a client can
//! know the hash of "the avatar model for player 7" without downloading
//! it, exactly as a real app knows asset hashes from its manifest.

use bytes::Bytes;
use coic_cache::Digest;
use coic_render::{encode, procgen, Mat4, Panorama, Scene, Vec3};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One library entry: built once, by the first caller to ask for it.
type Slot = Arc<OnceLock<(Bytes, Digest)>>;

/// Lazily generated, process-wide library of CMF model bytes.
///
/// Generation is deterministic in `(model_id, size_bytes)`, so every node
/// sharing a library (or even two distinct libraries) agrees on content
/// and digest.
pub struct ModelLibrary {
    entries: Mutex<HashMap<(u64, u64), Slot>>,
}

impl Default for ModelLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelLibrary {
    /// Create an empty library.
    pub fn new() -> Self {
        ModelLibrary {
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// CMF bytes and digest for a model, generating on first use.
    ///
    /// Generation (tens of milliseconds for a megabyte model) runs in the
    /// model's own slot, outside the library lock: a lookup of another
    /// model never waits behind a cold build, and concurrent callers of the
    /// same cold model wait for one build instead of each running their own.
    pub fn get(&self, model_id: u64, size_bytes: u64) -> (Bytes, Digest) {
        let slot = Slot::clone(
            self.entries
                .lock()
                .entry((model_id, size_bytes))
                .or_default(),
        );
        slot.get_or_init(|| {
            let bytes = encode(&procgen::model_of_size(size_bytes, model_id));
            let digest = Digest::of(&bytes);
            (bytes, digest)
        })
        .clone()
    }

    /// Just the digest (what the client's manifest would hold).
    pub fn digest(&self, model_id: u64, size_bytes: u64) -> Digest {
        self.get(model_id, size_bytes).1
    }

    /// Number of models generated (or being generated).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing was generated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

/// How panorama frames are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanoSource {
    /// Fast procedural synthesis (spherical wave bands).
    Procedural,
    /// Rasterize a deterministic 3D scene into a cubemap and project it —
    /// the real cloud-VR rendering path. `face_size` is the per-face
    /// resolution.
    Scene {
        /// Cubemap face resolution in pixels.
        face_size: u32,
    },
}

/// Build the deterministic VR world for one frame: a terrain floor and a
/// ring of avatars orbiting the viewer, advanced a step per frame (so
/// consecutive frames are distinct but related, like video).
fn frame_scene(frame_id: u64) -> Scene {
    let mut scene = Scene::new();
    let terrain = scene.add_model(procgen::terrain(24, 7, 0.6));
    scene.add_instance(
        terrain,
        Mat4::translate(Vec3::new(0.0, -1.2, 0.0)).mul(&Mat4::scale(Vec3::new(8.0, 1.0, 8.0))),
    );
    let avatar = scene.add_model(procgen::avatar(1));
    let orbit = frame_id as f32 * 0.15;
    for i in 0..3 {
        let a = orbit + i as f32 * std::f32::consts::TAU / 3.0;
        scene.add_instance(
            avatar,
            Mat4::translate(Vec3::new(3.0 * a.cos(), -0.4, 3.0 * a.sin())).mul(&Mat4::rotate_y(-a)),
        );
    }
    scene
}

/// Lazily generated library of panorama frames.
pub struct PanoLibrary {
    height: u32,
    source: PanoSource,
    entries: Mutex<HashMap<u64, Slot>>,
}

impl PanoLibrary {
    /// Create a library synthesizing frames of the given equirect height
    /// (fast procedural source).
    pub fn new(height: u32) -> Self {
        Self::with_source(height, PanoSource::Procedural)
    }

    /// Create a library with an explicit frame source.
    pub fn with_source(height: u32, source: PanoSource) -> Self {
        PanoLibrary {
            height,
            source,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Frame height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Panorama bytes and digest for a frame, generating on first use.
    /// Like [`ModelLibrary::get`], generation runs in the frame's own slot,
    /// outside the library lock, once per frame.
    pub fn get(&self, frame_id: u64) -> (Bytes, Digest) {
        let slot = Slot::clone(self.entries.lock().entry(frame_id).or_default());
        slot.get_or_init(|| {
            let pano = match self.source {
                PanoSource::Procedural => Panorama::synthesize(frame_id, self.height),
                PanoSource::Scene { face_size } => coic_render::render_equirect(
                    &frame_scene(frame_id),
                    Vec3::new(0.0, 0.3, 0.0),
                    self.height,
                    face_size,
                ),
            };
            let bytes = Bytes::copy_from_slice(pano.bytes());
            let digest = Digest::of(&bytes);
            (bytes, digest)
        })
        .clone()
    }

    /// Just the digest.
    pub fn digest(&self, frame_id: u64) -> Digest {
        self.get(frame_id).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_render::load_cmf;

    #[test]
    fn two_libraries_agree_on_content() {
        let a = ModelLibrary::new();
        let b = ModelLibrary::new();
        let (bytes_a, dig_a) = a.get(7, 100_000);
        let (bytes_b, dig_b) = b.get(7, 100_000);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(dig_a, dig_b);
    }

    #[test]
    fn library_bytes_are_loadable_models() {
        let lib = ModelLibrary::new();
        let (bytes, _) = lib.get(3, 200_000);
        let loaded = load_cmf(&bytes).expect("library must produce valid CMF");
        loaded.mesh.validate().unwrap();
        // Size control within tolerance.
        let ratio = bytes.len() as f64 / 200_000.0;
        assert!((0.7..1.3).contains(&ratio), "size ratio {ratio}");
    }

    #[test]
    fn distinct_ids_distinct_digests() {
        let lib = ModelLibrary::new();
        assert_ne!(lib.digest(1, 100_000), lib.digest(2, 100_000));
        assert_ne!(lib.digest(1, 100_000), lib.digest(1, 200_000));
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn generation_is_cached() {
        let lib = ModelLibrary::new();
        let (a, _) = lib.get(5, 50_000);
        let (b, _) = lib.get(5, 50_000);
        assert_eq!(lib.len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_cold_gets_agree_and_count_once() {
        let models = ModelLibrary::new();
        let panos = PanoLibrary::new(64);
        let start = std::sync::Barrier::new(4);
        let got: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (models.get(11, 200_000), panos.get(4))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (model, pano) in &got[1..] {
            assert_eq!(model, &got[0].0);
            assert_eq!(pano, &got[0].1);
        }
        assert_eq!(got[0].0 .1, Digest::of(&got[0].0 .0));
        assert_eq!(got[0].1 .1, Digest::of(&got[0].1 .0));
        assert_eq!(models.len(), 1);
        assert_eq!(panos.entries.lock().len(), 1);
    }

    #[test]
    fn scene_rendered_panoramas_are_deterministic_and_animated() {
        let lib = PanoLibrary::with_source(64, PanoSource::Scene { face_size: 48 });
        let (a, da) = lib.get(0);
        let (b, _) = lib.get(0);
        assert_eq!(a, b);
        // Consecutive frames differ (the avatars orbit).
        let (c, dc) = lib.get(1);
        assert_ne!(a, c);
        assert_ne!(da, dc);
        // The frame actually contains rendered content.
        assert!(a.iter().any(|&p| p > 0), "scene panorama is black");
        assert_eq!(a.len(), 128 * 64);
    }

    #[test]
    fn pano_library_roundtrip() {
        let lib = PanoLibrary::new(64);
        let (bytes, dig) = lib.get(9);
        assert_eq!(bytes.len(), 128 * 64);
        assert_eq!(lib.digest(9), dig);
        assert_ne!(lib.digest(9), lib.digest(10));
        // Content matches direct synthesis.
        let direct = Panorama::synthesize(9, 64);
        assert_eq!(&bytes[..], direct.bytes());
    }
}
