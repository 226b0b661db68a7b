//! CMF — the CoIC Model Format.
//!
//! A small binary container for meshes with real parsing and integrity
//! checking, so "loading a 3D model" in the reproduction does the same kind
//! of work the paper's renderer did (read, validate, build in-memory
//! structures) with a cost proportional to model size.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    4 B   "CMF1"
//! version  2 B   format version (currently 1)
//! flags    2 B   reserved, must be 0
//! name_len 4 B   u32
//! n_verts  4 B   u32
//! n_idx    4 B   u32
//! name     name_len B (UTF-8)
//! verts    n_verts × 6 × f32 (pos.xyz, normal.xyz)
//! indices  n_idx × u32
//! crc32    4 B   CRC-32 (IEEE) over everything before this field
//! ```
//!
//! The trailer uses the same CRC-32 kernel as every transport frame
//! (`coic_netsim::rt::crc32`), so a model is checksummed by one
//! implementation from cloud build to client verify.

use crate::math::Vec3;
use crate::mesh::{Mesh, Vertex};
use bytes::{Buf, BufMut, Bytes, BytesMut};

// The transport's CRC-32 kernel, compiled in from its one source file
// (render is sans-IO and does not depend on coic-netsim).
#[path = "../../netsim/src/crc32.rs"]
mod crc32;
use crc32::crc32;

/// Magic bytes opening every CMF file.
pub const MAGIC: [u8; 4] = *b"CMF1";
/// Current format version.
pub const VERSION: u16 = 1;
/// Parser limit on vertex/index counts (guards against corrupt headers
/// causing huge allocations).
pub const MAX_ELEMENTS: u32 = 64_000_000;

/// CMF decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmfError {
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported version field.
    BadVersion(u16),
    /// Reserved flags were nonzero.
    BadFlags(u16),
    /// Buffer ended before the structure was complete.
    Truncated {
        /// Bytes needed to continue parsing.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Element count exceeded [`MAX_ELEMENTS`].
    TooLarge(u32),
    /// CRC-32 over the payload did not match the trailer.
    CrcMismatch {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// Model name was not valid UTF-8.
    BadName,
    /// Decoded mesh failed structural validation.
    InvalidMesh(String),
}

impl std::fmt::Display for CmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmfError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            CmfError::BadVersion(v) => write!(f, "unsupported CMF version {v}"),
            CmfError::BadFlags(x) => write!(f, "reserved flags set: {x:#06x}"),
            CmfError::Truncated { needed, have } => {
                write!(f, "truncated: need {needed} bytes, have {have}")
            }
            CmfError::TooLarge(n) => write!(f, "element count {n} exceeds limit"),
            CmfError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: file says {expected:#010x}, computed {actual:#010x}"
                )
            }
            CmfError::BadName => write!(f, "model name is not valid UTF-8"),
            CmfError::InvalidMesh(e) => write!(f, "decoded mesh invalid: {e}"),
        }
    }
}

impl std::error::Error for CmfError {}

/// Serialize a mesh to CMF bytes.
pub fn encode(mesh: &Mesh) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        24 + mesh.name.len() + mesh.vertices.len() * 24 + mesh.indices.len() * 4,
    );
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0);
    buf.put_u32_le(mesh.name.len() as u32);
    buf.put_u32_le(mesh.vertices.len() as u32);
    buf.put_u32_le(mesh.indices.len() as u32);
    buf.put_slice(mesh.name.as_bytes());
    for v in &mesh.vertices {
        buf.put_f32_le(v.pos.x);
        buf.put_f32_le(v.pos.y);
        buf.put_f32_le(v.pos.z);
        buf.put_f32_le(v.normal.x);
        buf.put_f32_le(v.normal.y);
        buf.put_f32_le(v.normal.z);
    }
    for &i in &mesh.indices {
        buf.put_u32_le(i);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// Size in bytes [`encode`] will produce for a mesh, without encoding it.
pub fn encoded_size(mesh: &Mesh) -> u64 {
    // 20-byte header + name + vertex/index payload + 4-byte CRC trailer.
    (20 + mesh.name.len() + mesh.vertices.len() * 24 + mesh.indices.len() * 4 + 4) as u64
}

fn need(buf: &impl Buf, n: usize) -> Result<(), CmfError> {
    if buf.remaining() < n {
        Err(CmfError::Truncated {
            needed: n,
            have: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Parse and validate CMF bytes into a mesh.
pub fn decode(data: &[u8]) -> Result<Mesh, CmfError> {
    // Check the CRC trailer over the whole payload first: a transport-level
    // corruption check before any structural interpretation.
    if data.len() < 28 {
        return Err(CmfError::Truncated {
            needed: 28,
            have: data.len(),
        });
    }
    let (payload, trailer) = data.split_at(data.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let actual = crc32(payload);
    if expected != actual {
        return Err(CmfError::CrcMismatch { expected, actual });
    }

    let mut buf = payload;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(CmfError::BadMagic(magic));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(CmfError::BadVersion(version));
    }
    let flags = buf.get_u16_le();
    if flags != 0 {
        return Err(CmfError::BadFlags(flags));
    }
    let name_len = buf.get_u32_le();
    let n_verts = buf.get_u32_le();
    let n_idx = buf.get_u32_le();
    if n_verts > MAX_ELEMENTS || n_idx > MAX_ELEMENTS || name_len > 4096 {
        return Err(CmfError::TooLarge(n_verts.max(n_idx).max(name_len)));
    }
    need(&buf, name_len as usize)?;
    let name_bytes = buf.copy_to_bytes(name_len as usize);
    let name = std::str::from_utf8(&name_bytes)
        .map_err(|_| CmfError::BadName)?
        .to_owned();
    need(&buf, n_verts as usize * 24)?;
    let mut vertices = Vec::with_capacity(n_verts as usize);
    for _ in 0..n_verts {
        let pos = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
        let normal = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
        vertices.push(Vertex { pos, normal });
    }
    need(&buf, n_idx as usize * 4)?;
    let mut indices = Vec::with_capacity(n_idx as usize);
    for _ in 0..n_idx {
        indices.push(buf.get_u32_le());
    }
    let mesh = Mesh::new(name, vertices, indices);
    mesh.validate()
        .map_err(|e| CmfError::InvalidMesh(e.to_string()))?;
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procgen;

    #[test]
    fn round_trip_preserves_mesh() {
        for mesh in [
            procgen::cube(),
            procgen::terrain(16, 3, 0.5),
            procgen::avatar(1),
        ] {
            let bytes = encode(&mesh);
            let back = decode(&bytes).unwrap();
            assert_eq!(back, mesh);
        }
    }

    #[test]
    fn encoded_size_is_exact() {
        for mesh in [procgen::cube(), procgen::terrain(12, 1, 0.2)] {
            assert_eq!(encode(&mesh).len() as u64, encoded_size(&mesh));
        }
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let mesh = procgen::cube();
        let bytes = encode(&mesh);
        for pos in [0usize, 10, bytes.len() / 2, bytes.len() - 5] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            match decode(&corrupt) {
                Err(CmfError::CrcMismatch { .. }) => {}
                other => panic!("flip at {pos}: expected CrcMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&procgen::cube());
        for keep in [0usize, 4, 27] {
            match decode(&bytes[..keep]) {
                Err(CmfError::Truncated { .. }) => {}
                other => panic!("keep {keep}: expected Truncated, got {other:?}"),
            }
        }
    }

    fn recrc(mut payload: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        payload
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = encode(&procgen::cube());
        let mut payload = bytes[..bytes.len() - 4].to_vec();
        payload[0] = b'X';
        match decode(&recrc(payload)) {
            Err(CmfError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_rejected() {
        let bytes = encode(&procgen::cube());
        let mut payload = bytes[..bytes.len() - 4].to_vec();
        payload[4] = 99;
        match decode(&recrc(payload)) {
            Err(CmfError::BadVersion(99)) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn huge_counts_rejected_before_allocation() {
        let bytes = encode(&procgen::cube());
        let mut payload = bytes[..bytes.len() - 4].to_vec();
        // n_verts field lives at offset 12.
        payload[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode(&recrc(payload)) {
            Err(CmfError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn invalid_mesh_structure_rejected() {
        // Encode a mesh with an out-of-range index by hand.
        let mut bad = procgen::cube();
        bad.indices[0] = 10_000;
        let bytes = encode(&bad);
        match decode(&bytes) {
            Err(CmfError::InvalidMesh(_)) => {}
            other => panic!("expected InvalidMesh, got {other:?}"),
        }
    }
}
