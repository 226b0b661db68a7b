//! CRC-32 (IEEE 802.3) — the workspace's one checksum kernel.
//!
//! It guards every transport frame (`rt`: `FrameConn::send`/`recv`,
//! `encode_frame`, `FrameDecoder`) and every CMF model file
//! (`coic_render::format`). This file is the only copy: netsim re-exports
//! it as `coic_netsim::rt::crc32`, and `coic-render` compiles the same
//! file in through a `#[path]` module, because render is a sans-IO leaf
//! crate that takes no dependency on the transport. The file therefore
//! depends on nothing but `core`.

/// Reflected IEEE 802.3 polynomial (the CRC-32 of zlib, PNG and Ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables, built at compile time. `T[0]` is the
/// classic bytewise table; `T[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so sixteen lookups advance the register by a whole
/// 16-byte block.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `data`, as carried in the frame header and the CMF
/// trailer — the workspace's one CRC kernel.
///
/// Slicing-by-16: each step folds the register into the next 16 bytes,
/// read as four little-endian words, and replaces it with the XOR of
/// sixteen table lookups, one per byte; the last `len % 16` bytes go
/// through `T[0]` one at a time. The output is the plain IEEE CRC-32
/// (`crc32(b"123456789") == 0xCBF4_3926`).
///
/// There is deliberately no hardware path: the workspace is
/// `forbid(unsafe_code)`, so intrinsics are out, and the SSE4.2 `crc32`
/// instruction computes CRC-32C (Castagnoli), a different polynomial
/// that would change every checksum on the wire.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let w0 = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}
