//! Stream integrity: a CRC32 trailer sealed onto every compressed stream.
//!
//! Interpolation-based streams are brittle under bit rot: a single flipped
//! bit in an entropy-coded payload usually still parses and silently decodes
//! to garbage. Every outer compressor therefore appends a trailer —
//! `crc32(payload) (4 bytes LE) || 0xC4 0x51` — in [`seal`], and verifies it
//! in [`check`] before any header or payload parsing happens. A mismatch is
//! reported as [`CompressError::Corrupt`] carrying the failed check's name.
//!
//! The CRC is the reflected IEEE polynomial (the one used by zlib, PNG and
//! Ethernet), implemented here directly so the workspace stays free of
//! external dependencies.

use crate::CompressError;

/// Trailer magic: distinguishes "sealed stream with bad CRC" from "stream
/// that never carried a trailer" in error messages.
pub const TRAILER_MAGIC: [u8; 2] = [0xC4, 0x51];

/// Total bytes [`seal`] appends to a stream.
pub const TRAILER_LEN: usize = 6;

/// Reflected IEEE CRC32 (polynomial `0xEDB88320`), init and xor-out `!0`,
/// eight input bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = build_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Append the integrity trailer to a finished stream.
pub fn seal(mut stream: Vec<u8>) -> Vec<u8> {
    seal_in_place(&mut stream);
    stream
}

/// Append the integrity trailer to a stream in place.
///
/// The buffer-reusing `compress_into` paths use this to seal the caller's
/// output vector without an intermediate move through [`seal`].
pub fn seal_in_place(stream: &mut Vec<u8>) {
    let crc = crc32(stream);
    stream.extend_from_slice(&crc.to_le_bytes());
    stream.extend_from_slice(&TRAILER_MAGIC);
}

/// Verify the integrity trailer and return the payload it covers.
///
/// Runs before any parsing, so corrupted streams are rejected up front with
/// [`CompressError::Corrupt`] instead of reaching the decoders.
pub fn check(bytes: &[u8]) -> Result<&[u8], CompressError> {
    if bytes.len() < TRAILER_LEN {
        return Err(CompressError::Corrupt("stream shorter than integrity trailer"));
    }
    let (rest, magic) = bytes.split_at(bytes.len() - TRAILER_MAGIC.len());
    if magic != TRAILER_MAGIC {
        return Err(CompressError::Corrupt("missing integrity trailer"));
    }
    let (payload, crc_bytes) = rest.split_at(rest.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
    if crc32(payload) != stored {
        return Err(CompressError::Corrupt("CRC32 mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table bytewise loop the sliced implementation must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = build_tables()[0];
        !data.iter().fold(!0u32, |crc, &b| (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize])
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_loop() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut buf = vec![0u8; 4096 + 7];
        for b in &mut buf {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            *b = (state >> 56) as u8;
        }
        // Every length 0..=64 at every alignment of the 8-byte step, then
        // longer random buffers.
        for len in 0..=64 {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
        for len in [65, 255, 256, 1000, 4096, 4096 + 7] {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_then_check_roundtrips() {
        let payload = vec![7u8; 100];
        let sealed = seal(payload.clone());
        assert_eq!(sealed.len(), payload.len() + TRAILER_LEN);
        assert_eq!(check(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let sealed = seal((0u8..64).collect());
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    check(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncations_are_caught() {
        let sealed = seal(vec![1, 2, 3, 4, 5]);
        for cut in 0..sealed.len() {
            assert!(check(&sealed[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn empty_payload_seals() {
        let sealed = seal(Vec::new());
        assert_eq!(check(&sealed).unwrap(), &[] as &[u8]);
    }
}
