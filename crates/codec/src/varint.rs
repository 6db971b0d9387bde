//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! Used for compact headers (symbol tables, match lengths, outlier records).

use crate::CodecError;

/// Append `v` as unsigned LEB128.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_uvarint`] takes for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (u64::BITS - v.max(1).leading_zeros()).div_ceil(7) as usize
}

/// Decode unsigned LEB128 starting at `pos`; advances `pos`.
pub fn read_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::Corrupt("uvarint overflow"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag map: interleaves signed values into unsigned (0,-1,1,-2,2 → 0,1,2,3,4).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as zigzag LEB128.
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag(v));
}

/// Decode zigzag LEB128 starting at `pos`; advances `pos`.
pub fn read_ivarint(data: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    Ok(unzigzag(read_uvarint(data, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip() {
        let samples =
            [0u64, 1, 127, 128, 255, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &samples {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_single_byte_for_small() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn uvarint_truncated_errors() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(read_uvarint(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn uvarint_overflow_detected() {
        // 11 continuation bytes encode > 64 bits.
        let buf = vec![0x80u8; 10];
        let mut pos = 0;
        assert!(read_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_pairs() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(2), 4);
        for v in [-1_000_000i64, -1, 0, 1, 7, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn ivarint_roundtrip() {
        for &v in &[0i64, -1, 1, -300, 300, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }
}
