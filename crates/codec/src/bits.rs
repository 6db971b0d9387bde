//! MSB-first bit-level I/O, batched through 64-bit staging words.
//!
//! The writer packs codes into a `u64` accumulator and flushes whole
//! big-endian words (8 bytes at a time) instead of pushing byte-by-byte; the
//! reader refills its accumulator a word at a time whenever it runs dry on a
//! word boundary. Both produce/consume the exact MSB-first bit concatenation
//! the original per-byte implementation used, so streams are byte-identical —
//! pinned by the `bit_io` property suite against the per-byte writer it keeps
//! as its reference.

use crate::CodecError;

/// Mask with the low `n` bits set (`n ≤ 64`).
#[inline]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Accumulates bits MSB-first into a byte buffer, flushing whole 64-bit words.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Low `nbits` bits are pending output (MSB of the pending run first).
    acc: u64,
    /// Invariant: `nbits ≤ 63` between calls.
    nbits: u32,
}

impl BitWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer that appends after the bytes already in `buf` (and into its
    /// capacity), so a bit stream lands directly behind its byte header.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        BitWriter { buf, acc: 0, nbits: 0 }
    }

    /// Append the low `n` bits of `value` (MSB of those bits first). `n ≤ 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64, "write_bits supports at most 64 bits per call");
        if n == 0 {
            return;
        }
        let v = value & low_mask(n);
        let free = 64 - self.nbits;
        if n < free {
            self.acc = (self.acc << n) | v;
            self.nbits += n;
        } else {
            // The accumulator fills exactly: emit one whole word and keep the
            // overflowing low bits. `free ≥ 1` (nbits ≤ 63), so `over ≤ 63`.
            let over = n - free;
            let hi = v >> over;
            let word = if free == 64 { hi } else { (self.acc << free) | hi };
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = v & low_mask(over);
            self.nbits = over;
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of bits in the buffer so far (any bytes it started with included).
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Flush (zero-padding the final partial byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            self.buf.push(((self.acc << (8 - self.nbits)) & 0xFF) as u8);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice, refilling by 64-bit words where
/// alignment allows.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    byte_pos: usize,
    /// Low `nbits` bits are buffered input.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, byte_pos: 0, acc: 0, nbits: 0 }
    }

    /// Refill the accumulator so it holds at least `n` bits (or all remaining).
    #[inline]
    fn refill(&mut self, n: u32) {
        if self.nbits >= n {
            return;
        }
        if self.nbits == 0 {
            // Empty accumulator: grab a whole word when one is available.
            if let Some(chunk) = self.data.get(self.byte_pos..self.byte_pos + 8) {
                self.acc = u64::from_be_bytes(chunk.try_into().expect("8-byte slice"));
                self.byte_pos += 8;
                self.nbits = 64;
                return;
            }
        }
        while self.nbits < n && self.nbits <= 56 && self.byte_pos < self.data.len() {
            self.acc = (self.acc << 8) | self.data[self.byte_pos] as u64;
            self.byte_pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n ≤ 64` bits; errors on exhausted input.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if n > 57 {
            // Wide reads may not fit the accumulator at odd alignment: split.
            let hi = self.read_bits(n - 32)?;
            let lo = self.read_bits(32)?;
            return Ok((hi << 32) | lo);
        }
        self.refill(n);
        if self.nbits < n {
            return Err(CodecError::UnexpectedEof);
        }
        self.nbits -= n;
        let v = (self.acc >> self.nbits) & low_mask(n);
        Ok(v)
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Peek up to `n ≤ 32` bits without consuming; missing bits are zero-padded
    /// (used by table-driven Huffman decoding near the end of the stream).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 32);
        self.refill(n);
        if self.nbits >= n {
            (self.acc >> (self.nbits - n)) & low_mask(n)
        } else {
            // Left-align what we have inside an n-bit window.
            let have = self.nbits;
            let v = if have == 0 { 0 } else { self.acc & low_mask(have) };
            v << (n - have)
        }
    }

    /// Consume `n` bits previously peeked. Errors if fewer remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CodecError> {
        self.refill(n);
        if self.nbits < n {
            return Err(CodecError::UnexpectedEof);
        }
        self.nbits -= n;
        Ok(())
    }

    /// Number of whole bits remaining.
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() - self.byte_pos) * 8 + self.nbits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b1111_0000, 8);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b1111_0000);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn roundtrip_many_widths() {
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for n in 1..=57u32 {
            let v = (0x0123_4567_89AB_CDEFu64) & low_mask(n);
            w.write_bits(v, n);
            expect.push((v, n));
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn roundtrip_full_word_widths() {
        // Widths 58..=64 exceed the historical 57-bit ceiling.
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for n in 58..=64u32 {
            let v = 0xFEDC_BA98_7654_3210u64 & low_mask(n);
            w.write_bits(v, n);
            expect.push((v, n));
        }
        w.write_bits(0b1, 1); // unaligned tail after wide writes
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn eof_detected() {
        let bytes = BitWriter::new().finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn eof_partial() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(5).unwrap(), 0b10101);
        assert_eq!(r.read_bits(5), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn peek_and_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1100_1010, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1100);
        assert_eq!(r.peek_bits(4), 0b1100); // peek does not consume
        r.consume(2).unwrap();
        assert_eq!(r.peek_bits(4), 0b0010);
        r.consume(6).unwrap();
        assert!(r.consume(1).is_err());
    }

    #[test]
    fn peek_pads_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish(); // one byte: 1000_0000
        let mut r = BitReader::new(&bytes);
        r.consume(8).unwrap();
        assert_eq!(r.peek_bits(8), 0); // zero-padded
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
    }
}
