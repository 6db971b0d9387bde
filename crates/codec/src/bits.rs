//! MSB-first bit-level I/O, batched through 64-bit staging words.
//!
//! The writer packs codes into a `u64` accumulator and flushes whole
//! big-endian words (8 bytes at a time) instead of pushing byte-by-byte; the
//! reader tops its window up from a whole word at any alignment. Both
//! produce/consume the exact MSB-first bit concatenation the original per-byte
//! implementation used, so streams are byte-identical — pinned by the `bit_io`
//! property suite against the per-byte writer and reader it keeps as its
//! references.

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

/// Reads bits MSB-first from a byte slice through a 64-bit window that is
/// refilled a whole word at a time, at any alignment.
///
/// The window is left-aligned: the stream's next bit is bit 63 of `acc`, and
/// `acc` as a whole is a prefix of the unread stream followed by zeros. The
/// top `nbits` of it are *counted*; a word refill may leave up to seven more
/// below them — the leading bits of `data[pos]`, which the next refill loads
/// again into the same place. So `nbits` never claims a bit that is not there,
/// `(len − pos) · 8 + nbits` is always the number of unread bits, and once the
/// data is exhausted everything below the counted bits is zero.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// First byte not yet counted into the window.
    pos: usize,
    acc: u64,
    /// Counted bits, at most 63.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Top the window up from a whole word at `pos`, whatever the alignment:
    /// 56 to 63 bits are counted afterwards. False, and nothing done, when
    /// fewer than 8 bytes lie behind `pos`.
    #[inline]
    pub(crate) fn refill_word(&mut self) -> bool {
        let Some(word) = self.data.get(self.pos..self.pos + 8) else {
            return false;
        };
        self.acc |= u64::from_be_bytes(word.try_into().expect("8-byte slice")) >> self.nbits;
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
        true
    }

    /// Refill as far as the data allows: at least 56 counted bits, or all
    /// that remain.
    #[inline]
    pub(crate) fn refill(&mut self) {
        if self.refill_word() {
            return;
        }
        while self.nbits < 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << (56 - self.nbits);
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Have `n ≤ 56` bits counted, or fail: the input holds fewer.
    #[inline]
    fn need(&mut self, n: u32) -> Result<(), CodecError> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(CodecError::UnexpectedEof);
            }
        }
        Ok(())
    }

    /// The window: the unread stream's next 64 bits, the first `buffered()`
    /// of them counted, zeros past the end of the data.
    #[inline]
    pub(crate) fn window(&self) -> u64 {
        self.acc
    }

    /// Counted bits in the window.
    #[inline]
    pub(crate) fn buffered(&self) -> u32 {
        self.nbits
    }

    /// Drop `n ≤ buffered()` bits, `n < 64`, from the window.
    #[inline]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc <<= n;
        self.nbits -= n;
    }

    /// Read `n ≤ 64` bits; errors on exhausted input.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if n > 56 {
            // A refill guarantees 56 bits, no more: split.
            let hi = self.read_bits(n - 32)?;
            let lo = self.read_bits(32)?;
            return Ok((hi << 32) | lo);
        }
        self.need(n)?;
        let v = self.acc >> (64 - n);
        self.skip(n);
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
        if n == 0 {
            return 0;
        }
        if self.nbits < n {
            self.refill();
        }
        self.acc >> (64 - n)
    }

    /// Consume `n ≤ 56` bits previously peeked. Errors if fewer remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CodecError> {
        self.need(n)?;
        self.skip(n);
        Ok(())
    }

    /// Number of whole bits remaining.
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() - self.pos) * 8 + self.nbits as usize
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
