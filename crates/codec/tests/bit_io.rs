//! Property suite for the word-batched bit I/O layer.
//!
//! The writer packs codes into a 64-bit staging word and flushes whole words;
//! the reader tops its window up from a whole word at any alignment. These
//! tests pin the pair against arbitrary (length ≤ 64, value) sequences —
//! round-trips, flush-at-partial-word, empty streams, exactly-64-bit
//! boundaries — and cross-check the emitted bytes against
//! [`ScalarBitWriter`], the per-byte writer the library used before word
//! batching (it caps at 57 bits per call, as it always did), and every read,
//! peek, consume and end of input against [`ScalarBitReader`], one bit at a
//! time, from every start alignment and across the last 8 bytes.

use proptest::prelude::*;
use qip_codec::{BitReader, BitWriter};

fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Per-byte reference implementation of the bit writer. Supports `n ≤ 57`
/// per call.
#[derive(Debug, Default)]
struct ScalarBitWriter {
    buf: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl ScalarBitWriter {
    fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (MSB first). `n ≤ 57`.
    fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "reference writer supports at most 57 bits per call");
        self.acc = (self.acc << n) | (value & mask(n));
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Flush (zero-padding the final partial byte) and return the buffer.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.buf.push(self.acc as u8);
            self.nbits = 0;
        }
        self.buf
    }
}

/// Per-bit reference implementation of the bit reader: a position in the
/// bit string, nothing buffered.
struct ScalarBitReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl ScalarBitReader<'_> {
    fn bits_remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// The next `n` bits, zeros past the end of the data.
    fn peek_bits(&self, n: u32) -> u64 {
        (self.pos..self.pos + n as usize).fold(0, |v, bit| {
            let byte = self.data.get(bit / 8).copied().unwrap_or(0);
            v << 1 | (byte >> (7 - bit % 8) & 1) as u64
        })
    }

    fn consume(&mut self, n: u32) -> Result<(), ()> {
        if n as usize > self.bits_remaining() {
            return Err(());
        }
        self.pos += n as usize;
        Ok(())
    }

    fn read_bits(&mut self, n: u32) -> Result<u64, ()> {
        let v = self.peek_bits(n);
        self.consume(n).map(|()| v)
    }
}

/// Drive the reader and the per-bit reference through the same operations
/// — `op % 3`: read, peek + consume, peek alone; widths as given, clamped to
/// what the operation takes — until the reference runs dry, then once more.
fn assert_reads_alike(bytes: &[u8], start: u32, ops: &[(u8, u32)]) {
    let mut fast = BitReader::new(bytes);
    let mut slow = ScalarBitReader { data: bytes, pos: 0 };
    assert_eq!(fast.read_bits(start).ok(), slow.read_bits(start).ok(), "start alignment {start}");
    for &(op, n) in ops {
        let at = slow.pos;
        match op % 3 {
            0 => assert_eq!(fast.read_bits(n).ok(), slow.read_bits(n).ok(), "read {n} at bit {at}"),
            1 => {
                let n = n.min(32);
                assert_eq!(fast.peek_bits(n), slow.peek_bits(n), "peek {n} at bit {at}");
                assert_eq!(fast.consume(n).ok(), slow.consume(n).ok(), "consume {n} at bit {at}");
            }
            _ => assert_eq!(fast.peek_bits(n.min(32)), slow.peek_bits(n.min(32)), "peek {n} at bit {at}"),
        }
        assert_eq!(fast.bits_remaining(), slow.bits_remaining(), "remaining behind bit {at}");
    }
}

proptest! {
    /// Any mix of reads, peeks and consumes sees the bits the per-bit
    /// reference sees, from every start alignment, through the end of the
    /// input and past it.
    #[test]
    fn reader_matches_per_bit_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
        ops in proptest::collection::vec((any::<u8>(), 0u32..57), 0..120),
    ) {
        for start in 0..64 {
            assert_reads_alike(&bytes, start.min(bytes.len() as u32 * 8), &ops);
        }
    }

    /// Arbitrary (width ≤ 64, value) sequences round-trip exactly.
    #[test]
    fn roundtrip_arbitrary_sequences(seq in proptest::collection::vec((0u32..65, any::<u64>()), 0..200)) {
        let mut w = BitWriter::new();
        for &(n, v) in &seq {
            w.write_bits(v, n);
        }
        let total_bits: usize = seq.iter().map(|&(n, _)| n as usize).sum();
        prop_assert_eq!(w.bit_len(), total_bits);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len(), total_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(n, v) in &seq {
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask(n));
        }
        // Whatever padding remains must be zero bits and then EOF.
        let pad = bytes.len() * 8 - total_bits;
        if pad > 0 {
            prop_assert_eq!(r.read_bits(pad as u32).unwrap(), 0);
        }
        prop_assert!(r.read_bits(1).is_err());
    }

    /// The word-batched writer emits the exact bytes of the per-byte
    /// reference path for every sequence the reference supports (n ≤ 57).
    #[test]
    fn matches_per_byte_reference(seq in proptest::collection::vec((0u32..58, any::<u64>()), 0..200)) {
        let mut fast = BitWriter::new();
        let mut reference = ScalarBitWriter::new();
        for &(n, v) in &seq {
            fast.write_bits(v, n);
            reference.write_bits(v, n);
        }
        prop_assert_eq!(fast.finish(), reference.finish());
    }

    /// Reads may be split differently than writes: any re-chunking of the
    /// bit stream must read back the same concatenation.
    #[test]
    fn rechunked_reads_see_same_bits(
        words in proptest::collection::vec(any::<u64>(), 1..16),
        splits in proptest::collection::vec(1u32..65, 1..80),
    ) {
        let mut w = BitWriter::new();
        for &v in &words {
            w.write_bits(v, 64);
        }
        let bytes = w.finish();
        let total = words.len() * 64;
        let mut r = BitReader::new(&bytes);
        let mut consumed = 0usize;
        let mut got: Vec<(u32, u64)> = Vec::new();
        for &n in &splits {
            let n = (n as usize).min(total - consumed) as u32;
            if n == 0 { break; }
            got.push((n, r.read_bits(n).unwrap()));
            consumed += n as usize;
        }
        // Reassemble and compare against the source words bit for bit.
        let mut bit = 0usize;
        for (n, v) in got {
            for k in (0..n).rev() {
                let expect = words[bit / 64] >> (63 - bit % 64) & 1;
                prop_assert_eq!(v >> k & 1, expect, "bit {}", bit);
                bit += 1;
            }
        }
    }
}

/// Reads of every width that start before the last 8 bytes and end inside
/// them, at them, or past them: the word refill gives way to the byte tail.
#[test]
fn reads_straddling_the_last_word() {
    let bytes: Vec<u8> = (0..40u32).map(|i| (i * 151 + 43) as u8).collect();
    for len in 8..=bytes.len() {
        let bytes = &bytes[..len];
        let tail = (len - 8) as u32 * 8;
        for before in 1..=56.min(tail) {
            for width in [1, 7, 8, 9, 31, 32, 33, 56, 57, 63, 64] {
                // Up to the start of the read in steps of 56, then the read,
                // then whatever is left, bit by bit.
                let mut ops = vec![(0u8, 56); ((tail - before) / 56) as usize];
                ops.push((0, (tail - before) % 56));
                ops.push((0, width));
                ops.extend(std::iter::repeat_n((1, 1), 70));
                assert_reads_alike(bytes, 0, &ops);
            }
        }
    }
}

#[test]
fn empty_stream() {
    let bytes = BitWriter::new().finish();
    assert!(bytes.is_empty());
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.bits_remaining(), 0);
    assert!(r.read_bits(1).is_err());
    assert_eq!(r.read_bits(0).unwrap(), 0);
}

#[test]
fn exactly_64_bit_boundary() {
    // One full word: the writer must flush exactly 8 bytes with an empty
    // accumulator, and the reader must refill wholesale.
    let v = 0xDEAD_BEEF_CAFE_F00Du64;
    let mut w = BitWriter::new();
    w.write_bits(v, 64);
    assert_eq!(w.bit_len(), 64);
    let bytes = w.finish();
    assert_eq!(bytes, v.to_be_bytes());
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.read_bits(64).unwrap(), v);
    assert!(r.read_bits(1).is_err());

    // Two words written as 64+64, read as 32+64+32 (straddles the boundary).
    let mut w = BitWriter::new();
    w.write_bits(v, 64);
    w.write_bits(!v, 64);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.read_bits(32).unwrap(), v >> 32);
    assert_eq!(r.read_bits(64).unwrap(), (v & 0xFFFF_FFFF) << 32 | (!v) >> 32);
    assert_eq!(r.read_bits(32).unwrap(), !v & 0xFFFF_FFFF);
}

#[test]
fn flush_at_every_partial_word_phase() {
    // Flush with 1..=63 pending bits: padding must be zeros, payload intact.
    for pending in 1u32..=63 {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64); // fill and flush one whole word
        w.write_bits(u64::MAX, pending);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 8 + (pending as usize).div_ceil(8), "pending={pending}");
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(pending).unwrap(), mask(pending), "pending={pending}");
        let pad = bytes.len() * 8 - 64 - pending as usize;
        if pad > 0 {
            assert_eq!(r.read_bits(pad as u32).unwrap(), 0, "pending={pending}");
        }
        assert!(r.read_bits(1).is_err());
    }
}

#[test]
fn peek_never_consumes_and_pads() {
    let mut w = BitWriter::new();
    w.write_bits(0b1_0110_1101, 9);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for _ in 0..3 {
        assert_eq!(r.peek_bits(9), 0b1_0110_1101 << 7 >> 7); // 9 bits, value preserved
    }
    r.consume(9).unwrap();
    // 7 padding bits remain; peeking 16 zero-pads past the end.
    assert_eq!(r.peek_bits(16), 0);
}
