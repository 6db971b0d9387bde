//! LZSS-style byte-level lossless compressor (the ZSTD substitute).
//!
//! Plays the role ZSTD plays in the paper's pipeline: a generic lossless pass
//! over the entropy-coded quantization indices and side channels. Hash-chain
//! match finding, greedy parsing, varint-coded (literal-run, match) tokens.
//! See DESIGN.md §5 for the substitution rationale.

use crate::stream::ByteReader;
use crate::varint::write_uvarint;
use crate::CodecError;

/// Minimum match length worth emitting (shorter matches cost more than literals).
const MIN_MATCH: usize = 4;
/// Maximum backward distance searched.
const WINDOW: usize = 1 << 20;
/// Hash-chain search depth bound (compression/speed trade-off).
const MAX_CHAIN: usize = 48;
/// Number of hash buckets (power of two).
const HASH_BITS: u32 = 16;

/// "No position" in the `u32` chain links.
const NONE: u32 = u32::MAX;

/// The 4-byte word at `i`, the unit the matcher hashes and pre-compares.
fn word_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + MIN_MATCH].try_into().expect("a MIN_MATCH-byte slice"))
}

/// Hash chains and presence filter of [`compress_into`], rebuilt per input;
/// only capacity carries over from one input to the next.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Most recent linked position per hash bucket.
    head: Vec<u32>,
    /// Per linked position, the previous one in its bucket.
    prev: Vec<u32>,
    /// One bit per hashed word (`filter_bits` of the hash), set for every
    /// position ever linked: a clear bit proves no linked position starts
    /// with the word at hand, so its chain holds no match of `MIN_MATCH`.
    seen: Vec<u64>,
    filter_bits: u32,
    /// Positions scanned / chain walks started (`codec.lz_{positions,walks}`).
    pub(crate) positions: u64,
    pub(crate) walks: u64,
}

impl Scratch {
    /// Hash bucket and filter bit of a word: the top `HASH_BITS` and the top
    /// `filter_bits` of one multiplicative hash.
    fn slots(&self, word: u32) -> (usize, usize) {
        let h = word.wrapping_mul(0x9E37_79B1);
        ((h >> (32 - HASH_BITS)) as usize, (h >> (32 - self.filter_bits)) as usize)
    }

    /// Link position `i` into its chain and mark its word as seen.
    fn link(&mut self, input: &[u8], i: usize) {
        let (bucket, bit) = self.slots(word_at(input, i));
        self.prev[i] = self.head[bucket];
        self.head[bucket] = i as u32;
        self.seen[bit >> 6] |= 1 << (bit & 63);
    }
}

/// Length of the common prefix of `x` and `y`, compared a word at a time.
/// Exactly equivalent to the byte-by-byte loop (the XOR's lowest set byte
/// pinpoints the first mismatch), just ~8× fewer iterations on the long
/// failed compares that dominate match finding over high-entropy input.
#[inline]
fn common_prefix(x: &[u8], y: &[u8]) -> usize {
    let n = x.len().min(y.len());
    let mut l = 0usize;
    while l + 8 <= n {
        let a = u64::from_le_bytes(x[l..l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(y[l..l + 8].try_into().unwrap());
        let d = a ^ b;
        if d != 0 {
            return l + (d.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < n && x[l] == y[l] {
        l += 1;
    }
    l
}

/// Compress `input`; output is self-describing and decoded by [`decompress`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, &mut Scratch::default(), &mut out);
    out
}

/// [`compress`] into `out` (cleared first) with the caller's working memory.
/// Inputs are entropy-coded blocks: positions are `u32`.
pub(crate) fn compress_into(input: &[u8], t: &mut Scratch, out: &mut Vec<u8>) {
    assert!(input.len() < NONE as usize, "lz: input of 4 GiB or more");
    out.clear();
    out.reserve(input.len() / 2 + 16);
    write_uvarint(out, input.len() as u64);
    if input.is_empty() {
        return;
    }
    t.head.clear();
    t.head.resize(1 << HASH_BITS, NONE);
    t.prev.clear();
    t.prev.resize(input.len(), NONE);
    // Sixteen filter bits per input byte keep false positives rare.
    let bits = input.len().saturating_mul(16).next_power_of_two().clamp(1 << 12, 1 << 22);
    t.filter_bits = bits.trailing_zeros();
    t.seen.clear();
    t.seen.resize(bits / 64, 0);
    // Positions below `words_end` start a full `MIN_MATCH`-byte word.
    let words_end = input.len().saturating_sub(MIN_MATCH - 1);

    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < words_end {
            t.positions += 1;
            let word = word_at(input, i);
            let (bucket, bit) = t.slots(word);
            // A clear filter bit: the walk could only end in a literal.
            let seen = t.seen[bit >> 6] >> (bit & 63) & 1 != 0;
            let mut cand = if seen { t.head[bucket] } else { NONE };
            t.walks += (cand != NONE) as u64;
            let mut depth = 0;
            while cand != NONE && depth < MAX_CHAIN {
                let c = cand as usize;
                let dist = i - c;
                if dist > WINDOW {
                    break;
                }
                // A candidate that differs in its first word matches fewer
                // than `MIN_MATCH` bytes: never emitted, never hiding a longer
                // one. Cheap reject: the rest must beat the best at its tail.
                let beats_tail =
                    i + best_len < input.len() && input[c + best_len] == input[i + best_len];
                if word_at(input, c) == word && (best_len == 0 || beats_tail) {
                    let limit = input.len() - i;
                    let l = common_prefix(&input[c..c + limit], &input[i..]);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l >= 512 {
                            break; // long enough; stop searching
                        }
                    }
                }
                cand = t.prev[c];
                depth += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Emit pending literals, then the match token.
            write_uvarint(out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            write_uvarint(out, best_len as u64);
            write_uvarint(out, best_dist as u64);
            // Insert the match positions into the chains (sparsely for speed).
            let step = if best_len > 64 { 4 } else { 1 };
            for j in (i..(i + best_len).min(words_end)).step_by(step) {
                t.link(input, j);
            }
            i += best_len;
            lit_start = i;
        } else {
            if i < words_end {
                t.link(input, i);
            }
            i += 1;
        }
    }
    // Trailing literal run with a zero-length "match" sentinel omitted: the
    // decoder stops when the declared output length is reached.
    write_uvarint(out, (i - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..i]);
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    decompress_capped(bytes, usize::MAX)
}

/// [`decompress`] with a ceiling on the output the caller will accept.
///
/// Overlapping matches let a few input bytes legally expand into an output
/// bounded only by the declared length, so callers that know how large a
/// plausible payload can be (e.g. entropy-coded blocks for a declared symbol
/// count) pass that bound here and oversized claims fail before the copy
/// loop runs.
pub fn decompress_capped(bytes: &[u8], max_out: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_capped_into(bytes, max_out, &mut out)?;
    Ok(out)
}

/// [`decompress_capped`] into `out` (cleared first).
pub(crate) fn decompress_capped_into(
    bytes: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.clear();
    let mut r = ByteReader::new(bytes);
    let out_len = r.get_uvarint()? as usize;
    if out_len > max_out {
        return Err(CodecError::Corrupt("lz: output length exceeds caller cap"));
    }
    // Cap the speculative allocation: a corrupted header may claim any
    // length, but real memory is only committed as tokens actually decode.
    out.reserve(out_len.min(1 << 24));
    while out.len() < out_len {
        let lit_len = r.get_uvarint()? as usize;
        if lit_len > out_len - out.len() {
            return Err(CodecError::Corrupt("lz: literal run exceeds output length"));
        }
        out.extend_from_slice(r.get_bytes(lit_len)?);
        if out.len() == out_len {
            break;
        }
        let match_len = r.get_uvarint()? as usize;
        let dist = r.get_uvarint()? as usize;
        if match_len < MIN_MATCH {
            return Err(CodecError::Corrupt("lz: match too short"));
        }
        if dist == 0 || dist > out.len() {
            return Err(CodecError::Corrupt("lz: distance out of range"));
        }
        if match_len > out_len - out.len() {
            return Err(CodecError::Corrupt("lz: match exceeds output length"));
        }
        // Overlapping copies are legal (run-length-style matches).
        let start = out.len() - dist;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ByteWriter;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).expect("decompress"), data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn tiny() {
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn all_same_byte_compresses_hard() {
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 200, "RLE-style input should collapse, got {}", c.len());
        roundtrip(&data);
    }

    #[test]
    fn repeated_pattern() {
        let data: Vec<u8> = b"the quick brown fox ".iter().copied().cycle().take(10_000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "got {}", c.len());
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match() {
        // "abcabcabc..." forces dist < match_len copies.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn incompressible_random() {
        let mut state = 12345u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let c = compress(&data);
        // Expansion bounded by token overhead.
        assert!(c.len() < data.len() + data.len() / 8 + 32);
        roundtrip(&data);
    }

    #[test]
    fn structured_then_random() {
        let mut data = vec![0u8; 10_000];
        let mut state = 999u64;
        data.extend((0..10_000).map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 48) as u8
        }));
        roundtrip(&data);
    }

    #[test]
    fn truncated_errors() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in 0..c.len() {
            // Safety property: a truncated stream must never panic and never
            // yield *wrong* data (the final sentinel byte is redundant, so the
            // last cut may legitimately still decode to the exact input).
            if let Ok(d) = decompress(&c[..cut]) { assert_eq!(d, data, "cut {cut} produced wrong data") }
        }
    }

    #[test]
    fn corrupt_distance_rejected() {
        let mut w = ByteWriter::new();
        w.put_uvarint(20); // out_len
        w.put_uvarint(2); // 2 literals
        w.put_bytes(b"ab");
        w.put_uvarint(8); // match len
        w.put_uvarint(100); // distance beyond what's decoded
        assert!(decompress(&w.finish()).is_err());
    }

    #[test]
    fn corrupt_literal_overrun_rejected() {
        let mut w = ByteWriter::new();
        w.put_uvarint(3); // out_len
        w.put_uvarint(10); // claims 10 literals for a 3-byte output
        w.put_bytes(b"0123456789");
        assert!(decompress(&w.finish()).is_err());
    }
}
