//! Forensics over an entropy-coded index block: where its bytes went and
//! what the symbols of a range cost.
//!
//! Nothing here reads a stream. The block's framing comes from
//! `lossless::parse` and a Huffman chunk's header from `huffman::parse` —
//! the functions the decoder itself calls — so a block inspects exactly when
//! it decodes, and the byte attribution telescopes off the parser's offsets:
//! `index.framing` (mode tags, chunk table), `index.tables` (Huffman
//! alphabets + code lengths) and `index.payload` spans tile the block. Bit
//! pricing is exact for `huff` chunks; `huff+lz` and range-coded chunks fall
//! back to a labelled estimate (`exact == false`).

use crate::stream::{Span, Spans};
use crate::{huffman, lossless, CodecError, Dest};
use std::collections::HashMap;

/// Byte attribution and price model of one entropy-coded index block.
#[derive(Debug, Clone)]
pub struct IndexForensics {
    /// `index.framing` / `index.tables` / `index.payload` spans, in stream
    /// order; they tile the block.
    pub spans: Vec<Span>,
    /// Per-chunk price model, in symbol order.
    chunks: Vec<ChunkPrice>,
}

/// What the symbols of one independently coded chunk cost (the whole block,
/// for the flat single-chunk layout, whose `symbols` is the caller's cap).
#[derive(Debug, Clone)]
struct ChunkPrice {
    /// Plain Huffman, the one mode priced exactly.
    exact: bool,
    first_symbol: usize,
    symbols: usize,
    /// Tag + header + payload, and the entropy payload alone.
    bytes: u64,
    payload_bytes: u64,
    /// Code length per symbol: exact stream bits for `huff`, pre-LZ bits for
    /// `huff+lz`, whose Huffman stream was `pre_lz_bytes` long.
    code_lengths: Option<HashMap<i32, u32>>,
    pre_lz_bytes: Option<u64>,
}

impl ChunkPrice {
    /// Price a run of symbols drawn from this chunk, which holds `held` in
    /// all, in (possibly fractional) stream bits. Exact for `huff`; pre-LZ
    /// bits scaled by `bytes / pre_lz_bytes` for `huff+lz`; a uniform payload
    /// split for range-coded chunks.
    fn price(&self, symbols: &[i32], held: usize) -> f64 {
        let raw = |lens: &HashMap<i32, u32>| -> f64 {
            symbols.iter().map(|s| lens.get(s).copied().unwrap_or(0) as f64).sum()
        };
        match (&self.code_lengths, self.pre_lz_bytes) {
            (Some(lens), None) => raw(lens),
            (Some(lens), Some(pre)) if pre > 0 => raw(lens) * self.bytes as f64 / pre as f64,
            _ if held == 0 => 0.0,
            _ => self.payload_bytes as f64 * 8.0 * symbols.len() as f64 / held as f64,
        }
    }
}

/// Dissect an index block produced by [`crate::encode_indices`].
///
/// `max_count` bounds the declared symbol total (callers pass the field
/// volume), as in [`crate::decode_indices_capped`].
pub fn inspect_index_block(
    bytes: &[u8],
    max_count: usize,
) -> Result<IndexForensics, CodecError> {
    let mut spans = Spans::default();
    let mut chunks = Vec::new();
    let (mut scratch, mut symbols) = (lossless::DecodeScratch::default(), Vec::new());
    let (mut alphabet, mut lengths) = (Vec::new(), Vec::new());
    for c in lossless::parse(bytes, max_count)? {
        let (body_at, end) = (c.at + 1, c.at + 1 + c.body.len());
        // The decoder's own step, so a damaged chunk fails here too.
        let coded = c.decode(&mut scratch, Dest::Vec(&mut symbols))?;
        let lz = c.is_lz();
        let mut out = ChunkPrice {
            exact: c.is_huffman() && !lz,
            first_symbol: c.first_symbol,
            symbols: c.symbols,
            bytes: 1 + c.body.len() as u64,
            payload_bytes: c.body.len() as u64,
            code_lengths: None,
            pre_lz_bytes: None,
        };
        // Everything up to and including the tag: the chunk table in front
        // of the first chunk, nothing but the tag in front of the others.
        spans.push("index.framing", body_at);
        if c.is_huffman() {
            let h = huffman::parse(coded, &mut alphabet, &mut lengths)?;
            // Byte attribution stays at the compressed level: an LZ-wrapped
            // chunk is one opaque payload, and its Huffman header only
            // yields the pre-LZ bit model for estimation.
            if lz {
                out.pre_lz_bytes = Some(coded.len() as u64);
            } else {
                out.payload_bytes = h.payload.len() as u64;
                spans.push("index.tables", end - h.payload.len());
            }
            out.code_lengths = Some(h.alphabet.iter().copied().zip(h.lengths.iter().copied()).collect());
        }
        spans.push("index.payload", end);
        chunks.push(out);
    }
    if chunks.is_empty() {
        spans.push("index.framing", bytes.len()); // a chunk table of no chunks
    }
    Ok(IndexForensics { spans: spans.0, chunks })
}

impl IndexForensics {
    /// Price the range `[start, end)` of `symbols` — the block's full decoded
    /// index array — against its chunks: `(bits, exact)`.
    pub fn price(&self, symbols: &[i32], start: usize, end: usize) -> (f64, bool) {
        let (mut bits, mut exact) = (0.0f64, true);
        for chunk in &self.chunks {
            let c0 = chunk.first_symbol;
            let c1 = c0.saturating_add(chunk.symbols).min(symbols.len());
            let (lo, hi) = (start.max(c0), end.min(c1));
            if lo < hi {
                bits += chunk.price(&symbols[lo..hi], c1 - c0);
                exact &= chunk.exact;
            }
        }
        (bits, exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossless::CHUNK_SYMBOLS;
    use crate::{decode_indices, encode_indices};

    fn bytes_named(f: &IndexForensics, name: &str) -> usize {
        f.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Noise over three symbols.
    fn noise(n: usize) -> Vec<i32> {
        let mut state = 1234u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as i32 % 3 - 1
            })
            .collect()
    }

    fn check_exact_sum(q: &[i32]) -> IndexForensics {
        let enc = encode_indices(q);
        let f = inspect_index_block(&enc, q.len().max(1)).expect("inspect");
        let mut at = 0;
        for s in &f.spans {
            assert_eq!(s.start, at, "spans must tile the block");
            at = s.end;
        }
        assert_eq!(at, enc.len(), "spans must end with the block");
        f
    }

    #[test]
    fn spans_tile_flat_tiny_and_chunked_blocks() {
        let flat: Vec<i32> = (0..50_000).map(|i| (i % 23) - 11).collect();
        assert_eq!(check_exact_sum(&flat).chunks.len(), 1);
        check_exact_sum(&[]);
        check_exact_sum(&[0]);
        check_exact_sum(&[7; 500]); // single-symbol degenerate header
        let q: Vec<i32> = (0..CHUNK_SYMBOLS * 2 + 123).map(|i| (i % 5) as i32 - 2).collect();
        let f = check_exact_sum(&q);
        assert!(f.chunks.len() >= 2);
        assert_eq!(f.chunks.iter().map(|c| c.symbols).sum::<usize>(), q.len());
    }

    #[test]
    fn truncated_blocks_error() {
        // One flat block per coder: plain Huffman, huff+lz, range.
        let periodic: Vec<i32> = (0..10_000).map(|i| i % 13).collect();
        for (q, mode) in [(noise(70_000), 0), (periodic, 1), (noise(2_000), 2)] {
            let enc = encode_indices(&q);
            assert_eq!(enc[0], mode);
            assert!(inspect_index_block(&enc, q.len()).is_ok(), "mode {mode}");
            assert!(inspect_index_block(&enc[..enc.len() / 2], q.len()).is_err(), "mode {mode}");
        }
        assert!(inspect_index_block(&[], 10).is_err());
    }

    #[test]
    fn huff_pricing_matches_payload_bits() {
        // Too long for the range coder, and the LZ pass gains nothing on the
        // tiny header: the block stays plain Huffman, and exact symbol
        // pricing must reproduce the payload bit count.
        let q = noise(70_000);
        let enc = encode_indices(&q);
        let f = inspect_index_block(&enc, q.len()).unwrap();
        let (bits, exact) = f.price(&decode_indices(&enc).unwrap(), 0, q.len());
        assert!(exact, "block is not plain Huffman");
        // The bit stream is byte-padded: less than one byte of slack.
        let payload_bits = (bytes_named(&f, "index.payload") * 8) as f64;
        assert!(bits <= payload_bits && payload_bits - bits < 8.0, "bits {bits} vs payload {payload_bits}");
    }
}
