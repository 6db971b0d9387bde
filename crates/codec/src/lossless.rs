//! Combined Huffman → LZ pipeline for quantization index arrays.
//!
//! Mirrors the paper's encoding stage (Huffman encoding followed by ZSTD):
//! the index array is entropy-coded first, then the generic lossless pass
//! squeezes residual byte-level redundancy (headers, clustered code runs).
//! The LZ pass is kept only when it actually shrinks the stream, signalled by
//! a one-byte mode tag.
//!
//! Index arrays larger than [`CHUNK_SYMBOLS`] are split into fixed-size
//! chunks, each entropy-coded independently (mode tag 4, with a per-chunk
//! byte-length offset table), so the dominant encode/decode cost parallelises
//! across cores via rayon without cutting prediction context — chunking
//! happens *after* quantization-index prediction, so ratios are unaffected
//! except for the per-chunk table headers. Chunk boundaries are fixed by the
//! format, never by the thread count, so the encoded bytes are deterministic.

use crate::varint::uvarint_len;
use crate::{huffman, lz, range, ByteReader, ByteWriter, CodecError, Dest};
use qip_metrics::entropy_of_counts;
use qip_telemetry::{count, span, Label};
use rayon::prelude::*;

/// Mode tag: Huffman output stored raw.
const MODE_HUFF: u8 = 0;
/// Mode tag: Huffman output further LZ-compressed.
const MODE_HUFF_LZ: u8 = 1;
/// Mode tag: adaptive range-coder output stored raw.
const MODE_RANGE: u8 = 2;
/// Mode tag: range-coder output further LZ-compressed.
const MODE_RANGE_LZ: u8 = 3;
/// Mode tag: chunked stream — offset table + independently coded chunks.
const MODE_CHUNKED: u8 = 4;

/// Streams below this symbol count also try the (slower) adaptive range
/// coder, which shines exactly there: no code-length header, instant
/// adaptation. Large streams stick to Huffman+LZ for throughput.
pub const RANGE_TRY_LIMIT: usize = 1 << 16;

/// Symbols per chunk in the chunked (mode 4) framing. Streams with at most
/// this many symbols keep the flat single-block layout.
pub const CHUNK_SYMBOLS: usize = 1 << 17;

/// Working memory of [`encode_block`], owned by one `encode_indices_into`
/// call (one per worker on the chunked path) and reused block after block.
#[derive(Default)]
struct Scratch {
    huffman: huffman::Scratch,
    lz: lz::Scratch,
    /// The entropy coder's output, and its LZ-compressed form.
    coded: Vec<u8>,
    lzed: Vec<u8>,
}

impl Scratch {
    /// LZ-compress `coded`; true when that shrank it.
    fn lz_pass(&mut self) -> bool {
        let _t = span("lz_compress");
        lz::compress_into(&self.coded, &mut self.lz, &mut self.lzed);
        self.lzed.len() < self.coded.len()
    }

    /// Report what the coders counted over this scratch's blocks
    /// (docs/telemetry.md).
    fn report(&self) {
        count("codec.wide_alphabet_blocks", Label::None, self.huffman.wide_blocks);
        count("codec.lz_positions", Label::None, self.lz.positions);
        count("codec.lz_walks", Label::None, self.lz.walks);
    }
}

/// Entropy-code one block of indices (modes 0–3) onto the end of `out`,
/// keeping whichever combination of coder and optional LZ pass is smallest.
fn encode_block(indices: &[i32], s: &mut Scratch, out: &mut Vec<u8>) {
    {
        let _t = span("huffman_encode");
        huffman::encode_into(indices, &mut s.huffman, &mut s.coded);
    }
    count("codec.huffman_bytes", Label::None, s.coded.len() as u64);
    let mut mode = if s.lz_pass() { MODE_HUFF_LZ } else { MODE_HUFF };
    if indices.len() <= RANGE_TRY_LIMIT {
        let rng = {
            let _t = span("range_encode");
            range::encode(indices)
        };
        if rng.len() < s.coded.len().min(s.lzed.len()) {
            s.coded = rng;
            mode = if s.lz_pass() { MODE_RANGE_LZ } else { MODE_RANGE };
        }
    }
    let best = if mode == MODE_HUFF_LZ || mode == MODE_RANGE_LZ { &s.lzed } else { &s.coded };
    out.reserve_exact(best.len() + 1);
    out.push(mode);
    out.extend_from_slice(best);
}

/// [`encode_block`]'s output size, priced rather than coded: the exact
/// plain-Huffman size, or — for a block the range coder is tried on — the
/// smaller of that and an order-0 arithmetic estimate (the alphabet header,
/// `N·H₀` bits, the coder's 8 flush bytes). No bits are written and no LZ
/// pass runs, so a block LZ shrinks codes below its price.
fn price_block(indices: &[i32], s: &mut Scratch) -> usize {
    let size = huffman::size(indices, &mut s.huffman, &mut s.coded);
    let mut best = size.total;
    if indices.len() <= RANGE_TRY_LIMIT {
        let n = indices.len() as u64;
        let bits = entropy_of_counts(n, s.huffman.freqs.iter().copied()) * n as f64;
        let payload = (bits / 8.0).ceil() as usize + range::FLUSH_BYTES;
        best = best.min(size.alphabet + uvarint_len(payload as u64) + payload);
    }
    1 + best
}

/// One independently coded chunk of an index block, as [`parse`] reads it
/// (the whole block, for the flat layout).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk<'a> {
    /// Offset of the chunk's mode tag in the block: the chunk is the bytes
    /// `at..at + 1 + body.len()`, and what lies between two chunks' ends and
    /// starts is framing.
    pub(crate) at: usize,
    /// Mode tag, one of the four block modes.
    pub(crate) mode: u8,
    /// The coded bytes behind the tag.
    pub(crate) body: &'a [u8],
    /// Position of the chunk's first symbol in the index array.
    pub(crate) first_symbol: usize,
    /// Symbols the chunk holds. The flat layout keeps its count inside the
    /// coded bytes, so there this is the caller's cap and `counted` is false.
    pub(crate) symbols: usize,
    counted: bool,
}

/// Working memory of [`Chunk::decode`], owned by one
/// `decode_indices_capped_into` call (one per worker on the chunked path) and
/// reused chunk after chunk.
#[derive(Default)]
pub(crate) struct DecodeScratch {
    huffman: huffman::Tables,
    range: range::DecodeScratch,
    /// The LZ modes' expanded bytes.
    coded: Vec<u8>,
}

impl Chunk<'_> {
    /// Whether the entropy coder's bytes are a Huffman stream (a range
    /// coder's otherwise).
    pub(crate) fn is_huffman(&self) -> bool {
        self.mode == MODE_HUFF || self.mode == MODE_HUFF_LZ
    }

    /// Whether the body is the entropy coder's bytes LZ-compressed.
    pub(crate) fn is_lz(&self) -> bool {
        self.mode == MODE_HUFF_LZ || self.mode == MODE_RANGE_LZ
    }

    /// Decode the chunk's symbols into `dest` — at most `self.symbols` of
    /// them, exactly that many when `counted` — and return the entropy
    /// coder's bytes they came from: the body, LZ-expanded for the LZ modes
    /// to at most 16 bytes/symbol — far above any legal code or escape cost —
    /// plus slack for headers.
    pub(crate) fn decode<'s>(
        &'s self,
        s: &'s mut DecodeScratch,
        dest: Dest<'_>,
    ) -> Result<&'s [u8], CodecError> {
        let coded = if self.is_lz() {
            let _t = span("lz_decompress");
            let cap = self.symbols.saturating_mul(16).saturating_add(4096);
            lz::decompress_capped_into(self.body, cap, &mut s.coded)?;
            s.coded.as_slice()
        } else {
            self.body
        };
        let decoded = if self.is_huffman() {
            let _t = span("huffman_decode");
            huffman::decode_into(coded, self.symbols, &mut s.huffman, dest)?
        } else {
            let _t = span("range_decode");
            range::decode_into(coded, self.symbols, &mut s.range, dest)?
        };
        if self.counted && decoded != self.symbols {
            return Err(CodecError::BadHeader("chunk symbol count mismatch"));
        }
        Ok(coded)
    }
}

/// Parse an index block's framing — the one description of the layout, for
/// decoding and for forensics alike: the mode tag and, behind tag 4, the
/// chunk table. Chunked streams are checked for internal consistency (chunk
/// count vs. declared total against `max_count`, offset table vs. payload
/// length); the chunks tile the block's tail, so nothing can trail them.
pub(crate) fn parse(bytes: &[u8], max_count: usize) -> Result<Vec<Chunk<'_>>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let tag = r.get_u8()?;
    if tag < MODE_CHUNKED {
        let flat =
            Chunk { at: 0, mode: tag, body: r.rest(), first_symbol: 0, symbols: max_count, counted: false };
        return Ok(vec![flat]);
    }
    if tag > MODE_CHUNKED {
        return Err(CodecError::BadHeader("unknown lossless mode tag"));
    }
    let total = r.get_uvarint()? as usize;
    let chunk_symbols = r.get_uvarint()? as usize;
    let nchunks = r.get_uvarint()? as usize;
    if total > max_count {
        return Err(CodecError::BadHeader("declared symbol count exceeds cap"));
    }
    if chunk_symbols == 0 {
        return Err(CodecError::BadHeader("zero chunk size"));
    }
    if nchunks != total.div_ceil(chunk_symbols) {
        return Err(CodecError::BadHeader("chunk count inconsistent with total"));
    }

    // Offset table: one byte length per chunk. Grown by push (each entry
    // consumes stream bytes), never pre-sized from the untrusted count.
    let mut lens: Vec<usize> = Vec::new();
    let mut payload_total = 0usize;
    for _ in 0..nchunks {
        let len = r.get_uvarint()? as usize;
        payload_total = payload_total
            .checked_add(len)
            .ok_or(CodecError::BadHeader("chunk offset table overflows"))?;
        lens.push(len);
    }
    if r.remaining() != payload_total {
        return Err(CodecError::BadHeader("offset table inconsistent with payload"));
    }
    let mut chunks = Vec::with_capacity(nchunks);
    for (i, &len) in lens.iter().enumerate() {
        let at = r.pos();
        let (&mode, body) =
            r.get_bytes(len)?.split_first().ok_or(CodecError::UnexpectedEof)?;
        if mode >= MODE_CHUNKED {
            return Err(CodecError::BadHeader("chunk tag is not a block mode"));
        }
        let first_symbol = i * chunk_symbols;
        let symbols = chunk_symbols.min(total - first_symbol);
        chunks.push(Chunk { at, mode, body, first_symbol, symbols, counted: true });
    }
    Ok(chunks)
}

/// Encode a quantization index array: entropy coding (canonical Huffman,
/// plus the adaptive range coder for small streams), then LZ if profitable,
/// keeping whichever combination is smallest. Arrays larger than
/// [`CHUNK_SYMBOLS`] are split into independently (and concurrently) encoded
/// chunks behind a per-chunk offset table.
pub fn encode_indices(indices: &[i32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_indices_into(indices, &mut out);
    out
}

/// [`encode_indices`] into a caller-owned buffer (cleared first), so repeated
/// compressions reuse the output allocation.
pub fn encode_indices_into(indices: &[i32], out: &mut Vec<u8>) {
    out.clear();
    let nchunks = indices.len().div_ceil(CHUNK_SYMBOLS).max(1);
    if nchunks == 1 {
        let mut s = Scratch::default();
        encode_block(indices, &mut s, out);
        s.report();
    } else {
        // Each worker takes a contiguous run of chunks and keeps one scratch
        // for it; a run yields its chunks back to back and each one's length.
        let run = nchunks.div_ceil(rayon::current_num_threads()) * CHUNK_SYMBOLS;
        let runs: Vec<(Vec<u8>, Vec<usize>)> = indices
            .par_chunks(run)
            .map(|run| {
                let mut s = Scratch::default();
                let (mut bytes, mut lens) = (Vec::new(), Vec::new());
                for chunk in run.chunks(CHUNK_SYMBOLS) {
                    let start = bytes.len();
                    encode_block(chunk, &mut s, &mut bytes);
                    lens.push(bytes.len() - start);
                }
                s.report();
                (bytes, lens)
            })
            .collect();
        // Sized once, without doubling (a varint is at most 10 bytes), so a
        // warm caller's buffer settles at the size of its largest stream.
        let payload: usize = runs.iter().map(|(bytes, _)| bytes.len()).sum();
        out.reserve_exact(1 + 10 * (3 + nchunks) + payload);
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.put_u8(MODE_CHUNKED);
        w.put_uvarint(indices.len() as u64);
        w.put_uvarint(CHUNK_SYMBOLS as u64);
        w.put_uvarint(nchunks as u64);
        for &len in runs.iter().flat_map(|(_, lens)| lens) {
            w.put_uvarint(len as u64);
        }
        for (bytes, _) in &runs {
            w.put_bytes(bytes);
        }
        *out = w.finish();
    }
    count("codec.symbols_in", Label::None, indices.len() as u64);
    count("codec.chunks", Label::None, nchunks as u64);
    count("codec.bytes_out", Label::None, out.len() as u64);
}

/// What [`encode_indices`] would cost `indices`, without coding them: the
/// same chunking and the same Huffman table build, per chunk
/// `price_block`'s price, and the chunked framing's exact bytes. Equal to
/// `encode_indices(indices).len()` wherever the encoder keeps plain Huffman.
pub fn price_indices(indices: &[i32]) -> usize {
    let mut s = Scratch::default();
    if indices.len() <= CHUNK_SYMBOLS {
        return price_block(indices, &mut s);
    }
    let nchunks = indices.len().div_ceil(CHUNK_SYMBOLS);
    let framing = 1 + uvarint_len(indices.len() as u64)
        + uvarint_len(CHUNK_SYMBOLS as u64)
        + uvarint_len(nchunks as u64);
    indices.chunks(CHUNK_SYMBOLS).fold(framing, |total, chunk| {
        let len = price_block(chunk, &mut s);
        total + uvarint_len(len as u64) + len
    })
}

/// What an encoder's entropy stage makes of its index block.
#[derive(Debug, Clone, Copy)]
pub enum EntropyStage {
    /// Code it: [`encode_indices_into`].
    Code,
    /// Price it: [`price_indices`] zero bytes stand in for the block, so a
    /// trial stream keeps its coded layout and its priced length.
    Price,
}

impl EntropyStage {
    /// Fill `out` (cleared first) with the index block this stage makes.
    pub fn run(self, indices: &[i32], out: &mut Vec<u8>) {
        match self {
            EntropyStage::Code => encode_indices_into(indices, out),
            EntropyStage::Price => {
                out.clear();
                out.resize(price_indices(indices), 0);
            }
        }
    }
}

/// Decode a stream produced by [`encode_indices`].
pub fn decode_indices(bytes: &[u8]) -> Result<Vec<i32>, CodecError> {
    decode_indices_capped(bytes, usize::MAX)
}

/// Decode with an upper bound on the symbol count the caller will accept.
///
/// Container formats know how many indices a block may legally hold (the
/// declared field volume), so they pass it here and a corrupted count is
/// rejected *before* any count-sized allocation. The cap also bounds the
/// intermediate LZ expansion: `max_count` symbols need at most
/// `MAX_CODE_LEN` bits each, plus a generous header allowance. Chunks are
/// decoded concurrently, each to exactly the symbol count `parse` gave it.
pub fn decode_indices_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    decode_indices_capped_into(bytes, max_count, &mut out)?;
    Ok(out)
}

/// [`decode_indices_capped`] into a caller-owned buffer: resized to the
/// stream's symbol count and overwritten, its capacity and its pages kept;
/// empty after an error.
pub fn decode_indices_capped_into(
    bytes: &[u8],
    max_count: usize,
    out: &mut Vec<i32>,
) -> Result<(), CodecError> {
    let decoded = decode_chunks(bytes, max_count, out);
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// Every chunk decodes straight into its part of `out`, which is sized once
/// from the chunk table `parse` validated (the flat layout's single chunk
/// sizes it from its own header).
fn decode_chunks(bytes: &[u8], max_count: usize, out: &mut Vec<i32>) -> Result<(), CodecError> {
    let chunks = parse(bytes, max_count)?;
    if bytes[0] != MODE_CHUNKED {
        chunks[0].decode(&mut DecodeScratch::default(), Dest::Vec(out))?;
    } else {
        let total = chunks.iter().map(|c| c.symbols).sum();
        Dest::Vec(out).take(total)?;
        // Each worker takes a contiguous run of chunks, as in
        // `encode_indices_into`, and keeps one scratch for it.
        let chunk_symbols = chunks.first().map_or(1, |c| c.symbols);
        let run = chunks.len().div_ceil(rayon::current_num_threads()).max(1);
        out.par_chunks_mut(run.saturating_mul(chunk_symbols))
            .enumerate()
            .map(|(worker, plane)| {
                let mut s = DecodeScratch::default();
                for (chunk, slots) in chunks[worker * run..].iter().zip(plane.chunks_mut(chunk_symbols)) {
                    chunk.decode(&mut s, Dest::Slice(slots))?;
                }
                Ok(())
            })
            .collect::<Result<(), CodecError>>()?;
    }
    count("codec.decode_bytes_in", Label::None, bytes.len() as u64);
    count("codec.decode_chunks", Label::None, chunks.len() as u64);
    count("codec.decode_symbols", Label::None, out.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let enc = encode_indices(&[]);
        assert_eq!(decode_indices(&enc).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn roundtrip_clustered() {
        // Clustered indices (the paper's phenomenon): long runs of equal values.
        let mut q = Vec::new();
        for block in 0..50 {
            q.extend(std::iter::repeat_n(block % 5 - 2, 200));
        }
        let enc = encode_indices(&q);
        assert_eq!(decode_indices(&enc).unwrap(), q);
        // Runs must compress far below 1 byte/symbol.
        assert!(enc.len() * 4 < q.len(), "got {} bytes for {} symbols", enc.len(), q.len());
    }

    #[test]
    fn lz_pass_helps_on_runs() {
        let q = vec![1i32; 100_000];
        let enc = encode_indices(&q);
        assert!(enc.len() < 64);
    }

    #[test]
    fn roundtrip_noise() {
        let mut state = 7u64;
        let q: Vec<i32> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 65) - 32
            })
            .collect();
        let enc = encode_indices(&q);
        assert_eq!(decode_indices(&enc).unwrap(), q);
    }

    #[test]
    fn bad_mode_tag() {
        assert!(decode_indices(&[9, 0, 0]).is_err());
        assert!(decode_indices(&[]).is_err());
    }

    #[test]
    fn truncation_errors() {
        let q: Vec<i32> = (0..1000).map(|i| i % 9 - 4).collect();
        let enc = encode_indices(&q);
        assert!(decode_indices(&enc[..enc.len() / 2]).is_err());
    }

    /// A mixed-texture index array just past the chunking threshold.
    fn chunky_input() -> Vec<i32> {
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..CHUNK_SYMBOLS * 2 + 777)
            .map(|i| {
                if (i / 4096) % 2 == 0 {
                    (i % 3) as i32 // clustered runs
                } else {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) as i32 % 33) - 16 // noise
                }
            })
            .collect()
    }

    #[test]
    fn chunked_roundtrip_and_tag() {
        let q = chunky_input();
        let enc = encode_indices(&q);
        assert_eq!(enc[0], MODE_CHUNKED, "large stream must use the chunked framing");
        assert_eq!(decode_indices(&enc).unwrap(), q);
        assert_eq!(decode_indices_capped(&enc, q.len()).unwrap(), q);
    }

    #[test]
    fn small_streams_stay_flat() {
        let q: Vec<i32> = (0..CHUNK_SYMBOLS).map(|i| (i % 7) as i32 - 3).collect();
        let enc = encode_indices(&q);
        assert!(enc[0] <= MODE_RANGE_LZ, "at-threshold stream must keep the flat layout");
        assert_eq!(decode_indices(&enc).unwrap(), q);
    }

    #[test]
    fn chunked_encoding_is_deterministic() {
        let q = chunky_input();
        assert_eq!(encode_indices(&q), encode_indices(&q));
        let mut reused = vec![0xAAu8; 17]; // dirty reused buffer
        encode_indices_into(&q, &mut reused);
        assert_eq!(reused, encode_indices(&q));
    }

    #[test]
    fn chunked_cap_rejects_oversized_count() {
        let q = chunky_input();
        let enc = encode_indices(&q);
        assert!(decode_indices_capped(&enc, q.len() - 1).is_err());
    }

    #[test]
    fn chunked_truncation_errors_at_every_prefix() {
        let q = chunky_input();
        let enc = encode_indices(&q);
        // Full prefix scan is slow in debug; probe a spread of cut points
        // covering header, offset table, and every chunk boundary region.
        for cut in (0..enc.len()).step_by(enc.len() / 97 + 1) {
            assert!(decode_indices(&enc[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn chunked_rejects_nested_chunk_and_count_mismatch() {
        let q = chunky_input();
        let enc = encode_indices(&q);
        // Corrupt the declared total (first uvarint after the tag): the chunk
        // count check or a chunk symbol-count mismatch must fire, not a panic.
        let mut bad = enc.clone();
        bad[1] ^= 0x01;
        assert!(decode_indices_capped(&bad, q.len() * 2).is_err());
    }

    #[test]
    fn decode_into_reuses_buffer_and_clears_state() {
        let q = chunky_input();
        let enc = encode_indices(&q);
        let mut out = vec![7i32; 5]; // stale state that must not leak
        decode_indices_capped_into(&enc, q.len(), &mut out).unwrap();
        assert_eq!(out, q);
        let small = encode_indices(&[1, 2, 3]);
        decode_indices_capped_into(&small, 3, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }
}
