//! Adaptive range coder over `i32` symbol alphabets.
//!
//! SZ3 ships an arithmetic-coding alternative to Huffman for the quantization
//! index stream; this is the workspace equivalent — a carry-less byte-wise
//! range coder (Subbotin style) with adaptive frequencies maintained in a
//! Fenwick tree, so symbol probabilities track the stream without a second
//! pass. Unlike the canonical-Huffman path it needs no code-length header and
//! adapts to local statistics, typically beating Huffman on small streams and
//! skewed, drifting distributions; it is slower, which is why
//! [`crate::lossless`] keeps both and picks per stream.

use crate::stream::{ByteReader, ByteWriter};
use crate::{CodecError, Dest};

const TOP: u32 = 1 << 24;
const BOTTOM: u32 = 1 << 16;
/// Rescale frequencies when the total reaches this bound (keeps ranges
/// non-degenerate and adapts to drift).
const MAX_TOTAL: u32 = 1 << 15;
/// Bytes the encoder flushes its state with at the end of a stream.
pub(crate) const FLUSH_BYTES: usize = 8;

/// The encoder's adaptive frequency model: the plain frequency array and its
/// running total beside a Fenwick (binary indexed) tree of the same
/// frequencies, so `freq` and `total` are loads and only cumulative sums walk
/// the tree.
///
/// Invariants after every method: `tree` is the Fenwick tree of `freq`, and
/// `total == freq.iter().sum()`. The coder's arithmetic sees only
/// `(cum, freq, total)` triples, so any bookkeeping that keeps these
/// invariants produces the same bytes.
struct Model {
    freq: Vec<u32>,
    /// 1-based Fenwick tree: `tree[i]` sums `freq[i - lowbit(i)..i]`.
    tree: Vec<u32>,
    total: u32,
}

impl Model {
    /// Every symbol starts with frequency 1.
    fn new(n: usize) -> Self {
        let mut m = Model { freq: vec![1; n], tree: vec![0; n + 1], total: n as u32 };
        m.rebuild();
        m
    }

    /// Rebuild the tree from `freq` in one linear sweep: each node, complete
    /// once reached, is pushed into its parent.
    fn rebuild(&mut self) {
        let n = self.freq.len();
        self.tree[1..].copy_from_slice(&self.freq);
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Sum of frequencies of symbols `0..i`.
    #[inline]
    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0u32;
        while i > 0 {
            s += self.tree[i];
            i &= i - 1;
        }
        s
    }

    /// Halve all frequencies (keeping them ≥ 1) to adapt to drift.
    fn rescale(&mut self) {
        let mut total = 0u32;
        for f in &mut self.freq {
            *f = f.div_ceil(2).max(1);
            total += *f;
        }
        self.total = total;
        self.rebuild();
    }

    #[inline]
    fn bump(&mut self, i: usize, inc: u32) {
        self.freq[i] += inc;
        self.total += inc;
        let n = self.freq.len();
        let mut j = i + 1;
        while j <= n {
            self.tree[j] += inc;
            j += j & j.wrapping_neg();
        }
        if self.total >= MAX_TOTAL {
            self.rescale();
        }
    }
}

/// Symbol → model index. Quantization-index alphabets are dense around zero
/// plus the far-away unpredictable sentinel at `i32::MIN`, so the sorted
/// alphabet and the lookup both come from one table over the non-sentinel
/// value span; the sentinel sorts first and is handled beside the span.
/// Alphabets too sparse to tabulate, and streams too long for `u16` indices
/// (the entropy stage never range-codes more than 2¹⁶ symbols), sort the
/// stream and binary-search.
enum SymbolIndex {
    Dense { min: i32, table: Vec<u16> },
    Search,
}

const SENTINEL: i32 = i32::MIN;

/// The sorted, de-duplicated alphabet of `symbols` and the lookup into it.
fn alphabet_of(symbols: &[i32]) -> (Vec<i32>, SymbolIndex) {
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    let mut sentinel = false;
    for &s in symbols {
        if s == SENTINEL {
            sentinel = true;
        } else {
            lo = lo.min(s);
            hi = hi.max(s);
        }
    }
    if lo > hi {
        return (vec![SENTINEL], SymbolIndex::Search);
    }
    let span = (hi as i64 - lo as i64) as u64 + 1;
    if symbols.len() > 1 << 16 || span > 2 * symbols.len() as u64 + 1024 {
        let mut alphabet = symbols.to_vec();
        alphabet.sort_unstable();
        alphabet.dedup();
        return (alphabet, SymbolIndex::Search);
    }
    // Mark the values present, then number them in ascending order; slots
    // of absent values are never looked up.
    let mut table = vec![0u16; span as usize];
    for &s in symbols {
        if s != SENTINEL {
            table[(s as i64 - lo as i64) as usize] = 1;
        }
    }
    let present = table.iter().filter(|&&slot| slot != 0).count();
    let mut alphabet = Vec::with_capacity(present + sentinel as usize);
    if sentinel {
        alphabet.push(SENTINEL);
    }
    for (k, slot) in table.iter_mut().enumerate() {
        if *slot != 0 {
            // At most 2¹⁶ symbols, so at most 2¹⁶ distinct: indices fit.
            *slot = alphabet.len() as u16;
            alphabet.push((lo as i64 + k as i64) as i32);
        }
    }
    (alphabet, SymbolIndex::Dense { min: lo, table })
}

/// Carry-less range encoder state.
struct RangeEncoder {
    low: u64,
    range: u32,
    out: Vec<u8>,
}

impl RangeEncoder {
    /// `capacity` reserves the output up front, so it is not grown by
    /// doubling.
    fn new(capacity: usize) -> Self {
        RangeEncoder { low: 0, range: u32::MAX, out: Vec::with_capacity(capacity) }
    }

    fn encode(&mut self, cum: u32, freq: u32, total: u32) {
        debug_assert!(freq > 0 && cum + freq <= total);
        let r = self.range / total;
        self.low = self.low.wrapping_add((r * cum) as u64);
        self.range = r * freq;
        self.normalize();
    }

    fn normalize(&mut self) {
        // Emit bytes while the top byte is settled or the range underflows.
        // Wrapping arithmetic: the comparison is a settledness test, and a
        // wrapped sum simply reads as "not settled".
        while (self.low ^ (self.low.wrapping_add(self.range as u64))) < TOP as u64
            || (self.range < BOTTOM && {
                self.range = self.low.wrapping_neg() as u32 & (BOTTOM - 1);
                true
            })
        {
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
            self.range <<= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..FLUSH_BYTES {
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
        }
        self.out
    }
}

/// Matching decoder.
struct RangeDecoder<'a> {
    low: u64,
    range: u32,
    code: u64,
    data: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(data: &'a [u8]) -> Self {
        let mut d = RangeDecoder { low: 0, range: u32::MAX, code: 0, data, pos: 0 };
        for _ in 0..8 {
            d.code = (d.code << 8) | d.next_byte();
        }
        d
    }

    fn next_byte(&mut self) -> u64 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b as u64
    }

    /// The cumulative-frequency target of the next symbol, with the range
    /// step `r` that [`RangeDecoder::decode_update`] must be given back.
    #[inline(always)]
    fn decode_target(&self, total: u32) -> (u32, u32) {
        let r = (self.range / total).max(1);
        // Wrapping: corrupted input can break the low ≤ code invariant; the
        // decoder must then produce garbage, never panic. (On a valid stream
        // `code − low < range`, and the compiler already emits the 32-bit
        // divide for operands that fit.)
        let target = (self.code.wrapping_sub(self.low) / r as u64) as u32;
        (target.min(total - 1), r)
    }

    #[inline(always)]
    fn decode_update(&mut self, cum: u32, freq: u32, r: u32) {
        self.low = self.low.wrapping_add((r * cum) as u64);
        self.range = r * freq;
        while (self.low ^ (self.low.wrapping_add(self.range as u64))) < TOP as u64
            || (self.range < BOTTOM && {
                self.range = self.low.wrapping_neg() as u32 & (BOTTOM - 1);
                true
            })
        {
            self.code = (self.code << 8) | self.next_byte();
            self.low <<= 8;
            self.range <<= 8;
        }
    }
}

/// Encode a symbol stream with the adaptive range coder. Self-describing;
/// decoded by [`decode`].
pub fn encode(symbols: &[i32]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(symbols.len() / 2 + 64);
    w.put_uvarint(symbols.len() as u64);
    if symbols.is_empty() {
        return w.finish();
    }
    let (alphabet, index) = alphabet_of(symbols);
    w.put_uvarint(alphabet.len() as u64);
    let mut prev = 0i64;
    for &s in &alphabet {
        w.put_ivarint(s as i64 - prev);
        prev = s as i64;
    }
    if alphabet.len() == 1 {
        return w.finish();
    }

    let mut model = Model::new(alphabet.len());
    let mut enc = RangeEncoder::new(symbols.len() / 2 + 64);
    let mut code = |i: usize| {
        enc.encode(model.prefix(i), model.freq[i], model.total);
        model.bump(i, 32);
    };
    match &index {
        SymbolIndex::Dense { min, table } => {
            for &s in symbols {
                // The sentinel sorts first, so when present its index is 0.
                code(if s == SENTINEL { 0 } else { table[(s as i64 - *min as i64) as usize] as usize });
            }
        }
        SymbolIndex::Search => {
            for &s in symbols {
                code(alphabet.binary_search(&s).expect("symbol in alphabet"));
            }
        }
    }
    w.put_block(&enc.finish());
    w.finish()
}

/// The decoder's adaptive model: the frequencies [`Model`] keeps, hence the
/// same `(cum, freq, total)` triples, under running sums on two levels —
/// per block of `1 << shift` symbols the frequencies before the block, per
/// symbol the frequencies before it inside its block. A search first looks
/// where the last symbol was found: quantization indices cluster, so the next
/// one is often the same, and a guess that holds costs no dependent load at
/// all. Otherwise it counts, on each level, the sums at or below the target —
/// one pass over about √n contiguous words with no branch in it — where a
/// Fenwick descent is log₂ n loads, each waiting for the one before. An
/// update is two runs of `+= inc` over the same words.
///
/// Invariants after every method: `within` and `before` are those sums of
/// `freq` (whose padding up to a whole block stays zero, so a padding slot's
/// sum is its block's total, which no target inside the block reaches),
/// `total == freq.iter().sum()`, and `last < n`.
///
/// The three arrays are slices of one buffer the caller keeps, so the hot
/// loop holds them as plain pointers that no store can be taken to move.
#[derive(Debug)]
struct DecodeModel<'a> {
    /// Real symbols; `freq` and `within` are padded to whole blocks.
    n: usize,
    shift: u32,
    freq: &'a mut [u32],
    within: &'a mut [u32],
    before: &'a mut [u32],
    total: u32,
    /// The symbol found last.
    last: usize,
}

impl<'a> DecodeModel<'a> {
    /// Every symbol starts with frequency 1. Blocks hold about √n symbols,
    /// and at least 16, so both levels stay short for any alphabet.
    fn new(n: usize, buf: &'a mut Vec<u32>) -> Self {
        let shift = (usize::BITS - n.leading_zeros()).div_ceil(2).max(4);
        let blocks = n.div_ceil(1 << shift);
        let padded = blocks << shift;
        buf.clear();
        buf.resize(n, 1);
        buf.resize(2 * padded + blocks, 0);
        let (freq, sums) = buf.split_at_mut(padded);
        let (within, before) = sums.split_at_mut(padded);
        let mut model = DecodeModel { n, shift, freq, within, before, total: n as u32, last: 0 };
        model.rebuild();
        model
    }

    /// Recompute both levels of sums from `freq`.
    fn rebuild(&mut self) {
        let mut before = 0u32;
        let blocks = self.freq.chunks(1 << self.shift).zip(self.within.chunks_mut(1 << self.shift));
        for ((freq, within), slot) in blocks.zip(self.before.iter_mut()) {
            *slot = before;
            let mut sum = 0u32;
            for (w, &f) in within.iter_mut().zip(freq) {
                *w = sum;
                sum += f;
            }
            before += sum;
        }
    }

    /// The symbol whose cumulative interval holds `target < total`, with its
    /// `cum` and `freq`.
    #[inline(always)]
    fn find(&mut self, target: u32) -> (usize, u32, u32) {
        // The last position of `sums` (ascending, from zero) at or below `t`:
        // `at` if it is still the one, else a count over every lane.
        #[inline(always)]
        fn locate(sums: &[u32], at: usize, t: u32) -> usize {
            if sums[at] <= t && sums.get(at + 1).is_none_or(|&next| next > t) {
                return at;
            }
            sums.iter().map(|&sum| (sum <= t) as u32).sum::<u32>() as usize - 1
        }
        let (block, slot) = (self.last >> self.shift, self.last & ((1 << self.shift) - 1));
        let block = locate(self.before, block, target);
        let rest = target - self.before[block];
        let start = block << self.shift;
        let slot = locate(&self.within[start..start + (1 << self.shift)], slot, rest);
        self.last = start + slot;
        (self.last, self.before[block] + self.within[self.last], self.freq[self.last])
    }

    /// Halve all frequencies (keeping them ≥ 1) to adapt to drift.
    #[cold]
    fn rescale(&mut self) {
        let mut total = 0u32;
        for f in &mut self.freq[..self.n] {
            *f = f.div_ceil(2).max(1);
            total += *f;
        }
        self.total = total;
        self.rebuild();
    }

    #[inline(always)]
    fn bump(&mut self, i: usize, inc: u32) {
        self.freq[i] += inc;
        self.total += inc;
        let block = i >> self.shift;
        // `+= inc` behind position `from`, as a masked add over the whole
        // run: every store lands where the last update's did, so the loads
        // of the next search and update are forwarded to, not stalled.
        let add_behind = |sums: &mut [u32], from: usize| {
            for (k, sum) in sums.iter_mut().enumerate() {
                *sum += if k as u32 > from as u32 { inc } else { 0 };
            }
        };
        let start = block << self.shift;
        add_behind(&mut self.within[start..start + (1 << self.shift)], i - start);
        add_behind(self.before, block);
        if self.total >= MAX_TOTAL {
            self.rescale();
        }
    }
}

/// Working memory of [`decode_into`], rebuilt per stream; only capacity
/// carries over.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    alphabet: Vec<i32>,
    /// The arrays of [`DecodeModel`].
    model: Vec<u32>,
}

/// Decode a stream produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<i32>, CodecError> {
    decode_capped(bytes, usize::MAX)
}

/// [`decode`] with a caller-imposed ceiling on the symbol count (see
/// `huffman::decode_capped`): a corrupted count is rejected before any
/// count-sized allocation.
pub fn decode_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    decode_into(bytes, max_count, &mut DecodeScratch::default(), Dest::Vec(&mut out))?;
    Ok(out)
}

/// [`decode_capped`] into the caller's memory: `dest` gets the stream's
/// symbols, `s` holds the alphabet and the model. Returns how many symbols
/// were decoded.
pub(crate) fn decode_into(
    bytes: &[u8],
    max_count: usize,
    s: &mut DecodeScratch,
    dest: Dest<'_>,
) -> Result<usize, CodecError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_uvarint()? as usize;
    if count == 0 {
        dest.take(0)?;
        return Ok(0);
    }
    if count > (1 << 36) || count > max_count {
        return Err(CodecError::Corrupt("range: implausible symbol count"));
    }
    let n_sym = r.get_uvarint()? as usize;
    if n_sym == 0 {
        return Err(CodecError::Corrupt("range: empty alphabet"));
    }
    if n_sym > r.remaining() {
        return Err(CodecError::Corrupt("range: alphabet exceeds stream"));
    }
    // The encoder's alphabet is the de-duplicated symbol set.
    if n_sym > count {
        return Err(CodecError::Corrupt("range: alphabet exceeds symbol count"));
    }
    let alphabet = &mut s.alphabet;
    alphabet.clear();
    alphabet.reserve_exact(n_sym);
    let mut prev = 0i64;
    for _ in 0..n_sym {
        let s = prev + r.get_ivarint()?;
        if s < i32::MIN as i64 || s > i32::MAX as i64 {
            return Err(CodecError::Corrupt("range: symbol out of i32 range"));
        }
        alphabet.push(s as i32);
        prev = s;
    }
    if n_sym == 1 {
        dest.take(count)?.fill(alphabet[0]);
        return Ok(count);
    }
    let payload = r.get_block()?;
    if payload.len() < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    // Adaptive coding can go far below 1 bit/symbol but not below ~2⁻¹³ bits
    // (the frequency cap), so a generous per-byte bound stops absurd claims.
    if count > payload.len().saturating_mul(8192).saturating_add(4096) {
        return Err(CodecError::Corrupt("range: count exceeds payload capacity"));
    }

    let mut model = DecodeModel::new(n_sym, &mut s.model);
    let mut dec = RangeDecoder::new(payload);
    for slot in dest.take(count)? {
        let (target, r) = dec.decode_target(model.total);
        let (i, cum, freq) = model.find(target);
        dec.decode_update(cum, freq, r);
        *slot = alphabet[i];
        model.bump(i, 32);
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[i32]) {
        let enc = encode(symbols);
        assert_eq!(decode(&enc).expect("decode"), symbols, "stream {} syms", symbols.len());
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(&[42; 500]);
    }

    #[test]
    fn small_alphabet() {
        let s: Vec<i32> = (0..5000).map(|i| [0, 0, 0, 1, -1][i % 5]).collect();
        roundtrip(&s);
    }

    #[test]
    fn adaptive_beats_static_on_drifting_stream() {
        // First half all zeros, second half uniform over 64 symbols: the
        // adaptive model tracks the change.
        let mut s = vec![0i32; 20_000];
        s.extend((0..20_000i32).map(|i| i % 64));
        let enc = encode(&s);
        roundtrip(&s);
        // Entropy of the mix is ~3.5 bits/symbol averaged; adaptive coding
        // should land well under a naive 6-bit static code.
        assert!((enc.len() * 8) as f64 / (s.len() as f64) < 4.2, "{} bytes", enc.len());
    }

    #[test]
    fn skewed_compresses_hard() {
        let s: Vec<i32> = (0..50_000i32)
            .map(|i| if i % 50 == 0 { (i % 13) - 6 } else { 0 })
            .collect();
        let enc = encode(&s);
        assert!(enc.len() * 16 < s.len(), "{} bytes for {} symbols", enc.len(), s.len());
        roundtrip(&s);
    }

    #[test]
    fn wide_random_alphabet() {
        let mut state = 99u64;
        let s: Vec<i32> = (0..30_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 35) % 3000) as i32 - 1500
            })
            .collect();
        roundtrip(&s);
    }

    #[test]
    fn extreme_symbols() {
        roundtrip(&[i32::MIN, i32::MAX, 0, i32::MIN, 5, i32::MAX]);
    }

    #[test]
    fn truncation_detected_or_harmless() {
        let s: Vec<i32> = (0..2000).map(|i| (i % 17) - 8).collect();
        let enc = encode(&s);
        // Cutting the payload must never panic; wrong output is impossible
        // because the block length no longer matches.
        for cut in [0, 1, enc.len() / 2] {
            let _ = decode(&enc[..cut]);
        }
    }

    #[test]
    fn model_consistency() {
        let mut m = Model::new(10);
        assert_eq!(m.total, 10);
        m.bump(3, 5);
        assert_eq!(m.freq[3], 6);
        assert_eq!(m.total, 15);
        assert_eq!(m.prefix(3), 3);
        assert_eq!(m.prefix(4), 9);
    }

    /// The decoder's model hands out the encoder's triples, symbol for
    /// symbol, through bumps and rescales, for alphabets of one block, of
    /// several, and with a padded last block.
    #[test]
    fn decode_model_tracks_the_encoder_model() {
        for n in [2usize, 10, 16, 17, 100, 1000] {
            let mut buf = vec![7; 5];
            let (mut enc, mut dec) = (Model::new(n), DecodeModel::new(n, &mut buf));
            let mut state = n as u64;
            for _ in 0..3000 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let i = (state >> 33) as usize % n.min(7 + n / 3);
                assert_eq!(dec.total, enc.total);
                let (cum, freq) = (enc.prefix(i), enc.freq[i]);
                // From wherever the last search left off, and from here.
                for target in [cum, cum + freq - 1] {
                    assert_eq!(dec.find(target), (i, cum, freq), "n {n}, target {target}");
                }
                enc.bump(i, 32);
                dec.bump(i, 32);
            }
        }
    }

    #[test]
    fn rescale_preserves_order_and_invariants() {
        let mut m = Model::new(4);
        m.bump(0, 1000);
        m.bump(2, 100);
        m.rescale();
        assert!(m.freq[0] > m.freq[2]);
        assert!(m.freq[2] > 0 && m.freq[1] > 0);
        assert_eq!(m.total, m.freq.iter().sum::<u32>());
        for i in 0..=4 {
            assert_eq!(m.prefix(i), m.freq[..i].iter().sum::<u32>(), "prefix({i})");
        }
    }

    #[test]
    fn alphabet_larger_than_count_is_rejected() {
        // Hand-built header: 2 symbols, 3-entry alphabet {0, 1, 2}.
        let mut w = ByteWriter::with_capacity(32);
        w.put_uvarint(2);
        w.put_uvarint(3);
        for delta in [0i64, 1, 1] {
            w.put_ivarint(delta);
        }
        w.put_block(&[0u8; 16]);
        assert!(matches!(
            decode(&w.finish()),
            Err(CodecError::Corrupt("range: alphabet exceeds symbol count"))
        ));
    }
}
