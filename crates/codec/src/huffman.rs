//! Canonical Huffman coding over `i32` symbol alphabets.
//!
//! This is the entropy-encoder stage of the paper's pipeline ("variable-length
//! encoding methods such as Huffman encoding", Sec. I). Quantization indices
//! are signed integers with a heavily peaked distribution around zero, so the
//! alphabet is sparse and stored explicitly in the header (zigzag varints),
//! followed by canonical code lengths and the MSB-first code stream.

use std::collections::HashMap;

use crate::bits::{BitReader, BitWriter};
use crate::stream::ByteReader;
use crate::varint::{uvarint_len, write_ivarint, write_uvarint};
use crate::{CodecError, Dest};

/// Maximum admissible code length; frequencies are scaled down and the tree
/// rebuilt in the (pathological) case a longer code appears.
const MAX_CODE_LEN: u32 = 48;

/// The unpredictable-point marker: 2³¹ away from the indices, so it is kept
/// beside the dense value span, never inside it.
const SENTINEL: i32 = i32::MIN;

/// Values `-WINDOW / 2..WINDOW / 2` are counted in lanes ([`Lanes`]).
const WINDOW: usize = 256;
/// Interleaved count tables of [`Lanes`].
const LANES: usize = 4;

/// Counts of the window's values in `LANES` tables, symbol `i` counted in
/// table `i % LANES`: a run of one index (mostly 0 and ±1) then increments
/// four counters in turn instead of one, so no increment waits on the store
/// of the one before it. The window is fixed, not span-sized: 4 KB held in
/// the scratch, whatever the span (docs/kernels.md).
#[derive(Debug)]
struct Lanes([[u32; WINDOW]; LANES]);

impl Default for Lanes {
    fn default() -> Self {
        Lanes([[0; WINDOW]; LANES])
    }
}

/// Working memory of [`encode_into`]. Every vector is rebuilt per block; only
/// capacity carries over from one block to the next.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per value of the span, and a last slot for the sentinel: its count,
    /// then its alphabet rank.
    rank: Vec<u32>,
    /// The window's counts while the histogram is taken, added into `rank`
    /// before the walk.
    lanes: Lanes,
    alphabet: Vec<i32>,
    pub(crate) freqs: Vec<u64>,
    /// Tree nodes as `(weight, id)`: sorted leaves, then internal nodes.
    queue: Vec<(u64, u32)>,
    /// Per node its parent's id, then its depth; cut down to the leaves.
    lengths: Vec<u32>,
    /// `code << 6 | length` per alphabet rank.
    packed: Vec<u64>,
    /// Blocks that took the hash-map fallback (`codec.wide_alphabet_blocks`).
    pub(crate) wide_blocks: u64,
}

/// Compute Huffman code lengths for the given positive frequencies.
///
/// Leaves sorted by `(freq, id)`, internal nodes queued behind them as they
/// are made. Internal weights never decrease and leaf ids lie below internal
/// ids, so taking the smaller front — the leaf on a tie — pops nodes in the
/// order a `(freq, id)` min-heap would (docs/kernels.md).
///
/// Degenerate alphabets (0 or 1 symbol) have no tree; callers handle them via
/// the single-symbol stream format, but this function stays total anyway.
fn code_lengths(freqs: &[u64], queue: &mut Vec<(u64, u32)>, lengths: &mut Vec<u32>) {
    let n = freqs.len();
    assert!(n <= 1 << 31, "huffman: node ids are u32");
    lengths.clear();
    if n < 2 {
        lengths.resize(n, 1);
        return;
    }
    lengths.resize(2 * n - 1, 0);
    queue.clear();
    queue.reserve(2 * n - 1);
    queue.extend(freqs.iter().zip(0..).map(|(&f, i)| (f, i)));
    queue.sort_unstable();
    let (mut leaf, mut inner) = (0, n);
    for id in n..2 * n - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            let leaf_first = leaf < n && (inner == queue.len() || queue[leaf].0 <= queue[inner].0);
            let front = if leaf_first { &mut leaf } else { &mut inner };
            let (weight, node) = queue[*front];
            *front += 1;
            lengths[node as usize] = id as u32;
            sum += weight;
        }
        queue.push((sum, id as u32));
    }
    // Parents have the larger ids: one sweep down from the root (the last
    // node, depth 0) turns every parent link into a depth.
    lengths[2 * n - 2] = 0;
    for node in (0..2 * n - 2).rev() {
        lengths[node] = lengths[lengths[node] as usize] + 1;
    }
    lengths.truncate(n);
}

/// Length-limited code lengths: rebuilds with scaled frequencies until the
/// maximum length fits (standard freq-halving trick; optimality loss is
/// negligible and only triggers for astronomically skewed inputs).
fn limited_code_lengths(freqs: &[u64], queue: &mut Vec<(u64, u32)>, lengths: &mut Vec<u32>) {
    code_lengths(freqs, queue, lengths);
    let mut scaled = Vec::new();
    while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
        if scaled.is_empty() {
            scaled = freqs.to_vec();
        }
        for v in &mut scaled {
            *v = (*v).div_ceil(2);
        }
        code_lengths(&scaled, queue, lengths);
    }
}

/// Canonical code assignment: symbols sorted by (length, symbol order as
/// provided), codes assigned in increasing numeric order — by counting:
/// `next[l]` is the next free code of length `l ≤ MAX_CODE_LEN`.
fn canonical_codes(lengths: &[u32], codes: &mut Vec<u64>) {
    let mut count = [0u64; MAX_CODE_LEN as usize + 1];
    for &l in lengths {
        count[l as usize] += 1;
    }
    let mut next = [0u64; MAX_CODE_LEN as usize + 1];
    for l in 1..MAX_CODE_LEN as usize {
        next[l + 1] = (next[l] + count[l]) << 1;
    }
    codes.clear();
    codes.extend(lengths.iter().map(|&l| {
        next[l as usize] += 1;
        next[l as usize] - 1
    }));
}

/// Encode a symbol stream. The output is self-describing (alphabet + lengths
/// + count + code stream) and decoded by [`decode`].
pub fn encode(symbols: &[i32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(symbols, &mut Scratch::default(), &mut out);
    out
}

/// The code [`plan`] built for one block: where its header's alphabet ends,
/// how a symbol finds its alphabet rank, and how long the code stream is.
struct Plan {
    /// Ranks sit in `Scratch::rank` over the value span `lo..lo + span`
    /// (the sentinel in the slot past it), else in `wide`.
    dense: bool,
    lo: i32,
    span: usize,
    wide: HashMap<i32, u64>,
    /// Header bytes through the alphabet.
    alphabet_end: usize,
    /// Bits of the code stream; `None` when the header carries everything.
    bits: Option<u64>,
}

impl Plan {
    /// Slot of `s` in the dense rank table; `s - lo` wraps to at least
    /// `span` for the sentinel alone (`hi < 2³¹`).
    #[inline]
    fn slot(&self, s: i32) -> usize {
        (s.wrapping_sub(self.lo) as u32 as usize).min(self.span)
    }
}

/// Build the code of `symbols` — histogram, alphabet, code lengths — in `t`
/// and append the stream's header up to the code stream's length prefix to
/// `out`.
fn plan(symbols: &[i32], t: &mut Scratch, out: &mut Vec<u8>) -> Plan {
    write_uvarint(out, symbols.len() as u64);

    // Histogram and symbol → rank lookup share one structure. Quantization
    // indices cluster around zero with a sparse tail out to the quantizer
    // radius, so one array over the value span `[lo, hi]` holds a count per
    // value, then the value's rank in the sorted alphabet. The sentinel would
    // stretch the span to 2³¹, so it owns the slot one past `hi`; a span wider
    // than 2²², or than 2¹⁶ plus 32 slots per symbol (a short block spread
    // thin: zeroing and walking the table would cost more than hashing), takes
    // the hash map for both steps. A full `CHUNK_SYMBOLS` (2¹⁷) block reaches
    // the 2²² cap, so only shorter blocks can change path. Either way the
    // sorted alphabet and its frequencies — hence the bytes — are the same.
    // On the dense path a block with nearly every symbol in a fixed window
    // around 0 counts the window in `Scratch::lanes` and adds the lanes into
    // the table before the walk.
    let half = WINDOW as i32 / 2;
    let (mut lo, mut hi, mut inside) = (i32::MAX, i32::MIN, 0);
    for &s in symbols {
        inside += ((s.wrapping_add(half) as u32 as usize) < WINDOW) as usize;
        if s != SENTINEL {
            lo = lo.min(s);
            hi = hi.max(s);
        }
    }
    // Zero when every symbol is the sentinel.
    let span = (hi as i64 - lo as i64 + 1).max(0) as usize;
    let dense = span <= (1 << 22).min(32 * symbols.len() + (1 << 16)) && (symbols.len() as u64) < 1 << 32;
    let mut plan =
        Plan { dense, lo, span, wide: HashMap::new(), alphabet_end: out.len(), bits: None };
    if symbols.is_empty() {
        return plan;
    }
    t.alphabet.clear();
    t.freqs.clear();
    if dense {
        t.rank.clear();
        t.rank.resize(span + 1, 0);
        let (rank, mut distinct) = (&mut t.rank, 0);
        let mut count = |s: i32| {
            let count = &mut rank[plan.slot(s)];
            distinct += (*count == 0) as usize;
            *count += 1;
        };
        // Lanes only where nearly every symbol falls in the window: in a
        // wide block (`segsalt-tight`: a fifth outside) the branch to the
        // table mispredicts, and symbols that rarely repeat never stall.
        if symbols.len() - inside <= symbols.len() / 16 {
            // The window's values inside the span, as offsets into the window.
            let start = (lo.clamp(-half, half) + half) as usize;
            let window = start..((hi.clamp(-half - 1, half - 1) + half + 1) as usize).max(start);
            let lanes = &mut t.lanes.0;
            for lane in lanes.iter_mut() {
                lane[window.clone()].fill(0);
            }
            for (i, &s) in symbols.iter().enumerate() {
                let w = s.wrapping_add(half) as u32 as usize;
                if w < WINDOW {
                    lanes[i % LANES][w] += 1;
                } else {
                    count(s);
                }
            }
            for w in window {
                let count: u32 = lanes.iter().map(|lane| lane[w]).sum();
                distinct += (count > 0) as usize;
                rank[(w as i32 - half - lo) as usize] = count;
            }
        } else {
            symbols.iter().for_each(|&s| count(s));
        }
        t.alphabet.reserve(distinct);
        t.freqs.reserve(distinct);
        for k in std::iter::once(span).chain(0..span) {
            let count = t.rank[k];
            if count > 0 {
                t.rank[k] = t.alphabet.len() as u32;
                t.alphabet.push(if k == span { SENTINEL } else { lo + k as i32 });
                t.freqs.push(count as u64);
            }
        }
    } else {
        t.wide_blocks += 1;
        for &s in symbols {
            *plan.wide.entry(s).or_insert(0) += 1;
        }
        t.alphabet.extend(plan.wide.keys());
        t.alphabet.sort_unstable();
        for (i, s) in t.alphabet.iter().enumerate() {
            let count = plan.wide.get_mut(s).expect("alphabet symbol was counted");
            t.freqs.push(std::mem::replace(count, i as u64));
        }
    }
    write_uvarint(out, t.alphabet.len() as u64);

    // Alphabet as deltas between sorted symbols (small for dense index sets).
    let mut prev = 0i64;
    for &sym in &t.alphabet {
        write_ivarint(out, sym as i64 - prev);
        prev = sym as i64;
    }
    plan.alphabet_end = out.len();

    if t.alphabet.len() == 1 {
        // Degenerate single-symbol stream: header carries everything.
        return plan;
    }

    limited_code_lengths(&t.freqs, &mut t.queue, &mut t.lengths);
    out.extend(t.lengths.iter().map(|&l| l as u8));
    plan.bits = Some(t.lengths.iter().zip(&t.freqs).map(|(&len, &freq)| freq * len as u64).sum());
    plan
}

/// [`encode`] into `out` (cleared first) with the caller's working memory.
pub(crate) fn encode_into(symbols: &[i32], t: &mut Scratch, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(symbols.len() / 2 + 64);
    let plan = plan(symbols, t, out);
    let Some(bits) = plan.bits else { return };
    canonical_codes(&t.lengths, &mut t.packed);
    for (p, &len) in t.packed.iter_mut().zip(&t.lengths) {
        *p = *p << 6 | len as u64;
    }

    // The code stream's size is known, so its length prefix goes out first
    // and the bits land directly behind it: per symbol one rank fetch, one
    // packed-code fetch and one word-batched append.
    let bytes = bits.div_ceil(8);
    write_uvarint(out, bytes);
    out.reserve(bytes as usize);
    let end = out.len() + bytes as usize;
    let mut bw = BitWriter::from_vec(std::mem::take(out));
    for &s in symbols {
        let rank = if plan.dense { t.rank[plan.slot(s)] } else { plan.wide[&s] as u32 };
        let p = t.packed[rank as usize];
        bw.write_bits(p >> 6, (p & 63) as u32);
    }
    *out = bw.finish();
    debug_assert_eq!(out.len(), end, "code stream size differs from its prefix");
}

/// Sizes of the stream [`encode_into`] writes for one block.
pub(crate) struct Size {
    /// The whole stream.
    pub(crate) total: usize,
    /// Its head through the alphabet, which the range coder writes too.
    pub(crate) alphabet: usize,
}

/// [`encode_into`]'s stream sizes, from the same code build but without
/// the code stream: only the header is written, into `head` (cleared
/// first). `t.freqs` is left holding the alphabet's counts.
pub(crate) fn size(symbols: &[i32], t: &mut Scratch, head: &mut Vec<u8>) -> Size {
    head.clear();
    let plan = plan(symbols, t, head);
    let body = plan.bits.map_or(0, |bits| {
        let bytes = bits.div_ceil(8);
        uvarint_len(bytes) + bytes as usize
    });
    Size { total: head.len() + body, alphabet: plan.alphabet_end }
}

/// Decode a stream produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<i32>, CodecError> {
    decode_capped(bytes, usize::MAX)
}

/// The sections of one stream, as [`parse`] reads them.
pub(crate) struct Header<'a, 't> {
    /// Symbols the stream declares.
    pub(crate) count: usize,
    /// Sorted alphabet; empty for an empty stream.
    pub(crate) alphabet: &'t [i32],
    /// Code length per alphabet symbol; empty when there is no code stream
    /// (at most one distinct symbol).
    pub(crate) lengths: &'t [u32],
    /// The code stream: the stream's tail, everything before it is header.
    pub(crate) payload: &'a [u8],
}

/// Parse and validate a stream's header — the one description of the layout,
/// for [`decode_into`] and for symbol pricing alike — into the caller's two
/// vectors (cleared first). Code lengths must lie in `1..=MAX_CODE_LEN` and
/// describe a full prefix code, and nothing may follow the code stream.
pub(crate) fn parse<'a, 't>(
    bytes: &'a [u8],
    alphabet: &'t mut Vec<i32>,
    lengths: &'t mut Vec<u32>,
) -> Result<Header<'a, 't>, CodecError> {
    alphabet.clear();
    lengths.clear();
    let mut r = ByteReader::new(bytes);
    let count = r.get_uvarint()? as usize;
    let mut payload: &[u8] = &[];
    if count > 0 {
        let n_sym = r.get_uvarint()? as usize;
        if n_sym == 0 {
            return Err(CodecError::Corrupt("huffman: empty alphabet for nonempty stream"));
        }
        // Each alphabet delta takes at least one byte in the stream.
        if n_sym > r.remaining() {
            return Err(CodecError::Corrupt("huffman: alphabet exceeds stream"));
        }
        alphabet.reserve_exact(n_sym);
        let mut prev = 0i64;
        for _ in 0..n_sym {
            let sym = prev + r.get_ivarint()?;
            if sym < i32::MIN as i64 || sym > i32::MAX as i64 {
                return Err(CodecError::Corrupt("huffman: symbol out of i32 range"));
            }
            alphabet.push(sym as i32);
            prev = sym;
        }
        if n_sym > 1 {
            lengths.reserve_exact(n_sym);
            for _ in 0..n_sym {
                let l = r.get_u8()? as u32;
                if l == 0 || l > MAX_CODE_LEN {
                    return Err(CodecError::Corrupt("huffman: invalid code length"));
                }
                lengths.push(l);
            }
            // Kraft check, exact in units of 2^-MAX_CODE_LEN.
            let kraft =
                lengths.iter().try_fold(0u64, |k, &l| k.checked_add(1 << (MAX_CODE_LEN - l)));
            if kraft != Some(1 << MAX_CODE_LEN) {
                return Err(CodecError::Corrupt("huffman: lengths violate Kraft equality"));
            }
            payload = r.get_block()?;
        }
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("huffman: trailing bytes after the code stream"));
    }
    Ok(Header { count, alphabet, lengths, payload })
}

/// [`decode`] with a caller-imposed ceiling on the symbol count.
///
/// Containers pass the number of indices the surrounding stream declares, so
/// a corrupted count field is rejected before any count-sized allocation —
/// this matters most for the single-symbol format, whose output size is
/// otherwise unconstrained by the payload length.
pub fn decode_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    decode_into(bytes, max_count, &mut Tables::default(), Dest::Vec(&mut out))?;
    Ok(out)
}

/// Bits that index the primary decode table: 2¹¹ `u32` entries are 8 KiB, a
/// quarter of L1, and leave the rest to the code stream and the output.
const PRIMARY_BITS: u32 = 11;
/// Widest secondary table, in bits behind the primary ones. Tables resolve
/// codes of up to `PRIMARY_BITS + SECONDARY_BITS = 24` bits — whose canonical
/// ranks therefore fit an entry's 24 payload bits — and a header may declare
/// 48-bit codes under every primary prefix, so the width has to stop somewhere.
const SECONDARY_BITS: u32 = 13;
/// Entries all secondary tables of one stream may hold (1 MiB). A real
/// alphabet of a whole 2¹⁷-symbol chunk stays below it; a forged header
/// cannot ask for more. Prefixes that would exceed it keep the canonical walk.
const SECONDARY_BUDGET: usize = 1 << 18;
/// Most symbols one primary entry resolves.
const MULTI: usize = 4;
/// Bits per rank in a multi-symbol entry: `MULTI` of them share the payload.
const RANK_BITS: u32 = 24 / MULTI as u32;
/// Ranks a multi-symbol entry can hold.
const MULTI_RANKS: u32 = 1 << RANK_BITS;

/// A decode-table entry. Bits 0–4: code bits consumed; bits 5–7: symbols
/// resolved, `n`; bits 8–31, the payload: the symbol's canonical rank for
/// `n = 1`, `MULTI` ranks of `RANK_BITS` each (the first `n` real, the rest
/// zero) for `n = 2..=MULTI`. With `n = 0` the entry is a link: bits 0–4 are the width
/// of the secondary table at offset `payload`, or zero ([`WALK`]) when the
/// prefix is left to [`Canon::walk`].
fn entry(bits: u32, n: u32, payload: u32) -> u32 {
    bits | n << 5 | payload << 8
}
const WALK: u32 = 0;
const BITS_MASK: u32 = (1 << 5) - 1;
const N_MASK: u32 = 7 << 5;

/// The canonical code, per length: codes of one length are consecutive
/// numbers and, left-aligned in 48 bits, the lengths' ranges tile `0..2⁴⁸` in
/// order, so a window is decoded by finding the range it falls in.
#[derive(Debug)]
struct Canon {
    /// First code of each length, left-aligned in 48 bits; `start[l + 1]` is
    /// where length `l`'s range ends.
    start: [u64; MAX_CODE_LEN as usize + 2],
    /// Canonical rank of each length's first code.
    rank: [usize; MAX_CODE_LEN as usize + 2],
}

impl Default for Canon {
    fn default() -> Self {
        Canon { start: [0; MAX_CODE_LEN as usize + 2], rank: [0; MAX_CODE_LEN as usize + 2] }
    }
}

impl Canon {
    /// Length and rank of the code that starts a 48-bit window: the per-length
    /// comparison, on one window. It resolves any code; production runs it
    /// for codes longer than the tables hold and for the stream's last bytes.
    #[inline]
    fn walk(&self, window: u64) -> Result<(u32, usize), CodecError> {
        let len = (1..=MAX_CODE_LEN as usize)
            .find(|&l| window < self.start[l + 1])
            .ok_or(CodecError::Corrupt("huffman: code longer than table"))?;
        let offset = (window - self.start[len]) >> (MAX_CODE_LEN as usize - len);
        Ok((len as u32, self.rank[len] + offset as usize))
    }
}

/// Working memory of [`decode_into`]: the parsed header and the tables built
/// from it. Everything is rebuilt per stream; only capacity carries over.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    alphabet: Vec<i32>,
    lengths: Vec<u32>,
    /// The alphabet in canonical order — by (code length, alphabet position),
    /// which is the numeric order of the codes.
    syms: Vec<i32>,
    canon: Canon,
    /// The primary table, then the secondary tables its links point to.
    table: Vec<u32>,
    /// The primary table with one symbol per entry, which the multi-symbol
    /// entries are composed from.
    single: Vec<u32>,
}

impl Tables {
    /// Build `syms`, `canon` and `table` from `alphabet` and `lengths`
    /// (a full prefix code of at least two symbols).
    fn build(&mut self) {
        const P: usize = 1 << PRIMARY_BITS;
        const MAX: usize = MAX_CODE_LEN as usize;
        let Tables { alphabet, lengths, syms, canon, table, single } = self;
        let mut count = [0usize; MAX + 2];
        for &l in lengths.iter() {
            count[l as usize] += 1;
        }
        let (mut code, mut rank) = (0u64, 0usize);
        for (l, &n) in count.iter().enumerate().skip(1) {
            canon.start[l] = code << (MAX + 1 - l) >> 1;
            canon.rank[l] = rank;
            code = (code + n as u64) << 1;
            rank += n;
        }
        let mut next = canon.rank;
        syms.clear();
        syms.resize(alphabet.len(), 0);
        for (&sym, &l) in alphabet.iter().zip(lengths.iter()) {
            syms[next[l as usize]] = sym;
            next[l as usize] += 1;
        }

        // Primary table: canonical order is also the order of the codes'
        // entry runs, so the fill is one sweep; what it leaves is the
        // prefixes of longer codes.
        single.clear();
        single.resize(P, WALK);
        let mut at = 0;
        for l in 1..=PRIMARY_BITS {
            let run = 1 << (PRIMARY_BITS - l);
            for k in 0..count[l as usize] {
                single[at..at + run].fill(entry(l, 1, (canon.rank[l as usize] + k) as u32));
                at += run;
            }
        }
        table.clear();
        table.extend_from_slice(single);

        // Multi-symbol entries: what follows a short code inside the same
        // PRIMARY_BITS is decoded here, once per entry, not once per use —
        // where two codes fit them at all. Ranks grow along the table, so the
        // entries a multi-symbol one can start from come first.
        let shortest = (1..=MAX).find(|&l| count[l] > 0).unwrap_or(MAX) as u32;
        let starts = single[..at].iter().take_while(|&&e| e >> 8 < MULTI_RANKS).count();
        for first in 0..if 2 * shortest <= PRIMARY_BITS { starts } else { 0 } {
            let e = single[first];
            let (mut used, mut n, mut ranks) = (e & BITS_MASK, 1, e >> 8);
            while n < MULTI as u32 && used + shortest <= PRIMARY_BITS {
                // The bits of `first` behind the `used` ones already taken,
                // zero-padded: a code that fits cannot notice the padding.
                let e = single[(first << used) & (P - 1)];
                let fits = used + (e & BITS_MASK) <= PRIMARY_BITS;
                if e == WALK || e >> 8 >= MULTI_RANKS || !fits {
                    break;
                }
                ranks |= (e >> 8) << (RANK_BITS * n);
                n += 1;
                used += e & BITS_MASK;
            }
            if n > 1 {
                table[first] = entry(used, n, ranks);
            }
        }

        // Secondary tables, one per primary prefix of longer codes, each as
        // wide as the prefix's longest code needs (up to SECONDARY_BITS: what
        // lies deeper keeps WALK). `lo` is the shortest length whose range
        // reaches the prefix: it only grows from prefix to prefix.
        let mut lo = PRIMARY_BITS as usize + 1;
        for prefix in at..P {
            let (base, end) = ((prefix as u64) << (MAX - 11), (prefix as u64 + 1) << (MAX - 11));
            while canon.start[lo + 1] <= base {
                lo += 1;
            }
            let deepest = (lo..=MAX).take_while(|&l| canon.start[l] < end).last().unwrap_or(lo);
            let width = (deepest as u32 - PRIMARY_BITS).min(SECONDARY_BITS);
            let offset = table.len();
            if offset - P + (1 << width) > SECONDARY_BUDGET {
                continue;
            }
            table.resize(offset + (1 << width), WALK);
            for l in lo..=deepest.min((PRIMARY_BITS + width) as usize) {
                let (from, to) = (canon.start[l].max(base), canon.start[l + 1].min(end));
                let run = 1 << (PRIMARY_BITS as usize + width as usize - l);
                let mut at = offset + ((from - base) >> (MAX as u32 - PRIMARY_BITS - width)) as usize;
                let first = canon.rank[l] + ((from - canon.start[l]) >> (MAX - l)) as usize;
                for rank in first..first + ((to - from) >> (MAX - l)) as usize {
                    table[at..at + run].fill(entry(l as u32, 1, rank as u32));
                    at += run;
                }
            }
            table[prefix] = entry(width, 0, offset as u32);
        }
    }

    /// Decode `out.len()` symbols of `payload` with the tables built.
    fn run(&self, payload: &[u8], out: &mut [i32]) -> Result<(), CodecError> {
        let (syms, table) = (self.syms.as_slice(), self.table.as_slice());
        let primary: &[u32; 1 << PRIMARY_BITS] =
            table[..1 << PRIMARY_BITS].try_into().expect("the primary table is built");
        let mut br = BitReader::new(payload);
        let mut i = 0;
        // While a whole word lies behind the cursor a refill buffers 56 bits,
        // more than any code is long, so nothing in this loop can run dry and
        // nothing is checked per symbol: a lookup starts with the tables'
        // reach of bits buffered. It also wants room in `out` for a full
        // multi-symbol entry.
        while i + MULTI <= out.len() {
            if br.buffered() < PRIMARY_BITS + SECONDARY_BITS && !br.refill_word() {
                break;
            }
            let window = br.window();
            let mut e = primary[(window >> (64 - PRIMARY_BITS)) as usize];
            if e & N_MASK == 0 {
                // A longer code: the secondary table, or the walk — which
                // wants a whole code's worth of window.
                if e != WALK {
                    let behind = window << PRIMARY_BITS >> (64 - (e & BITS_MASK));
                    e = table[(e >> 8) as usize + behind as usize];
                }
                if e == WALK {
                    if !br.refill_word() {
                        break;
                    }
                    let (len, rank) = self.canon.walk(br.window() >> (64 - MAX_CODE_LEN))?;
                    br.skip(len);
                    out[i] = syms[rank];
                    i += 1;
                    continue;
                }
            }
            br.skip(e & BITS_MASK);
            let (n, p) = ((e & N_MASK) >> 5, e >> 8);
            if n == 1 {
                out[i] = syms[p as usize];
            } else {
                let ranks: [u32; MULTI] =
                    std::array::from_fn(|k| p >> (RANK_BITS * k as u32) & (MULTI_RANKS - 1));
                out[i..i + MULTI].copy_from_slice(&ranks.map(|rank| syms[rank as usize]));
            }
            i += n as usize;
        }
        // The last symbols and the last bytes: one code at a time through the
        // checked reader, so a short stream ends where it always did.
        for slot in &mut out[i..] {
            br.refill();
            let (len, rank) = self.canon.walk(br.window() >> (64 - MAX_CODE_LEN))?;
            br.consume(len)?;
            *slot = syms[rank];
        }
        Ok(())
    }
}

/// [`decode_capped`] into the caller's memory: `dest` gets the stream's
/// symbols, `t` holds the tables. Returns how many symbols were decoded.
pub(crate) fn decode_into(
    bytes: &[u8],
    max_count: usize,
    t: &mut Tables,
    dest: Dest<'_>,
) -> Result<usize, CodecError> {
    let Header { count, alphabet, lengths, payload } = parse(bytes, &mut t.alphabet, &mut t.lengths)?;
    if count > (1 << 36) || count > max_count {
        return Err(CodecError::Corrupt("huffman: implausible symbol count"));
    }
    if lengths.is_empty() {
        // Empty or single-symbol stream: the header carried everything.
        dest.take(count)?.fill(alphabet.first().copied().unwrap_or(0));
        return Ok(count);
    }
    // Every symbol costs at least one bit, so a corrupted count cannot force
    // an absurd decode loop.
    if count > payload.len().saturating_mul(8) {
        return Err(CodecError::Corrupt("huffman: count exceeds payload bits"));
    }
    let out = dest.take(count)?;
    t.build();
    t.run(payload, out)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ByteWriter;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The tree builder this module started with — a `(freq, id)` min-heap
    /// and a leaf-to-root walk per symbol — kept as the reference the
    /// two-queue build must reproduce length for length.
    fn heap_code_lengths(freqs: &[u64]) -> Vec<u32> {
        let n = freqs.len();
        if n < 2 {
            return vec![1; n];
        }
        let mut parent = vec![usize::MAX; 2 * n - 1];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            freqs.iter().enumerate().map(|(i, &f)| Reverse((f, i))).collect();
        let mut next_id = n;
        while heap.len() > 1 {
            let (Some(Reverse((fa, a))), Some(Reverse((fb, b)))) = (heap.pop(), heap.pop()) else {
                break;
            };
            parent[a] = next_id;
            parent[b] = next_id;
            heap.push(Reverse((fa + fb, next_id)));
            next_id += 1;
        }
        let root = next_id - 1;
        (0..n)
            .map(|mut node| {
                let mut d = 0;
                while node != root {
                    node = parent[node];
                    d += 1;
                }
                d
            })
            .collect()
    }

    fn heap_limited_code_lengths(freqs: &[u64]) -> Vec<u32> {
        let mut f = freqs.to_vec();
        loop {
            let lengths = heap_code_lengths(&f);
            if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
                return lengths;
            }
            f.iter_mut().for_each(|v| *v = (*v).div_ceil(2));
        }
    }

    /// The canonical assignment as first written: sort by (length, index).
    fn sorted_canonical_codes(lengths: &[u32]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..lengths.len()).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u64; lengths.len()];
        let (mut code, mut prev_len) = (0u64, 0u32);
        for &i in &order {
            code <<= lengths[i] - prev_len;
            codes[i] = code;
            code += 1;
            prev_len = lengths[i];
        }
        codes
    }

    fn fibonacci(terms: usize) -> Vec<u64> {
        let mut f = vec![1u64, 1];
        while f.len() < terms {
            f.push(f[f.len() - 1] + f[f.len() - 2]);
        }
        f
    }

    /// A one-symbol stream over an alphabet `0..lengths.len()` with the given
    /// code lengths; the all-zero payload is the first canonical code.
    fn decode_with_lengths(lengths: &[u32]) -> Result<Vec<i32>, CodecError> {
        let mut w = ByteWriter::new();
        w.put_uvarint(1);
        w.put_uvarint(lengths.len() as u64);
        w.put_ivarint(0);
        for _ in 1..lengths.len() {
            w.put_ivarint(1);
        }
        for &l in lengths {
            w.put_u8(l as u8);
        }
        w.put_block(&[0u8; 8]);
        decode(&w.finish())
    }

    #[test]
    fn two_queue_build_matches_the_heap() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cases: Vec<Vec<u64>> = vec![vec![], vec![7], vec![3, 3], vec![1, 2], vec![2, 1]];
        // Fibonacci counts: depth n − 1, past MAX_CODE_LEN from 50 terms on,
        // so the halving retry runs; both orders, so ids and weights disagree.
        for terms in [3, 10, 48, 49, 50, 60] {
            cases.push(fibonacci(terms));
            cases.push(fibonacci(terms).into_iter().rev().collect());
        }
        // All tied: every pop is decided by the id alone.
        for n in [2, 3, 5, 8, 17, 64, 100, 1000] {
            cases.push(vec![1; n]);
            cases.push(vec![u64::MAX >> 12; n]);
        }
        // Random counts: full-range (sums stay below 2^64), and small ones
        // with many leaf/internal ties.
        for n in [2, 3, 7, 33, 257, 4000] {
            cases.push((0..n).map(|_| 1 + (next() >> 13)).collect());
            cases.push((0..n).map(|_| 1 + next() % 4).collect());
            cases.push((0..n).map(|i| 1 + next() % (i as u64 + 1)).collect());
        }
        // One scratch for every case, left dirty by the previous one.
        let (mut queue, mut lengths, mut codes) = (Vec::new(), Vec::new(), Vec::new());
        for freqs in &cases {
            code_lengths(freqs, &mut queue, &mut lengths);
            assert_eq!(lengths, heap_code_lengths(freqs), "code_lengths({freqs:?})");
            limited_code_lengths(freqs, &mut queue, &mut lengths);
            assert_eq!(lengths, heap_limited_code_lengths(freqs), "limited({freqs:?})");
            assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
            canonical_codes(&lengths, &mut codes);
            assert_eq!(codes, sorted_canonical_codes(&lengths), "codes({freqs:?})");
        }
    }

    #[test]
    fn kraft_check_is_exact() {
        let violation = Err(CodecError::Corrupt("huffman: lengths violate Kraft equality"));
        // Over-subscribed by 2^-40, and incomplete by 2^-30 − 2^-40: both
        // inside the 1e-9 tolerance of a floating-point sum.
        assert_eq!(decode_with_lengths(&[1, 1, 40]), violation);
        let mut lengths: Vec<u32> = (1..=30).collect();
        lengths.push(40);
        assert_eq!(decode_with_lengths(&lengths), violation);
        // 2^17 + 2 one-bit codes sum to 2^64 + 2^48: a wrapping add would
        // land exactly on the accepted value.
        assert_eq!(decode_with_lengths(&vec![1; (1 << 17) + 2]), violation);
        // Every table the encoder can build passes — deep ones and the
        // halving retry's included.
        let (mut queue, mut lengths) = (Vec::new(), Vec::new());
        for freqs in [fibonacci(2), fibonacci(30), fibonacci(49), fibonacci(60), vec![5; 1000]] {
            limited_code_lengths(&freqs, &mut queue, &mut lengths);
            // The first canonical code belongs to the first of the shortest.
            let shortest = lengths.iter().min().unwrap();
            let first = lengths.iter().position(|l| l == shortest).unwrap() as i32;
            assert_eq!(decode_with_lengths(&lengths), Ok(vec![first]), "{freqs:?}");
        }
    }

    fn roundtrip(symbols: &[i32]) {
        let enc = encode(symbols);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_stream() {
        roundtrip(&[42; 1000]);
        let enc = encode(&[42; 1000]);
        assert!(enc.len() < 16, "degenerate stream should be tiny, got {}", enc.len());
    }

    #[test]
    fn two_symbols() {
        let s: Vec<i32> = (0..100).map(|i| if i % 3 == 0 { -5 } else { 9 }).collect();
        roundtrip(&s);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros: entropy ~0.29 bits, so ~1000 symbols -> well under 1000 bits.
        let s: Vec<i32> = (0..4000).map(|i| if i % 20 == 0 { i % 7 } else { 0 }).collect();
        let enc = encode(&s);
        assert!(enc.len() * 8 < s.len() * 3, "got {} bytes", enc.len());
        roundtrip(&s);
    }

    #[test]
    fn negative_and_large_symbols() {
        let s = vec![i32::MIN, i32::MAX, 0, -1, 1, i32::MIN, i32::MAX];
        roundtrip(&s);
    }

    #[test]
    fn uniform_wide_alphabet() {
        let s: Vec<i32> = (0..2048).map(|i| (i % 256) - 128).collect();
        roundtrip(&s);
    }

    #[test]
    fn canonical_codes_prefix_free() {
        let lengths = vec![2, 2, 2, 3, 4, 4];
        let mut codes = Vec::new();
        canonical_codes(&lengths, &mut codes);
        for i in 0..codes.len() {
            for j in 0..codes.len() {
                if i == j {
                    continue;
                }
                let (li, lj) = (lengths[i], lengths[j]);
                if li <= lj {
                    assert_ne!(codes[i], codes[j] >> (lj - li), "prefix violation {i} {j}");
                }
            }
        }
    }

    #[test]
    fn code_lengths_match_frequencies() {
        // More frequent symbols never get longer codes.
        let freqs = vec![100u64, 50, 20, 5, 1];
        let (mut queue, mut lengths) = (Vec::new(), Vec::new());
        code_lengths(&freqs, &mut queue, &mut lengths);
        for w in lengths.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let s: Vec<i32> = (0..500).map(|i| i % 17).collect();
        let enc = encode(&s);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupted_lengths_error_not_panic() {
        let s: Vec<i32> = (0..100).map(|i| i % 5).collect();
        let mut enc = encode(&s);
        // Stomp on a code-length byte.
        let len = enc.len();
        enc[len / 3] ^= 0xFF;
        let _ = decode(&enc); // must not panic; error or garbage both tolerable
    }

    #[test]
    fn kraft_violation_detected() {
        // Hand-build a header with lengths {1, 1, 1}: violates Kraft equality.
        let mut w = ByteWriter::new();
        w.put_uvarint(3); // count
        w.put_uvarint(3); // alphabet size
        w.put_ivarint(0);
        w.put_ivarint(1);
        w.put_ivarint(1);
        w.put_u8(1);
        w.put_u8(1);
        w.put_u8(1);
        w.put_block(&[0u8]);
        assert_eq!(
            decode(&w.finish()),
            Err(CodecError::Corrupt("huffman: lengths violate Kraft equality"))
        );
    }

    #[test]
    fn random_roundtrip() {
        // Deterministic pseudo-random stream exercising many symbol shapes.
        let mut state = 0x9E37_79B9u32;
        let mut s = Vec::new();
        for _ in 0..10_000 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            s.push(((state >> 16) as i32 % 1000) - 500);
        }
        roundtrip(&s);
    }
}
