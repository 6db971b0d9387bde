//! Byte identity of the tight-bound entropy stage against the encoders it
//! replaced.
//!
//! `huffman::encode` now counts and ranks symbols in one array over the
//! non-sentinel span, builds its tree from two queues and never hashes per
//! symbol; `lz::compress` keeps `u32` chains, pre-compares the first word of
//! a candidate and skips positions a presence filter proves matchless. The
//! encoders as they were — heap-built tree, `dense_cap` rule with a `HashMap`
//! emit, `usize` chains walked at every position — are kept here, and only
//! here, so every stream class can be checked byte for byte against them.

use proptest::prelude::*;
use qip_codec::{decode_indices, encode_indices, huffman, lz, CodecError, CHUNK_SYMBOLS};

const UNPRED: i32 = i32::MIN;

mod reference {
    use qip_codec::{range, ByteWriter, CHUNK_SYMBOLS};

    pub mod huffman {
        use qip_codec::{BitWriter, ByteWriter};
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        const MAX_CODE_LEN: u32 = 48;

        fn code_lengths(freqs: &[u64]) -> Vec<u32> {
            let n = freqs.len();
            if n < 2 {
                return vec![1; n];
            }
            let mut parent = vec![usize::MAX; 2 * n - 1];
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                freqs.iter().enumerate().map(|(i, &f)| Reverse((f, i))).collect();
            let mut next_id = n;
            while heap.len() > 1 {
                let (Some(Reverse((fa, a))), Some(Reverse((fb, b)))) = (heap.pop(), heap.pop())
                else {
                    break;
                };
                parent[a] = next_id;
                parent[b] = next_id;
                heap.push(Reverse((fa + fb, next_id)));
                next_id += 1;
            }
            let root = next_id - 1;
            let mut lengths = vec![0u32; n];
            for (i, len) in lengths.iter_mut().enumerate() {
                let mut d = 0;
                let mut node = i;
                while node != root {
                    node = parent[node];
                    d += 1;
                }
                *len = d;
            }
            lengths
        }

        fn limited_code_lengths(freqs: &[u64]) -> Vec<u32> {
            let mut f: Vec<u64> = freqs.to_vec();
            loop {
                let lengths = code_lengths(&f);
                if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
                    return lengths;
                }
                for v in &mut f {
                    *v = (*v).div_ceil(2);
                }
            }
        }

        fn canonical_codes(lengths: &[u32]) -> Vec<u64> {
            let mut order: Vec<usize> = (0..lengths.len()).collect();
            order.sort_by_key(|&i| (lengths[i], i));
            let mut codes = vec![0u64; lengths.len()];
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &i in &order {
                let len = lengths[i];
                code <<= len - prev_len;
                codes[i] = code;
                code += 1;
                prev_len = len;
            }
            codes
        }

        /// The stream split where the code stream's length prefix begins:
        /// `(header, code stream)`; `None` for the header-only formats.
        pub fn encode_parts(symbols: &[i32]) -> (Vec<u8>, Option<Vec<u8>>) {
            let mut w = ByteWriter::with_capacity(symbols.len() / 2 + 64);
            w.put_uvarint(symbols.len() as u64);
            if symbols.is_empty() {
                return (w.finish(), None);
            }

            const SENTINEL: i32 = i32::MIN;
            let mut sentinel_count: u64 = 0;
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            for &s in symbols {
                if s == SENTINEL {
                    sentinel_count += 1;
                } else {
                    lo = lo.min(s);
                    hi = hi.max(s);
                }
            }
            let mut alphabet: Vec<i32>;
            let freqs: Vec<u64>;
            if lo > hi {
                alphabet = vec![SENTINEL];
                freqs = vec![sentinel_count];
            } else if ((hi as i64 - lo as i64) as u64) < 1 << 22 {
                let span = (hi as i64 - lo as i64) as usize + 1;
                let mut counts = vec![0u64; span];
                for &s in symbols {
                    if s != SENTINEL {
                        counts[(s as i64 - lo as i64) as usize] += 1;
                    }
                }
                let mut f = Vec::new();
                alphabet = Vec::new();
                if sentinel_count > 0 {
                    alphabet.push(SENTINEL);
                    f.push(sentinel_count);
                }
                for (k, &c) in counts.iter().enumerate() {
                    if c > 0 {
                        alphabet.push(lo + k as i32);
                        f.push(c);
                    }
                }
                freqs = f;
            } else {
                let mut hist: HashMap<i32, u64> = HashMap::new();
                for &s in symbols {
                    *hist.entry(s).or_insert(0) += 1;
                }
                alphabet = hist.keys().copied().collect();
                alphabet.sort_unstable();
                freqs = alphabet.iter().map(|s| hist[s]).collect();
            }
            w.put_uvarint(alphabet.len() as u64);
            let mut prev = 0i64;
            for &sym in &alphabet {
                w.put_ivarint(sym as i64 - prev);
                prev = sym as i64;
            }
            if alphabet.len() == 1 {
                return (w.finish(), None);
            }

            let lengths = limited_code_lengths(&freqs);
            for &l in &lengths {
                w.put_u8(l as u8);
            }
            let codes = canonical_codes(&lengths);

            let min_sym = alphabet[0] as i64;
            let max_sym = *alphabet.last().unwrap() as i64;
            let span = (max_sym - min_sym) as u64 + 1;
            let dense_cap = (alphabet.len() as u64 * 8).clamp(4096, 1 << 22);
            let mut bw = BitWriter::new();
            if span <= dense_cap {
                let mut table: Vec<(u64, u32)> = vec![(0, 0); span as usize];
                for (i, &s) in alphabet.iter().enumerate() {
                    table[(s as i64 - min_sym) as usize] = (codes[i], lengths[i]);
                }
                for &s in symbols {
                    let (code, len) = table[(s as i64 - min_sym) as usize];
                    bw.write_bits(code, len);
                }
            } else {
                let index: HashMap<i32, usize> =
                    alphabet.iter().enumerate().map(|(i, &s)| (s, i)).collect();
                for &s in symbols {
                    let i = index[&s];
                    bw.write_bits(codes[i], lengths[i]);
                }
            }
            (w.finish(), Some(bw.finish()))
        }

        pub fn encode(symbols: &[i32]) -> Vec<u8> {
            let (header, code_stream) = encode_parts(symbols);
            let mut w = ByteWriter::from_vec(header);
            if let Some(bits) = code_stream {
                w.put_block(&bits);
            }
            w.finish()
        }
    }

    pub mod lz {
        use qip_codec::ByteWriter;

        pub const MIN_MATCH: usize = 4;
        pub const WINDOW: usize = 1 << 20;
        pub const MAX_CHAIN: usize = 48;
        const HASH_BITS: u32 = 16;

        pub fn hash4(data: &[u8], i: usize) -> usize {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        }

        /// Byte by byte: the definition `common_prefix` is an optimization of.
        fn common_prefix(x: &[u8], y: &[u8]) -> usize {
            x.iter().zip(y).take_while(|(a, b)| a == b).count()
        }

        pub fn compress(input: &[u8]) -> Vec<u8> {
            let mut w = ByteWriter::with_capacity(input.len() / 2 + 16);
            w.put_uvarint(input.len() as u64);
            if input.is_empty() {
                return w.finish();
            }

            let mut head = vec![usize::MAX; 1 << HASH_BITS];
            let mut prev = vec![usize::MAX; input.len()];

            let mut i = 0usize;
            let mut lit_start = 0usize;
            while i < input.len() {
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(input, i);
                    let mut cand = head[h];
                    let mut depth = 0;
                    while cand != usize::MAX && depth < MAX_CHAIN {
                        let dist = i - cand;
                        if dist > WINDOW {
                            break;
                        }
                        if best_len == 0
                            || (i + best_len < input.len()
                                && input.get(cand + best_len) == input.get(i + best_len))
                        {
                            let limit = input.len() - i;
                            let l = common_prefix(&input[cand..cand + limit], &input[i..]);
                            if l > best_len {
                                best_len = l;
                                best_dist = dist;
                                if l >= 512 {
                                    break;
                                }
                            }
                        }
                        cand = prev[cand];
                        depth += 1;
                    }
                }

                if best_len >= MIN_MATCH {
                    w.put_uvarint((i - lit_start) as u64);
                    w.put_bytes(&input[lit_start..i]);
                    w.put_uvarint(best_len as u64);
                    w.put_uvarint(best_dist as u64);
                    let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                    let step = if best_len > 64 { 4 } else { 1 };
                    let mut j = i;
                    while j < end {
                        let h = hash4(input, j);
                        prev[j] = head[h];
                        head[h] = j;
                        j += step;
                    }
                    i += best_len;
                    lit_start = i;
                } else {
                    if i + MIN_MATCH <= input.len() {
                        let h = hash4(input, i);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            }
            w.put_uvarint((i - lit_start) as u64);
            w.put_bytes(&input[lit_start..i]);
            w.finish()
        }
    }

    const RANGE_TRY_LIMIT: usize = 1 << 16;

    fn encode_block(indices: &[i32]) -> Vec<u8> {
        let huff = huffman::encode(indices);
        let lzed = lz::compress(&huff);
        let mut best: (u8, Vec<u8>) = if lzed.len() < huff.len() { (1, lzed) } else { (0, huff) };
        if indices.len() <= RANGE_TRY_LIMIT {
            let rng = range::encode(indices);
            if rng.len() < best.1.len() {
                let rlz = lz::compress(&rng);
                best = if rlz.len() < rng.len() { (3, rlz) } else { (2, rng) };
            }
        }
        let mut out = vec![best.0];
        out.extend_from_slice(&best.1);
        out
    }

    /// Every chunk from fresh state, one after the other.
    pub fn encode_indices(indices: &[i32]) -> Vec<u8> {
        if indices.len() <= CHUNK_SYMBOLS {
            return encode_block(indices);
        }
        let encoded: Vec<Vec<u8>> = indices.chunks(CHUNK_SYMBOLS).map(encode_block).collect();
        let mut w = ByteWriter::new();
        w.put_u8(4);
        w.put_uvarint(indices.len() as u64);
        w.put_uvarint(CHUNK_SYMBOLS as u64);
        w.put_uvarint(encoded.len() as u64);
        for e in &encoded {
            w.put_uvarint(e.len() as u64);
        }
        for e in &encoded {
            w.put_bytes(e);
        }
        w.finish()
    }
}

/// xorshift64*: the deterministic source every generated stream draws from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Two-sided geometric: the peaked shape of quantization indices.
    fn peaked(&mut self) -> i32 {
        let r = self.next();
        let magnitude = (r >> 1).trailing_ones() as i32;
        if r & 1 == 0 { magnitude } else { -magnitude }
    }
}

const SYMBOL_KINDS: usize = 12;

/// One symbol stream per class the issue names; `kind < SYMBOL_KINDS`.
fn symbols_of(kind: usize, seed: u64) -> Vec<i32> {
    let mut rng = Rng(seed | 1);
    let len = 1 + rng.below(5000);
    match kind {
        // One symbol, two symbols, all unpredictable.
        0 => vec![rng.next() as i32; len],
        1 => {
            let pair = [rng.next() as i32 >> 12, if seed & 2 == 0 { UNPRED } else { 7 }];
            (0..len).map(|_| pair[rng.below(2)]).collect()
        }
        2 => vec![UNPRED; len],
        // Peaked around zero, without and with the sentinel.
        3 => (0..len).map(|_| rng.peaked()).collect(),
        4 => (0..len).map(|_| if rng.below(50) == 0 { UNPRED } else { rng.peaked() }).collect(),
        // Sparse tail: a few outliers near the quantizer radius stretch the
        // span far past 8·|alphabet| (the retired `dense_cap`).
        5 => (0..len)
            .map(|_| match rng.below(400) {
                0 => 32_767 - rng.below(40) as i32,
                1 => -32_768 + rng.below(40) as i32,
                2 => UNPRED,
                _ => rng.peaked() * 3,
            })
            .collect(),
        // Spans on both sides of the 2²² dense limit.
        6 => {
            let base = (rng.next() as i32) >> 4;
            let reach = (1 << 22) - 2 + rng.below(4) as i32;
            let with_sentinel = seed & 2 == 0;
            (0..len)
                .map(|_| match rng.below(8) {
                    0 => base + reach,
                    1 if with_sentinel => UNPRED,
                    _ => base + rng.below(6) as i32,
                })
                .collect()
        }
        // The ends of `i32`: the wide fallback, sentinel included.
        7 => {
            let ends = [i32::MIN + 1, i32::MAX, UNPRED, 0, -1, i32::MAX - 1];
            (0..len).map(|_| ends[rng.below(ends.len())]).collect()
        }
        8 => (0..len.min(600)).map(|_| rng.next() as i32).collect(),
        // All tied: `m` copies each of `k` values, shuffled.
        9 => {
            let (k, m) = (1 + rng.below(300), 1 + rng.below(4));
            let mut s: Vec<i32> = (0..k * m).map(|i| (i % k) as i32 * 5 - 700).collect();
            for i in (1..s.len()).rev() {
                s.swap(i, rng.below(i + 1));
            }
            s
        }
        // Skewed: Fibonacci-like counts give the deepest tree per symbol.
        10 => {
            let terms = 2 + rng.below(16);
            let (mut a, mut b) = (1usize, 1usize);
            let mut s = Vec::new();
            for t in 0..terms {
                s.extend(std::iter::repeat_n(t as i32 * 3 - 9, a));
                (a, b) = (b, a + b);
            }
            s
        }
        // Thousands of distinct values: codes past the 12-bit decode table.
        _ => (0..len * 3).map(|_| (rng.next() % 9000) as i32 - 4500).collect(),
    }
}

const BYTE_KINDS: usize = 7;

/// `len` bytes (kinds 1 and 4 may overshoot a little) per matcher regime;
/// `kind < BYTE_KINDS`.
fn bytes_of(kind: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    match kind {
        0 => (0..len).map(|_| rng.next() as u8).collect(),
        // Run-length.
        1 => {
            let mut s = Vec::new();
            while s.len() < len {
                let (byte, run) = (rng.next() as u8, 1 + rng.below(700));
                s.extend(std::iter::repeat_n(byte, run));
            }
            s
        }
        // Periodic with rare mutations.
        2 => {
            let period: Vec<u8> = (0..1 + rng.below(40)).map(|_| rng.next() as u8).collect();
            let mut s: Vec<u8> = period.iter().copied().cycle().take(len).collect();
            for _ in 0..len / 300 {
                s[rng.below(len)] = rng.next() as u8;
            }
            s
        }
        // Three letters: every bucket's chain runs deeper than MAX_CHAIN.
        3 => (0..len).map(|_| b"abc"[rng.below(3)]).collect(),
        // Self-referential: literals interleaved with (overlapping) copies.
        4 => {
            let mut s: Vec<u8> = Vec::new();
            while s.len() < len {
                if s.is_empty() || rng.below(3) == 0 {
                    s.extend((0..1 + rng.below(30)).map(|_| rng.next() as u8));
                } else {
                    let start = s.len() - 1 - rng.below(s.len());
                    for k in 0..1 + rng.below(900) {
                        s.push(s[start + k]);
                    }
                }
            }
            s
        }
        // Lengths 0–7, around MIN_MATCH.
        5 => (0..len % 8).map(|_| b"xy"[rng.below(2)]).collect(),
        // What the matcher sees in production: a Huffman stream — structured
        // header, incompressible tail.
        _ => huffman::encode(&symbols_of(5, seed)),
    }
}

fn assert_huffman_identical(symbols: &[i32], what: &str) {
    let enc = huffman::encode(symbols);
    assert!(enc == reference::huffman::encode(symbols), "{what}: huffman bytes moved");
    assert!(huffman::decode(&enc).expect(what) == symbols, "{what}: decode differs");
}

fn assert_lz_identical(data: &[u8], what: &str) {
    let enc = lz::compress(data);
    assert!(enc == reference::lz::compress(data), "{what}: lz bytes moved");
    assert!(lz::decompress(&enc).expect(what) == data, "{what}: decompress differs");
}

fn assert_indices_identical(indices: &[i32], what: &str) {
    let enc = encode_indices(indices);
    assert!(enc == reference::encode_indices(indices), "{what}: index stream moved");
    assert!(decode_indices(&enc).expect(what) == indices, "{what}: decode differs");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn huffman_matches_reference(kind in 0..SYMBOL_KINDS, seed in any::<u64>()) {
        assert_huffman_identical(&symbols_of(kind, seed), &format!("kind {kind} seed {seed}"));
    }

    #[test]
    fn lz_matches_reference(kind in 0..BYTE_KINDS, seed in any::<u64>(), len in 0usize..20_000) {
        assert_lz_identical(&bytes_of(kind, seed, len), &format!("kind {kind} seed {seed} +{len}"));
    }

    #[test]
    fn flat_index_blocks_match_reference(kind in 0..SYMBOL_KINDS, seed in any::<u64>()) {
        assert_indices_identical(&symbols_of(kind, seed), &format!("kind {kind} seed {seed}"));
    }
}

#[test]
fn fixed_edge_streams() {
    assert_huffman_identical(&[], "empty");
    assert_huffman_identical(&[UNPRED], "one sentinel");
    assert_huffman_identical(&[i32::MAX], "one maximum");
    assert_huffman_identical(&[i32::MAX, UNPRED, i32::MAX], "sentinel beside the maximum");
    assert_huffman_identical(&[i32::MIN + 1, UNPRED, i32::MIN + 1, 5], "sentinel's neighbour");
    assert_huffman_identical(&[i32::MIN + 1, i32::MAX, UNPRED, 0], "full width");
    // The dense limits exactly: in a block of 2¹⁷ symbols a span of 2²² values
    // is dense, one more is not; a block of 5 symbols is dense up to a span of
    // 2¹⁶ + 32 · 5.
    for reach in [(1 << 22) - 2, (1 << 22) - 1, 1 << 22, (1 << 22) + 1] {
        for lo in [-9, i32::MIN + 1, i32::MAX - reach] {
            let mut long = vec![lo; 1 << 17];
            (long[1], long[2], long[3]) = (lo + reach, UNPRED, lo + 1);
            assert_huffman_identical(&long, "dense limit");
            assert_huffman_identical(&[lo + reach, lo, lo + reach], "dense limit, no sentinel");
        }
    }
    let short = (1 << 16) + 32 * 5;
    for reach in [short - 2, short - 1, short, short + 1] {
        for lo in [-9, i32::MIN + 1, i32::MAX - reach] {
            assert_huffman_identical(&[lo, lo + reach, UNPRED, lo, lo + 1], "short-block limit");
        }
    }
    for len in 0..8 {
        for seed in 0..8 {
            assert_lz_identical(&bytes_of(5, seed, len), "tiny");
        }
        assert_lz_identical(&vec![b'z'; len], "tiny run");
    }
}

/// A dense block with at most a sixteenth of its symbols outside `-128..128`
/// counts the window in four interleaved lanes and the rest in the rank
/// table; any other block counts everything in the table. Both paths: runs of
/// one symbol, the window's edges, the lane rule's limit, a chunk with no
/// window value, every length mod 4 and a span as wide as MGARD's.
#[test]
fn lane_histogram_edges() {
    let chunk = CHUNK_SYMBOLS;
    for s in [0, 1, -1, 127, -128, 128, -129, 40_000] {
        assert_indices_identical(&vec![s; chunk], "one symbol, a full chunk");
    }
    assert_indices_identical(&vec![UNPRED; chunk], "sentinel-only chunk");
    assert_huffman_identical(&[UNPRED; 5], "sentinel-only block");
    let mut rng = Rng(0x1A7E);
    let edges = [-130, -129, -128, -127, 126, 127, 128, 129, UNPRED];
    for len in 1..=64 {
        for every in [1, 8, 16, 32] {
            let block: Vec<i32> = (0..len)
                .map(|_| if rng.below(every) == 0 { edges[rng.below(edges.len())] } else { rng.peaked() })
                .collect();
            assert_huffman_identical(&block, "edge symbols among peaked ones, every length mod 4");
        }
    }
    for outside in [10, 11] {
        for edge in [128, -129, UNPRED] {
            let mut block: Vec<i32> = (0..160).map(|i| [0, -128, 127, 1][i % 4]).collect();
            for k in 0..outside {
                block[k * 14 + 3] = edge;
            }
            assert_huffman_identical(&block, "a sixteenth of the block outside the window, and one more");
        }
    }
    for (lo, hi) in [(-128, 127), (-129, 128), (-128, 128), (-129, 127), (5, 127), (-128, -3)] {
        for every in [3, 40] {
            let mut block: Vec<i32> =
                (0..1000).map(|i| [lo, hi].get(i % every).copied().unwrap_or(0).clamp(lo, hi)).collect();
            block.push(UNPRED);
            assert_huffman_identical(&block, "span ending on a window edge");
        }
    }
    // Chunks coded with one scratch, each of whose lanes must start at zero.
    let edged: Vec<i32> =
        (0..4 * chunk + 100).map(|i| if i % 50 == 0 { [127, -128][i / 50 % 2] } else { rng.peaked() }).collect();
    assert_indices_identical(&edged, "chunks sharing a scratch");
    // MGARD's indices: a peaked core and a tail out to a 1.4 M-value span.
    let mut wide: Vec<i32> = (0..chunk).map(|_| rng.peaked()).collect();
    for _ in 0..2000 {
        wide[rng.below(chunk)] = rng.below(1_400_000) as i32 - 700_000;
    }
    (wide[7], wide[8], wide[9]) = (-700_000, 699_999, UNPRED);
    assert_huffman_identical(&wide, "1.4 M-value span");
}

/// Chains deeper than `MAX_CHAIN` and matches past the 512-byte early exit
/// and the sparse-insertion threshold, at sizes the property cases skip.
#[test]
fn lz_deep_chains_and_long_matches() {
    use reference::lz::{MAX_CHAIN, MIN_MATCH};
    let letters = bytes_of(3, 11, 150_000);
    assert!(letters.len() > 81 * MAX_CHAIN * MIN_MATCH, "3⁴ words must overfill their chains");
    assert_lz_identical(&letters, "three letters");
    let mut s = bytes_of(0, 12, 40_000);
    let copies = [(100, 511), (3_000, 512), (9_000, 513), (20_000, 64), (20_500, 65), (0, 5_000)];
    for (from, len) in copies {
        let copy = s[from..from + len].to_vec();
        s.extend_from_slice(&copy);
        s.push(from as u8);
    }
    assert_lz_identical(&s, "long matches");
}

/// Words that merely share a bucket with the word at hand are skipped
/// without a compare, but still count toward `MAX_CHAIN`: a real match
/// behind 47 of them is found, behind 48 it is not.
#[test]
fn lz_colliding_words_count_toward_the_chain_limit() {
    use reference::lz::{hash4, MAX_CHAIN};
    let target = *b"QIP!";
    let bucket = hash4(&target, 0);
    let colliding: Vec<[u8; 4]> = (0u32..)
        .map(|v| v.wrapping_mul(0x0101_0107).to_le_bytes())
        .filter(|w| *w != target && hash4(w, 0) == bucket)
        .take(MAX_CHAIN + 2)
        .collect();
    let mut sizes = Vec::new();
    for between in [MAX_CHAIN - 1, MAX_CHAIN, MAX_CHAIN + 1] {
        let mut s = target.to_vec();
        s.extend_from_slice(b"-first-");
        for (k, w) in colliding[..between].iter().enumerate() {
            s.extend_from_slice(w);
            s.extend_from_slice(&[0xF0, k as u8, 0xF1]);
        }
        s.extend_from_slice(&target);
        s.extend_from_slice(b"-again");
        assert_lz_identical(&s, "colliding words");
        sizes.push(lz::compress(&s).len() as isize - s.len() as isize);
    }
    assert!(sizes[0] < sizes[1] && sizes[1] == sizes[2], "match lost at MAX_CHAIN: {sizes:?}");
}

#[test]
#[ignore = "1.5 MB inputs through the quadratic-ish reference matcher: release only (CI runs it)"]
fn lz_inputs_that_cross_the_window_and_saturate_the_filter() {
    use reference::lz::WINDOW;
    // Incompressible: every position is linked, the filter is at its 2²²-bit
    // ceiling and a third full.
    let noise = bytes_of(0, 21, 1_500_000);
    assert!(noise.len() > WINDOW);
    assert_lz_identical(&noise, "1.5 MB noise");
    // Repeats far outside the window, then at exactly `WINDOW` (the last
    // distance searched) and one byte beyond it.
    let sizes = [0, 1].map(|beyond| {
        let mut s = noise[..WINDOW + 300_000].to_vec();
        let far = s[..40_000].to_vec();
        s.extend_from_slice(&far);
        let edge = s[s.len() - WINDOW - beyond..][..64].to_vec();
        s.extend_from_slice(&edge);
        s.extend_from_slice(&noise[..100]);
        assert_lz_identical(&s, "matches at the window's edge");
        lz::compress(&s).len()
    });
    assert!(sizes[0] + 50 < sizes[1], "only the copy at exactly WINDOW is a match: {sizes:?}");
    // Structured and long: deep chains that also outrun the window.
    let mut letters = bytes_of(3, 22, 700_000);
    letters.extend(bytes_of(2, 23, 400_000));
    letters.extend(bytes_of(4, 24, 400_000));
    assert!(letters.len() > WINDOW);
    assert_lz_identical(&letters, "1.5 MB structured");
}

/// Five chunks of five textures — each leaves the scratch in a state the next
/// must not see — at one, two and eight workers, i.e. as one run, as runs of
/// three and two, and with a scratch per chunk.
///
/// One test function: it sweeps `RAYON_NUM_THREADS`, which is process-global.
#[test]
fn chunked_streams_are_identical_at_every_worker_count() {
    let mut indices = Vec::new();
    // Wide sparse-tailed alphabet with the sentinel; two symbols; the wide
    // fallback; thousands of distinct values; a short tail chunk that also
    // tries the range coder.
    const FULL: usize = CHUNK_SYMBOLS;
    for (kind, len) in [(5, FULL), (1, FULL), (7, FULL), (11, FULL), (4, 9_000)] {
        let mut seed = kind as u64;
        let start = indices.len();
        while indices.len() < start + len {
            seed += 100;
            indices.extend(symbols_of(kind, seed));
        }
        indices.truncate(start + len);
    }
    let want = reference::encode_indices(&indices);
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert!(encode_indices(&indices) == want, "index stream moved at {threads} threads");
    }
    match prev {
        Some(p) => std::env::set_var("RAYON_NUM_THREADS", p),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert!(decode_indices(&want).unwrap() == indices);
}

/// `terms` symbols with Fibonacci counts, the rarest (longest codes) last:
/// the deepest tree a stream of that size can have, `terms − 1` bits.
fn fibonacci_stream(terms: usize) -> Vec<i32> {
    let (mut a, mut b) = (1usize, 1usize);
    let mut runs = Vec::new();
    for t in 0..terms {
        runs.push((t as i32 * 7 - 50, a));
        (a, b) = (b, a + b);
    }
    runs.iter().rev().flat_map(|&(sym, n)| std::iter::repeat_n(sym, n)).collect()
}

/// Codes past `DECODE_TABLE_BITS` (12) resolve on one peeked window up to 32
/// bits: they round-trip, and a code stream cut anywhere is `UnexpectedEof` —
/// never a panic, never symbols.
#[test]
fn long_codes_roundtrip_and_every_truncation_errors() {
    for terms in [14, 17, 21, 26, 33] {
        let s = fibonacci_stream(terms);
        let enc = huffman::encode(&s);
        assert!(enc == reference::huffman::encode(&s), "{terms} terms: bytes moved");
        assert!(huffman::decode(&enc).unwrap() == s, "{terms} terms: decode differs");
        if terms > 21 {
            continue; // the sweeps below decode the stream once per byte
        }
        for cut in 0..enc.len() {
            assert!(huffman::decode(&enc[..cut]).is_err(), "{terms} terms: prefix {cut} decoded");
        }
        // A well-formed block that is merely short of bits.
        let (header, code_stream) = reference::huffman::encode_parts(&s);
        let code_stream = code_stream.unwrap();
        for keep in 0..code_stream.len() {
            let mut w = qip_codec::ByteWriter::from_vec(header.clone());
            w.put_block(&code_stream[..keep]);
            // Fewer bits than symbols is refused before the decode loop.
            let want = if keep * 8 < s.len() {
                CodecError::Corrupt("huffman: count exceeds payload bits")
            } else {
                CodecError::UnexpectedEof
            };
            assert_eq!(huffman::decode(&w.finish()), Err(want), "{terms} terms, {keep} bytes");
        }
    }
    // Many distinct values rather than skew: 13–15-bit codes throughout.
    let s = symbols_of(11, 5);
    let enc = huffman::encode(&s);
    assert!(huffman::decode(&enc).unwrap() == s);
    for cut in (0..enc.len()).step_by(7) {
        assert!(huffman::decode(&enc[..cut]).is_err(), "prefix {cut} decoded");
    }
}
