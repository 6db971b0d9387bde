//! Decode identity of the entropy stage against the decoders it had before.
//!
//! `huffman::decode_into` resolves codes through a two-level table with
//! multi-symbol entries on a word-refilled bit window, `range::decode_into`
//! keeps its model as two levels of running sums, and
//! `decode_indices_capped_into` decodes every chunk straight into the caller's
//! plane. The references below are the decoders as they were — a per-byte
//! bit reader, a 12-bit `(symbol, length)` table with the canonical walk
//! behind it, the Fenwick-tree range model, chunks staged in vectors of their
//! own — kept here, and only here, so every stream class can be checked
//! against them: the same symbols on every valid stream, and on every damaged
//! one either the same symbols or an error of the same variant.

use qip_codec::{
    decode_indices_capped, decode_indices_capped_into, encode_indices, huffman, range, ByteWriter,
    CodecError, CHUNK_SYMBOLS,
};

const SENTINEL: i32 = i32::MIN;

mod reference {
    use qip_codec::{lz, ByteReader, CodecError};

    /// The bit reader before word refills at any alignment: a whole word
    /// only into an empty accumulator, bytes otherwise.
    pub struct BitReader<'a> {
        data: &'a [u8],
        byte_pos: usize,
        acc: u64,
        nbits: u32,
    }

    fn low_mask(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    impl<'a> BitReader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            BitReader { data, byte_pos: 0, acc: 0, nbits: 0 }
        }

        fn refill(&mut self, n: u32) {
            if self.nbits >= n {
                return;
            }
            if self.nbits == 0 {
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

        pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
            if n == 0 {
                return Ok(0);
            }
            if n > 57 {
                let hi = self.read_bits(n - 32)?;
                let lo = self.read_bits(32)?;
                return Ok((hi << 32) | lo);
            }
            self.refill(n);
            if self.nbits < n {
                return Err(CodecError::UnexpectedEof);
            }
            self.nbits -= n;
            Ok((self.acc >> self.nbits) & low_mask(n))
        }

        pub fn read_bit(&mut self) -> Result<bool, CodecError> {
            Ok(self.read_bits(1)? == 1)
        }

        pub fn peek_bits(&mut self, n: u32) -> u64 {
            self.refill(n);
            if self.nbits >= n {
                (self.acc >> (self.nbits - n)) & low_mask(n)
            } else {
                let have = self.nbits;
                let v = if have == 0 { 0 } else { self.acc & low_mask(have) };
                v << (n - have)
            }
        }

        pub fn consume(&mut self, n: u32) -> Result<(), CodecError> {
            self.refill(n);
            if self.nbits < n {
                return Err(CodecError::UnexpectedEof);
            }
            self.nbits -= n;
            Ok(())
        }
    }

    pub mod huffman {
        use super::BitReader;
        use qip_codec::{ByteReader, CodecError};

        const MAX_CODE_LEN: u32 = 48;
        const DECODE_TABLE_BITS: u32 = 12;

        fn canonical_codes(lengths: &[u32]) -> Vec<u64> {
            let mut count = [0u64; MAX_CODE_LEN as usize + 1];
            for &l in lengths {
                count[l as usize] += 1;
            }
            let mut next = [0u64; MAX_CODE_LEN as usize + 1];
            for l in 1..MAX_CODE_LEN as usize {
                next[l + 1] = (next[l] + count[l]) << 1;
            }
            lengths
                .iter()
                .map(|&l| {
                    next[l as usize] += 1;
                    next[l as usize] - 1
                })
                .collect()
        }

        struct Header<'a> {
            count: usize,
            alphabet: Vec<i32>,
            lengths: Vec<u32>,
            payload: &'a [u8],
        }

        fn parse(bytes: &[u8]) -> Result<Header<'_>, CodecError> {
            let mut r = ByteReader::new(bytes);
            let count = r.get_uvarint()? as usize;
            let mut h = Header { count, alphabet: Vec::new(), lengths: Vec::new(), payload: &[] };
            if count > 0 {
                let n_sym = r.get_uvarint()? as usize;
                if n_sym == 0 {
                    return Err(CodecError::Corrupt("huffman: empty alphabet for nonempty stream"));
                }
                if n_sym > r.remaining() {
                    return Err(CodecError::Corrupt("huffman: alphabet exceeds stream"));
                }
                let mut prev = 0i64;
                for _ in 0..n_sym {
                    let sym = prev + r.get_ivarint()?;
                    if sym < i32::MIN as i64 || sym > i32::MAX as i64 {
                        return Err(CodecError::Corrupt("huffman: symbol out of i32 range"));
                    }
                    h.alphabet.push(sym as i32);
                    prev = sym;
                }
                if n_sym > 1 {
                    for _ in 0..n_sym {
                        let l = r.get_u8()? as u32;
                        if l == 0 || l > MAX_CODE_LEN {
                            return Err(CodecError::Corrupt("huffman: invalid code length"));
                        }
                        h.lengths.push(l);
                    }
                    let kraft = h
                        .lengths
                        .iter()
                        .try_fold(0u64, |k, &l| k.checked_add(1 << (MAX_CODE_LEN - l)));
                    if kraft != Some(1 << MAX_CODE_LEN) {
                        return Err(CodecError::Corrupt("huffman: lengths violate Kraft equality"));
                    }
                    h.payload = r.get_block()?;
                }
            }
            if r.remaining() != 0 {
                return Err(CodecError::Corrupt("huffman: trailing bytes after the code stream"));
            }
            Ok(h)
        }

        pub fn decode_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
            let Header { count, alphabet, lengths, payload } = parse(bytes)?;
            if count > (1 << 36) || count > max_count {
                return Err(CodecError::Corrupt("huffman: implausible symbol count"));
            }
            let n_sym = alphabet.len();
            if n_sym <= 1 {
                let mut out = Vec::new();
                out.try_reserve_exact(count)
                    .map_err(|_| CodecError::Corrupt("huffman: count exceeds memory"))?;
                out.resize(count, alphabet.first().copied().unwrap_or(0));
                return Ok(out);
            }
            let max_len = lengths.iter().copied().max().unwrap_or(1);
            let mut order: Vec<usize> = (0..n_sym).collect();
            order.sort_by_key(|&i| (lengths[i], i));
            let mut first_code = vec![0u64; (max_len + 2) as usize];
            let mut first_index = vec![0usize; (max_len + 2) as usize];
            let mut count_by_len = vec![0usize; (max_len + 2) as usize];
            for &i in &order {
                count_by_len[lengths[i] as usize] += 1;
            }
            let (mut code, mut idx) = (0u64, 0usize);
            for l in 1..=max_len as usize {
                first_code[l] = code;
                first_index[l] = idx;
                code = (code + count_by_len[l] as u64) << 1;
                idx += count_by_len[l];
            }
            if count > payload.len().saturating_mul(8) {
                return Err(CodecError::Corrupt("huffman: count exceeds payload bits"));
            }
            let tb = DECODE_TABLE_BITS.min(max_len);
            let codes = canonical_codes(&lengths);
            let mut fast: Vec<(i32, u8)> = vec![(0, 0); 1usize << tb];
            for (i, &len) in lengths.iter().enumerate() {
                if len <= tb {
                    let lo = (codes[i] << (tb - len)) as usize;
                    let hi = lo + (1usize << (tb - len));
                    for entry in &mut fast[lo..hi] {
                        *entry = (alphabet[i], len as u8);
                    }
                }
            }
            let lookup = |code: u64, len: usize| {
                let offset = code.wrapping_sub(first_code[len]);
                let found = offset < count_by_len[len] as u64;
                found.then(|| alphabet[order[first_index[len] + offset as usize]])
            };
            let mut br = BitReader::new(payload);
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let peeked = br.peek_bits(tb) as usize;
                let (sym, len) = fast[peeked];
                if len != 0 {
                    br.consume(len as u32)?;
                    out.push(sym);
                    continue;
                }
                if max_len <= 32 {
                    let window = br.peek_bits(max_len);
                    let (len, sym) = (tb + 1..=max_len)
                        .find_map(|len| Some((len, lookup(window >> (max_len - len), len as usize)?)))
                        .ok_or(CodecError::Corrupt("huffman: code longer than table"))?;
                    br.consume(len)?;
                    out.push(sym);
                    continue;
                }
                let (mut code, mut len) = (0u64, 0usize);
                loop {
                    code = (code << 1) | br.read_bit()? as u64;
                    len += 1;
                    if len > max_len as usize {
                        return Err(CodecError::Corrupt("huffman: code longer than table"));
                    }
                    if let Some(sym) = lookup(code, len) {
                        out.push(sym);
                        break;
                    }
                }
            }
            Ok(out)
        }
    }

    pub mod range {
        use qip_codec::{ByteReader, CodecError};

        const TOP: u32 = 1 << 24;
        const BOTTOM: u32 = 1 << 16;
        const MAX_TOTAL: u32 = 1 << 15;

        /// The frequency array beside its Fenwick tree, searched by descent.
        struct Model {
            freq: Vec<u32>,
            tree: Vec<u32>,
            total: u32,
        }

        impl Model {
            fn new(n: usize) -> Self {
                let mut m = Model { freq: vec![1; n], tree: vec![0; n + 1], total: n as u32 };
                m.rebuild();
                m
            }

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

            fn find(&self, target: u32) -> (usize, u32) {
                let n = self.freq.len();
                let (mut pos, mut rem) = (0usize, target);
                let mut step = n.next_power_of_two();
                while step > 0 {
                    let next = pos + step;
                    if next <= n && self.tree[next] <= rem {
                        rem -= self.tree[next];
                        pos = next;
                    }
                    step >>= 1;
                }
                (pos, target - rem)
            }

            fn rescale(&mut self) {
                let mut total = 0u32;
                for f in &mut self.freq {
                    *f = f.div_ceil(2).max(1);
                    total += *f;
                }
                self.total = total;
                self.rebuild();
            }

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

            fn decode_target(&self, total: u32) -> (u32, u32) {
                let r = (self.range / total).max(1);
                (((self.code.wrapping_sub(self.low) / r as u64) as u32).min(total - 1), r)
            }

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

        pub fn decode_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
            let mut r = ByteReader::new(bytes);
            let count = r.get_uvarint()? as usize;
            if count == 0 {
                return Ok(Vec::new());
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
            if n_sym > count {
                return Err(CodecError::Corrupt("range: alphabet exceeds symbol count"));
            }
            let mut alphabet = Vec::with_capacity(n_sym);
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
                let mut out = Vec::new();
                out.try_reserve_exact(count)
                    .map_err(|_| CodecError::Corrupt("range: count exceeds memory"))?;
                out.resize(count, alphabet[0]);
                return Ok(out);
            }
            let payload = r.get_block()?;
            if payload.len() < 8 {
                return Err(CodecError::UnexpectedEof);
            }
            if count > payload.len().saturating_mul(8192).saturating_add(4096) {
                return Err(CodecError::Corrupt("range: count exceeds payload capacity"));
            }
            let mut model = Model::new(n_sym);
            let mut dec = RangeDecoder::new(payload);
            let mut out = Vec::with_capacity(count.min(1 << 24));
            for _ in 0..count {
                let (target, r) = dec.decode_target(model.total);
                let (i, cum) = model.find(target);
                dec.decode_update(cum, model.freq[i], r);
                out.push(alphabet[i]);
                model.bump(i, 32);
            }
            Ok(out)
        }
    }

    /// One coded block (modes 0–3), at most `symbols` of them.
    fn decode_block(mode: u8, body: &[u8], symbols: usize) -> Result<Vec<i32>, CodecError> {
        let expanded;
        let coded = if mode == 1 || mode == 3 {
            expanded = lz::decompress_capped(body, symbols.saturating_mul(16).saturating_add(4096))?;
            expanded.as_slice()
        } else {
            body
        };
        if mode <= 1 {
            huffman::decode_capped(coded, symbols)
        } else {
            range::decode_capped(coded, symbols)
        }
    }

    /// `decode_indices_capped` as it was: the framing walked here, every
    /// chunk decoded into a vector of its own, the vectors appended in order.
    pub fn decode_indices_capped(bytes: &[u8], max_count: usize) -> Result<Vec<i32>, CodecError> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        if tag < 4 {
            return decode_block(tag, r.rest(), max_count);
        }
        if tag > 4 {
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
        let mut chunks = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let (&mode, body) = r.get_bytes(len)?.split_first().ok_or(CodecError::UnexpectedEof)?;
            if mode >= 4 {
                return Err(CodecError::BadHeader("chunk tag is not a block mode"));
            }
            chunks.push((mode, body, chunk_symbols.min(total - i * chunk_symbols)));
        }
        let mut out = Vec::new();
        for (mode, body, symbols) in chunks {
            let decoded = decode_block(mode, body, symbols)?;
            if decoded.len() != symbols {
                return Err(CodecError::BadHeader("chunk symbol count mismatch"));
            }
            out.extend_from_slice(&decoded);
        }
        Ok(out)
    }
}

type Decoder = fn(&[u8], usize) -> Result<Vec<i32>, CodecError>;

/// Same symbols, or errors of the same variant.
fn assert_same(new: &Result<Vec<i32>, CodecError>, old: &Result<Vec<i32>, CodecError>, what: &str) {
    let same = match (new, old) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
        _ => false,
    };
    assert!(same, "{what}: production {:?} but reference {:?}", summary(new), summary(old));
}

fn summary(r: &Result<Vec<i32>, CodecError>) -> Result<usize, &CodecError> {
    r.as_ref().map(Vec::len)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }
}

/// The `n` values an alphabet of that size holds: consecutive around zero,
/// spread out past 4 096 of them, the sentinel in place of the lowest.
fn alphabet(n: usize, sentinel: bool) -> Vec<i32> {
    let spread = if n > 4096 { 3 } else { 1 };
    let mut a: Vec<i32> = (0..n as i32).map(|k| (k - n as i32 / 2) * spread).collect();
    if sentinel {
        a[0] = SENTINEL;
    }
    a
}

/// `len` symbols over `alphabet` (each at least once when `len` allows),
/// uniform (`skew = 0`) to geometric with ratio 2^-skew.
fn stream(alphabet: &[i32], len: usize, skew: u32, rng: &mut Rng) -> Vec<i32> {
    let n = alphabet.len() as u64;
    let mut s: Vec<i32> = alphabet.iter().copied().take(len).collect();
    while s.len() < len {
        let mut k = rng.below(n);
        for _ in 0..skew {
            k = k.min(rng.below(n));
        }
        s.push(alphabet[k as usize]);
    }
    // Mix the run of first appearances into the rest.
    for i in (1..s.len()).rev() {
        s.swap(i, rng.below(i as u64 + 1) as usize);
    }
    s
}

/// Symbol `k` of `terms` appears Fibonacci(k) times: code depth `terms − 1`,
/// past the 48-bit limit from 50 terms on (the halving retry).
fn fibonacci_stream(terms: usize, sentinel: bool) -> Vec<i32> {
    let (mut a, mut b) = (1u64, 1u64);
    let mut s = Vec::new();
    for k in 0..terms {
        let sym = if sentinel && k == 0 { SENTINEL } else { k as i32 - 3 };
        s.extend(std::iter::repeat_n(sym, a.min(40_000) as usize));
        (a, b) = (b, a + b);
    }
    s
}

/// The stream classes of the suite, small enough to cut at every byte when
/// `small`, up to a whole chunk otherwise.
fn classes(small: bool) -> Vec<(String, Vec<i32>)> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut out: Vec<(String, Vec<i32>)> = vec![
        ("empty".into(), vec![]),
        ("one symbol".into(), vec![7]),
        ("single-symbol run".into(), vec![-4; 300]),
        ("sentinel run".into(), vec![SENTINEL; 50]),
        ("two symbols".into(), (0..200).map(|i| if i % 3 == 0 { -5 } else { 9 }).collect()),
        ("two symbols, one the sentinel".into(), (0..99).map(|i| if i % 7 == 0 { SENTINEL } else { 0 }).collect()),
        ("extremes".into(), vec![SENTINEL, i32::MAX, 0, -1, 1, SENTINEL, i32::MAX, i32::MIN + 1]),
    ];
    let sizes: &[usize] = if small { &[3, 17, 90, 600] } else { &[3, 17, 90, 600, 5000, 40_000] };
    for &n in sizes {
        for sentinel in [false, true] {
            for skew in [0, 2, 6] {
                let len = if small { (2 * n).clamp(40, 1500) } else { (4 * n).max(30_000) };
                let what = format!("{n} symbols, skew {skew}, sentinel {sentinel}");
                out.push((what, stream(&alphabet(n, sentinel), len, skew, &mut rng)));
            }
        }
    }
    for terms in if small { vec![5, 12] } else { vec![12, 25, 40, 49, 50, 60] } {
        for sentinel in [false, true] {
            out.push((format!("fibonacci {terms}, sentinel {sentinel}"), fibonacci_stream(terms, sentinel)));
        }
    }
    out
}

/// Every cut of a stream up to 2 KiB, 97 spread cut points of a longer one.
fn cuts(len: usize) -> Vec<usize> {
    if len <= 2048 {
        (0..len).collect()
    } else {
        (0..len).step_by(len / 97 + 1).chain([len - 1]).collect()
    }
}

/// Cut `enc` everywhere (see [`cuts`]) and flip 1 000 seeded single bits
/// (150 of a stream past 64 KiB): production and reference must agree on
/// every damaged stream.
fn assert_same_under_damage(enc: &[u8], cap: usize, new: Decoder, old: Decoder, what: &str) {
    for cut in cuts(enc.len()) {
        assert_same(&new(&enc[..cut], cap), &old(&enc[..cut], cap), &format!("{what}, cut at {cut}"));
    }
    let mut rng = Rng(enc.len() as u64 * 2 + 1);
    let mut bad = enc.to_vec();
    let flips = match enc.len() {
        0 => 0,
        1..=65_536 => 1000,
        _ => 150,
    };
    for _ in 0..flips {
        let bit = rng.below(enc.len() as u64 * 8) as usize;
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_same(&new(&bad, cap), &old(&bad, cap), &format!("{what}, bit {bit} flipped"));
        bad[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn huffman_decodes_what_the_reference_decodes() {
    for (what, symbols) in classes(false) {
        let enc = huffman::encode(&symbols);
        let new = huffman::decode_capped(&enc, symbols.len());
        assert!(new.as_ref().is_ok_and(|s| *s == symbols), "{what}: decode differs from the input");
        assert_same(&new, &reference::huffman::decode_capped(&enc, symbols.len()), &what);
        if let Some(cap) = symbols.len().checked_sub(1) {
            let old = reference::huffman::decode_capped(&enc, cap);
            assert_same(&huffman::decode_capped(&enc, cap), &old, &format!("{what}, capped below"));
        }
    }
}

#[test]
fn range_decodes_what_the_reference_decodes() {
    // Past 2¹⁵ symbols the model rescales after every one of them, at a cost
    // linear in the alphabet: one such class is enough here.
    let rescaling = |what: &str| what.starts_with("40000") && what != "40000 symbols, skew 2, sentinel true";
    for (what, symbols) in classes(false).into_iter().filter(|(what, _)| !rescaling(what)) {
        // The entropy stage never range-codes more than 2¹⁶ symbols.
        let symbols = &symbols[..symbols.len().min(1 << 16)];
        let enc = range::encode(symbols);
        let new = range::decode_capped(&enc, symbols.len());
        assert!(new.as_ref().is_ok_and(|s| s == symbols), "{what}: decode differs from the input");
        assert_same(&new, &reference::range::decode_capped(&enc, symbols.len()), &what);
    }
}

#[test]
fn damaged_huffman_streams_fail_alike() {
    for (what, symbols) in classes(true) {
        let enc = huffman::encode(&symbols);
        let old: Decoder = reference::huffman::decode_capped;
        assert_same_under_damage(&enc, symbols.len(), huffman::decode_capped, old, &what);
        // Uncapped: a flipped count is only stopped by the payload's size.
        assert_same_under_damage(&enc, usize::MAX >> 1, huffman::decode_capped, old, &what);
    }
}

#[test]
fn damaged_range_streams_fail_alike() {
    for (what, symbols) in classes(true) {
        let enc = range::encode(&symbols);
        let old: Decoder = reference::range::decode_capped;
        assert_same_under_damage(&enc, symbols.len(), range::decode_capped, old, &what);
        assert_same_under_damage(&enc, 1 << 20, range::decode_capped, old, &what);
    }
}

/// The fast loop runs while a whole word lies behind the cursor and hands
/// the rest to the checked reader: payloads of 0 … 20 bytes put the handover
/// before, at and after the first word, with the count ending on either side
/// of it, and every cut through the stream's last 24 bytes moves it again.
#[test]
fn handover_between_the_fast_loop_and_the_tail() {
    let mut rng = Rng(77);
    for bits_per_symbol in [1usize, 2, 3, 5, 9] {
        let a = alphabet(1 << bits_per_symbol, false);
        for payload_bytes in 0..=20 {
            for extra in 0..3 {
                // Uniform over 2^b symbols: b bits each, once all appear.
                let len = (payload_bytes * 8 / bits_per_symbol + extra).max(a.len());
                let symbols = stream(&a, len, 0, &mut rng);
                let enc = huffman::encode(&symbols);
                let what = format!("{bits_per_symbol} bits/symbol, {len} symbols");
                let new = huffman::decode_capped(&enc, len);
                assert!(new.as_ref().is_ok_and(|s| *s == symbols), "{what}: decode differs");
                for cut in enc.len().saturating_sub(24)..enc.len() {
                    let old = reference::huffman::decode_capped(&enc[..cut], len);
                    assert_same(&huffman::decode_capped(&enc[..cut], len), &old, &format!("{what}, cut at {cut}"));
                }
                // One symbol more than the payload holds: the tail runs dry.
                let mut longer = ByteWriter::new();
                longer.put_uvarint(len as u64 + 1);
                longer.put_bytes(&enc[if len < 128 { 1 } else { 2 }..]);
                let longer = longer.finish();
                let old = reference::huffman::decode_capped(&longer, len + 1);
                assert_same(&huffman::decode_capped(&longer, len + 1), &old, &format!("{what}, one more"));
            }
        }
    }
    // A deep code next to the end: the walk is the tail's decoder too.
    for terms in [30, 49, 60] {
        let symbols: Vec<i32> = fibonacci_stream(terms, false).into_iter().rev().collect();
        let enc = huffman::encode(&symbols);
        let new = huffman::decode_capped(&enc, symbols.len());
        assert!(new.is_ok_and(|s| s == symbols), "fibonacci {terms} reversed: decode differs");
    }
}

/// A plane of mixed texture past the chunking threshold: every block mode
/// occurs among its chunks' tags.
fn chunky(chunks: usize, rng: &mut Rng) -> Vec<i32> {
    let wide = alphabet(3000, true);
    (0..CHUNK_SYMBOLS * chunks + 777)
        .map(|i| match (i / 9000) % 4 {
            0 => (i % 3) as i32,
            1 => rng.below(33) as i32 - 16,
            2 => wide[rng.below(3000).min(rng.below(3000)) as usize],
            _ => 0,
        })
        .collect()
}

fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let before = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    let r = f();
    match before {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    r
}

#[test]
fn index_blocks_decode_alike_at_any_worker_count() {
    let mut rng = Rng(5);
    let mut planes: Vec<(String, Vec<i32>)> = classes(true);
    planes.push(("flat, at the threshold".into(), stream(&alphabet(40, true), CHUNK_SYMBOLS, 3, &mut rng)));
    planes.push(("two chunks".into(), chunky(1, &mut rng)));
    planes.push(("nine chunks".into(), chunky(8, &mut rng)));
    for (what, symbols) in planes {
        let enc = encode_indices(&symbols);
        let old = reference::decode_indices_capped(&enc, symbols.len());
        assert!(old.as_ref().is_ok_and(|s| *s == symbols), "{what}: the reference fails");
        for workers in [1, 2, 8] {
            // A dirty, too-long buffer: everything in it is overwritten.
            let mut out = vec![0x5A5A_5A5A; symbols.len() + 1000];
            let new = with_workers(workers, || decode_indices_capped_into(&enc, symbols.len(), &mut out));
            assert_same(&new.map(|()| out), &old, &format!("{what}, {workers} workers"));
        }
        let chunked = enc[0] == 4;
        if chunked || symbols.len() <= 1500 {
            with_workers(if chunked { 2 } else { 1 }, || {
                let old: Decoder = reference::decode_indices_capped;
                assert_same_under_damage(&enc, symbols.len(), decode_indices_capped, old, &what);
            });
        }
    }
}

/// After a failed decode the caller's buffer is empty, never half-written.
#[test]
fn a_failed_decode_leaves_the_buffer_empty() {
    let symbols = chunky(2, &mut Rng(9));
    let enc = encode_indices(&symbols);
    let mut out = vec![1; 10];
    for cut in [1, enc.len() / 3, enc.len() - 1] {
        assert!(decode_indices_capped_into(&enc[..cut], symbols.len(), &mut out).is_err());
        assert!(out.is_empty(), "cut at {cut}: {} symbols left behind", out.len());
        out.resize(symbols.len() * 2, -1);
    }
    decode_indices_capped_into(&enc, symbols.len(), &mut out).unwrap();
    assert!(out == symbols);
}

/// A chunked stream whose chunk table is consistent but whose first chunk
/// holds fewer symbols than its slot: the decoders agree on the error.
#[test]
fn short_chunk_is_a_count_mismatch() {
    let body = |symbols: &[i32]| {
        let mut b = vec![0u8];
        b.extend(huffman::encode(symbols));
        b
    };
    let (first, second) = (body(&[1, 2, 3, 1, 2]), body(&[4, 4, 5]));
    let mut w = ByteWriter::new();
    w.put_u8(4);
    w.put_uvarint(9); // total
    w.put_uvarint(6); // chunk size: the first chunk should hold six
    w.put_uvarint(2);
    w.put_uvarint(first.len() as u64);
    w.put_uvarint(second.len() as u64);
    w.put_bytes(&first);
    w.put_bytes(&second);
    let enc = w.finish();
    let new = decode_indices_capped(&enc, 9);
    assert_eq!(new, Err(CodecError::BadHeader("chunk symbol count mismatch")));
    assert_same(&new, &reference::decode_indices_capped(&enc, 9), "short first chunk");
}

#[test]
#[ignore = "1.5 M symbols through both decoders, every mode: quick in release, minutes in a debug build"]
fn long_planes_decode_alike() {
    let mut rng = Rng(1234);
    let mut symbols = chunky(11, &mut rng);
    symbols.truncate(1_500_000);
    let enc = encode_indices(&symbols);
    let old = reference::decode_indices_capped(&enc, symbols.len());
    assert!(old.as_ref().is_ok_and(|s| *s == symbols));
    for workers in [1, 2, 8] {
        let new = with_workers(workers, || decode_indices_capped(&enc, symbols.len()));
        assert_same(&new, &old, &format!("1.5 M symbols, {workers} workers"));
    }
    for chunk in symbols.chunks(CHUNK_SYMBOLS) {
        let enc = huffman::encode(chunk);
        let old = reference::huffman::decode_capped(&enc, chunk.len());
        assert_same(&huffman::decode_capped(&enc, chunk.len()), &old, "huffman chunk");
        let prefix = &chunk[..chunk.len().min(1 << 16)];
        let enc = range::encode(prefix);
        let old = reference::range::decode_capped(&enc, prefix.len());
        assert_same(&range::decode_capped(&enc, prefix.len()), &old, "range prefix");
    }
}
