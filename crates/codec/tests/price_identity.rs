//! `price_indices` against `encode_indices`.
//!
//! The price runs the encoder's chunking and Huffman table build but writes
//! no code stream and runs no LZ pass. Pinned here:
//!
//! * wherever the encoder keeps plain Huffman — on a flat or chunked block
//!   whose every chunk holds more than `RANGE_TRY_LIMIT` symbols and that LZ
//!   does not shrink — the price *is* the encoded length, for alphabets of 1
//!   and 2 symbols, a dense one, and one with the unpredictable-point marker;
//! * on blocks of at most `RANGE_TRY_LIMIT` symbols, where the range coder
//!   competes and the price takes the smaller of the exact Huffman size and
//!   an order-0 arithmetic estimate, the price never exceeds the plain
//!   Huffman block, and on irregular blocks (no repeats for LZ to find) of at
//!   least 10 symbols it stays within `BAND` of the encoded length.

use qip_codec::{
    encode_indices, huffman, inspect_index_block, price_indices, CHUNK_SYMBOLS, RANGE_TRY_LIMIT,
};

/// `price / encoded` on irregular blocks of at most `RANGE_TRY_LIMIT`
/// symbols: the order-0 estimate misses the adaptive coder's model cost and
/// local adaptation, by at most a tenth either way on these inputs.
const BAND: std::ops::RangeInclusive<f64> = 0.85..=1.10;

/// The unpredictable-point marker the quantizers emit.
const UNPRED: i32 = i32::MIN;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// Irregular index blocks of `n` symbols: one symbol, two symbols, every
/// value of ±5, and ±5 with the marker. The last two are peaked like
/// quantization indices, with dyadic probabilities: Huffman codes them at
/// their entropy, leaving LZ nothing to find, so the encoder keeps plain
/// Huffman on them at every size.
fn blocks(n: usize) -> Vec<(&'static str, Vec<i32>)> {
    let mut r = lcg(n as u64);
    let mut peaked = |marker: bool| -> Vec<i32> {
        (0..n)
            .map(|_| {
                let u = r();
                let magnitude = (u % 32).trailing_zeros() as i32;
                match u % 97 {
                    0 if marker => UNPRED,
                    _ if u & 1 << 20 != 0 => magnitude,
                    _ => -magnitude,
                }
            })
            .collect()
    };
    let (dense, unpred) = (peaked(false), peaked(true));
    let two = (0..n).map(|_| (r() & 1) as i32).collect();
    vec![("one", vec![3; n]), ("two", two), ("dense", dense), ("unpred", unpred)]
}

#[test]
fn price_is_the_encoded_length_wherever_plain_huffman_is_kept() {
    // One flat block past the range coder's limit, one at the chunk size,
    // and chunked blocks whose short last chunk is still past the limit.
    for n in [RANGE_TRY_LIMIT + 1, CHUNK_SYMBOLS, 2 * CHUNK_SYMBOLS + RANGE_TRY_LIMIT + 1] {
        for (what, q) in blocks(n) {
            let enc = encode_indices(&q);
            let (_, plain) = inspect_index_block(&enc, n).unwrap().price(&q, 0, n);
            assert!(plain, "{what} x {n}: a chunk is not plain Huffman, so this case pins nothing");
            assert_eq!(price_indices(&q), enc.len(), "{what} x {n}");
        }
    }
}

#[test]
fn small_blocks_price_inside_the_band() {
    assert_eq!(price_indices(&[]), encode_indices(&[]).len());
    for n in [1, 10, 100, 1000, 4096, 32768, RANGE_TRY_LIMIT] {
        for (what, q) in blocks(n) {
            let (price, enc) = (price_indices(&q), encode_indices(&q).len());
            assert!(price <= 1 + huffman::encode(&q).len(), "{what} x {n}: above plain Huffman");
            // A constant block is one header, coded and priced alike.
            if n >= 10 || what == "one" {
                let ratio = price as f64 / enc as f64;
                assert!(BAND.contains(&ratio), "{what} x {n}: price {price} vs encoded {enc}");
            }
        }
    }
}
