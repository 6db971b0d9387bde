//! Entropy coding and lossless compression substrate.
//!
//! The interpolation-based compressors in the paper hand their quantization
//! index arrays to a Huffman encoder followed by ZSTD. This crate provides the
//! equivalent stack, implemented from scratch:
//!
//! * [`bits`] — MSB-first bit-level I/O,
//! * [`varint`] — LEB128 + zigzag integer coding for headers,
//! * [`stream`] — checked little-endian byte stream reader/writer,
//! * [`huffman`] — canonical Huffman codes over `i32` symbol alphabets,
//! * [`lz`] — an LZSS-style lossless compressor (the ZSTD substitute; see
//!   DESIGN.md §5),
//! * [`range`] — an adaptive range coder (SZ3's arithmetic-coding analog),
//! * [`lossless`] — the combined entropy→LZ pipeline used by every
//!   compressor, which picks the cheaper of the Huffman and range paths per
//!   stream.

#![warn(missing_docs)]

pub mod bits;
pub mod huffman;
pub mod inspect;
pub mod lossless;
pub mod lz;
pub mod range;
pub mod stream;
pub mod varint;

pub use bits::{BitReader, BitWriter};
pub use inspect::{inspect_index_block, IndexForensics};
pub use lossless::{
    decode_indices, decode_indices_capped, decode_indices_capped_into, encode_indices,
    encode_indices_into, price_indices, EntropyStage, CHUNK_SYMBOLS,
    RANGE_TRY_LIMIT,
};
pub use stream::{ByteReader, ByteWriter, Span, Spans};

/// Errors produced while decoding compressed streams.
///
/// Decoders must return these (never panic) on truncated or corrupted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the decoder was done.
    UnexpectedEof,
    /// A structural invariant of the stream was violated.
    Corrupt(&'static str),
    /// A header field holds a value outside its legal range.
    BadHeader(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of stream"),
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            CodecError::BadHeader(msg) => write!(f, "bad header: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Where a decoder puts the symbols of one stream.
pub(crate) enum Dest<'a> {
    /// The front of a slice; the caller caps the count at its length.
    Slice(&'a mut [i32]),
    /// A vector, resized to the count (whatever it held is overwritten).
    Vec(&'a mut Vec<i32>),
}

impl<'a> Dest<'a> {
    /// The `count` slots the decoder fills, every one of them.
    pub(crate) fn take(self, count: usize) -> Result<&'a mut [i32], CodecError> {
        match self {
            Dest::Slice(s) => s
                .get_mut(..count)
                .ok_or(CodecError::Corrupt("symbol count exceeds its destination")),
            Dest::Vec(v) => {
                v.truncate(count);
                // Fallible: the count is the stream's word, up to the caller's cap.
                v.try_reserve_exact(count - v.len())
                    .map_err(|_| CodecError::Corrupt("symbol count exceeds memory"))?;
                v.resize(count, 0);
                Ok(v)
            }
        }
    }
}
