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
    encode_indices_into, CHUNK_SYMBOLS,
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
