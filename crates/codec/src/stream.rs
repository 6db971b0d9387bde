//! Checked little-endian byte stream reader/writer.
//!
//! Every compressor in the workspace serializes its header and side channels
//! through these, so truncated or corrupted inputs surface as [`CodecError`]s
//! instead of panics.

use crate::varint;
use crate::CodecError;

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Writer that appends to an existing buffer (and its capacity).
    ///
    /// The buffer-reusing compression paths take a caller-owned `Vec<u8>`,
    /// wrap it here, and hand the bytes back through [`ByteWriter::finish`] —
    /// no intermediate stream allocation.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Unsigned LEB128.
    pub fn put_uvarint(&mut self, v: u64) {
        varint::write_uvarint(&mut self.buf, v);
    }

    /// Zigzag LEB128.
    pub fn put_ivarint(&mut self, v: i64) {
        varint::write_ivarint(&mut self.buf, v);
    }

    /// Raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed (uvarint) byte block.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_uvarint(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Overwrite the byte written at `at`.
    pub fn set_u8(&mut self, at: usize, v: u8) {
        self.buf[at] = v;
    }

    /// Finish, returning the accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a byte slice with checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far: the cursor every [`Span`] is read off.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Single byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian f64.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Unsigned LEB128.
    pub fn get_uvarint(&mut self) -> Result<u64, CodecError> {
        varint::read_uvarint(self.data, &mut self.pos)
    }

    /// Zigzag LEB128.
    pub fn get_ivarint(&mut self) -> Result<i64, CodecError> {
        varint::read_ivarint(self.data, &mut self.pos)
    }

    /// Raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Length-prefixed byte block written by [`ByteWriter::put_block`].
    pub fn get_block(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_uvarint()? as usize;
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        self.take(n)
    }

    /// All remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.pos..];
        self.pos = self.data.len();
        s
    }
}

/// A named byte range `start..end` of a parsed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Component name (`header`, `framing`, `index`, `seal`, …).
    pub name: &'static str,
    /// Offset of the first byte.
    pub start: usize,
    /// Offset one past the last byte.
    pub end: usize,
}

/// The spans of one stream as its parser reads it: every entry names the
/// bytes the reader consumed since the previous one, so the list is in stream
/// order and tiles `0..pos` with nothing to add up afterwards.
#[derive(Debug)]
pub struct Spans(pub Vec<Span>);

impl Default for Spans {
    /// Room for any flat format's list, so a parse allocates for it once.
    fn default() -> Self {
        Spans(Vec::with_capacity(16))
    }
}

impl Spans {
    /// Name the bytes from the previous span's end up to `end` — a reader's
    /// `pos()`: what it consumed since the previous span.
    pub fn push(&mut self, name: &'static str, end: usize) {
        let start = self.0.last().map_or(0, |s| s.end);
        self.0.push(Span { name, start, end });
    }

    /// Read a length-prefixed block: its prefix is a `framing` span, its
    /// body a `name` span.
    pub fn block<'a>(
        &mut self,
        name: &'static str,
        r: &mut ByteReader<'a>,
    ) -> Result<&'a [u8], CodecError> {
        let body = r.get_block()?;
        self.push("framing", r.pos() - body.len());
        self.push(name, r.pos());
        Ok(body)
    }

    /// Close the list at the end of `r`'s slice, which ends `seal_len` bytes
    /// short of the stream when an integrity trailer follows it. Bytes left
    /// unread are corruption: no format has a section behind its last one.
    pub fn finish(mut self, r: &ByteReader, seal_len: usize) -> Result<Vec<Span>, CodecError> {
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after the last section"));
        }
        if seal_len > 0 {
            self.push("seal", r.pos() + seal_len);
        }
        Ok(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_stream_and_reject_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_block(b"hello");
        let bytes = w.finish();
        let (mut r, mut spans) = (ByteReader::new(&bytes), Spans::default());
        r.get_u8().unwrap();
        spans.push("header", r.pos());
        assert!(Spans::default().finish(&r, 0).is_err(), "six bytes are still unread");
        assert_eq!(spans.block("index", &mut r).unwrap(), b"hello");
        let span = |name, start, end| Span { name, start, end };
        let expect = [span("header", 0, 1), span("framing", 1, 2), span("index", 2, 7), span("seal", 7, 13)];
        assert_eq!(spans.finish(&r, 6).unwrap(), expect);
    }

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1.5);
        w.put_uvarint(300);
        w.put_ivarint(-300);
        w.put_block(b"hello");
        w.put_bytes(b"tail");
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_uvarint().unwrap(), 300);
        assert_eq!(r.get_ivarint().unwrap(), -300);
        assert_eq!(r.get_block().unwrap(), b"hello");
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_error_everywhere() {
        let mut w = ByteWriter::new();
        w.put_u32(42);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..3]);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn block_with_lying_length_is_error() {
        let mut w = ByteWriter::new();
        w.put_uvarint(1000); // claims 1000 bytes follow
        w.put_bytes(b"xy");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_block(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn empty_block() {
        let mut w = ByteWriter::new();
        w.put_block(b"");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_block().unwrap(), b"");
    }
}
