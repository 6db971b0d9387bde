//! The tiled container's on-disk layout: header, sealed tile index, payload.
//!
//! ```text
//! u8   magic 0xB0
//! u8   format version (1)
//! u32  LE length N of the sealed index
//! N bytes  index, sealed by qip_core::integrity (CRC32 + trailer):
//!     u8       scalar bits (32 | 64)
//!     u8       ndim (1..=4)
//!     uvarint  dims[ndim]
//!     uvarint  tile edge
//!     f64      absolute error bound every tile was quantized at
//!     u8       compressor-name length, then that many bytes (canonical
//!              registry name, e.g. "SZ3+QP")
//!     uvarint  tile count (must equal the grid count derived from dims/edge)
//!     per tile: uvarint offset, uvarint length, u32 LE CRC32 of the payload
//! payload  tile streams concatenated in grid-origin order; each is itself a
//!          sealed single-compressor stream
//! ```
//!
//! There is deliberately **no whole-stream seal**: that would force readers to
//! scan every byte before the first tile decode, defeating random access. The
//! sealed index is verified before anything else, each tile is CRC-gated
//! before its (itself sealed) inner stream is parsed, and offsets are
//! validated against the running sum so index corruption that survives the
//! seal is still caught structurally.

use crate::grid::TileGrid;
use qip_codec::{ByteReader, ByteWriter, Span, Spans};
use qip_core::{try_with_capacity, CompressError};

/// Stream magic for the tiled container.
pub const MAGIC_TILED: u8 = 0xB0;
/// Container format version.
pub const FMT_VERSION: u8 = 1;
/// Longest accepted compressor name in the index.
const MAX_NAME: usize = 32;
/// Decoded-volume cap.
const MAX_VOLUME: u128 = 1u128 << 36;

/// One tile's slot in the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileEntry {
    /// Byte offset of the tile stream inside the payload.
    pub offset: usize,
    /// Byte length of the tile stream.
    pub len: usize,
    /// CRC32 of the tile stream, checked before any inner parse.
    pub crc32: u32,
}

/// The decoded container index: everything a reader needs to plan tile
/// decodes without touching the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerInfo {
    /// Scalar width of the stored field (32 or 64).
    pub bits: u32,
    /// Global field dims.
    pub dims: Vec<usize>,
    /// Tile edge length per axis (edge tiles clipped).
    pub tile: usize,
    /// Absolute error bound every tile was quantized at (raw LE bits of the
    /// `f64`, so parse→build round-trips exactly).
    pub abs_bound: f64,
    /// Canonical registry name of the per-tile compressor.
    pub compressor: String,
    /// Per-tile `(offset, len, CRC32)` in grid-origin order.
    pub tiles: Vec<TileEntry>,
    /// `container.header`, `container.index` and `payload` byte spans, in
    /// stream order, tiling the container.
    pub spans: Vec<Span>,
}

impl ContainerInfo {
    /// The tile grid this index describes.
    pub fn grid(&self) -> TileGrid {
        // Parse validated edge and dims, so this cannot fail.
        TileGrid::new(&self.dims, self.tile).expect("validated at parse")
    }

    /// Total payload bytes the index accounts for.
    pub fn payload_len(&self) -> usize {
        self.tiles.last().map(|t| t.offset + t.len).unwrap_or(0)
    }

    /// Slice tile `i`'s sealed stream out of the payload returned by
    /// [`ContainerInfo::parse`]. `None` if the index has no such tile or the
    /// payload is shorter than the entry claims (qip-inspect's per-tile
    /// forensics walk the container with this).
    pub fn tile_payload<'a>(&self, payload: &'a [u8], i: usize) -> Option<&'a [u8]> {
        let t = self.tiles.get(i)?;
        payload.get(t.offset..t.offset + t.len)
    }

    /// Decode and validate a container, returning the index and the payload
    /// slice the tile offsets point into.
    pub fn parse(bytes: &[u8]) -> Result<(ContainerInfo, &[u8]), CompressError> {
        let mut r = ByteReader::new(bytes);
        if r.get_u8()? != MAGIC_TILED {
            return Err(CompressError::WrongFormat("not a tiled container"));
        }
        if r.get_u8()? != FMT_VERSION {
            return Err(CompressError::WrongFormat("unknown tiled container version"));
        }
        let mut spans = Spans::default();
        let index_len = r.get_u32()? as usize;
        spans.push("container.header", r.pos());
        let sealed = r.get_bytes(index_len)?;
        spans.push("container.index", r.pos());
        let payload = r.rest();
        spans.push("payload", r.pos());
        let index = qip_core::integrity::check(sealed)
            .map_err(|_| CompressError::Corrupt("tile index failed its integrity seal"))?;

        let mut ix = ByteReader::new(index);
        let bits = ix.get_u8()? as u32;
        if bits != 32 && bits != 64 {
            return Err(CompressError::WrongFormat("unknown scalar width"));
        }
        let ndim = ix.get_u8()? as usize;
        if ndim == 0 || ndim > 4 {
            return Err(CompressError::WrongFormat("dimensionality out of range"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut volume: u128 = 1;
        for _ in 0..ndim {
            let d = ix.get_uvarint()? as usize;
            volume = volume.saturating_mul(d.max(1) as u128);
            dims.push(d);
        }
        if volume > MAX_VOLUME {
            return Err(CompressError::WrongFormat("implausible field volume"));
        }
        let tile = ix.get_uvarint()? as usize;
        let abs_bound = ix.get_f64()?;
        if !abs_bound.is_finite() || abs_bound <= 0.0 {
            return Err(CompressError::WrongFormat("implausible error bound"));
        }
        let name_len = ix.get_u8()? as usize;
        if name_len == 0 || name_len > MAX_NAME {
            return Err(CompressError::WrongFormat("implausible compressor name"));
        }
        let name = std::str::from_utf8(ix.get_bytes(name_len)?)
            .map_err(|_| CompressError::WrongFormat("compressor name is not UTF-8"))?
            .to_string();

        // Geometry first: the declared tile count must equal the grid count
        // derived from dims/edge *before* any index-sized allocation.
        let grid = TileGrid::new(&dims, tile)?;
        let n_tiles = ix.get_uvarint()? as usize;
        if n_tiles != grid.count() {
            return Err(CompressError::Corrupt("tile count disagrees with the grid"));
        }
        let mut tiles = try_with_capacity::<TileEntry>(n_tiles)?;
        let mut running = 0usize;
        for _ in 0..n_tiles {
            let offset = ix.get_uvarint()? as usize;
            let len = ix.get_uvarint()? as usize;
            let crc32 = ix.get_u32()?;
            if offset != running {
                return Err(CompressError::Corrupt("tile offsets are not contiguous"));
            }
            running = running
                .checked_add(len)
                .ok_or(CompressError::Corrupt("tile offsets overflow"))?;
            tiles.push(TileEntry { offset, len, crc32 });
        }
        if ix.remaining() != 0 {
            return Err(CompressError::Corrupt("trailing bytes inside the tile index"));
        }
        if running != payload.len() {
            return Err(CompressError::Corrupt("payload length disagrees with the tile index"));
        }
        let info = ContainerInfo { bits, dims, tile, abs_bound, compressor: name, tiles, spans: spans.0 };
        Ok((info, payload))
    }
}

/// Assemble a container from already-compressed tile streams (in grid-origin
/// order). Shared by the parallel whole-field path and the out-of-core
/// [`TiledWriter`](crate::TiledWriter), so both produce identical bytes.
pub fn assemble(
    bits: u32,
    dims: &[usize],
    tile: usize,
    abs_bound: f64,
    compressor: &str,
    tiles: &[TileEntry],
    payload: &[u8],
) -> Vec<u8> {
    debug_assert!(compressor.len() <= MAX_NAME);
    let mut ix = ByteWriter::with_capacity(32 + compressor.len() + tiles.len() * 12);
    ix.put_u8(bits as u8);
    ix.put_u8(dims.len() as u8);
    for &d in dims {
        ix.put_uvarint(d as u64);
    }
    ix.put_uvarint(tile as u64);
    ix.put_f64(abs_bound);
    ix.put_u8(compressor.len() as u8);
    ix.put_bytes(compressor.as_bytes());
    ix.put_uvarint(tiles.len() as u64);
    for t in tiles {
        ix.put_uvarint(t.offset as u64);
        ix.put_uvarint(t.len as u64);
        ix.put_u32(t.crc32);
    }
    let sealed = qip_core::integrity::seal(ix.finish());

    let mut w = ByteWriter::with_capacity(2 + 4 + sealed.len() + payload.len());
    w.put_u8(MAGIC_TILED);
    w.put_u8(FMT_VERSION);
    w.put_u32(sealed.len() as u32);
    w.put_bytes(&sealed);
    w.put_bytes(payload);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_container() -> Vec<u8> {
        // One 8-long 1-D "tile" whose payload is opaque bytes (format-level
        // tests never decode tiles).
        let payload = b"tile-stream-bytes".to_vec();
        let tiles = vec![TileEntry {
            offset: 0,
            len: payload.len(),
            crc32: qip_core::integrity::crc32(&payload),
        }];
        assemble(32, &[8], 8, 1e-3, "SZ3", &tiles, &payload)
    }

    #[test]
    fn parse_round_trips_assemble() {
        let bytes = tiny_container();
        let (info, payload) = ContainerInfo::parse(&bytes).unwrap();
        assert_eq!(info.bits, 32);
        assert_eq!(info.dims, vec![8]);
        assert_eq!(info.tile, 8);
        assert_eq!(info.abs_bound, 1e-3);
        assert_eq!(info.compressor, "SZ3");
        assert_eq!(info.tiles.len(), 1);
        assert_eq!(payload, b"tile-stream-bytes");
        assert_eq!(info.payload_len(), payload.len());
        // Re-assembling from the parsed pieces reproduces the exact bytes.
        let rebuilt = assemble(
            info.bits,
            &info.dims,
            info.tile,
            info.abs_bound,
            &info.compressor,
            &info.tiles,
            payload,
        );
        assert_eq!(rebuilt, bytes);
    }

    #[test]
    fn index_bitflips_rejected() {
        let bytes = tiny_container();
        let (_, payload) = ContainerInfo::parse(&bytes).unwrap();
        let index_end = bytes.len() - payload.len();
        // Every bit of the header + sealed index matters.
        for byte in 0..index_end {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ContainerInfo::parse(&bad).is_err(),
                    "index bitflip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn truncations_rejected() {
        let bytes = tiny_container();
        for cut in 0..bytes.len() {
            assert!(ContainerInfo::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn payload_length_must_match_index() {
        let mut bytes = tiny_container();
        bytes.push(0xAA); // trailing garbage beyond the indexed payload
        assert!(matches!(
            ContainerInfo::parse(&bytes),
            Err(CompressError::Corrupt("payload length disagrees with the tile index"))
        ));
    }
}
