//! The `qip-serve` wire protocol: length-prefixed, CRC32-sealed binary frames.
//!
//! Every frame travels as a 4-byte little-endian length prefix followed by
//! that many *sealed* body bytes. The body reuses the workspace's stream
//! integrity trailer ([`qip_core::integrity`]): `payload || crc32(payload)
//! (4 bytes LE) || 0xC4 0x51`. A frame that fails the CRC check — one flipped
//! bit anywhere — is rejected before any field of it is parsed, exactly like
//! a compressed stream would be.
//!
//! The byte-level layout is specified in `docs/FORMAT.md` ("Service frame")
//! and `docs/serving.md`; this module is the single encoder/decoder both the
//! server and the client use, so the two can never drift apart.
//!
//! Parsing is fully bounds-checked and allocation is capped by the frame
//! length limit the transport enforces *before* the body is read; a malformed
//! frame yields a typed [`WireError`], never a panic.

use qip_codec::{ByteReader, ByteWriter, CodecError};
use qip_core::integrity;

/// First body byte of a request frame.
pub const REQUEST_MAGIC: u8 = 0xA5;
/// First body byte of a response frame.
pub const RESPONSE_MAGIC: u8 = 0xA6;
/// Protocol version this build speaks (bumped on any layout change).
pub const WIRE_VERSION: u8 = 1;
/// Longest accepted compressor name on the wire.
pub const MAX_NAME_LEN: usize = 64;
/// Most dimensions a served field may have (matches the pipeline's limit).
pub const MAX_NDIM: usize = 4;

/// A 16-byte request-scoped trace identifier.
///
/// Carried as an *additive* trailing field of both frame kinds (the wire
/// version stays 1): a decoder accepts bodies with the field absent (legacy
/// peers) or present. The all-zero value means "none chosen — server,
/// assign one"; the server echoes the effective ID in **every** response
/// frame, including SERVER_BUSY, DEADLINE_EXCEEDED, and INTERNAL.
pub type TraceId = [u8; 16];

/// The all-zero [`TraceId`]: no ID chosen; the server assigns one.
pub const ZERO_TRACE: TraceId = [0u8; 16];

/// Canonical lower-hex rendering of a trace ID (32 chars), as stamped into
/// flight records, event logs, and tail-sample keys.
pub fn trace_hex(id: &TraceId) -> String {
    let mut s = String::with_capacity(32);
    for b in id {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Operations a request can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Compress a raw little-endian field carried in the payload.
    Compress,
    /// Decompress a compressed stream carried in the payload.
    Decompress,
    /// Liveness probe; empty payload both ways.
    Ping,
    /// Fetch the server's metrics as Prometheus text exposition format.
    Metrics,
    /// Compress a raw field into a tiled container (random-access format).
    CompressTiled,
    /// Decode one region of a tiled container, touching only the tiles the
    /// region intersects.
    ReadRegion,
    /// Fetch the server's flight-recorder dump as JSONL text (one record per
    /// recent request, newest last), for remote triage without process-local
    /// access.
    Flight,
}

impl OpKind {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            OpKind::Compress => 1,
            OpKind::Decompress => 2,
            OpKind::Ping => 3,
            OpKind::Metrics => 4,
            OpKind::CompressTiled => 5,
            OpKind::ReadRegion => 6,
            OpKind::Flight => 7,
        }
    }

    /// Inverse of [`OpKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => OpKind::Compress,
            2 => OpKind::Decompress,
            3 => OpKind::Ping,
            4 => OpKind::Metrics,
            5 => OpKind::CompressTiled,
            6 => OpKind::ReadRegion,
            7 => OpKind::Flight,
            _ => return None,
        })
    }

    /// Low-cardinality label for metrics.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Compress => "compress",
            OpKind::Decompress => "decompress",
            OpKind::Ping => "ping",
            OpKind::Metrics => "metrics",
            OpKind::CompressTiled => "compress_tiled",
            OpKind::ReadRegion => "read_region",
            OpKind::Flight => "flight",
        }
    }
}

/// Typed response status codes. Everything except [`Status::Ok`] carries a
/// human-readable reason in the response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; payload is the operation's result.
    Ok,
    /// The frame itself was unparseable (bad CRC, bad magic, truncated
    /// fields, inconsistent declared lengths). The connection closes after
    /// this response, since framing may be out of sync.
    BadFrame,
    /// The frame parsed but the request is semantically invalid (zero axis,
    /// payload size does not match dims × dtype, bad bound value).
    BadRequest,
    /// No registry compressor has the requested canonical name.
    UnknownCompressor,
    /// Load shed: every worker queue is full, or the connection cap is hit.
    /// The request was not executed; retry with backoff.
    ServerBusy,
    /// The per-request deadline expired before or during execution.
    DeadlineExceeded,
    /// The operation panicked; the panic was isolated to this request and
    /// the worker survived.
    Internal,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
    /// Declared frame or payload length exceeds the server's configured cap.
    TooLarge,
    /// The compressor itself returned a typed error (e.g. `Corrupt` for a
    /// damaged stream handed to decompress).
    Failed,
    /// A `READ_REGION` request named a region the container's field does not
    /// contain (rank mismatch, zero extent, or out of bounds). The payload
    /// carries the typed tensor error's message.
    BadRegion,
}

impl Status {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadFrame => 1,
            Status::BadRequest => 2,
            Status::UnknownCompressor => 3,
            Status::ServerBusy => 4,
            Status::DeadlineExceeded => 5,
            Status::Internal => 6,
            Status::ShuttingDown => 7,
            Status::TooLarge => 8,
            Status::Failed => 9,
            Status::BadRegion => 10,
        }
    }

    /// Inverse of [`Status::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Status::Ok,
            1 => Status::BadFrame,
            2 => Status::BadRequest,
            3 => Status::UnknownCompressor,
            4 => Status::ServerBusy,
            5 => Status::DeadlineExceeded,
            6 => Status::Internal,
            7 => Status::ShuttingDown,
            8 => Status::TooLarge,
            9 => Status::Failed,
            10 => Status::BadRegion,
            _ => return None,
        })
    }

    /// Canonical upper-case name (`SERVER_BUSY`, …), as used in docs and
    /// metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadFrame => "BAD_FRAME",
            Status::BadRequest => "BAD_REQUEST",
            Status::UnknownCompressor => "UNKNOWN_COMPRESSOR",
            Status::ServerBusy => "SERVER_BUSY",
            Status::DeadlineExceeded => "DEADLINE_EXCEEDED",
            Status::Internal => "INTERNAL",
            Status::ShuttingDown => "SHUTTING_DOWN",
            Status::TooLarge => "TOO_LARGE",
            Status::Failed => "FAILED",
            Status::BadRegion => "BAD_REGION",
        }
    }
}

/// Error bound as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireBound {
    /// Absolute bound.
    Abs(f64),
    /// Value-range-relative bound.
    Rel(f64),
}

impl WireBound {
    fn tag(self) -> u8 {
        match self {
            WireBound::Abs(_) => 0,
            WireBound::Rel(_) => 1,
        }
    }

    fn value(self) -> f64 {
        match self {
            WireBound::Abs(v) | WireBound::Rel(v) => v,
        }
    }

    /// Convert to the pipeline's bound type.
    pub fn to_bound(self) -> qip_core::ErrorBound {
        match self {
            WireBound::Abs(v) => qip_core::ErrorBound::Abs(v),
            WireBound::Rel(v) => qip_core::ErrorBound::Rel(v),
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed back in the response.
    pub id: u64,
    /// Relative deadline in milliseconds; 0 means "use the server default".
    pub deadline_ms: u32,
    /// The operation and its operands.
    pub op: Op,
    /// Request-scoped trace ID; [`ZERO_TRACE`] asks the server to assign one.
    pub trace_id: TraceId,
}

/// Operation payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Compress `payload` (raw little-endian scalars) as `dims` of
    /// `dtype_bits`-wide values with `compressor` under `bound`.
    Compress {
        /// Canonical registry compressor name (`"SZ3+QP"`, …).
        compressor: String,
        /// 32 or 64.
        dtype_bits: u8,
        /// Field dimensions (1–4 axes, each nonzero).
        dims: Vec<u32>,
        /// Requested error bound.
        bound: WireBound,
        /// Raw field bytes, little-endian, row-major.
        payload: Vec<u8>,
    },
    /// Decompress `payload` (a sealed compressed stream).
    Decompress {
        /// 32 or 64 — the scalar type the caller expects back.
        dtype_bits: u8,
        /// The compressed stream.
        payload: Vec<u8>,
    },
    /// Liveness probe.
    Ping,
    /// Metrics scrape.
    Metrics,
    /// Compress `payload` into a tiled container with edge-`tile` tiles, each
    /// compressed by `compressor`. The response payload is the container.
    CompressTiled {
        /// Canonical registry compressor name for the tiles.
        compressor: String,
        /// 32 or 64.
        dtype_bits: u8,
        /// Field dimensions (1–4 axes, each nonzero).
        dims: Vec<u32>,
        /// Tile edge length per axis (≥ 8).
        tile: u32,
        /// Requested error bound.
        bound: WireBound,
        /// Raw field bytes, little-endian, row-major.
        payload: Vec<u8>,
    },
    /// Decode `origin`/`extent` of the tiled container in `payload`; only the
    /// intersecting tiles are decompressed server-side.
    ReadRegion {
        /// 32 or 64 — the scalar type the caller expects back.
        dtype_bits: u8,
        /// Region origin, one coordinate per axis.
        origin: Vec<u32>,
        /// Region extent, one length per axis (same rank as `origin`).
        extent: Vec<u32>,
        /// The tiled container.
        payload: Vec<u8>,
    },
    /// Observability dump; JSONL text back. `tails` selects the tail-sample
    /// reservoir instead of the flight recorder.
    Flight {
        /// `false` → flight-recorder records; `true` → tail-sampler samples.
        tails: bool,
    },
}

impl Op {
    /// The operation kind tag for this op.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Compress { .. } => OpKind::Compress,
            Op::Decompress { .. } => OpKind::Decompress,
            Op::Ping => OpKind::Ping,
            Op::Metrics => OpKind::Metrics,
            Op::CompressTiled { .. } => OpKind::CompressTiled,
            Op::ReadRegion { .. } => OpKind::ReadRegion,
            Op::Flight { .. } => OpKind::Flight,
        }
    }
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Result bytes on `Ok`; a human-readable reason otherwise.
    pub payload: Vec<u8>,
    /// The request's effective trace ID, echoed on **every** status.
    pub trace_id: TraceId,
}

impl Response {
    /// The error payload as text (lossy) — for rendering typed failures.
    pub fn reason(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

/// Typed frame-parsing failures. The server maps every variant to a
/// [`Status::BadFrame`] (or [`Status::TooLarge`]) response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// CRC trailer missing or mismatched.
    Integrity(&'static str),
    /// A structural field is out of range or inconsistent.
    Malformed(&'static str),
    /// A declared length exceeds the configured cap.
    TooLarge(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Integrity(m) => write!(f, "frame integrity: {m}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::TooLarge(m) => write!(f, "frame too large: {m}"),
        }
    }
}

impl From<CodecError> for WireError {
    /// A read past the end of the body: some field is cut short.
    fn from(_: CodecError) -> Self {
        WireError::Malformed("truncated field")
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// A u64 length, then the bytes.
fn put_payload(w: &mut ByteWriter, bytes: &[u8]) {
    w.put_u64(bytes.len() as u64);
    w.put_bytes(bytes);
}

/// A rank byte, then one u32 per axis.
fn put_dims(w: &mut ByteWriter, dims: &[u32]) {
    w.put_u8(dims.len() as u8);
    dims.iter().for_each(|&d| w.put_u32(d));
}

/// The operands `COMPRESS` and `COMPRESS_TILED` share — compressor name,
/// dtype, dims, the bound and the payload — with the tiled op's edge between
/// the dims and the bound.
fn put_compress(
    w: &mut ByteWriter,
    compressor: &str,
    dtype_bits: u8,
    dims: &[u32],
    tile: Option<u32>,
    bound: WireBound,
    payload: &[u8],
) {
    w.put_u8(compressor.len().min(255) as u8);
    w.put_bytes(compressor.as_bytes());
    w.put_u8(dtype_bits);
    put_dims(w, dims);
    if let Some(tile) = tile {
        w.put_u32(tile);
    }
    w.put_u8(bound.tag());
    w.put_f64(bound.value());
    put_payload(w, payload);
}

/// Encode a request as a sealed frame body (no transport length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&[REQUEST_MAGIC, WIRE_VERSION]);
    w.put_u64(req.id);
    w.put_u8(req.op.kind().tag());
    w.put_u32(req.deadline_ms);
    match &req.op {
        Op::Compress { compressor, dtype_bits, dims, bound, payload } => {
            put_compress(&mut w, compressor, *dtype_bits, dims, None, *bound, payload)
        }
        Op::CompressTiled { compressor, dtype_bits, dims, tile, bound, payload } => {
            put_compress(&mut w, compressor, *dtype_bits, dims, Some(*tile), *bound, payload)
        }
        Op::Decompress { dtype_bits, payload } => {
            w.put_u8(*dtype_bits);
            put_payload(&mut w, payload);
        }
        Op::ReadRegion { dtype_bits, origin, extent, payload } => {
            w.put_u8(*dtype_bits);
            put_dims(&mut w, origin);
            extent.iter().for_each(|&e| w.put_u32(e));
            put_payload(&mut w, payload);
        }
        Op::Ping | Op::Metrics => {}
        Op::Flight { tails } => w.put_u8(*tails as u8),
    }
    // Additive trailing field: always emitted by this build's encoder,
    // optional on decode so legacy version-1 frames still parse.
    w.put_bytes(&req.trace_id);
    integrity::seal(w.finish())
}

/// Encode a response as a sealed frame body (no transport length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&[RESPONSE_MAGIC, WIRE_VERSION]);
    w.put_u64(resp.id);
    w.put_u8(resp.status.tag());
    put_payload(&mut w, &resp.payload);
    w.put_bytes(&resp.trace_id);
    integrity::seal(w.finish())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Integrity check, magic and version: the reader positioned after them.
fn open_body<'a>(
    body: &'a [u8],
    magic: u8,
    what: &'static str,
) -> Result<ByteReader<'a>, WireError> {
    let payload =
        integrity::check(body).map_err(|_| WireError::Integrity("bad CRC or missing trailer"))?;
    let mut c = ByteReader::new(payload);
    if c.get_u8()? != magic {
        return Err(WireError::Malformed(what));
    }
    if c.get_u8()? != WIRE_VERSION {
        return Err(WireError::Malformed("unsupported wire version"));
    }
    Ok(c)
}

/// Parse the additive trailing trace-ID field: exactly 0 (legacy frame,
/// yields [`ZERO_TRACE`]) or 16 remaining bytes are accepted; anything else
/// is a malformed frame.
fn take_trace_id(c: &mut ByteReader, what: &'static str) -> Result<TraceId, WireError> {
    match c.remaining() {
        0 => Ok(ZERO_TRACE),
        16 => Ok(c.rest().try_into().expect("16-byte slice")),
        _ => Err(WireError::Malformed(what)),
    }
}

/// Read a declared-length byte block; the declaration must fit the remaining
/// body and never exceed `cap`.
fn get_payload(c: &mut ByteReader, cap: usize, what: &'static str) -> Result<Vec<u8>, WireError> {
    let n = c.get_u64()?;
    if n > cap as u64 {
        return Err(WireError::TooLarge(what));
    }
    Ok(c.get_bytes(n as usize)?.to_vec())
}

/// The scalar width every data op names: 32 or 64.
fn get_dtype(c: &mut ByteReader) -> Result<u8, WireError> {
    match c.get_u8()? {
        bits @ (32 | 64) => Ok(bits),
        _ => Err(WireError::Malformed("dtype bits must be 32 or 64")),
    }
}

/// Inverse of [`put_dims`]: a rank in `1..=MAX_NDIM`, then the axes.
fn get_dims(c: &mut ByteReader, what: &'static str) -> Result<Vec<u32>, WireError> {
    let ndim = c.get_u8()? as usize;
    if ndim == 0 || ndim > MAX_NDIM {
        return Err(WireError::Malformed(what));
    }
    Ok((0..ndim).map(|_| c.get_u32()).collect::<Result<_, _>>()?)
}

/// Inverse of [`put_compress`]: `COMPRESS_TILED`'s operands when `tiled`,
/// else `COMPRESS`'s.
fn get_compress(c: &mut ByteReader, tiled: bool, cap: usize) -> Result<Op, WireError> {
    let name_len = c.get_u8()? as usize;
    if name_len == 0 || name_len > MAX_NAME_LEN {
        return Err(WireError::Malformed("compressor name length"));
    }
    let compressor = std::str::from_utf8(c.get_bytes(name_len)?)
        .map_err(|_| WireError::Malformed("compressor name not UTF-8"))?
        .to_string();
    let dtype_bits = get_dtype(c)?;
    let dims = get_dims(c, "ndim out of range")?;
    let tile = if tiled { Some(c.get_u32()?) } else { None };
    let bound = match (c.get_u8()?, c.get_f64()?) {
        (0, v) => WireBound::Abs(v),
        (1, v) => WireBound::Rel(v),
        _ => return Err(WireError::Malformed("unknown bound kind")),
    };
    let payload = get_payload(c, cap, "compress payload")?;
    Ok(match tile {
        Some(tile) => Op::CompressTiled { compressor, dtype_bits, dims, tile, bound, payload },
        None => Op::Compress { compressor, dtype_bits, dims, bound, payload },
    })
}

/// Decode a sealed request frame body. `max_payload` caps the declared
/// payload length (normally the transport frame cap, which the body already
/// fits inside — the check here catches bodies whose *declared* length
/// disagrees with what actually arrived).
pub fn decode_request(body: &[u8], max_payload: usize) -> Result<Request, WireError> {
    let mut c = open_body(body, REQUEST_MAGIC, "not a request frame")?;
    let id = c.get_u64()?;
    let op_tag = c.get_u8()?;
    let deadline_ms = c.get_u32()?;
    let op = match OpKind::from_tag(op_tag).ok_or(WireError::Malformed("unknown op tag"))? {
        OpKind::Compress => get_compress(&mut c, false, max_payload)?,
        OpKind::CompressTiled => get_compress(&mut c, true, max_payload)?,
        OpKind::Decompress => {
            let dtype_bits = get_dtype(&mut c)?;
            let payload = get_payload(&mut c, max_payload, "decompress payload")?;
            Op::Decompress { dtype_bits, payload }
        }
        OpKind::ReadRegion => {
            let dtype_bits = get_dtype(&mut c)?;
            let origin = get_dims(&mut c, "region ndim out of range")?;
            let extent = (0..origin.len()).map(|_| c.get_u32()).collect::<Result<_, _>>()?;
            let payload = get_payload(&mut c, max_payload, "container payload")?;
            Op::ReadRegion { dtype_bits, origin, extent, payload }
        }
        OpKind::Ping => Op::Ping,
        OpKind::Metrics => Op::Metrics,
        OpKind::Flight => match c.get_u8()? {
            0 => Op::Flight { tails: false },
            1 => Op::Flight { tails: true },
            _ => return Err(WireError::Malformed("unknown flight section")),
        },
    };
    let trace_id = take_trace_id(&mut c, "trailing bytes after request")?;
    Ok(Request { id, deadline_ms, op, trace_id })
}

/// Decode a sealed response frame body.
pub fn decode_response(body: &[u8], max_payload: usize) -> Result<Response, WireError> {
    let mut c = open_body(body, RESPONSE_MAGIC, "not a response frame")?;
    let id = c.get_u64()?;
    let status =
        Status::from_tag(c.get_u8()?).ok_or(WireError::Malformed("unknown status tag"))?;
    let payload = get_payload(&mut c, max_payload, "response payload")?;
    let trace_id = take_trace_id(&mut c, "trailing bytes after response")?;
    Ok(Response { id, status, payload, trace_id })
}

// ---------------------------------------------------------------------------
// Transport: 4-byte LE length prefix around a sealed body
// ---------------------------------------------------------------------------

/// Errors from reading one length-prefixed frame off a socket.
#[derive(Debug)]
pub enum ReadFrameError {
    /// Peer closed the connection cleanly at a frame boundary.
    Eof,
    /// The declared frame length exceeds the configured cap. The declared
    /// size is carried so the server can answer `TOO_LARGE` before closing.
    TooLarge(u64),
    /// The socket read timed out (idle connection or slow-loris peer).
    Timeout,
    /// Peer disconnected mid-frame or another I/O failure.
    Io(std::io::Error),
}

fn classify_io(e: std::io::Error, mid_frame: bool) -> ReadFrameError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadFrameError::Timeout,
        std::io::ErrorKind::UnexpectedEof if !mid_frame => ReadFrameError::Eof,
        _ => ReadFrameError::Io(e),
    }
}

/// Read one frame: the 4-byte length prefix, then that many body bytes.
/// Rejects declared lengths above `max_len` *before* allocating.
pub fn read_frame(r: &mut impl std::io::Read, max_len: usize) -> Result<Vec<u8>, ReadFrameError> {
    let mut prefix = [0u8; 4];
    if let Err(e) = r.read_exact(&mut prefix) {
        return Err(classify_io(e, false));
    }
    let len = u32::from_le_bytes(prefix) as u64;
    if len > max_len as u64 {
        return Err(ReadFrameError::TooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut body) {
        return Err(classify_io(e, true));
    }
    Ok(body)
}

/// Write one frame: length prefix then the sealed body.
pub fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too long"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceId {
        let mut id = [0u8; 16];
        for (i, b) in id.iter_mut().enumerate() {
            *b = 0xD0 ^ (i as u8);
        }
        id
    }

    fn sample_compress() -> Request {
        Request {
            id: 42,
            deadline_ms: 250,
            op: Op::Compress {
                compressor: "SZ3+QP".into(),
                dtype_bits: 32,
                dims: vec![16, 8, 4],
                bound: WireBound::Rel(1e-3),
                payload: (0u16..16 * 8 * 4 * 2).flat_map(|v| v.to_le_bytes()).collect(),
            },
            trace_id: sample_trace(),
        }
    }

    fn sample_read_region() -> Request {
        Request {
            id: 77,
            deadline_ms: 100,
            op: Op::ReadRegion {
                dtype_bits: 32,
                origin: vec![4, 0, 9],
                extent: vec![8, 16, 3],
                payload: vec![0xB0, 1, 2, 3, 4],
            },
            trace_id: sample_trace(),
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            sample_compress(),
            Request {
                id: u64::MAX,
                deadline_ms: 0,
                op: Op::Decompress { dtype_bits: 64, payload: vec![1, 2, 3] },
                trace_id: ZERO_TRACE,
            },
            Request { id: 0, deadline_ms: 7, op: Op::Ping, trace_id: [0xFF; 16] },
            Request { id: 1, deadline_ms: 7, op: Op::Metrics, trace_id: ZERO_TRACE },
            Request { id: 5, deadline_ms: 0, op: Op::Flight { tails: false }, trace_id: sample_trace() },
            Request { id: 6, deadline_ms: 0, op: Op::Flight { tails: true }, trace_id: ZERO_TRACE },
            Request {
                id: 2,
                deadline_ms: 9,
                op: Op::CompressTiled {
                    compressor: "MGARD".into(),
                    dtype_bits: 64,
                    dims: vec![40, 33, 21],
                    tile: 16,
                    bound: WireBound::Abs(1e-4),
                    payload: (0u16..100).flat_map(|v| v.to_le_bytes()).collect(),
                },
                trace_id: sample_trace(),
            },
            sample_read_region(),
        ] {
            let body = encode_request(&req);
            let back = decode_request(&body, 1 << 20).unwrap();
            assert_eq!(back, req);
        }
    }

    /// One request per op kind and one response, byte for byte: a change to
    /// the encoder or the decoder moves no frame byte.
    #[test]
    fn frame_bytes_are_pinned() {
        let t = sample_trace();
        let req = |id, op| encode_request(&Request { id, deadline_ms: 9, op, trace_id: t });
        let frames = [
            req(1, Op::Compress {
                compressor: "SZ3+QP".into(),
                dtype_bits: 32,
                dims: vec![2, 1],
                bound: WireBound::Rel(1e-3),
                payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
            }),
            req(2, Op::Decompress { dtype_bits: 64, payload: vec![0x20, 1] }),
            req(3, Op::Ping),
            req(4, Op::Metrics),
            req(5, Op::CompressTiled {
                compressor: "MGARD".into(),
                dtype_bits: 64,
                dims: vec![1],
                tile: 16,
                bound: WireBound::Abs(0.5),
                payload: vec![0; 8],
            }),
            req(6, Op::ReadRegion {
                dtype_bits: 32,
                origin: vec![1, 2],
                extent: vec![3, 4],
                payload: vec![0xB0],
            }),
            req(7, Op::Flight { tails: true }),
            encode_response(&Response {
                id: 8,
                status: Status::BadRegion,
                payload: b"no".to_vec(),
                trace_id: t,
            }),
        ];
        let hex: Vec<String> =
            frames.iter().map(|f| f.iter().map(|b| format!("{b:02x}")).collect()).collect();
        assert_eq!(
            hex,
            [
                "a5010100000000000000010900000006535a332b51502002020000000100000001fca9f1d24d62503f08000000000000000102030405060708d0d1d2d3d4d5d6d7d8d9dadbdcdddedfdd3bd940c451",
                "a501020000000000000002090000004002000000000000002001d0d1d2d3d4d5d6d7d8d9dadbdcdddedf5e9e86abc451",
                "a50103000000000000000309000000d0d1d2d3d4d5d6d7d8d9dadbdcdddedf045d86a6c451",
                "a50104000000000000000409000000d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe1d2073dc451",
                "a50105000000000000000509000000054d474152444001010000001000000000000000000000e03f08000000000000000000000000000000d0d1d2d3d4d5d6d7d8d9dadbdcdddedf2f49bd4ac451",
                "a501060000000000000006090000002002010000000200000003000000040000000100000000000000b0d0d1d2d3d4d5d6d7d8d9dadbdcdddedf313f6525c451",
                "a5010700000000000000070900000001d0d1d2d3d4d5d6d7d8d9dadbdcdddedf02ee3053c451",
                "a60108000000000000000a02000000000000006e6fd0d1d2d3d4d5d6d7d8d9dadbdcdddedff6018e14c451",
            ]
        );
        // The decoder reads each pinned frame back to what encodes it.
        for f in &frames[..7] {
            assert_eq!(&encode_request(&decode_request(f, 1 << 20).unwrap()), f);
        }
        assert_eq!(encode_response(&decode_response(&frames[7], 1 << 20).unwrap()), frames[7]);
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response { id: 9, status: Status::Ok, payload: vec![5; 100], trace_id: sample_trace() },
            Response {
                id: 9,
                status: Status::ServerBusy,
                payload: b"queue full".to_vec(),
                trace_id: ZERO_TRACE,
            },
        ] {
            let body = encode_response(&resp);
            assert_eq!(decode_response(&body, 1 << 20).unwrap(), resp);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for req in [
            Request { id: 3, deadline_ms: 0, op: Op::Ping, trace_id: sample_trace() },
            Request { id: 4, deadline_ms: 0, op: Op::Flight { tails: true }, trace_id: sample_trace() },
            sample_read_region(),
        ] {
            let body = encode_request(&req);
            for byte in 0..body.len() {
                for bit in 0..8 {
                    let mut bad = body.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode_request(&bad, 1 << 20).is_err(),
                        "flip at byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        for req in [
            sample_compress(),
            sample_read_region(),
            Request { id: 8, deadline_ms: 3, op: Op::Flight { tails: false }, trace_id: sample_trace() },
        ] {
            let body = encode_request(&req);
            for cut in 0..body.len() {
                assert!(decode_request(&body[..cut], 1 << 20).is_err(), "cut at {cut} accepted");
            }
        }
    }

    #[test]
    fn resealed_oversized_payload_declaration_is_typed() {
        // Tamper the declared payload length inside the body, then reseal the
        // CRC so the frame reaches the structural parser.
        let req = sample_compress();
        let sealed = encode_request(&req);
        let mut body = integrity::check(&sealed).unwrap().to_vec();
        let n = body.len();
        // The payload length field is the 8 bytes right before the payload.
        let payload_len = match &req.op {
            Op::Compress { payload, .. } => payload.len(),
            _ => unreachable!(),
        };
        // 16 trailing trace-ID bytes sit between the payload and the seal.
        let len_at = n - 16 - payload_len - 8;
        body[len_at..len_at + 8].copy_from_slice(&(u64::MAX).to_le_bytes());
        let resealed = integrity::seal(body);
        match decode_request(&resealed, 1 << 20) {
            Err(WireError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn status_and_op_tags_roundtrip() {
        for s in [
            Status::Ok,
            Status::BadFrame,
            Status::BadRequest,
            Status::UnknownCompressor,
            Status::ServerBusy,
            Status::DeadlineExceeded,
            Status::Internal,
            Status::ShuttingDown,
            Status::TooLarge,
            Status::Failed,
            Status::BadRegion,
        ] {
            assert_eq!(Status::from_tag(s.tag()), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(Status::from_tag(200), None);
        for k in [
            OpKind::Compress,
            OpKind::Decompress,
            OpKind::Ping,
            OpKind::Metrics,
            OpKind::CompressTiled,
            OpKind::ReadRegion,
            OpKind::Flight,
        ] {
            assert_eq!(OpKind::from_tag(k.tag()), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(OpKind::from_tag(0), None);
    }

    /// Additive-field compatibility: a version-1 body *without* the trailing
    /// trace-ID bytes (what a pre-trace peer emits) still decodes, yielding
    /// the all-zero ID; 1–15 or 17+ trailing bytes stay malformed.
    #[test]
    fn legacy_frames_without_trace_id_still_parse() {
        // Hand-build a Ping request body exactly as the pre-trace encoder did.
        let mut body = ByteWriter::new();
        body.put_bytes(&[REQUEST_MAGIC, WIRE_VERSION]);
        body.put_u64(9001);
        body.put_u8(OpKind::Ping.tag());
        body.put_u32(125);
        let legacy = integrity::seal(body.finish());
        let req = decode_request(&legacy, 1 << 20).unwrap();
        assert_eq!(req.id, 9001);
        assert_eq!(req.trace_id, ZERO_TRACE);

        // Same for a response body.
        let mut body = ByteWriter::new();
        body.put_bytes(&[RESPONSE_MAGIC, WIRE_VERSION]);
        body.put_u64(9001);
        body.put_u8(Status::Ok.tag());
        put_payload(&mut body, b"pong");
        let legacy = integrity::seal(body.finish());
        let resp = decode_response(&legacy, 1 << 20).unwrap();
        assert_eq!(resp.trace_id, ZERO_TRACE);

        // Any other trailing length is rejected.
        for extra in [1usize, 8, 15, 17, 24] {
            let mut body = ByteWriter::new();
            body.put_bytes(&[REQUEST_MAGIC, WIRE_VERSION]);
            body.put_u64(1);
            body.put_u8(OpKind::Ping.tag());
            body.put_u32(0);
            body.put_bytes(&[0xEE; 24][..extra]);
            let framed = integrity::seal(body.finish());
            assert!(
                decode_request(&framed, 1 << 20).is_err(),
                "{extra} trailing bytes accepted"
            );
        }
    }

    #[test]
    fn trace_hex_renders_32_lower_hex_chars() {
        assert_eq!(trace_hex(&ZERO_TRACE), "0".repeat(32));
        let mut id = [0u8; 16];
        id[0] = 0xAB;
        id[15] = 0x01;
        let hex = trace_hex(&id);
        assert_eq!(hex.len(), 32);
        assert!(hex.starts_with("ab"));
        assert!(hex.ends_with("01"));
    }

    #[test]
    fn frame_transport_roundtrip_and_cap() {
        let body =
            encode_request(&Request { id: 1, deadline_ms: 0, op: Op::Ping, trace_id: ZERO_TRACE });
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), body);

        // Oversized declared length is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        let mut r = &huge[..];
        match read_frame(&mut r, 1 << 20) {
            Err(ReadFrameError::TooLarge(n)) => assert_eq!(n, u32::MAX as u64),
            other => panic!("expected TooLarge, got {other:?}"),
        }

        // Clean EOF at a frame boundary vs mid-frame disconnect.
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, 1024), Err(ReadFrameError::Eof)));
        let mut partial: &[u8] = &buf[..6];
        assert!(matches!(read_frame(&mut partial, 1 << 20), Err(ReadFrameError::Io(_))));
    }
}
