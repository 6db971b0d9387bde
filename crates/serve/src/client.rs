//! Minimal blocking client for the qip-serve protocol.
//!
//! Used by the CLI, the load generator, the chaos harness, and the
//! integration tests; anything that can open a `TcpStream` can speak to the
//! server through this.

use crate::wire::{self, Op, ReadFrameError, Request, Response, TraceId, WireBound, WireError};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server closed the connection before answering.
    Closed,
    /// The server's response frame failed to parse (should never happen
    /// against a healthy server; indicates corruption in transit).
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Wire(e) => write!(f, "bad response frame: {e}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a qip-serve server. Requests are issued synchronously:
/// send a frame, read the matching response. Reconnect by constructing a new
/// client (the server closes the connection after any `BAD_FRAME`).
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_frame: usize,
    trace_id: TraceId,
}

impl Client {
    /// Connect with the given I/O timeout applied to connect, reads, and
    /// writes. `max_frame` caps response frames (defence against a confused
    /// peer declaring absurd lengths); use the server's configured cap.
    pub fn connect(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        max_frame: usize,
    ) -> std::io::Result<Client> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1, max_frame, trace_id: wire::ZERO_TRACE })
    }

    /// Set the trace ID carried by subsequent requests. The default
    /// [`wire::ZERO_TRACE`] asks the server to assign one (the assigned ID
    /// comes back in [`Response::trace_id`]); a client-chosen nonzero ID is
    /// echoed byte-for-byte in every response status.
    pub fn set_trace_id(&mut self, trace_id: TraceId) {
        self.trace_id = trace_id;
    }

    /// The trace ID subsequent requests will carry.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Issue one request and wait for its response.
    pub fn call(&mut self, deadline_ms: u32, op: Op) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let body =
            wire::encode_request(&Request { id, deadline_ms, op, trace_id: self.trace_id });
        wire::write_frame(&mut self.stream, &body)?;
        let resp_body = match wire::read_frame(&mut self.stream, self.max_frame) {
            Ok(b) => b,
            Err(ReadFrameError::Eof) => return Err(ClientError::Closed),
            Err(ReadFrameError::Timeout) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "response timed out",
                )))
            }
            Err(ReadFrameError::TooLarge(n)) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response frame declared {n} bytes"),
                )))
            }
            Err(ReadFrameError::Io(e)) => return Err(ClientError::Io(e)),
        };
        wire::decode_response(&resp_body, self.max_frame).map_err(ClientError::Wire)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call(0, Op::Ping)
    }

    /// Fetch the server's metrics in Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<Response, ClientError> {
        self.call(0, Op::Metrics)
    }

    /// Fetch the server's flight-recorder dump (per-call records, JSONL).
    pub fn flight(&mut self) -> Result<Response, ClientError> {
        self.call(0, Op::Flight { tails: false })
    }

    /// Fetch the server's tail-sampler reservoir (JSONL, one
    /// `{sampled, over_p99, p99_estimate_ns, request}` line per sample, where
    /// `request` is the request's event-log record).
    pub fn tails(&mut self) -> Result<Response, ClientError> {
        self.call(0, Op::Flight { tails: true })
    }

    /// Compress a raw little-endian field.
    pub fn compress(
        &mut self,
        compressor: &str,
        dtype_bits: u8,
        dims: &[u32],
        bound: WireBound,
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        self.call(
            deadline_ms,
            Op::Compress {
                compressor: compressor.to_string(),
                dtype_bits,
                dims: dims.to_vec(),
                bound,
                payload,
            },
        )
    }

    /// Compress a raw little-endian field into a tiled container with
    /// edge-`tile` tiles (the random-access format `read_region` serves).
    #[allow(clippy::too_many_arguments)]
    pub fn compress_tiled(
        &mut self,
        compressor: &str,
        dtype_bits: u8,
        dims: &[u32],
        tile: u32,
        bound: WireBound,
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        self.call(
            deadline_ms,
            Op::CompressTiled {
                compressor: compressor.to_string(),
                dtype_bits,
                dims: dims.to_vec(),
                tile,
                bound,
                payload,
            },
        )
    }

    /// Decode one `origin`/`extent` region of a tiled container; the server
    /// decompresses only the tiles the region intersects.
    pub fn read_region(
        &mut self,
        dtype_bits: u8,
        origin: &[u32],
        extent: &[u32],
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        self.call(
            deadline_ms,
            Op::ReadRegion {
                dtype_bits,
                origin: origin.to_vec(),
                extent: extent.to_vec(),
                payload,
            },
        )
    }

    /// Decompress a compressed stream.
    pub fn decompress(
        &mut self,
        dtype_bits: u8,
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        self.call(deadline_ms, Op::Decompress { dtype_bits, payload })
    }
}
