//! # qip-serve — fault-tolerant TCP compression service
//!
//! A std-only threaded server (no async runtime) that exposes the whole
//! [`qip_registry::AnyCompressor`] registry over a length-prefixed,
//! CRC32-sealed binary protocol. Robustness is the design center:
//!
//! - **Backpressure, not backlog**: bounded per-worker queues; when every
//!   queue is full the request is shed immediately with a typed
//!   `SERVER_BUSY` response instead of queueing unboundedly.
//! - **Deadlines**: every request carries one (or inherits the server
//!   default); it is enforced at dequeue and re-checked between pipeline
//!   stages, so expired work is dropped instead of executed.
//! - **Panic isolation**: a panic inside a compressor is caught per-request
//!   (`catch_unwind`), answered as a typed `INTERNAL` response, and the
//!   worker survives with a fresh [`qip_core::CompressCtx`].
//! - **Bounded I/O**: read/write socket timeouts cut off idle and
//!   slow-loris peers; frame lengths are capped before allocation; a
//!   connection cap sheds excess connections with a typed response.
//! - **Graceful drain**: shutdown stops accepting, finishes every queued and
//!   in-flight request, then exits.
//!
//! The data operations themselves are one function, [`execute`]: workers run
//! it on each decoded [`wire::Op`], and the `qip` CLI runs it on the op its
//! arguments describe, so both refuse, time and answer the same way.
//!
//! Telemetry: every answered frame is one [`qip_telemetry::RequestEvent`]
//! in the server's event log. When a [`qip_telemetry`] hub is attached, the
//! same frame also feeds `qip.serve.requests{op,status}` (shed load, missed
//! deadlines and isolated panics are its `SERVER_BUSY`, `DEADLINE_EXCEEDED`
//! and `INTERNAL` series), the per-op latency histogram, the SLO tracker
//! and — for worker requests — the tail sampler, which keeps the event
//! itself. Queue-depth gauges ride along, and every compress/decompress
//! lands in the flight recorder via the instrumented registry dispatch. The
//! `Metrics` op returns the hub's Prometheus text exposition.
//!
//! See `docs/serving.md` for the wire format, error codes, and tuning guide.
//!
//! ```no_run
//! use qip_serve::{Server, ServeConfig, Client, wire::WireBound};
//! use std::time::Duration;
//!
//! let handle = Server::start(ServeConfig::default()).unwrap();
//! let mut client =
//!     Client::connect(handle.addr(), Duration::from_secs(5), 64 << 20).unwrap();
//! let field: Vec<u8> = (0..32 * 32).flat_map(|i| (i as f32).to_le_bytes()).collect();
//! let resp = client
//!     .compress("SZ3+QP", 32, &[32, 32], WireBound::Abs(1e-3), field, 0)
//!     .unwrap();
//! assert_eq!(resp.status, qip_serve::wire::Status::Ok);
//! ```

#![warn(missing_docs)]

mod client;
mod exec;
mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use exec::execute;
pub use server::{ServeConfig, ServeStats, Server, ServerHandle};
