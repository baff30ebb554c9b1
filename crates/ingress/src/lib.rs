//! Elasticutor ingress plane: how records get *into* the DAG from the
//! outside world.
//!
//! The runtime's [`Ingest`](elasticutor_runtime::Ingest) trait is the
//! seam: everything in this crate is a feeder that pushes records into
//! some `Arc<dyn Ingest>` — a [`Pipeline`](elasticutor_runtime::Pipeline),
//! a [`LiveDag`](elasticutor_runtime::LiveDag) source port, or a bare
//! executor. Two feeders are provided:
//!
//! * [`TcpIngress`] — a nonblocking epoll acceptor + reader-thread pool
//!   decoding length-prefixed record frames from thousands of concurrent
//!   TCP connections, with per-connection credit-based backpressure: a
//!   slow DAG stalls the sockets (TCP window closure) instead of
//!   ballooning server memory.
//! * [`FileReplaySource`] — deterministic replay of a captured record
//!   stream through the runtime's source pump.
//!
//! Both speak the same frame format ([`codec`]), so a TCP capture can be
//! replayed from disk byte-for-byte.

#![warn(missing_docs)]

pub mod codec;
pub mod replay;
pub mod tcp;

pub use codec::{decode_batch, encode_batch, write_record_frame, FrameScanner, RECORD_FRAME};
// The readiness primitives this plane is built on, for the egress plane's
// event-driven sender (which depends on this crate, not on the shim).
pub use epoll::{Epoll, Event, EventFd, EPOLLIN, EPOLLOUT};
pub use replay::{write_replay_file, FileReplaySource, ReplayWriter};
pub use tcp::{IngressConfig, IngressStats, TcpIngress};

use elasticutor_core::wire::WireError;

/// Why an ingress connection (or replay stream) was rejected.
#[derive(Debug)]
pub enum IngressError {
    /// The byte stream violated the frame protocol (bad version,
    /// oversized length, truncated or corrupt batch payload).
    Wire(WireError),
    /// A structurally valid frame carried a message type ingress does
    /// not speak (only [`RECORD_FRAME`] is valid on an ingress socket).
    UnknownFrame(u8),
    /// An I/O error outside the protocol itself (file open, bind, …).
    Io(std::io::Error),
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Wire(e) => write!(f, "ingress protocol error: {e}"),
            IngressError::UnknownFrame(t) => {
                write!(f, "ingress protocol error: unexpected frame type {t:#x}")
            }
            IngressError::Io(e) => write!(f, "ingress i/o error: {e}"),
        }
    }
}

impl std::error::Error for IngressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngressError::Wire(e) => Some(e),
            IngressError::UnknownFrame(_) => None,
            IngressError::Io(e) => Some(e),
        }
    }
}

impl From<WireError> for IngressError {
    fn from(e: WireError) -> Self {
        IngressError::Wire(e)
    }
}

impl From<std::io::Error> for IngressError {
    fn from(e: std::io::Error) -> Self {
        IngressError::Io(e)
    }
}
