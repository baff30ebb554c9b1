//! Elasticutor egress plane: how records leave the DAG with a delivery
//! contract — the mirror of the ingress crate.
//!
//! The runtime's [`Sink`](elasticutor_runtime::Sink) trait is the seam:
//! [`TcpEgress`] plugs into `Pipeline::attach_sink` / `LiveDag::attach_sink`
//! and gives the output stream an **at-least-once contract with per-key
//! FIFO** over TCP:
//!
//! * Every accepted batch is assigned monotonic delivery sequence
//!   numbers and appended to a disk-backed **outbox** ([`SpillQueue`])
//!   before anything touches the network — the queue *is* the
//!   retransmission source of truth, not a fallback.
//! * A sender thread streams outbox frames to the sink; the receiver
//!   ACKs a watermark that trims the outbox behind it. Frames unACKed
//!   past a deadline force a reconnect, which rewinds the cursor to the
//!   receiver's watermark and resends — duplicates are deduplicated at
//!   the receiver by delivery seq.
//! * Failure handling is layered: transient link errors retry with
//!   capped exponential backoff + jitter (the migration plane's
//!   [`Backoff`](elasticutor_runtime::Backoff) policy); a dead primary
//!   fails over to a configured standby; with **no** sink reachable the
//!   outbox simply grows on disk — the DAG keeps processing at full
//!   rate and nothing is dropped.
//!
//! [`EgressServer`] is the receiving side of the protocol (watermark
//! dedup, ACKs, optional watermark persistence across restarts), used
//! by the tests, the chaos bench, and as the reference for external
//! consumers. The wire protocol itself lives in [`frame`]; all frames
//! use the WAL's checked-frame discipline, so corruption anywhere is a
//! typed error, never an altered record.

#![warn(missing_docs)]

pub mod frame;
pub mod server;
pub mod sink;
pub mod spill;

pub use frame::{DataFrame, EgressRecord, MSG_EGRESS_ACK, MSG_EGRESS_DATA, MSG_EGRESS_HELLO};
pub use server::{DeliverFn, EgressServer, EgressServerConfig, ServerStats};
pub use sink::{EgressConfig, EgressHandle, EgressStats, TcpEgress};
pub use spill::{FrameRun, SpillQueue, SpillReader};

use elasticutor_core::wire::WireError;

/// Why an egress operation failed.
#[derive(Debug)]
pub enum EgressError {
    /// A byte stream violated the egress frame protocol (bad version,
    /// oversized length, truncated or corrupt frame).
    Wire(WireError),
    /// A structurally valid frame carried a message type this side of
    /// the protocol does not accept.
    UnknownFrame(u8),
    /// A sealed spill segment failed validation — acknowledged-as-
    /// written bytes are damaged, which cannot be silently skipped.
    SpillCorrupt(&'static str),
    /// An I/O error outside the protocol itself (spill directory,
    /// connect, bind, …).
    Io(std::io::Error),
}

impl std::fmt::Display for EgressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EgressError::Wire(e) => write!(f, "egress protocol error: {e}"),
            EgressError::UnknownFrame(t) => {
                write!(f, "egress protocol error: unexpected frame type {t:#x}")
            }
            EgressError::SpillCorrupt(what) => write!(f, "egress spill corrupt: {what}"),
            EgressError::Io(e) => write!(f, "egress i/o error: {e}"),
        }
    }
}

impl std::error::Error for EgressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EgressError::Wire(e) => Some(e),
            EgressError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for EgressError {
    fn from(e: WireError) -> Self {
        EgressError::Wire(e)
    }
}

impl From<std::io::Error> for EgressError {
    fn from(e: std::io::Error) -> Self {
        EgressError::Io(e)
    }
}
