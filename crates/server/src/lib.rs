#![warn(missing_docs)]

//! Allocation as a service: the `dbp-server` daemon.
//!
//! The paper frames MinUsageTime dynamic bin packing as the online
//! allocation problem behind cloud gaming — requests arrive from live
//! user traffic and must be placed *now*. This crate is that serving
//! layer: a long-running daemon multiplexing many tenant sessions
//! over a length-prefixed JSONL wire protocol ([`dbp_proto`]), with
//!
//! * synchronous placement — frame in, `bin_id` out ([`Client`]);
//! * per-tenant auth tokens ([`TokenPolicy`]) and admission quotas
//!   ([`Quotas`]: bins, in-flight items, events/sec);
//! * journal-backed crash recovery — every accepted event is appended
//!   and flushed to the tenant's journal *before* its ack, and a
//!   restarted server replays journals into bit-identical sessions;
//! * one lawful OpenMetrics page — per-tenant prefixed registries and
//!   the server-wide merge, served by the existing
//!   `dbp_obs::MetricsServer` handler;
//! * request spans — every placement is timed through five phases
//!   (decode / quota / apply / journal / encode) into per-tenant
//!   latency histograms, and requests over `--slow-ms` land in a
//!   bounded slow ring dumped as JSONL + Chrome trace on shutdown
//!   ([`span`]);
//! * sharding — every tenant runs a `dbp_par::Fleet` of `shards = n`
//!   sessions routed by `id % n` (an unsharded tenant is a fleet of
//!   one): `n` independent server pools, each packed in its own order,
//!   all applied on the connection's thread.
//!
//! Start one with [`DbpServer::start`] (or `mindbp serve` from the
//! CLI), drive it with [`Client`], benchmark it with the `loadgen`
//! bin.

pub mod client;
pub mod journal;
pub mod quota;
pub mod server;
pub mod span;
pub mod tenant;

pub use client::{Client, ClientBuilder, ClientError};
pub use quota::Quotas;
pub use server::{DbpServer, ServerConfig, TokenPolicy};
pub use span::{Phase, RequestSpan, SlowRequest, SlowRing, WireStats};

use dbp_proto::{ErrorKind, WireError};

/// A server-side failure: either a typed wire error to answer with,
/// or I/O trouble (journal, socket) that poisons the operation.
#[derive(Debug)]
pub enum ServerError {
    /// Answerable on the wire as a typed error frame.
    Wire(WireError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl ServerError {
    /// The wire representation: I/O failures surface as `unavailable`
    /// (the client can retry against a recovered server; the message
    /// names the failing subsystem).
    pub fn into_wire(self) -> WireError {
        match self {
            ServerError::Wire(e) => e,
            ServerError::Io(e) => {
                WireError::new(ErrorKind::Unavailable, format!("server i/o failure: {e}"))
            }
        }
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Wire(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}
