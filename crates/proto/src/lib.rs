#![warn(missing_docs)]

//! One wire schema for every JSONL surface of the workspace.
//!
//! Before this crate, the `mindbp stream` CLI, session checkpoints,
//! and ad-hoc tooling each serialized events their own way. `dbp-proto`
//! is the single source of truth:
//!
//! * [`Event`] — the arrive/depart stream event (re-exported from
//!   `dbp_core::session`), rendered as one JSON object per line with a
//!   versioned `"v": 1` tag ([`event_to_line`] / [`parse_event_line`]).
//!   Untagged legacy lines parse too, so pre-versioning traces stay
//!   readable.
//! * [`Request`] / [`Response`] — the `dbp-server` wire frames
//!   (`hello`/`arrive`/`depart`/`batch`/`snapshot`/`metrics`/`finish`/
//!   `shutdown` and their answers). A single-event request frame *is*
//!   the stream-CLI line format, so a captured stream replays against
//!   a server verbatim.
//! * [`checkpoint_to_json`] / [`checkpoint_from_json`] — versioned
//!   envelopes around [`SessionSnapshot`] used by `--checkpoint` /
//!   `--resume` and by the server's journal recovery.
//! * [`write_frame`] / [`read_frame`] — the length-prefixed framing
//!   (`<byte-len>\n<json>\n`) spoken over the socket. The [`fast`]
//!   module adds byte-identical canonical writers and a strict parser
//!   for the placement hot path, plus a writer for the finish
//!   response's outcomes; non-canonical frames fall back to the
//!   generic codec, so the format is unchanged.
//! * [`crc32`] — the std-only CRC-32 that seals the server's engine
//!   state checkpoints.
//!
//! Everything is plain serde over the workspace's exact data model:
//! `Rational` timestamps round-trip bit-for-bit, so outcomes computed
//! from wire traffic are bit-identical to in-process runs.

pub mod crc;
pub mod fast;
pub mod frame;
pub mod framing;
pub mod line;

pub use dbp_core::session::{Backend, Event, SessionMetrics, SessionSnapshot, TickGrid};
pub use dbp_core::{BinId, ItemId, PackingOutcome};

pub use crc::crc32;
pub use frame::{ErrorKind, Hello, Request, Response, WireError};
pub use framing::{
    parse_frame_payload, read_frame, read_frame_into, read_frame_raw, write_frame,
    write_frame_bytes, FrameRead, RawFrame, MAX_FRAME_BYTES,
};
pub use line::{checkpoint_from_json, checkpoint_to_json, event_to_line, parse_event_line};

/// The wire schema version stamped into every tagged frame and line.
///
/// Readers accept exactly this version (plus untagged legacy payloads
/// from before versioning); anything newer is a typed error rather
/// than a silent misparse.
pub const WIRE_VERSION: i128 = 1;
