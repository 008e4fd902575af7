//! A versioned binary codec for the state of a session on the tick
//! engine.
//!
//! [`Session::write_state`](crate::session::Session::write_state)
//! appends a tick-core session's books — the [`TickEngine`]'s bin
//! store, bin records, live active entries and assignments, its scan
//! mode and clock, and the session's own clock flag and telemetry — to
//! a byte buffer, and
//! [`Session::load_state`](crate::session::Session::load_state) puts
//! them back into a fresh session of the same configuration. The
//! restored session is bit-identical to the one that wrote the state:
//! it answers every later event, [`metrics`](crate::session::Session::metrics)
//! call and `finish` exactly as the writer would have. What the books
//! determine is rebuilt on load rather than stored: the running sums,
//! the event counters, the linear-scan arrays and the [`FitTree`].
//!
//! Every integer is little-endian. A blob starts with [`MAGIC`] and a
//! `u32` version ([`VERSION`]); a reader refuses any other version.
//! Decoding checks every count against the bytes left before it
//! allocates and every index and sum against the books it belongs to,
//! so damaged bytes decode to a [`StateError`], never to a panic or to
//! books the engine could not run on. The codec carries no checksum:
//! a caller that stores blobs where they can rot (the server's
//! checkpoint files) checks its own.
//!
//! [`TickEngine`]: crate::tick::TickEngine
//! [`FitTree`]: crate::fit_tree::FitTree

use std::fmt;

/// The first bytes of every state blob.
pub const MAGIC: &[u8; 8] = b"DBPSTATE";

/// The state format this build writes and reads.
pub const VERSION: u32 = 1;

/// Why a session's state could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The session cannot write or load engine state: it runs on the
    /// exact engine, has already applied events, or keeps a checkpoint
    /// log that the state would not fill.
    Unsupported(&'static str),
    /// The state was written by a session of another configuration
    /// (algorithm, backend, grid or telemetry), named here.
    Mismatch(&'static str),
    /// Not a state blob, or one of a version this build does not read.
    Version(u32),
    /// The bytes end before the state does.
    Truncated,
    /// The bytes decode to books no session could hold; the field or
    /// rule that failed is named.
    Invalid(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Unsupported(why) => write!(f, "engine state unavailable: {why}"),
            StateError::Mismatch(what) => {
                write!(f, "engine state is for a session of another {what}")
            }
            StateError::Version(v) => write!(f, "engine state version {v} is not readable"),
            StateError::Truncated => write!(f, "engine state ends early"),
            StateError::Invalid(what) => write!(f, "engine state is corrupt: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Little-endian appends to a state buffer.
pub(crate) struct StateWriter<'a>(pub(crate) &'a mut Vec<u8>);

impl StateWriter<'_> {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A count that a reader checks against the bytes left.
    pub(crate) fn len(&mut self, n: usize) -> Result<(), StateError> {
        let n = u32::try_from(n).map_err(|_| StateError::Unsupported("a table past u32::MAX"))?;
        self.u32(n);
        Ok(())
    }

    /// An optional `u32`: a presence flag, then the value or zero.
    pub(crate) fn opt_u32(&mut self, v: Option<u32>) {
        self.bool(v.is_some());
        self.u32(v.unwrap_or(0));
    }
}

/// Bounds-checked little-endian reads from a state blob.
pub(crate) struct StateReader<'a>(pub(crate) &'a [u8]);

impl<'a> StateReader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if n > self.0.len() {
            return Err(StateError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StateError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self, what: &'static str) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Invalid(what)),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StateError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StateError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn i128(&mut self) -> Result<i128, StateError> {
        self.array().map(i128::from_le_bytes)
    }

    /// A table of `width`-byte rows: its count, then the rows' bytes,
    /// checked against what is left before anything is allocated.
    pub(crate) fn rows(
        &mut self,
        width: usize,
    ) -> Result<std::slice::ChunksExact<'a, u8>, StateError> {
        let n = self.u32()? as usize;
        let bytes = n.checked_mul(width).ok_or(StateError::Truncated)?;
        Ok(self.take(bytes)?.chunks_exact(width))
    }

    pub(crate) fn opt_u32(&mut self, what: &'static str) -> Result<Option<u32>, StateError> {
        let present = self.bool(what)?;
        let v = self.u32()?;
        Ok(present.then_some(v))
    }

    /// Fails unless every byte was read.
    pub(crate) fn end(&self) -> Result<(), StateError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(StateError::Invalid("bytes past the end of the state"))
        }
    }
}

/// Field `i` (of four bytes) of a table row.
#[inline]
pub(crate) fn u32_at(row: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(
        row[4 * i..4 * i + 4]
            .try_into()
            .expect("rows hold whole fields"),
    )
}

/// The eight bytes of a table row starting at byte `at`.
#[inline]
pub(crate) fn u64_at(row: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(row[at..at + 8].try_into().expect("rows hold whole fields"))
}
