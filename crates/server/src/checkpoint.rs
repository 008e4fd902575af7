//! Engine-state checkpoints beside a tenant's journal.
//!
//! A journaled tenant whose session runs on the tick engine writes
//! `<tenant>.ckpt` next to `<tenant>.journal` once the journal has
//! grown by [`CHECKPOINT_MIN_BYTES`], or by the last checkpoint's size
//! if that is larger, since the last checkpoint. The file holds the
//! session's [`Session::write_state`](dbp_core::session::Session::write_state)
//! bytes and the point of the journal they cover, so a restart loads
//! it and replays only the journal after that point. Each checkpoint
//! costs O(state) and comes after at least that many journal bytes, so
//! checkpointing adds amortized O(1) per event.
//!
//! The journal stays the only source of truth. A checkpoint that is
//! missing, torn, corrupt, of another version, holding other than one
//! state, or out of step with its journal is ignored, and the restart
//! replays the whole journal as it would without one. A file is
//! written to `<tenant>.ckpt.tmp` and renamed over the old one, so a
//! crash leaves either checkpoint whole.
//!
//! The layout, little-endian:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | [`MAGIC`] |
//! | 4 | version ([`VERSION`]) |
//! | 8 | journal offset covered: bytes of complete lines, header included |
//! | 8 | number of the journal line that starts at that offset |
//! | 8 | events the tenant had accepted there |
//! | 4 + 4 | length and CRC-32 of the journal bytes just before the offset (at most [`WINDOW`]) |
//! | 4 | state count, always 1 |
//! | 8 + n | the state's length, then the state |
//! | 4 | CRC-32 of every byte before it |
//!
//! The state count is left from the layout's sharded days, when it
//! counted one state per shard; it keeps the layout, and so every
//! checkpoint already on disk, as it was.

use dbp_core::StateError;
use dbp_proto::crc32;
use std::fs;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The first bytes of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"DBPCKPT\n";

/// The checkpoint layout this build writes and reads.
pub const VERSION: u32 = 1;

/// Journal growth that triggers the next checkpoint, unless the last
/// checkpoint was larger. A constant: it only trades checkpoint writes
/// against the length of the tail a restart replays.
pub const CHECKPOINT_MIN_BYTES: u64 = 4 << 20;

/// Journal bytes before the covered offset whose CRC a checkpoint
/// records, so that one put beside another journal, or beside a journal
/// rewritten since, is told apart.
pub const WINDOW: u64 = 4096;

/// Fixed-size part of the file before the state.
const HEAD: usize = 8 + 4 + 8 + 8 + 8 + 4 + 4 + 4;

/// The checkpoint file beside `journal`.
pub fn checkpoint_path(journal: &Path) -> PathBuf {
    journal.with_extension("ckpt")
}

/// The file a checkpoint is written to before it is renamed.
fn temp_path(journal: &Path) -> PathBuf {
    journal.with_extension("ckpt.tmp")
}

/// Removes the checkpoint beside `journal`, and any temporary file a
/// crash left in the middle of writing one; either may not exist.
pub(crate) fn remove(journal: &Path) -> io::Result<()> {
    for path in [checkpoint_path(journal), temp_path(journal)] {
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    Ok(())
}

/// The point of its journal a checkpoint covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    /// Bytes of complete lines, header included: where the tail starts.
    pub(crate) offset: u64,
    /// 1-based number of the line that starts at `offset`.
    pub(crate) line: u64,
    /// Events the tenant had accepted up to `offset`.
    pub(crate) accepted: u64,
    /// Length of the journal window before `offset` that `window_crc`
    /// covers.
    pub(crate) window_len: u32,
    /// CRC-32 of that window.
    pub(crate) window_crc: u32,
}

/// A checkpoint file read back and checked against its own CRC.
pub(crate) struct Checkpoint {
    bytes: Vec<u8>,
    /// The journal point it covers.
    pub(crate) mark: Mark,
    /// Where the session's state lies in `bytes`.
    state: Range<usize>,
}

impl Checkpoint {
    /// The file's size.
    pub(crate) fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The session's state bytes.
    pub(crate) fn state(&self) -> &[u8] {
        &self.bytes[self.state.clone()]
    }

    /// Reads the checkpoint beside `journal`. `None` when there is
    /// none, or when it is torn, corrupt, of another version or holds
    /// other than one state: any of those leaves the journal to be
    /// replayed in full.
    pub(crate) fn read(journal: &Path) -> Option<Checkpoint> {
        let bytes = fs::read(checkpoint_path(journal)).ok()?;
        Checkpoint::parse(bytes)
    }

    fn parse(bytes: Vec<u8>) -> Option<Checkpoint> {
        let sealed = bytes.len().checked_sub(4)?;
        let crc = u32::from_le_bytes(bytes[sealed..].try_into().ok()?);
        if sealed < HEAD || crc32(&bytes[..sealed]) != crc || &bytes[..8] != MAGIC {
            return None;
        }
        let mut at = 8usize;
        let mut take = |n: usize| -> Option<Range<usize>> {
            let field = at..at.checked_add(n).filter(|&end| end <= sealed)?;
            at = field.end;
            Some(field)
        };
        let u32_ = |r: Range<usize>| u32::from_le_bytes(bytes[r].try_into().expect("four bytes"));
        let u64_ = |r: Range<usize>| u64::from_le_bytes(bytes[r].try_into().expect("eight bytes"));
        if u32_(take(4)?) != VERSION {
            return None;
        }
        let mark = Mark {
            offset: u64_(take(8)?),
            line: u64_(take(8)?),
            accepted: u64_(take(8)?),
            window_len: u32_(take(4)?),
            window_crc: u32_(take(4)?),
        };
        if u32_(take(4)?) != 1 {
            return None;
        }
        let len = usize::try_from(u64_(take(8)?)).ok()?;
        let state = take(len)?;
        (state.end == sealed).then_some(Checkpoint { bytes, mark, state })
    }
}

/// Writes the checkpoint beside `journal`: the header for `mark`, then
/// the session's state, which `state(buf)` appends, then the CRC. The
/// file goes to a temporary name first and is renamed over the old
/// checkpoint; a state that fails leaves the old one in place. Returns
/// the file's size.
pub(crate) fn write(
    journal: &Path,
    mark: Mark,
    state: impl FnOnce(&mut Vec<u8>) -> Result<(), StateError>,
) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(HEAD + 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&mark.offset.to_le_bytes());
    buf.extend_from_slice(&mark.line.to_le_bytes());
    buf.extend_from_slice(&mark.accepted.to_le_bytes());
    buf.extend_from_slice(&mark.window_len.to_le_bytes());
    buf.extend_from_slice(&mark.window_crc.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&[0; 8]);
    state(&mut buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let len = (buf.len() - HEAD - 8) as u64;
    buf[HEAD..HEAD + 8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    let tmp = temp_path(journal);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&buf)?;
    drop(file);
    fs::rename(&tmp, checkpoint_path(journal))?;
    Ok(buf.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark() -> Mark {
        Mark {
            offset: 1234,
            line: 17,
            accepted: 15,
            window_len: 1234,
            window_crc: 0xDEAD_BEEF,
        }
    }

    /// A written checkpoint reads back field for field; every shorter
    /// copy and every single-bit flip reads as no checkpoint at all.
    #[test]
    fn checkpoints_round_trip_and_any_damage_reads_as_none() {
        let dir = std::env::temp_dir().join(format!("dbp-ckpt-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("acme.journal");
        let size = write(&journal, mark(), |buf| {
            buf.extend_from_slice(b"engine state");
            Ok(())
        })
        .unwrap();
        let bytes = fs::read(checkpoint_path(&journal)).unwrap();
        assert_eq!(size, bytes.len() as u64);
        assert!(!dir.join("acme.ckpt.tmp").exists());
        let read = Checkpoint::read(&journal).unwrap();
        assert_eq!(read.mark, mark());
        assert_eq!(read.len(), size);
        assert_eq!(read.state(), b"engine state");

        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::parse(bytes[..cut].to_vec()).is_none(),
                "cut {cut}"
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(Checkpoint::parse(flipped).is_none(), "bit {bit}");
        }
        // A state that fails writes no file over the old one.
        let failed = write(&journal, mark(), |_| {
            Err(StateError::Unsupported("no state"))
        });
        assert_eq!(failed.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(fs::read(checkpoint_path(&journal)).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The file in the module doc's layout for `mark()` and `states`,
    /// assembled field by field.
    fn layout(states: &[&[u8]]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1234u64.to_le_bytes());
        bytes.extend_from_slice(&17u64.to_le_bytes());
        bytes.extend_from_slice(&15u64.to_le_bytes());
        bytes.extend_from_slice(&1234u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&(states.len() as u32).to_le_bytes());
        for state in states {
            bytes.extend_from_slice(&(state.len() as u64).to_le_bytes());
            bytes.extend_from_slice(state);
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// `write` speaks the documented layout byte for byte, so a
    /// one-state checkpoint written before the state count was pinned
    /// to 1 loads; a well-formed file of two states, or of none, reads
    /// as no checkpoint, which leaves the journal to a full replay.
    #[test]
    fn the_layout_holds_exactly_one_state() {
        let dir = std::env::temp_dir().join(format!("dbp-ckpt-layout-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("acme.journal");
        write(&journal, mark(), |buf| {
            buf.extend_from_slice(b"engine state");
            Ok(())
        })
        .unwrap();
        let one = layout(&[b"engine state"]);
        assert_eq!(fs::read(checkpoint_path(&journal)).unwrap(), one);
        let read = Checkpoint::parse(one).unwrap();
        assert_eq!((read.mark, read.state()), (mark(), &b"engine state"[..]));

        assert!(Checkpoint::parse(layout(&[b"first shard", b"second shard"])).is_none());
        assert!(Checkpoint::parse(layout(&[])).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
