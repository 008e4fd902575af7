//! Per-tenant durability: an append-only event journal.
//!
//! One file per tenant under the server's journal directory. The
//! first line is a versioned header recording everything needed to
//! rebuild the session shape (algorithm, backend, grid, telemetry);
//! every line after it is one accepted event in the shared
//! [`dbp_proto`] line format — the same bytes a stream CLI trace uses.
//!
//! The durability contract: an event's journal line is written and
//! flushed **before** the placement response is sent, so any event a
//! client saw acknowledged survives a crash. Recovery replays the
//! journal through the identical session machinery, which makes the
//! resumed tenant bit-identical to one that never stopped — the
//! property the crash-recovery integration test pins down. A tenant on
//! the tick engine also keeps an engine-state checkpoint beside its
//! journal ([`crate::checkpoint`]); recovery then loads the state and
//! replays only the journal lines after the point it covers. The
//! journal stays the only source of truth: a checkpoint that is
//! missing or out of step with it is ignored, and
//! [`Journal::create`] removes a stale one before it truncates.
//!
//! A crash in the middle of an append can leave the file ending in a
//! partial line (one append may take several `write` calls). That
//! line was never acknowledged, so recovery drops it,
//! reports its length as [`JournalEnd::torn_bytes`], and
//! [`Journal::reopen`] cuts it off before appending again. A malformed
//! line followed by more lines is corruption, not a torn append, and
//! stays an error naming the line's number and byte offset.
//!
//! Both directions run on the canonical fast codec: appends encode a
//! whole batch with [`dbp_proto::fast`] into one reused buffer and
//! hand it to the file in one `write_all`. Recovery streams the file
//! through one fixed-size read buffer and decodes each canonical line
//! in place with [`fast::read_event_line`]; any other line goes through
//! [`parse_event_line`], the generic reader of stream lines. A restart
//! replays each event into its tenant as it is read, so it never holds
//! a journal's events in memory.

use crate::checkpoint::{self, Mark, WINDOW};
use dbp_proto::{crc32, fast, parse_event_line, Backend, Event, TickGrid, WIRE_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The session shape recorded in a journal header (everything a
/// restart needs besides the events themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Tenant key.
    pub tenant: String,
    /// Canonical algorithm name (as `Session::algorithm` reports it).
    pub algo: String,
    /// Engine backend.
    pub backend: Backend,
    /// Declared tick grid, if any.
    pub grid: Option<TickGrid>,
    /// Always 1: every tenant is one session. The field stays so that
    /// headers keep their bytes on disk; opening a journal whose
    /// header says otherwise (one a sharded tenant of an earlier build
    /// wrote) fails.
    pub shards: u32,
    /// Whether per-session telemetry was on.
    pub telemetry: bool,
}

impl Serialize for JournalHeader {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("tenant".to_string(), Value::Str(self.tenant.clone())),
            ("algo".to_string(), Value::Str(self.algo.clone())),
            ("backend".to_string(), self.backend.to_value()),
            ("shards".to_string(), Value::Int(self.shards as i128)),
            ("telemetry".to_string(), Value::Bool(self.telemetry)),
        ];
        if let Some(grid) = &self.grid {
            fields.push(("grid".to_string(), grid.to_value()));
        }
        Value::Object(vec![
            ("v".to_string(), Value::Int(WIRE_VERSION)),
            ("journal".to_string(), Value::Object(fields)),
        ])
    }
}

impl Deserialize for JournalHeader {
    fn from_value(v: &Value) -> Result<JournalHeader, serde::Error> {
        let body = v
            .get("journal")
            .ok_or_else(|| serde::Error::missing_field("journal", "journal header"))?;
        let get = |name: &str| {
            body.get(name)
                .ok_or_else(|| serde::Error::missing_field(name, "journal header"))
        };
        Ok(JournalHeader {
            tenant: String::from_value(get("tenant")?)?,
            algo: String::from_value(get("algo")?)?,
            backend: Backend::from_value(get("backend")?)?,
            grid: match body.get("grid") {
                Some(Value::Null) | None => None,
                Some(g) => Some(TickGrid::from_value(g)?),
            },
            shards: u32::from_value(get("shards")?)?,
            telemetry: bool::from_value(get("telemetry")?)?,
        })
    }
}

/// An open per-tenant journal, appending accepted events.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Encoding buffer reused across appends: one batch's lines.
    buf: Vec<u8>,
    /// Bytes of complete lines, header included.
    len: u64,
    /// Complete lines, header included.
    lines: u64,
}

/// The journal file for `tenant` under `dir`. Tenant keys are
/// sanitized to a filename-safe alphabet so a hostile tenant name
/// can't traverse paths.
pub fn journal_path(dir: &Path, tenant: &str) -> PathBuf {
    let safe: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}.journal"))
}

impl Journal {
    /// Creates a fresh journal for a new tenant, writing its header.
    /// A checkpoint left by an earlier tenant of the same name is
    /// removed first, before the old journal is truncated.
    pub fn create(dir: &Path, header: &JournalHeader) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = journal_path(dir, &header.tenant);
        checkpoint::remove(&path)?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut line =
            serde_json::to_string(&header.to_value()).expect("journal headers always serialize");
        line.push('\n');
        (&file).write_all(line.as_bytes())?;
        Ok(Journal {
            path,
            file,
            buf: Vec::new(),
            len: line.len() as u64,
            lines: 1,
        })
    }

    /// Reopens the recovered journal at `path`, which holds `lines`
    /// complete lines (its checkpoints number their tail from there),
    /// for appending. A torn final line is cut off first, so the next
    /// append starts on a line boundary instead of gluing onto the
    /// fragment.
    pub fn reopen(path: &Path, end: JournalEnd, lines: u64) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        if end.torn_bytes > 0 {
            file.set_len(end.complete_len)?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            buf: Vec::new(),
            len: end.complete_len,
            lines,
        })
    }

    /// Appends accepted events, flushed to the OS in one `write_all` —
    /// must complete before the events are acknowledged on the wire.
    pub fn append(&mut self, events: &[Event]) -> io::Result<()> {
        self.buf.clear();
        for event in events {
            fast::write_event_request(&mut self.buf, event);
            self.buf.push(b'\n');
        }
        self.file.write_all(&self.buf)?;
        self.len += self.buf.len() as u64;
        self.lines += events.len() as u64;
        Ok(())
    }

    /// The journal file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of complete lines written, header included.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The checkpoint mark for the journal as it stands, with `accepted`
    /// events behind it: its length, the number of the next line, and
    /// the CRC of the last [`WINDOW`] bytes, read back from the file.
    pub(crate) fn mark(&self, accepted: u64) -> io::Result<Mark> {
        let window = self.len.min(WINDOW);
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.len - window))?;
        let mut bytes = vec![0; window as usize];
        file.read_exact(&mut bytes)?;
        Ok(Mark {
            offset: self.len,
            line: self.lines + 1,
            accepted,
            window_len: window as u32,
            window_crc: crc32(&bytes),
        })
    }

    /// Removes the journal file (after a successful finish — the
    /// tenant's history is sealed in its outcome, nothing to recover).
    pub fn remove(self) -> io::Result<()> {
        let path = self.path.clone();
        drop(self);
        fs::remove_file(path)
    }
}

/// Bytes the journal reader asks the file for at a time.
pub const BLOCK: usize = 64 * 1024;

/// Where a journal's complete lines end, found when its bytes run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEnd {
    /// Bytes of complete lines, header included: where the next
    /// append must start.
    pub complete_len: u64,
    /// Length of the final line dropped because it had no `\n` (a
    /// crash tore the append that wrote it); 0 for a clean journal.
    pub torn_bytes: u64,
}

/// A parsed journal: the header plus every event it recorded.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// Session shape to rebuild.
    pub header: JournalHeader,
    /// Events in acceptance order.
    pub events: Vec<Event>,
    /// Where the complete lines end.
    pub end: JournalEnd,
    /// Complete lines, header included.
    pub lines: u64,
}

/// Reads one journal file back into memory, through the same
/// streaming reader a restart uses. Only newline-terminated lines
/// count: a final line without its `\n` is a torn append, dropped and
/// reported in [`JournalEnd::torn_bytes`].
pub fn read_journal(path: &Path) -> io::Result<RecoveredJournal> {
    let (header, mut reader) = JournalReader::open(path)?;
    let events = reader.by_ref().collect::<io::Result<Vec<Event>>>()?;
    Ok(RecoveredJournal {
        header,
        events,
        end: reader.end(),
        lines: reader.lines(),
    })
}

/// Every journal file under `dir`, path-sorted so that recovery runs in
/// a deterministic order. A missing directory holds none.
pub(crate) fn journal_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "journal"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    paths.sort();
    Ok(paths)
}

/// Streams one journal file: its header when opened, then its events
/// one at a time as an iterator, then where its complete lines end.
///
/// The file is read through one [`BLOCK`]-byte [`BufReader`]. A
/// canonical line that lies whole in the buffer is decoded there by
/// [`fast::read_event_line`], which checks its `\n` too. Any other line
/// (the one that crosses the end of a block included) is copied out
/// with `read_until` and decoded by [`parse_event_line`], exactly as a
/// line of `mindbp stream` input.
pub(crate) struct JournalReader {
    path: PathBuf,
    file: BufReader<File>,
    /// The last line copied out of the buffer.
    text: Vec<u8>,
    /// Bytes of complete lines read so far.
    complete_len: u64,
    /// Bytes after the last complete line, once the file has ended.
    torn_bytes: u64,
    /// 1-based number of the next line.
    line: u64,
    /// Number and starting byte offset of the last event's line.
    last: (u64, u64),
    /// Length of the header line, where the first event line starts.
    header_len: u64,
}

impl JournalReader {
    /// Opens `path` and reads its header line, leaving the reader on
    /// the first event line.
    pub(crate) fn open(path: &Path) -> io::Result<(JournalHeader, JournalReader)> {
        let mut reader = JournalReader {
            path: path.to_path_buf(),
            file: BufReader::with_capacity(BLOCK, File::open(path)?),
            text: Vec::new(),
            complete_len: 0,
            torn_bytes: 0,
            line: 1,
            last: (0, 0),
            header_len: 0,
        };
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        let bad_header = |e: &dyn std::fmt::Display| bad(format!("bad journal header: {e}"));
        if !reader.copy_line()? {
            return Err(bad("no complete journal header".to_string()));
        }
        let text = std::str::from_utf8(&reader.text).map_err(|e| bad_header(&e))?;
        let value = serde_json::parse(text).map_err(|e| bad_header(&e))?;
        let header = JournalHeader::from_value(&value).map_err(|e| bad_header(&e))?;
        if header.shards != 1 {
            return Err(bad(format!(
                "journal of a tenant with {} shards; tenants are one session now, \
                 so finish it with an earlier build",
                header.shards
            )));
        }
        reader.advance(reader.text.len());
        reader.header_len = reader.complete_len;
        Ok((header, reader))
    }

    /// Moves to the checkpoint `mark`, so that the next event read is
    /// the first one after it, if the journal still holds the lines the
    /// checkpoint covers: it is at least `mark.offset` bytes long and
    /// the bytes before that offset match the checkpoint's window CRC.
    /// Returns whether it moved; a journal cut short, or rewritten
    /// since, leaves the reader where it was.
    pub(crate) fn skip_to(&mut self, mark: &Mark) -> io::Result<bool> {
        let window = u64::from(mark.window_len);
        let fits = window <= mark.offset
            && mark.offset >= self.header_len
            && mark.line > 1
            && self.file.get_ref().metadata()?.len() >= mark.offset;
        if !fits {
            return Ok(false);
        }
        self.file.seek(SeekFrom::Start(mark.offset - window))?;
        let mut bytes = vec![0; mark.window_len as usize];
        self.file.read_exact(&mut bytes)?;
        if crc32(&bytes) != mark.window_crc {
            self.rewind()?;
            return Ok(false);
        }
        self.complete_len = mark.offset;
        self.line = mark.line;
        Ok(true)
    }

    /// Moves back to the first event line.
    pub(crate) fn rewind(&mut self) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.header_len))?;
        self.complete_len = self.header_len;
        self.line = 2;
        Ok(())
    }

    /// Complete lines read so far, header included.
    pub(crate) fn lines(&self) -> u64 {
        self.line - 1
    }

    /// The journal's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Where the complete lines end. Exact once the iterator has
    /// returned `None`.
    pub(crate) fn end(&self) -> JournalEnd {
        JournalEnd {
            complete_len: self.complete_len,
            torn_bytes: self.torn_bytes,
        }
    }

    /// The journal's path, then the 1-based number and starting byte
    /// offset of the line the last event came from.
    pub(crate) fn last_line(&self) -> (&Path, u64, u64) {
        (&self.path, self.last.0, self.last.1)
    }

    fn advance(&mut self, len: usize) {
        self.complete_len += len as u64;
        self.line += 1;
    }

    /// Copies the next line, newline included, into `text`; `false`
    /// when the file ends first, with the bytes read counted as torn.
    fn copy_line(&mut self) -> io::Result<bool> {
        self.text.clear();
        self.file.read_until(b'\n', &mut self.text)?;
        if self.text.last() == Some(&b'\n') {
            return Ok(true);
        }
        self.torn_bytes += self.text.len() as u64;
        Ok(false)
    }

    /// Decodes the copied line the way a stream line is decoded;
    /// `Ok(None)` for a blank or comment line.
    fn generic_line(&self) -> io::Result<Option<Event>> {
        let bad = |e: &dyn std::fmt::Display| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: bad journal line {} at byte {}: {e}",
                    self.path.display(),
                    self.line,
                    self.complete_len
                ),
            )
        };
        let text = std::str::from_utf8(&self.text).map_err(|e| bad(&e))?;
        parse_event_line(text).transpose().map_err(|e| bad(&e))
    }
}

impl Iterator for JournalReader {
    type Item = io::Result<Event>;

    fn next(&mut self) -> Option<io::Result<Event>> {
        loop {
            self.last = (self.line, self.complete_len);
            let buf = match self.file.fill_buf() {
                Ok(buf) => buf,
                Err(e) => return Some(Err(e)),
            };
            if let Some((event, len)) = fast::read_event_line(buf) {
                self.file.consume(len);
                self.advance(len);
                return Some(Ok(event));
            }
            match self.copy_line() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
            let event = self.generic_line();
            self.advance(self.text.len());
            match event {
                Ok(Some(event)) => return Some(Ok(event)),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::ItemId;
    use dbp_numeric::rat;
    use dbp_proto::event_to_line;

    fn header() -> JournalHeader {
        JournalHeader {
            tenant: "acme".into(),
            algo: "FirstFit".into(),
            backend: Backend::Auto,
            grid: Some(TickGrid::new(1, 64)),
            shards: 1,
            telemetry: true,
        }
    }

    #[test]
    fn journal_round_trips_header_and_events() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let events = vec![
            Event::Arrive {
                id: ItemId(0),
                size: rat(1, 2),
                time: rat(0, 1),
            },
            Event::Depart {
                id: ItemId(0),
                time: rat(3, 1),
            },
        ];
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&events[..1]).unwrap();
        // Reopen mid-life, as recovery does, and keep appending.
        drop(journal);
        let path = journal_path(&dir, "acme");
        let recovered = read_journal(&path).unwrap();
        let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
        journal.append(&events[1..]).unwrap();

        assert_eq!(journal_paths(&dir).unwrap(), std::slice::from_ref(&path));
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.header, header());
        assert_eq!(recovered.events, events);
        assert_eq!(recovered.end.torn_bytes, 0);
        assert_eq!(
            recovered.end.complete_len,
            fs::metadata(&path).unwrap().len()
        );

        journal.remove().unwrap();
        assert!(journal_paths(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn arrivals(ids: std::ops::Range<u32>) -> Vec<Event> {
        ids.map(|i| Event::Arrive {
            id: ItemId(i),
            size: rat(1, 4),
            time: rat(i as i128, 1),
        })
        .collect()
    }

    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    /// A crash mid-append leaves a partial last line: recovery keeps
    /// exactly the complete prefix, and appends after the reopen land
    /// on a fresh line rather than gluing onto the fragment.
    #[test]
    fn torn_tail_is_dropped_and_cut_before_appending() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (prefix, more) = (arrivals(0..5), arrivals(5..8));
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&prefix).unwrap();
        drop(journal);
        let path = journal_path(&dir, "acme");
        let line = event_to_line(&more[0]);
        let half = &line.as_bytes()[..line.len() / 2];
        append_raw(&path, half);

        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.header, header());
        assert_eq!(recovered.events, prefix);
        assert_eq!(recovered.end.torn_bytes, half.len() as u64);

        let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
        journal.append(&more).unwrap();
        drop(journal);
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.events, [prefix, more].concat());
        assert_eq!(recovered.end.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Only the *final* line may be torn: a malformed line with more
    /// lines after it is corruption and still refuses recovery, naming
    /// its 1-based line number and byte offset, and so does a journal
    /// without one complete header line.
    #[test]
    fn malformed_middle_line_and_torn_header_stay_errors() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&arrivals(0..2)).unwrap();
        drop(journal);
        let path = journal_path(&dir, "acme");
        let offset = fs::metadata(&path).unwrap().len();
        append_raw(&path, b"{\"arrive\": garbage\n");
        append_raw(&path, (event_to_line(&arrivals(2..3)[0]) + "\n").as_bytes());
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains(&format!("bad journal line 4 at byte {offset}:")),
            "{err}"
        );

        fs::write(&path, b"{\"v\":1,\"journal\":{").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            err.to_string().contains("no complete journal header"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The generic codec's reading of one line — the oracle for lines
    /// the strict parser hands back to it.
    fn generic_event(line: &str) -> Event {
        use dbp_proto::Request;
        match Request::from_value(&serde_json::parse(line.trim()).unwrap()).unwrap() {
            Request::Event(event) => event,
            other => panic!("not an event line: {other:?}"),
        }
    }

    /// Lines written by other tools stay readable: recovery decodes
    /// canonical lines on the fast path and the rest through the
    /// generic parser, and both read exactly what the generic parser
    /// alone would.
    #[test]
    fn non_canonical_lines_recover_like_the_generic_parser() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-mixed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&arrivals(0..2)).unwrap();
        drop(journal);
        let path = journal_path(&dir, "acme");
        let foreign = [
            // Legacy untagged.
            serde_json::to_string(&arrivals(2..3)[0].to_value()).unwrap(),
            // Surrounding whitespace around a canonical line.
            format!("  {}\t", event_to_line(&arrivals(3..4)[0])),
            // Whitespace inside the object.
            r#"{"v":1, "depart": {"id": 2, "time": {"num": 9, "den": 2}}}"#.to_string(),
            // Unnormalized rationals.
            r#"{"v":1,"arrive":{"id":4,"size":{"num":2,"den":8},"time":{"num":10,"den":2}}}"#
                .to_string(),
        ];
        for line in &foreign {
            append_raw(&path, format!("{line}\n").as_bytes());
        }
        let recovered = read_journal(&path).unwrap();
        let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
        journal.append(&arrivals(5..7)).unwrap();
        drop(journal);

        let expected: Vec<Event> = arrivals(0..2)
            .into_iter()
            .chain(foreign.iter().map(|line| generic_event(line)))
            .chain(arrivals(5..7))
            .collect();
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.events, expected);
        assert_eq!(
            recovered.events[5],
            Event::Arrive {
                id: ItemId(4),
                size: rat(1, 4),
                time: rat(5, 1),
            }
        );
        assert_eq!(recovered.end.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A canonical-looking line that is damaged in the middle of the
    /// journal — a truncated `"den":` value, or half a line with its
    /// newline — is refused by both parsers and fails recovery; it is
    /// never mistaken for a torn tail. The error names the damaged
    /// line's number and byte offset.
    #[test]
    fn corrupt_canonical_line_mid_journal_fails_recovery() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-corrupt-{}", std::process::id()));
        let line = event_to_line(&arrivals(3..4)[0]);
        let cut_den = line.replacen("\"den\":1}", "\"den\":}", 1);
        assert_ne!(cut_den, line);
        for damaged in [cut_den, line[..line.len() / 2].to_string()] {
            let _ = fs::remove_dir_all(&dir);
            let mut journal = Journal::create(&dir, &header()).unwrap();
            journal.append(&arrivals(0..3)).unwrap();
            drop(journal);
            let path = journal_path(&dir, "acme");
            let offset = fs::metadata(&path).unwrap().len();
            append_raw(&path, format!("{damaged}\n").as_bytes());
            for event in arrivals(4..6) {
                append_raw(&path, format!("{}\n", event_to_line(&event)).as_bytes());
            }
            let err = read_journal(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{damaged}");
            assert!(
                err.to_string()
                    .contains(&format!("bad journal line 5 at byte {offset}:")),
                "{err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_tenant_names_stay_in_the_directory() {
        let dir = Path::new("/tmp/journals");
        let path = journal_path(dir, "../../etc/passwd");
        assert!(path.starts_with(dir));
        assert_eq!(path.file_name().unwrap(), "______etc_passwd.journal");
    }

    #[test]
    fn missing_directory_scans_empty() {
        let dir = Path::new("/tmp/definitely-not-a-dbp-journal-dir-12345");
        assert!(journal_paths(dir).unwrap().is_empty());
    }

    /// Lines straddle block boundaries, a comment line and a padded
    /// line longer than a block sit among canonical ones, and the
    /// file ends inside a line: the streamed read matches the lines
    /// one by one through `parse_event_line`, and stops at the same
    /// complete length.
    #[test]
    fn streamed_reads_match_line_by_line_parsing_across_blocks() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-blocks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&arrivals(0..700)).unwrap();
        drop(journal);
        let path = journal_path(&dir, "acme");
        append_raw(&path, b"# a comment line\n");
        let padded = format!(
            "{}{}\n",
            " ".repeat(BLOCK + 17),
            event_to_line(&arrivals(700..701)[0])
        );
        append_raw(&path, padded.as_bytes());
        let recovered = read_journal(&path).unwrap();
        let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
        journal.append(&arrivals(701..1500)).unwrap();
        drop(journal);
        append_raw(&path, b"{\"v\":1,\"arr");
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.len() > 2 * BLOCK);

        let complete = bytes.iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let text = std::str::from_utf8(&bytes[..complete]).unwrap();
        let expected: Vec<Event> = text
            .lines()
            .skip(1)
            .filter_map(|line| parse_event_line(line).map(Result::unwrap))
            .collect();
        assert_eq!(expected, arrivals(0..1500));
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.events, expected);
        assert_eq!(
            recovered.end,
            JournalEnd {
                complete_len: complete as u64,
                torn_bytes: (bytes.len() - complete) as u64,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
