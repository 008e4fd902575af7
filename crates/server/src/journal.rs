//! Per-tenant durability: an append-only event journal.
//!
//! One file per tenant under the server's journal directory. The
//! first line is a versioned header recording everything needed to
//! rebuild the session shape (algorithm, backend, grid, shards,
//! telemetry); every line after it is one accepted event in the shared
//! [`dbp_proto`] line format — the same bytes a stream CLI trace uses.
//!
//! The durability contract: an event's journal line is written and
//! flushed **before** the placement response is sent, so any event a
//! client saw acknowledged survives a crash. Recovery replays the
//! journal through the identical session machinery, which makes the
//! resumed tenant bit-identical to one that never stopped — the
//! property the crash-recovery integration test pins down.
//!
//! A crash in the middle of an append can leave the file ending in a
//! partial line (one append may take several `write` calls). That
//! line was never acknowledged, so recovery drops it,
//! reports its length as [`RecoveredJournal::torn_bytes`], and
//! [`Journal::reopen`] cuts it off before appending again. A malformed
//! line followed by more lines is corruption, not a torn append, and
//! stays an error.
//!
//! Both directions run on the canonical fast codec: appends encode a
//! whole batch with [`dbp_proto::fast`] into one reused buffer and
//! hand it to the file in one `write_all`, and recovery decodes each
//! line with [`parse_event_line`], which reads canonical lines with the
//! strict parser and anything else through the generic one.

use dbp_proto::{fast, parse_event_line, Backend, Event, TickGrid, WIRE_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
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
    /// Shard count (1 = single session).
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
    pub fn create(dir: &Path, header: &JournalHeader) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = journal_path(dir, &header.tenant);
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
        })
    }

    /// Reopens a recovered journal for appending. A torn final line
    /// is cut off first, so the next append starts on a line boundary
    /// instead of gluing onto the fragment.
    pub fn reopen(dir: &Path, recovered: &RecoveredJournal) -> io::Result<Journal> {
        let path = journal_path(dir, &recovered.header.tenant);
        let file = OpenOptions::new().append(true).open(&path)?;
        if recovered.torn_bytes > 0 {
            file.set_len(recovered.complete_len)?;
        }
        Ok(Journal {
            path,
            file,
            buf: Vec::new(),
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
        self.file.write_all(&self.buf)
    }

    /// Removes the journal file (after a successful finish — the
    /// tenant's history is sealed in its outcome, nothing to recover).
    pub fn remove(self) -> io::Result<()> {
        let path = self.path.clone();
        drop(self);
        fs::remove_file(path)
    }
}

/// A parsed journal: the header plus every event it recorded.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// Session shape to rebuild.
    pub header: JournalHeader,
    /// Events in acceptance order.
    pub events: Vec<Event>,
    /// Length of the final line dropped because it had no `\n` (a
    /// crash tore the append that wrote it); 0 for a clean journal.
    pub torn_bytes: u64,
    /// Bytes of complete lines, header included: where the next
    /// append must start.
    complete_len: u64,
}

/// Reads one journal file back. Only newline-terminated lines count:
/// a final line without its `\n` is a torn append, dropped and
/// reported in [`RecoveredJournal::torn_bytes`].
pub fn read_journal(path: &Path) -> io::Result<RecoveredJournal> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = Vec::new();
    let mut complete_len = 0u64;
    let mut header = None;
    let mut events = Vec::new();
    let torn_bytes = loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)? as u64;
        if line.last() != Some(&b'\n') {
            break n; // 0 at a clean end of file
        }
        complete_len += n;
        let text = std::str::from_utf8(&line)
            .map_err(|e| bad(format!("{}: bad journal line: {e}", path.display())))?;
        if header.is_none() {
            let value = serde_json::parse(text)
                .map_err(|e| bad(format!("{}: bad journal header: {e}", path.display())))?;
            header = Some(
                JournalHeader::from_value(&value)
                    .map_err(|e| bad(format!("{}: bad journal header: {e}", path.display())))?,
            );
            continue;
        }
        match parse_event_line(text) {
            Some(Ok(event)) => events.push(event),
            Some(Err(e)) => return Err(bad(format!("{}: bad journal line: {e}", path.display()))),
            None => {}
        }
    };
    let header =
        header.ok_or_else(|| bad(format!("{}: no complete journal header", path.display())))?;
    Ok(RecoveredJournal {
        header,
        events,
        torn_bytes,
        complete_len,
    })
}

/// Every journal found under `dir`, in deterministic (path-sorted)
/// order. Missing directory means no tenants to recover.
pub fn scan_journals(dir: &Path) -> io::Result<Vec<RecoveredJournal>> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "journal"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    paths.sort();
    paths.iter().map(|p| read_journal(p)).collect()
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
            shards: 2,
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
        let mut journal = Journal::reopen(&dir, &read_journal(&path).unwrap()).unwrap();
        journal.append(&events[1..]).unwrap();

        let recovered = scan_journals(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].header, header());
        assert_eq!(recovered[0].events, events);
        assert_eq!(recovered[0].torn_bytes, 0);

        journal.remove().unwrap();
        assert!(scan_journals(&dir).unwrap().is_empty());
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
        assert_eq!(recovered.torn_bytes, half.len() as u64);

        let mut journal = Journal::reopen(&dir, &recovered).unwrap();
        journal.append(&more).unwrap();
        drop(journal);
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.events, [prefix, more].concat());
        assert_eq!(recovered.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Only the *final* line may be torn: a malformed line with more
    /// lines after it is corruption and still refuses recovery, and so
    /// does a journal without one complete header line.
    #[test]
    fn malformed_middle_line_and_torn_header_stay_errors() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&arrivals(0..2)).unwrap();
        drop(journal);
        let path = journal_path(&dir, "acme");
        append_raw(&path, b"{\"arrive\": garbage\n");
        append_raw(&path, (event_to_line(&arrivals(2..3)[0]) + "\n").as_bytes());
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad journal line"), "{err}");

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
        let mut journal = Journal::reopen(&dir, &read_journal(&path).unwrap()).unwrap();
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
        assert_eq!(recovered.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A canonical-looking line that is damaged in the middle of the
    /// journal — a truncated `"den":` value, or half a line with its
    /// newline — is refused by both parsers and fails recovery; it is
    /// never mistaken for a torn tail.
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
            append_raw(&path, format!("{damaged}\n").as_bytes());
            for event in arrivals(4..6) {
                append_raw(&path, format!("{}\n", event_to_line(&event)).as_bytes());
            }
            let err = read_journal(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{damaged}");
            assert!(err.to_string().contains("bad journal line"), "{err}");
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
        assert!(scan_journals(dir).unwrap().is_empty());
    }
}
