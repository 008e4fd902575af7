//! In-memory spans around calls into each layer, written out once the
//! run is over as JSONL and as a Chrome trace (open it in Perfetto or
//! `chrome://tracing`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Spans of one frame share `frame`, the benchmark's
/// request id; `parent` is the id of the enclosing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name (`proto.decode_request`, ...).
    pub name: &'static str,
    /// Id within its log (1-based).
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id of the frame the call served.
    pub frame: u64,
    /// Start, nanoseconds after the log's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans recorded by one thread, preallocated so recording never
/// reallocates inside a timed loop.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a finished call that started at `start`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        frame: u64,
        start: Instant,
        dur: Duration,
    ) -> u32 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.record_at(name, parent, frame, start_ns, dur.as_nanos() as u64)
    }

    /// Records a call with explicit offsets (for phases a callee timed
    /// itself and reported as durations).
    pub fn record_at(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        frame: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            frame,
            start_ns,
            dur_ns,
        });
        id
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start offset of `start` against this log's origin.
    pub fn offset(&self, start: Instant) -> u64 {
        start.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.dur_ns;
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns.saturating_sub(child_ns[s.id as usize]))
        .collect()
}

/// Frames written per log: enough to read, few enough that a trace
/// file stays a few megabytes. Metrics use every span.
pub const WRITTEN_FRAMES: u64 = 1_000;

/// Writes each of `logs` (one per thread id) as `<stem>.spans.jsonl`
/// and `<stem>.trace.json` under `dir`: the spans of its first
/// [`WRITTEN_FRAMES`] frames and every span outside a frame.
pub fn write(dir: &Path, stem: &str, logs: &[(u32, &SpanLog)]) -> Result<(), String> {
    let mut jsonl = String::new();
    let mut chrome = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, log) in logs {
        let spans = log.spans();
        let written = spans
            .iter()
            .zip(self_times(spans))
            .filter(|(span, _)| span.frame <= WRITTEN_FRAMES);
        for (span, self_ns) in written {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                jsonl,
                "{{\"name\":\"{}\",\"tid\":{tid},\"id\":{},\"parent\":{parent},\"frame\":{},\
                 \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.id, span.frame, span.start_ns, span.dur_ns
            );
            if !first {
                chrome.push(',');
            }
            first = false;
            let _ = write!(
                chrome,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"frame\":{},\"id\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.frame,
                span.id
            );
        }
    }
    chrome.push_str("]}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, text) in [
        (format!("{stem}.spans.jsonl"), jsonl),
        (format!("{stem}.trace.json"), chrome),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new(Instant::now(), 4);
        let root = log.record_at("frame", None, 1, 0, 100);
        let tenant = log.record_at("server.tenant", Some(root), 1, 10, 60);
        log.record_at("core.session", Some(tenant), 1, 15, 40);
        log.record_at("proto.decode_request", Some(root), 1, 0, 10);
        assert_eq!(self_times(log.spans()), vec![30, 20, 40, 10]);
    }

    #[test]
    fn trace_files_parse_as_json() {
        let dir = Path::new("target").join(format!("trace-test-{}", std::process::id()));
        let mut log = SpanLog::new(Instant::now(), 3);
        let root = log.record_at("frame", None, 7, 0, 2_000);
        log.record_at("server.tenant", Some(root), 7, 500, 1_000);
        log.record_at("frame", None, WRITTEN_FRAMES + 1, 3_000, 10);
        write(&dir, "t", &[(3, &log)]).unwrap();
        let chrome = std::fs::read_to_string(dir.join("t.trace.json")).unwrap();
        let doc = serde_json::parse(&chrome).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        let jsonl = std::fs::read_to_string(dir.join("t.spans.jsonl")).unwrap();
        for line in jsonl.lines() {
            let span = serde_json::parse(line).unwrap();
            assert_eq!(span.get("frame").unwrap().as_int(), Some(7));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
