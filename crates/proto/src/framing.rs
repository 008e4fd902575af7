//! Length-prefixed framing for JSONL over a byte stream, and the one
//! codec every frame payload goes through.
//!
//! A frame on the wire is
//!
//! ```text
//! <decimal byte length of the JSON document>\n
//! <JSON document>\n
//! ```
//!
//! The explicit length lets a reader pull exactly one document without
//! scanning for newlines inside it, and a human with `nc` can still
//! speak the protocol by hand (`printf '%s\n%s\n' "${#json}" "$json"`).
//!
//! Error handling draws a deliberate line: transport damage (I/O
//! errors, an unparseable length line, an oversized frame) poisons the
//! stream and [`read_frame_raw`] returns it as `Err` — the connection
//! cannot continue because frame boundaries are lost. A frame whose
//! *payload* fails to parse is fully consumed first, so
//! [`decode_request`] / [`decode_response`] return the reason as `Err`
//! and the caller can answer with a typed protocol error and keep the
//! connection alive.
//!
//! The four codec functions are the only place that chooses between
//! the canonical [`crate::fast`] path and the generic `Value` codec:
//! decoding tries the strict parser first and falls back, encoding
//! takes the fast writers for the frames that have one. Both paths
//! speak the same bytes, so the choice never shows on the wire.

use crate::fast;
use crate::frame::{Request, Response};
use serde::{Error, Value};
use std::io::{self, BufRead, Write};

/// Hard ceiling on a single frame's payload, guarding the server
/// against a hostile or confused peer declaring a huge length.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes `payload` (one serialized JSON document, no newlines added
/// by the caller) as a length-prefixed frame. Does not flush.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut len_line = itoa(payload.len());
    len_line.push('\n');
    w.write_all(len_line.as_bytes())?;
    w.write_all(payload)?;
    w.write_all(b"\n")
}

// Formats a usize without going through `format!` — this sits on the
// per-event hot path of the server and loadgen.
fn itoa(mut n: usize) -> String {
    if n == 0 {
        return "0".to_string();
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    String::from_utf8_lossy(&buf[i..]).into_owned()
}

/// Outcome of [`read_frame_raw`]: either end-of-stream or "one frame's
/// payload bytes are now in the scratch buffer".
#[derive(Debug)]
pub enum RawFrame {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// One delimited payload, left in the caller's scratch buffer for
    /// [`decode_request`] or [`decode_response`].
    Payload,
}

/// Reads one frame's raw payload into `scratch` (reused across calls
/// to avoid per-frame allocation) without parsing it.
///
/// `Err` means frame alignment is lost and the stream must be closed.
pub fn read_frame_raw(r: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<RawFrame> {
    // Length line.
    scratch.clear();
    let n = r.read_until(b'\n', scratch)?;
    if n == 0 {
        return Ok(RawFrame::Eof);
    }
    let len_text = std::str::from_utf8(scratch)
        .map_err(|_| bad_stream("frame length line is not UTF-8"))?
        .trim();
    let len: usize = len_text
        .parse()
        .map_err(|_| bad_stream(format!("bad frame length line {len_text:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_stream(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }

    // Payload: exactly `len` bytes, then the trailing newline.
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(bad_stream("frame payload not followed by newline"));
    }
    Ok(RawFrame::Payload)
}

fn bad_stream(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Decodes one request payload and its optional `trace` id: canonical
/// placement frames through the strict [`fast`] parser, anything else
/// through the generic codec. `Err` says why the frame is malformed.
pub fn decode_request(payload: &[u8]) -> Result<(Request, Option<u64>), String> {
    match fast::parse_request_traced(payload) {
        Some(traced) => Ok(traced),
        None => decode_generic(payload, Request::from_traced_value),
    }
}

/// Decodes one response payload and its echoed `trace` id: canonical
/// `bin` and `bins` frames through the strict [`fast`] parser, anything
/// else through the generic codec. `Err` says why the frame is
/// malformed.
pub fn decode_response(payload: &[u8]) -> Result<(Response, Option<u64>), String> {
    match fast::parse_response_traced(payload) {
        Some(traced) => Ok(traced),
        None => decode_generic(payload, Response::from_traced_value),
    }
}

fn decode_generic<T>(
    payload: &[u8],
    from_value: impl FnOnce(&Value) -> Result<T, Error>,
) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let value = serde_json::parse(text).map_err(|e| format!("frame is not JSON: {e}"))?;
    from_value(&value).map_err(|e| e.to_string())
}

/// Appends `request`'s payload, with `trace` next to `v` when given:
/// event and batch frames through the canonical [`fast`] writers, the
/// cold frames through the generic codec.
pub fn encode_request(out: &mut Vec<u8>, request: &Request, trace: Option<u64>) {
    match request {
        Request::Event(event) => fast::write_event_request_traced(out, event, trace),
        Request::Batch(events) => fast::write_batch_request_traced(out, events, trace),
        _ => encode_generic(out, request.to_traced_value(trace)),
    }
}

/// Appends `response`'s payload, echoing `trace` next to `v` when
/// given: `bin`, `bins` and `outcomes` frames through the canonical
/// [`fast`] writers, the cold frames through the generic codec. The
/// outcomes frame grows with a tenant's history, and its `Value` tree
/// would take several times the frame's size in heap.
pub fn encode_response(out: &mut Vec<u8>, response: &Response, trace: Option<u64>) {
    match response {
        Response::Bin(bin) => fast::write_bin_response_traced(out, *bin, trace),
        Response::Bins(bins) => fast::write_bins_response_traced(out, bins, trace),
        Response::Outcomes(outcomes) => fast::write_outcomes_response_traced(out, outcomes, trace),
        _ => encode_generic(out, response.to_traced_value(trace)),
    }
}

fn encode_generic(out: &mut Vec<u8>, frame: Value) {
    out.extend_from_slice(serde_json::value_to_string(&frame).as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use dbp_core::{BinId, ItemId};
    use dbp_numeric::rat;
    use std::io::Cursor;

    fn framed(requests: &[&Request]) -> Vec<u8> {
        let mut buf = Vec::new();
        for request in requests {
            let mut payload = Vec::new();
            encode_request(&mut payload, request, None);
            write_frame_bytes(&mut buf, &payload).unwrap();
        }
        buf
    }

    fn read_request(r: &mut impl BufRead) -> io::Result<Option<Result<Request, String>>> {
        let mut scratch = Vec::new();
        Ok(match read_frame_raw(r, &mut scratch)? {
            RawFrame::Eof => None,
            RawFrame::Payload => Some(decode_request(&scratch).map(|(request, _)| request)),
        })
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut r = Cursor::new(framed(&[&Request::Snapshot, &Request::Finish]));
        assert_eq!(read_request(&mut r).unwrap(), Some(Ok(Request::Snapshot)));
        assert_eq!(read_request(&mut r).unwrap(), Some(Ok(Request::Finish)));
        assert_eq!(read_request(&mut r).unwrap(), None);
    }

    #[test]
    fn malformed_payload_leaves_stream_aligned() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, b"{not json").unwrap();
        buf.extend(framed(&[&Request::Finish]));
        let mut r = Cursor::new(buf);
        assert!(matches!(read_request(&mut r).unwrap(), Some(Err(_))));
        // The bad frame was fully consumed; the next one still parses.
        assert_eq!(read_request(&mut r).unwrap(), Some(Ok(Request::Finish)));
    }

    #[test]
    fn wrong_schema_is_malformed_not_fatal() {
        // A valid JSON document that is not a Response.
        assert!(decode_response(br#"{"v":1,"teleport":{}}"#).is_err());
    }

    #[test]
    fn transport_damage_is_fatal() {
        let mut r = Cursor::new(b"not-a-number\n{}\n".to_vec());
        assert!(read_request(&mut r).is_err());

        let oversized = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = Cursor::new(oversized.into_bytes());
        assert!(read_request(&mut r).is_err());

        // Truncated payload: declared 10 bytes, stream ends early.
        let mut r = Cursor::new(b"10\n{}\n".to_vec());
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn empty_length_zero_frame_is_malformed() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert!(matches!(read_request(&mut r).unwrap(), Some(Err(_))));
    }

    /// The fast path and the generic codec speak the same bytes, so
    /// the codec functions encode exactly what the generic encoder
    /// writes, and decode it back, for hot and cold frames alike.
    #[test]
    fn codec_functions_speak_the_generic_bytes_in_both_directions() {
        let ev = Event::Arrive {
            id: ItemId(3),
            size: rat(1, 3),
            time: rat(7, 2),
        };
        for trace in [None, Some(7)] {
            for request in [
                Request::Event(ev),
                Request::Batch(vec![ev, ev]),
                Request::Metrics,
                Request::Shutdown { token: None },
            ] {
                let mut out = Vec::new();
                encode_request(&mut out, &request, trace);
                let generic = serde_json::value_to_string(&request.to_traced_value(trace));
                assert_eq!(out, generic.as_bytes());
                assert_eq!(decode_request(&out), Ok((request, trace)));
            }
            for response in [
                Response::Bin(BinId(4)),
                Response::Bins(vec![BinId(0), BinId(2)]),
                Response::Outcomes(vec![]),
                Response::Shutdown,
            ] {
                let mut out = Vec::new();
                encode_response(&mut out, &response, trace);
                let generic = serde_json::value_to_string(&response.to_traced_value(trace));
                assert_eq!(out, generic.as_bytes());
                assert_eq!(decode_response(&out), Ok((response, trace)));
            }
        }
    }

    /// A frame the strict parser defers on keeps the generic codec's
    /// error texts, which daemon and client send and show verbatim.
    #[test]
    fn malformed_frames_keep_their_error_texts() {
        let not_utf8 = decode_request(&[0xff]).unwrap_err();
        assert!(not_utf8.starts_with("frame is not UTF-8: "), "{not_utf8}");
        let not_json = decode_response(b"{").unwrap_err();
        assert!(not_json.starts_with("frame is not JSON: "), "{not_json}");
        let unknown = decode_request(br#"{"v":1,"teleport":{}}"#).unwrap_err();
        assert_eq!(unknown, "request: unknown frame tag `teleport`");
    }
}
