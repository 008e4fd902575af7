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
//! [`write_response_frame`] frames a response with [`encode_response`]'s
//! bytes, streaming the history-sized outcomes frame in bounded chunks.

use crate::fast;
use crate::frame::{Request, Response};
use crate::PackingOutcome;
use serde::{Error, Value};
use std::io::{self, BufRead, Read, Write};

/// Hard ceiling on a single frame's payload, guarding the server
/// against a hostile or confused peer declaring a huge length.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest length line [`read_frame_raw`] reads, newline included: far
/// above the eight digits of [`MAX_FRAME_BYTES`], so only a peer that
/// never ends the line meets it.
const MAX_LENGTH_LINE: u64 = 1024;

/// The most bytes of one streamed frame held in memory at once: the
/// outcomes frame [`write_response_frame`] writes passes through a
/// buffer of this size, the size of the daemon's socket `BufWriter`.
pub const FRAME_CHUNK_BYTES: usize = 64 << 10;

/// Room a streamed chunk leaves for the next piece the outcomes writer
/// appends before it may spill: more than any piece but an outcome's
/// head, which holds the algorithm name.
const PIECE_BYTES: usize = 1 << 10;

/// Writes `payload` (one serialized JSON document, no newlines added
/// by the caller) as a length-prefixed frame. Does not flush, and
/// allocates nothing.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_length_line(w, payload.len())?;
    w.write_all(payload)?;
    w.write_all(b"\n")
}

// `len` in decimal and a newline, formatted on the stack — this sits on
// the per-event hot path of the server and loadgen.
fn write_length_line(w: &mut impl Write, mut len: usize) -> io::Result<()> {
    let mut line = [0u8; 21];
    let mut i = line.len() - 1;
    line[i] = b'\n';
    loop {
        i -= 1;
        line[i] = b'0' + (len % 10) as u8;
        len /= 10;
        if len == 0 {
            break;
        }
    }
    w.write_all(&line[i..])
}

/// Writes `response` as one frame, echoing `trace`: the bytes
/// [`write_frame_bytes`] writes for [`encode_response`]'s payload. Does
/// not flush. `scratch` is the caller's buffer, reused across calls.
///
/// Every response but `outcomes` is encoded into `scratch` whole. The
/// outcomes frame grows with a tenant's history, so it is encoded
/// twice by the same canonical writer, through `scratch` in chunks of
/// at most [`FRAME_CHUNK_BYTES`]: once to count its bytes for the
/// length line, and once to write them.
pub fn write_response_frame(
    w: &mut impl Write,
    scratch: &mut Vec<u8>,
    response: &Response,
    trace: Option<u64>,
) -> io::Result<()> {
    scratch.clear();
    let Response::Outcomes(outcomes) = response else {
        encode_response(scratch, response, trace);
        return write_frame_bytes(w, scratch);
    };
    scratch.reserve(FRAME_CHUNK_BYTES);
    let mut len = 0;
    stream_outcomes(scratch, outcomes, trace, |chunk| {
        len += chunk.len();
        Ok(())
    })?;
    write_length_line(w, len)?;
    let mut sent = 0;
    stream_outcomes(scratch, outcomes, trace, |chunk| {
        sent += chunk.len();
        w.write_all(chunk)
    })?;
    debug_assert_eq!(sent, len, "the two passes wrote different bytes");
    w.write_all(b"\n")
}

// One pass of the outcomes writer, handing `send` each chunk once
// `scratch` fills up to a piece short of [`FRAME_CHUNK_BYTES`], and
// the rest at the end. Leaves `scratch` empty.
fn stream_outcomes(
    scratch: &mut Vec<u8>,
    outcomes: &[PackingOutcome],
    trace: Option<u64>,
    mut send: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    fast::write_outcomes_response_with(scratch, outcomes, trace, &mut |chunk: &mut Vec<u8>| {
        if chunk.len() >= FRAME_CHUNK_BYTES - PIECE_BYTES {
            send(chunk)?;
            chunk.clear();
        }
        Ok::<(), io::Error>(())
    })?;
    send(scratch)?;
    scratch.clear();
    Ok(())
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
/// to avoid per-frame allocation) without parsing it. `scratch` grows
/// with the bytes that arrive, not with the length a peer declares.
///
/// `Err` means frame alignment is lost and the stream must be closed.
pub fn read_frame_raw(r: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<RawFrame> {
    // Length line.
    scratch.clear();
    let n = r.take(MAX_LENGTH_LINE).read_until(b'\n', scratch)?;
    if n == 0 {
        return Ok(RawFrame::Eof);
    }
    if n as u64 == MAX_LENGTH_LINE && scratch.last() != Some(&b'\n') {
        return Err(bad_stream(format!(
            "frame length line longer than {MAX_LENGTH_LINE} bytes"
        )));
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
    if r.take(len as u64).read_to_end(scratch)? < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
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
/// `bin`, `bins` and `outcomes` frames through the strict [`fast`]
/// parser, anything else through the generic codec. `Err` says why the
/// frame is malformed.
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
/// would take several times the frame's size in heap;
/// [`write_response_frame`] sends it without holding it whole.
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

    /// A peer's declared sizes cost no memory until the bytes arrive:
    /// 48 MiB of length digits with no newline, and a 64 MiB length
    /// with no payload after it, each fail the read and leave the
    /// scratch buffer under 1 MiB.
    #[test]
    fn memory_follows_the_bytes_that_arrive() {
        let digits = vec![b'7'; 48 << 20];
        let declared = format!("{MAX_FRAME_BYTES}\n").into_bytes();
        for (input, what) in [
            (digits, "48 MiB of digits"),
            (declared, "a bare 64 MiB length"),
        ] {
            let mut scratch = Vec::new();
            let read = read_frame_raw(&mut Cursor::new(input), &mut scratch);
            assert!(read.is_err(), "{what}");
            assert!(
                scratch.capacity() < 1 << 20,
                "{what}: {}",
                scratch.capacity()
            );
        }
        // A length line that ends within the bound still reads.
        let padded = format!("{:>1000}\n{{}}\n", 2).into_bytes();
        let mut scratch = Vec::new();
        assert!(matches!(
            read_frame_raw(&mut Cursor::new(padded), &mut scratch).unwrap(),
            RawFrame::Payload
        ));
        assert_eq!(scratch, b"{}");
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
