//! Canonical-bytes fast path for the hot and the history-sized wire
//! frames.
//!
//! The generic codec routes every frame through a [`serde::Value`]
//! tree — an allocation per key and per node, which costs microseconds
//! per event and caps a single-core server near 300k placements/sec.
//! The placement hot path (event and batch requests, bin and bins
//! responses) therefore has a second implementation here: writers that
//! emit the *byte-identical* canonical encoding directly into a reused
//! buffer, and a strict recursive-descent parser that matches exactly
//! those bytes.
//!
//! The finish response ([`write_outcomes_response_traced`]) has a
//! writer here for its size rather than its rate: it carries every bin
//! and assignment of a tenant's history, and its `Value` tree takes
//! about ten bytes of heap per byte of JSON. On the repo benchmark's
//! serve-batch lifetime (17,307 bins, a 3.8 MiB frame) the generic
//! encode peaked at ~42 MiB and took ~89 ms; the writer's only
//! allocation is the frame buffer, and it took ~8 ms. No strict parser
//! reads these frames: a client decodes one per tenant, generically.
//!
//! Any deviation from canonical form — whitespace, reordered keys,
//! leading zeros, a non-positive denominator, an integer that
//! overflows — makes the fast parser return `None`, and the caller
//! falls back to the generic `Value` path. An unnormalized rational
//! such as `{"num":2,"den":4}` (or a `-0`) is *not* a deviation: both
//! parsers accept it and reduce it through `Rational::new` to the same
//! value. The wire *format* is therefore unchanged: this module is an
//! optimization, not a dialect. Byte-equality of the two encoders and
//! agreement of the two parsers — on canonical frames and on mutated,
//! hostile bytes — are enforced by the unit tests below and by the
//! property tests in `tests/prop_wire.rs`.
//!
//! The same strict parser is the first reader of stream and journal
//! lines: [`crate::parse_event_line`] tries it before the generic path,
//! so `mindbp stream` input decodes canonical lines without building a
//! `Value` tree, and journal recovery reads each line in place in its
//! read buffer with [`read_event_line`] before anything else.

use crate::frame::{Request, Response};
use crate::{BinId, Event, ItemId, PackingOutcome};
use dbp_numeric::Rational;

/// Appends the canonical `{"v":1,"arrive":{...}}` /
/// `{"v":1,"depart":{...}}` single-event request frame — byte-identical
/// to `serde_json::to_string(&Request::Event(ev).to_value())`.
pub fn write_event_request(buf: &mut Vec<u8>, ev: &Event) {
    write_event_request_traced(buf, ev, None);
}

/// [`write_event_request`] with an optional `trace` request id after
/// `v` — byte-identical to the generic `to_traced_value` encoding.
pub fn write_event_request_traced(buf: &mut Vec<u8>, ev: &Event, trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    push_tagged_event(buf, ev);
    buf.push(b'}');
}

/// Appends the canonical `{"v":1,"batch":[...]}` request frame —
/// byte-identical to the generic encoding of `Request::Batch`.
pub fn write_batch_request(buf: &mut Vec<u8>, events: &[Event]) {
    write_batch_request_traced(buf, events, None);
}

/// [`write_batch_request`] with an optional `trace` request id.
pub fn write_batch_request_traced(buf: &mut Vec<u8>, events: &[Event], trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"batch\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'{');
        push_tagged_event(buf, ev);
        buf.push(b'}');
    }
    buf.extend_from_slice(b"]}");
}

/// Appends the canonical `{"v":1,"bin":N}` response frame.
pub fn write_bin_response(buf: &mut Vec<u8>, bin: BinId) {
    write_bin_response_traced(buf, bin, None);
}

/// [`write_bin_response`] echoing the request's `trace` id.
pub fn write_bin_response_traced(buf: &mut Vec<u8>, bin: BinId, trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"bin\":");
    push_u64(buf, u64::from(bin.0));
    buf.push(b'}');
}

/// Appends the canonical `{"v":1,"bins":[...]}` response frame.
pub fn write_bins_response(buf: &mut Vec<u8>, bins: &[BinId]) {
    write_bins_response_traced(buf, bins, None);
}

/// [`write_bins_response`] echoing the request's `trace` id.
pub fn write_bins_response_traced(buf: &mut Vec<u8>, bins: &[BinId], trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"bins\":[");
    for (i, bin) in bins.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_u64(buf, u64::from(bin.0));
    }
    buf.extend_from_slice(b"]}");
}

/// Appends the canonical `{"v":1,"outcomes":[...]}` finish response,
/// echoing the request's `trace` id — byte-identical to
/// `serde_json::to_string(&Response::Outcomes(..).to_traced_value(trace))`.
///
/// The frame grows with the tenant's history (every bin's usage period
/// and items, every assignment), so this writer, unlike the generic
/// codec, builds no `Value` tree: the frame buffer is all it allocates.
/// The strict parser does not read these frames; clients decode them
/// with the generic codec.
pub fn write_outcomes_response_traced(
    buf: &mut Vec<u8>,
    outcomes: &[PackingOutcome],
    trace: Option<u64>,
) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"outcomes\":[");
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_outcome(buf, outcome);
    }
    buf.extend_from_slice(b"]}");
}

// One `PackingOutcome` in its derived field order.
fn push_outcome(buf: &mut Vec<u8>, outcome: &PackingOutcome) {
    buf.extend_from_slice(b"{\"algorithm\":");
    push_str(buf, outcome.algorithm());
    buf.extend_from_slice(b",\"bins\":[");
    for (i, bin) in outcome.bins().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.extend_from_slice(b"{\"id\":");
        push_u64(buf, u64::from(bin.id.0));
        buf.extend_from_slice(b",\"usage\":{\"lo\":");
        push_rational(buf, bin.usage.lo());
        buf.extend_from_slice(b",\"hi\":");
        push_rational(buf, bin.usage.hi());
        buf.extend_from_slice(b"},\"items\":[");
        for (j, item) in bin.items.iter().enumerate() {
            if j > 0 {
                buf.push(b',');
            }
            push_u64(buf, u64::from(item.0));
        }
        buf.extend_from_slice(b"],\"level_integral\":");
        push_rational(buf, bin.level_integral);
        buf.extend_from_slice(b",\"peak_level\":");
        push_rational(buf, bin.peak_level);
        buf.push(b'}');
    }
    buf.extend_from_slice(b"],\"assignments\":[");
    for (i, (item, bin)) in outcome.assignments().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'[');
        push_u64(buf, u64::from(item.0));
        buf.push(b',');
        push_u64(buf, u64::from(bin.0));
        buf.push(b']');
    }
    buf.extend_from_slice(b"],\"total_usage\":");
    push_rational(buf, outcome.total_usage());
    buf.extend_from_slice(b",\"max_open_bins\":");
    push_u64(buf, outcome.max_open_bins() as u64);
    buf.push(b'}');
}

// A JSON string escaped exactly as the vendored `serde_json` writes
// one: `"` and `\` backslashed, `\n`, `\r` and `\t` by name, every
// other control character as a lowercase `\u00xx`, and everything
// else, non-ASCII included, as its UTF-8 bytes.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    buf.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            0..=0x1f => {
                buf.extend_from_slice(b"\\u00");
                buf.push(HEX[usize::from(b >> 4)]);
                buf.push(HEX[usize::from(b & 0xf)]);
            }
            _ => buf.push(b),
        }
    }
    buf.push(b'"');
}

// `"trace":N,` directly after the version tag; nothing when untraced,
// so the untraced writers stay byte-for-byte what they always were.
fn push_trace(buf: &mut Vec<u8>, trace: Option<u64>) {
    if let Some(id) = trace {
        buf.extend_from_slice(b"\"trace\":");
        push_u64(buf, id);
        buf.push(b',');
    }
}

// `"arrive":{"id":N,"size":{"num":n,"den":d},"time":{...}}` — the
// version-tag–less middle shared by single-event frames, batch
// elements, and journal/stream lines.
fn push_tagged_event(buf: &mut Vec<u8>, ev: &Event) {
    match ev {
        Event::Arrive { id, size, time } => {
            buf.extend_from_slice(b"\"arrive\":{\"id\":");
            push_u64(buf, u64::from(id.0));
            buf.extend_from_slice(b",\"size\":");
            push_rational(buf, *size);
            buf.extend_from_slice(b",\"time\":");
            push_rational(buf, *time);
            buf.push(b'}');
        }
        Event::Depart { id, time } => {
            buf.extend_from_slice(b"\"depart\":{\"id\":");
            push_u64(buf, u64::from(id.0));
            buf.extend_from_slice(b",\"time\":");
            push_rational(buf, *time);
            buf.push(b'}');
        }
    }
}

fn push_rational(buf: &mut Vec<u8>, r: Rational) {
    buf.extend_from_slice(b"{\"num\":");
    push_i128(buf, r.numer());
    buf.extend_from_slice(b",\"den\":");
    push_i128(buf, r.denom());
    buf.push(b'}');
}

fn push_i128(buf: &mut Vec<u8>, n: i128) {
    if n < 0 {
        buf.push(b'-');
    }
    // Magnitude in unsigned space so `i128::MIN` doesn't overflow.
    let m = n.unsigned_abs();
    match u64::try_from(m) {
        Ok(small) => push_u64(buf, small),
        Err(_) => push_u128(buf, m),
    }
}

// Every id, bin, trace and grid-sized rational leg fits here: one
// hardware divide-by-constant per digit instead of a 128-bit one.
#[inline]
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

// Magnitudes of 2⁶⁴ and above (up to 39 digits).
#[cold]
fn push_u128(buf: &mut Vec<u8>, mut m: u128) {
    let mut digits = [0u8; 40];
    let mut i = digits.len();
    while m > 0 {
        i -= 1;
        digits[i] = b'0' + (m % 10) as u8;
        m /= 10;
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Parses a canonical placement request (`Event` or `Batch`); `None`
/// means "not canonical hot-path bytes — use the generic parser".
pub fn parse_request(payload: &[u8]) -> Option<Request> {
    parse_request_traced(payload).map(|(request, _)| request)
}

/// [`parse_request`] also returning the frame's optional `trace` id.
pub fn parse_request_traced(payload: &[u8]) -> Option<(Request, Option<u64>)> {
    let mut c = Cursor::new(payload);
    c.lit(b"{\"v\":1,")?;
    let trace = parse_trace(&mut c)?;
    if c.lit(b"\"batch\":[").is_some() {
        let mut events = Vec::new();
        if !c.eat(b']') {
            loop {
                c.lit(b"{")?;
                events.push(parse_tagged_event(&mut c)?);
                c.lit(b"}")?;
                if c.eat(b']') {
                    break;
                }
                c.lit(b",")?;
            }
        }
        c.lit(b"}")?;
        c.end()?;
        Some((Request::Batch(events), trace))
    } else {
        let ev = parse_tagged_event(&mut c)?;
        c.lit(b"}")?;
        c.end()?;
        Some((Request::Event(ev), trace))
    }
}

/// Reads one canonical event line where it lies: the bytes
/// [`crate::event_to_line`] writes, then `\n`, at the start of
/// `bytes` (whatever follows the newline is left alone). Returns the
/// event and the line's length, newline included.
///
/// `None` defers to [`crate::parse_event_line`], which then decides the
/// line exactly as it always did. Only an untraced single-event frame
/// with its `\n` right after the closing brace is read here — no trace
/// or batch probes, no trimming — so every line this accepts is one
/// [`parse_request_traced`] reads as the same untraced event. The
/// journal reader tries it first on every line.
pub fn read_event_line(bytes: &[u8]) -> Option<(Event, usize)> {
    let mut c = Cursor::new(bytes);
    c.lit(b"{\"v\":1,")?;
    let ev = parse_tagged_event(&mut c)?;
    c.lit(b"}\n")?;
    Some((ev, c.pos))
}

/// Parses a canonical placement response (`Bin` or `Bins`); `None`
/// means "fall back to the generic parser".
pub fn parse_response(payload: &[u8]) -> Option<Response> {
    parse_response_traced(payload).map(|(response, _)| response)
}

/// [`parse_response`] also returning the echoed `trace` id.
pub fn parse_response_traced(payload: &[u8]) -> Option<(Response, Option<u64>)> {
    let mut c = Cursor::new(payload);
    c.lit(b"{\"v\":1,")?;
    let trace = parse_trace(&mut c)?;
    c.lit(b"\"bin")?;
    if c.eat(b'\"') {
        c.lit(b":")?;
        let bin = BinId(c.int_u32()?);
        c.lit(b"}")?;
        c.end()?;
        Some((Response::Bin(bin), trace))
    } else {
        c.lit(b"s\":[")?;
        let mut bins = Vec::new();
        if !c.eat(b']') {
            loop {
                bins.push(BinId(c.int_u32()?));
                if c.eat(b']') {
                    break;
                }
                c.lit(b",")?;
            }
        }
        c.lit(b"}")?;
        c.end()?;
        Some((Response::Bins(bins), trace))
    }
}

// Canonical traced frames put `"trace":N,` right after `"v":1,`; any
// other placement is non-canonical and defers to the generic parser.
// Outer `None` = malformed trace prefix, inner `None` = untraced.
#[allow(clippy::option_option)]
#[inline(always)]
fn parse_trace(c: &mut Cursor<'_>) -> Option<Option<u64>> {
    if c.lit(b"\"trace\":").is_none() {
        return Some(None);
    }
    let id = c.int_u64()?;
    c.lit(b",")?;
    Some(Some(id))
}

#[inline(always)]
fn parse_tagged_event(c: &mut Cursor<'_>) -> Option<Event> {
    if c.lit(b"\"arrive\":{\"id\":").is_some() {
        let id = ItemId(c.int_u32()?);
        c.lit(b",\"size\":")?;
        let size = parse_rational(c)?;
        c.lit(b",\"time\":")?;
        let time = parse_rational(c)?;
        c.lit(b"}")?;
        Some(Event::Arrive { id, size, time })
    } else {
        c.lit(b"\"depart\":{\"id\":")?;
        let id = ItemId(c.int_u32()?);
        c.lit(b",\"time\":")?;
        let time = parse_rational(c)?;
        c.lit(b"}")?;
        Some(Event::Depart { id, time })
    }
}

#[inline(always)]
fn parse_rational(c: &mut Cursor<'_>) -> Option<Rational> {
    c.lit(b"{\"num\":")?;
    let num = c.int_i128()?;
    c.lit(b",\"den\":")?;
    let den = c.int_i128()?;
    c.lit(b"}")?;
    // Non-positive denominators never appear in canonical output; the
    // generic path owns their (lenient) semantics.
    if den <= 0 {
        return None;
    }
    Some(Rational::new(num, den))
}

// The primitives are `#[inline(always)]` so that, inside the descent,
// each literal check is a fixed-width compare rather than a `memcmp`
// call and each integer is read in a single pass.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    #[inline(always)]
    fn lit(&mut self, s: &[u8]) -> Option<()> {
        let end = self.pos + s.len();
        if self.bytes.get(self.pos..end)? != s {
            return None;
        }
        self.pos = end;
        Some(())
    }

    #[inline(always)]
    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn end(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }

    // Consumes one decimal digit and returns its value; `None` (and
    // nothing consumed) on any other byte or at the end.
    #[inline(always)]
    fn digit(&mut self) -> Option<u8> {
        let d = self.bytes.get(self.pos)?.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        self.pos += 1;
        Some(d)
    }

    // Canonical decimal digits — at least one, no leading zeros — with
    // up to the first 18 accumulated in a `u64`: 18 digits stay below
    // 10¹⁸ < 2⁶³, so no overflow check is needed. A longer run stops
    // on its 19th digit for the caller's checked continuation.
    #[inline(always)]
    fn digits(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = u64::from(self.digit()?);
        while self.pos - start < 18 {
            match self.digit() {
                Some(d) => n = n * 10 + u64::from(d),
                None => break,
            }
        }
        if self.bytes[start] == b'0' && self.pos - start > 1 {
            return None;
        }
        Some(n)
    }

    // Canonical decimal: optional `-`, no leading zeros, no overflow.
    #[inline(always)]
    fn int_i128(&mut self) -> Option<i128> {
        let negative = self.eat(b'-');
        let mut n = i128::from(self.digits()?);
        while let Some(d) = self.digit() {
            n = n.checked_mul(10)?.checked_add(i128::from(d))?;
        }
        // `0 <= n <= i128::MAX`, so negating cannot overflow.
        Some(if negative { -n } else { n })
    }

    #[inline(always)]
    fn int_u32(&mut self) -> Option<u32> {
        u32::try_from(self.int_u64()?).ok()
    }

    #[inline(always)]
    fn int_u64(&mut self) -> Option<u64> {
        let mut n = self.digits()?;
        while let Some(d) = self.digit() {
            n = n.checked_mul(10)?.checked_add(u64::from(d))?;
        }
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_numeric::rat;
    use serde::Serialize;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Arrive {
                id: ItemId(0),
                size: rat(1, 2),
                time: rat(0, 1),
            },
            Event::Arrive {
                id: ItemId(u32::MAX),
                size: rat(-7, 3),
                time: rat(1_000_003, 9973),
            },
            Event::Depart {
                id: ItemId(0),
                time: rat(5, 1),
            },
        ]
    }

    fn generic(req: &Request) -> String {
        serde_json::to_string(&req.to_value()).unwrap()
    }

    #[test]
    fn event_writer_matches_generic_encoder() {
        for ev in sample_events() {
            let mut fast = Vec::new();
            write_event_request(&mut fast, &ev);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                generic(&Request::Event(ev))
            );
        }
    }

    #[test]
    fn batch_writer_matches_generic_encoder() {
        for events in [vec![], sample_events()] {
            let mut fast = Vec::new();
            write_batch_request(&mut fast, &events);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                generic(&Request::Batch(events))
            );
        }
    }

    #[test]
    fn response_writers_match_generic_encoder() {
        let mut fast = Vec::new();
        write_bin_response(&mut fast, BinId(41));
        assert_eq!(
            String::from_utf8(fast).unwrap(),
            serde_json::to_string(&Response::Bin(BinId(41)).to_value()).unwrap()
        );
        for bins in [vec![], vec![BinId(0), BinId(7), BinId(u32::MAX)]] {
            let mut fast = Vec::new();
            write_bins_response(&mut fast, &bins);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                serde_json::to_string(&Response::Bins(bins).to_value()).unwrap()
            );
        }
    }

    #[test]
    fn fast_parsers_invert_fast_writers() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_batch_request(&mut buf, &events);
        assert_eq!(parse_request(&buf), Some(Request::Batch(events.clone())));
        for ev in events {
            buf.clear();
            write_event_request(&mut buf, &ev);
            assert_eq!(parse_request(&buf), Some(Request::Event(ev)));
        }
        buf.clear();
        write_bin_response(&mut buf, BinId(3));
        assert_eq!(parse_response(&buf), Some(Response::Bin(BinId(3))));
        let bins = vec![BinId(2), BinId(0)];
        buf.clear();
        write_bins_response(&mut buf, &bins);
        assert_eq!(parse_response(&buf), Some(Response::Bins(bins)));
    }

    #[test]
    fn in_place_line_reader_reads_canonical_lines_up_to_their_newline() {
        for ev in sample_events() {
            let mut buf = Vec::new();
            write_event_request(&mut buf, &ev);
            let len = buf.len() + 1;
            buf.extend_from_slice(b"\n{\"v\":1,garbage after the line");
            assert_eq!(read_event_line(&buf), Some((ev, len)));
            // The newline must follow the closing brace at once, and
            // the line must start at the first byte.
            for damaged in [
                &buf[..len - 1],
                &[&buf[..len - 1], b"\r\n".as_slice()].concat(),
                &[&buf[..len - 1], b" \n".as_slice()].concat(),
                &[b" ".as_slice(), &buf].concat(),
            ] {
                assert_eq!(read_event_line(damaged), None);
            }
        }
        // Traced and batch frames are stream-line input the generic
        // path owns; the in-place reader never probes for them.
        let mut buf = Vec::new();
        write_event_request_traced(&mut buf, &sample_events()[0], Some(3));
        buf.push(b'\n');
        assert_eq!(read_event_line(&buf), None);
        buf.clear();
        write_batch_request(&mut buf, &sample_events()[..1]);
        buf.push(b'\n');
        assert_eq!(read_event_line(&buf), None);
    }

    #[test]
    fn non_canonical_bytes_defer_to_the_generic_parser() {
        for payload in [
            // Whitespace, reordered keys, leading zeros, cold frames,
            // non-positive denominators: all legal JSON that the strict
            // matcher refuses.
            r#"{"v":1, "finish":{}}"#,
            r#"{"v":1,"hello":{"tenant":"t","algo":"firstfit"}}"#,
            r#"{"v":1,"arrive":{"id":01,"size":{"num":1,"den":2},"time":{"num":0,"den":1}}}"#,
            r#"{"v":1,"arrive":{"size":{"num":1,"den":2},"id":1,"time":{"num":0,"den":1}}}"#,
            r#"{"v":1,"depart":{"id":1,"time":{"num":1,"den":0}}}"#,
            r#"{"v":1,"depart":{"id":1,"time":{"num":1,"den":-2}}}"#,
            r#"{"v":1,"bin":7} "#,
            r#"{"v":2,"bin":7}"#,
            "not json at all",
        ] {
            assert_eq!(parse_request(payload.as_bytes()), None, "{payload}");
            assert_eq!(parse_response(payload.as_bytes()), None, "{payload}");
        }
    }

    #[test]
    fn traced_writers_match_generic_encoder_and_invert() {
        let ev = sample_events().remove(1);
        let trace = Some(184_467_440_737_095u64);
        let mut buf = Vec::new();
        write_event_request_traced(&mut buf, &ev, trace);
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Request::Event(ev).to_traced_value(trace)).unwrap()
        );
        assert_eq!(
            parse_request_traced(&buf),
            Some((Request::Event(ev), trace))
        );

        let events = sample_events();
        buf.clear();
        write_batch_request_traced(&mut buf, &events, Some(0));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Request::Batch(events.clone()).to_traced_value(Some(0)))
                .unwrap()
        );
        assert_eq!(
            parse_request_traced(&buf),
            Some((Request::Batch(events), Some(0)))
        );

        buf.clear();
        write_bin_response_traced(&mut buf, BinId(3), Some(7));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            r#"{"v":1,"trace":7,"bin":3}"#
        );
        assert_eq!(
            parse_response_traced(&buf),
            Some((Response::Bin(BinId(3)), Some(7)))
        );

        let bins = vec![BinId(2), BinId(0)];
        buf.clear();
        write_bins_response_traced(&mut buf, &bins, Some(9));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Response::Bins(bins.clone()).to_traced_value(Some(9))).unwrap()
        );
        assert_eq!(
            parse_response_traced(&buf),
            Some((Response::Bins(bins), Some(9)))
        );
    }

    #[test]
    fn non_canonical_trace_placement_defers_to_the_generic_parser() {
        for payload in [
            // Trace after the tag, leading zeros, negative, stringy —
            // legal only for the generic parser (or not at all).
            r#"{"v":1,"bin":7,"trace":9}"#,
            r#"{"v":1,"trace":07,"bin":7}"#,
            r#"{"v":1,"trace":-1,"bin":7}"#,
            r#"{"v":1,"trace":"9","bin":7}"#,
        ] {
            assert_eq!(parse_request_traced(payload.as_bytes()), None, "{payload}");
            assert_eq!(parse_response_traced(payload.as_bytes()), None, "{payload}");
        }
    }

    fn generic_parse(payload: &str) -> Request {
        use serde::Deserialize;
        Request::from_value(&serde_json::parse(payload).unwrap()).unwrap()
    }

    /// Not a deviation from canonical form: both parsers reduce an
    /// unnormalized rational through `Rational::new`, and read `-0` as
    /// zero.
    #[test]
    fn unnormalized_rationals_and_negative_zero_agree_with_generic() {
        let payload =
            r#"{"v":1,"arrive":{"id":3,"size":{"num":2,"den":4},"time":{"num":-0,"den":1}}}"#;
        let expected = Request::Event(Event::Arrive {
            id: ItemId(3),
            size: rat(1, 2),
            time: rat(0, 1),
        });
        assert_eq!(parse_request(payload.as_bytes()), Some(expected.clone()));
        assert_eq!(generic_parse(payload), expected);
        for payload in [
            r#"{"v":1,"depart":{"id":3,"time":{"num":-6,"den":4}}}"#,
            r#"{"v":1,"depart":{"id":0,"time":{"num":-0,"den":9}}}"#,
            r#"{"v":1,"batch":[{"depart":{"id":1,"time":{"num":10,"den":10}}}]}"#,
        ] {
            let fast = parse_request(payload.as_bytes());
            assert_eq!(fast, Some(generic_parse(payload)), "{payload}");
        }
    }

    /// The parser reads 18 digits in `u64` and continues checked; the
    /// writer switches to 128-bit digits at 2⁶⁴. Both edges, and the
    /// overflow edges of each integer field, against the generic codec.
    #[test]
    fn integer_width_boundaries_agree_with_generic() {
        let depart = |id: &str, num: &str, den: &str| {
            format!(r#"{{"v":1,"depart":{{"id":{id},"time":{{"num":{num},"den":{den}}}}}}}"#)
        };
        let accepted = [
            depart("4294967295", "999999999999999999", "1"),
            depart("0", "1000000000000000000", "1"),
            depart("0", "-9223372036854775808", "18446744073709551615"),
            depart("0", "18446744073709551616", "18446744073709551617"),
            depart("0", &i128::MAX.to_string(), &i128::MAX.to_string()),
            depart("0", &(-i128::MAX).to_string(), "3"),
        ];
        for payload in &accepted {
            let request = generic_parse(payload);
            assert_eq!(parse_request(payload.as_bytes()), Some(request.clone()));
            let Request::Event(ev) = request else {
                panic!("{payload} is not an event frame")
            };
            let mut buf = Vec::new();
            write_event_request(&mut buf, &ev);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                generic(&Request::Event(ev)),
                "{payload}"
            );
        }
        // Past each field's range the fast parser defers; the generic
        // parser then owns the answer (an error, or `i128::MIN`).
        for payload in [
            depart("4294967296", "0", "1"),
            depart("0", "170141183460469231731687303715884105728", "1"),
            depart("0", &i128::MIN.to_string(), "1"),
            depart("0", "1", "0000000000000000001"),
        ] {
            assert_eq!(parse_request(payload.as_bytes()), None, "{payload}");
        }
        let traced = |trace: &str| format!(r#"{{"v":1,"trace":{trace},"bin":0}}"#);
        assert_eq!(
            parse_response_traced(traced("18446744073709551615").as_bytes()),
            Some((Response::Bin(BinId(0)), Some(u64::MAX)))
        );
        assert_eq!(
            parse_response_traced(traced("18446744073709551616").as_bytes()),
            None
        );
    }

    #[test]
    fn extreme_integers_round_trip() {
        let ev = Event::Arrive {
            id: ItemId(u32::MAX),
            size: Rational::new(i128::MIN + 1, 1),
            time: rat(0, 1),
        };
        let mut buf = Vec::new();
        write_event_request(&mut buf, &ev);
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            generic(&Request::Event(ev))
        );
        assert_eq!(parse_request(&buf), Some(Request::Event(ev)));
    }
}
