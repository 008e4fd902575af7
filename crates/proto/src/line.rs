//! Versioned JSONL lines: stream events and checkpoint envelopes.
//!
//! A line is one JSON object. Tagged lines carry `"v": 1` next to the
//! payload tag; untagged lines (the pre-versioning format) parse
//! identically. Blank lines and `#` comments are stream chrome, not
//! events.

use crate::{Event, Request, SessionSnapshot, WIRE_VERSION};
use serde::{Deserialize, Serialize, Value};

/// A parsed frame's entries after the version check, borrowed from it.
pub(crate) type Payload<'a> = Vec<&'a (String, Value)>;

/// Checks a parsed object's `"v"` entry (if any) and returns the
/// object's other entries. `Err` on a version this reader does not
/// speak.
pub(crate) fn strip_version(value: &Value) -> Result<Payload<'_>, String> {
    let Some(entries) = value.as_object() else {
        return Err(format!("expected a JSON object, got {}", value.kind()));
    };
    let mut rest = Vec::with_capacity(entries.len());
    for entry in entries {
        if entry.0 == "v" {
            match entry.1.as_int() {
                Some(v) if v == WIRE_VERSION => {}
                Some(v) => {
                    return Err(format!(
                        "unsupported wire version {v} (speaks v{WIRE_VERSION})"
                    ))
                }
                None => return Err("wire version is not an integer".to_string()),
            }
        } else {
            rest.push(entry);
        }
    }
    Ok(rest)
}

/// Decodes a version-stripped event payload. `Event`'s decoder reads a
/// one-entry `{tag: body}` object, so only a lone entry (an event's
/// handful of nodes) is copied into one; any other payload reaches the
/// decoder as an empty object, which it refuses with the same error.
pub(crate) fn event_from_payload(payload: &[&(String, Value)]) -> Result<Event, serde::Error> {
    let entry = match payload {
        [entry] => vec![(*entry).clone()],
        _ => Vec::new(),
    };
    Event::from_value(&Value::Object(entry))
}

/// Wraps a payload `Value` in the versioned envelope: the `"v"` entry
/// first, then the payload's own entries, moved.
pub(crate) fn tag_version(payload: Value) -> Value {
    let mut entries = vec![("v".to_string(), Value::Int(WIRE_VERSION))];
    if let Value::Object(obj) = payload {
        entries.extend(obj);
    }
    Value::Object(entries)
}

/// Renders one stream event as a versioned JSONL line (no trailing
/// newline): `{"v":1,"arrive":{...}}` / `{"v":1,"depart":{...}}`.
///
/// Uses the [`crate::fast`] canonical writer, as journal appends do;
/// the bytes are identical to the generic encoder's.
pub fn event_to_line(event: &Event) -> String {
    let mut buf = Vec::with_capacity(96);
    crate::fast::write_event_request(&mut buf, event);
    String::from_utf8(buf).expect("canonical frames are ASCII")
}

/// Parses one JSONL line into a stream event.
///
/// Returns `None` for blank lines and `#` comments, `Some(Err)` for
/// malformed JSON, an unsupported `"v"`, or a payload that is not an
/// arrive/depart event. Both versioned and legacy untagged lines are
/// accepted.
///
/// A canonical line — the bytes [`event_to_line`] writes, as journals
/// and captured streams hold — is decoded by the strict
/// [`crate::fast`] parser without building a `Value` tree. Every other
/// line (legacy untagged, extra whitespace inside, traced, batch, or
/// malformed) takes the generic path, which decides its result exactly
/// as before.
pub fn parse_event_line(line: &str) -> Option<Result<Event, String>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return None;
    }
    if let Some((Request::Event(event), None)) =
        crate::fast::parse_request_traced(trimmed.as_bytes())
    {
        return Some(Ok(event));
    }
    let parsed = match serde_json::parse(trimmed) {
        Ok(v) => v,
        Err(e) => return Some(Err(e.to_string())),
    };
    let payload = match strip_version(&parsed) {
        Ok(p) => p,
        Err(e) => return Some(Err(e)),
    };
    Some(event_from_payload(&payload).map_err(|e| e.to_string()))
}

/// Renders a session checkpoint as a versioned JSON document:
/// `{"v":1,"checkpoint":{...}}`.
pub fn checkpoint_to_json(snapshot: &SessionSnapshot) -> String {
    let envelope = tag_version(Value::Object(vec![(
        "checkpoint".to_string(),
        snapshot.to_value(),
    )]));
    serde_json::value_to_string(&envelope)
}

/// Parses a checkpoint document. Accepts the versioned
/// `{"v":1,"checkpoint":{...}}` envelope and, for checkpoints written
/// before versioning, a bare [`SessionSnapshot`] object.
pub fn checkpoint_from_json(text: &str) -> Result<SessionSnapshot, String> {
    let parsed = serde_json::parse(text).map_err(|e| e.to_string())?;
    let payload = strip_version(&parsed)?;
    let inner = payload
        .iter()
        .find_map(|(key, value)| (key == "checkpoint").then_some(value));
    // A bare document decodes as parsed: the snapshot's decoder reads
    // its fields by name, and the checked `"v"` entry is none of them.
    SessionSnapshot::from_value(inner.unwrap_or(&parsed)).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::ItemId;
    use dbp_numeric::rat;

    fn arrive() -> Event {
        Event::Arrive {
            id: ItemId(7),
            size: rat(3, 8),
            time: rat(5, 2),
        }
    }

    #[test]
    fn event_lines_round_trip_versioned() {
        let line = event_to_line(&arrive());
        assert!(line.starts_with("{\"v\":1,"));
        let back = parse_event_line(&line).unwrap().unwrap();
        assert_eq!(back, arrive());
    }

    #[test]
    fn legacy_untagged_lines_still_parse() {
        let legacy = serde_json::to_string(&arrive()).unwrap();
        assert!(!legacy.contains("\"v\""));
        let back = parse_event_line(&legacy).unwrap().unwrap();
        assert_eq!(back, arrive());
    }

    #[test]
    fn blank_and_comment_lines_are_chrome() {
        assert!(parse_event_line("").is_none());
        assert!(parse_event_line("   ").is_none());
        assert!(parse_event_line("# header").is_none());
    }

    #[test]
    fn future_versions_are_typed_errors() {
        let line = "{\"v\":2,\"depart\":{\"id\":1,\"time\":{\"num\":1,\"den\":1}}}";
        let err = parse_event_line(line).unwrap().unwrap_err();
        assert!(err.contains("unsupported wire version 2"), "{err}");
    }

    #[test]
    fn checkpoints_round_trip_and_accept_legacy() {
        use dbp_core::session::Session;
        use dbp_core::FirstFit;
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        let snapshot = s.snapshot().unwrap();

        let doc = checkpoint_to_json(&snapshot);
        assert!(doc.starts_with("{\"v\":1,\"checkpoint\":"));
        assert_eq!(checkpoint_from_json(&doc).unwrap(), snapshot);

        // Bare legacy document: a raw SessionSnapshot object.
        let legacy = serde_json::to_string(&snapshot).unwrap();
        assert_eq!(checkpoint_from_json(&legacy).unwrap(), snapshot);
    }
}
