//! Request/response frames spoken between `dbp-server` and its clients.
//!
//! Every frame is one versioned JSON object (see [`crate::framing`] for
//! how frames are delimited on the socket). Requests are externally
//! tagged — `{"v":1,"hello":{...}}`, `{"v":1,"batch":[...]}` — and a
//! single-event request is *exactly* the stream-CLI line format
//! (`{"v":1,"arrive":{...}}`), so a captured JSONL trace replays
//! against a live server without translation.
//!
//! # Request tracing
//!
//! Any v1 frame may carry an optional `trace` entry next to `v` — a
//! client-supplied request id (`{"v":1,"trace":7,"arrive":{...}}`).
//! Tracing is per-frame, never negotiated: `hello` is unchanged, a
//! server echoes the id on the matching response, and a frame without
//! the entry encodes byte-identically to the pre-tracing format, so
//! untraced clients and captured traces are unaffected. Servers MUST
//! accept traced frames from clients that never announced tracing
//! (accept-and-echo, not refuse) — the property
//! `trace_is_optional_and_never_breaks_untraced_frames` pins this
//! down.

use crate::line::{event_from_payload, strip_version, tag_version, Payload};
use crate::{Backend, BinId, Event, PackingOutcome, SessionMetrics, SessionSnapshot, TickGrid};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// Session parameters a client declares when attaching to a tenant.
///
/// Mirrors `Session::builder`: algorithm by name, backend selection,
/// optional declared tick grid, optional sharding. The first hello for
/// a tenant creates its session (or resumes it from a journal); later
/// hellos must agree with the live configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Tenant key this connection drives.
    pub tenant: String,
    /// Auth token, checked against the server's token policy.
    pub token: Option<String>,
    /// Algorithm name (`firstfit`, `bestfit`, ... — same names as the CLI).
    pub algo: String,
    /// Engine backend selection.
    pub backend: Backend,
    /// Declared integer grid for the tick backend.
    pub grid: Option<TickGrid>,
    /// Number of session shards; `1` keeps a single `Session`,
    /// anything larger drives a `Fleet` routed by `id % shards`.
    pub shards: u32,
    /// Record per-session telemetry counters.
    pub telemetry: bool,
    /// Journal every accepted event for crash recovery. Load
    /// generators turn this off to keep server memory flat; `snapshot`
    /// frames then answer with a typed error.
    pub journal: bool,
}

impl Hello {
    /// A hello with the workspace defaults: auto backend, no grid,
    /// one shard, telemetry off, journaling on.
    pub fn new(tenant: impl Into<String>, algo: impl Into<String>) -> Self {
        Hello {
            tenant: tenant.into(),
            token: None,
            algo: algo.into(),
            backend: Backend::Auto,
            grid: None,
            shards: 1,
            telemetry: false,
            journal: true,
        }
    }
}

// `Hello` holds an `Option<TickGrid>`; the vendored derive can't see
// through generic impl requirements on field types it didn't derive
// in the same crate, so the impls are written out (and double as the
// wire-format spec: absent optional fields take their defaults).
impl Serialize for Hello {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("tenant".to_string(), Value::Str(self.tenant.clone())),
            ("algo".to_string(), Value::Str(self.algo.clone())),
            ("backend".to_string(), self.backend.to_value()),
            ("shards".to_string(), Value::Int(self.shards as i128)),
            ("telemetry".to_string(), Value::Bool(self.telemetry)),
            ("journal".to_string(), Value::Bool(self.journal)),
        ];
        if let Some(token) = &self.token {
            obj.push(("token".to_string(), Value::Str(token.clone())));
        }
        if let Some(grid) = &self.grid {
            obj.push(("grid".to_string(), grid.to_value()));
        }
        Value::Object(obj)
    }
}

impl Deserialize for Hello {
    fn from_value(v: &Value) -> Result<Hello, Error> {
        let obj = v.as_object().ok_or_else(|| Error::expected("object", v))?;
        let get = |name: &str| obj.iter().find_map(|(k, val)| (k == name).then_some(val));
        let req_str = |name: &str| -> Result<String, Error> {
            get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| Error::missing_field(name, "hello"))
        };
        Ok(Hello {
            tenant: req_str("tenant")?,
            token: match get("token") {
                Some(Value::Null) | None => None,
                Some(v) => Some(String::from_value(v)?),
            },
            algo: req_str("algo")?,
            backend: match get("backend") {
                Some(v) => Backend::from_value(v)?,
                None => Backend::Auto,
            },
            grid: match get("grid") {
                Some(Value::Null) | None => None,
                Some(v) => Some(TickGrid::from_value(v)?),
            },
            shards: match get("shards") {
                Some(v) => u32::from_value(v)?,
                None => 1,
            },
            telemetry: match get("telemetry") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
            journal: match get("journal") {
                Some(v) => bool::from_value(v)?,
                None => true,
            },
        })
    }
}

/// Inserts a `trace` request id directly after the `v` entry, keeping
/// the canonical field order `v`, `trace`, `<tag>`. `None` returns the
/// frame untouched, so untraced encodings stay byte-identical.
fn attach_trace(frame: Value, trace: Option<u64>) -> Value {
    let Some(id) = trace else { return frame };
    let Value::Object(entries) = frame else {
        return frame;
    };
    let mut out = Vec::with_capacity(entries.len() + 1);
    for (k, v) in entries {
        let was_version = k == "v";
        out.push((k, v));
        if was_version {
            out.push(("trace".to_string(), Value::Int(id as i128)));
        }
    }
    Value::Object(out)
}

/// Removes a `trace` entry (if any) from a version-stripped payload,
/// returning the remaining entries and the request id. A present
/// `trace` must be a non-negative integer.
fn split_trace<'a>(
    payload: Payload<'a>,
    context: &str,
) -> Result<(Payload<'a>, Option<u64>), Error> {
    let mut trace = None;
    let mut rest = Vec::with_capacity(payload.len());
    for entry in payload {
        if entry.0 == "trace" {
            trace = Some(u64::from_value(&entry.1).map_err(|_| {
                Error::custom(format!("{context}: `trace` must be a non-negative integer"))
            })?);
        } else {
            rest.push(entry);
        }
    }
    Ok((rest, trace))
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Attach this connection to a tenant (must be the first frame).
    Hello(Hello),
    /// One stream event; answered with the placement
    /// ([`Response::Bin`]) for arrivals, [`Response::Bin`] of the
    /// freed bin for departures.
    Event(Event),
    /// Many events in submission order; answered with
    /// [`Response::Bins`], one `BinId` per event.
    Batch(Vec<Event>),
    /// Ask for a resumable checkpoint of the tenant session.
    Snapshot,
    /// Ask for the tenant's live stream metrics.
    Metrics,
    /// Finish the tenant session and return its packing outcomes
    /// (one per shard).
    Finish,
    /// Stop the whole server (subject to the server's token policy).
    Shutdown {
        /// Auth token, checked like a tenant token.
        token: Option<String>,
    },
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let payload = match self {
            // An event frame *is* the stream line: `{"arrive":{...}}`.
            Request::Event(ev) => ev.to_value(),
            Request::Hello(h) => Value::Object(vec![("hello".to_string(), h.to_value())]),
            Request::Batch(events) => Value::Object(vec![(
                "batch".to_string(),
                Value::Array(events.iter().map(Serialize::to_value).collect()),
            )]),
            Request::Snapshot => {
                Value::Object(vec![("snapshot".to_string(), Value::Object(vec![]))])
            }
            Request::Metrics => Value::Object(vec![("metrics".to_string(), Value::Object(vec![]))]),
            Request::Finish => Value::Object(vec![("finish".to_string(), Value::Object(vec![]))]),
            Request::Shutdown { token } => Value::Object(vec![(
                "shutdown".to_string(),
                Value::Object(match token {
                    Some(t) => vec![("token".to_string(), Value::Str(t.clone()))],
                    None => vec![],
                }),
            )]),
        };
        tag_version(payload)
    }
}

impl Request {
    /// The versioned frame with an optional request id attached:
    /// `{"v":1,"trace":N,"arrive":{...}}`. `trace: None` is exactly
    /// [`Serialize::to_value`].
    pub fn to_traced_value(&self, trace: Option<u64>) -> Value {
        attach_trace(self.to_value(), trace)
    }

    /// Parses a frame and its optional `trace` request id. Frames
    /// without the entry parse with `None` — the two wire shapes share
    /// one grammar.
    pub fn from_traced_value(v: &Value) -> Result<(Request, Option<u64>), Error> {
        let payload = strip_version(v).map_err(Error::custom)?;
        let (payload, trace) = split_trace(payload, "request")?;
        Ok((Request::from_stripped(&payload)?, trace))
    }

    fn from_stripped(payload: &[&(String, Value)]) -> Result<Request, Error> {
        let [(tag, body)] = payload else {
            return Err(Error::custom(
                "request: expected exactly one frame tag next to `v`",
            ));
        };
        match tag.as_str() {
            "arrive" | "depart" => Ok(Request::Event(event_from_payload(payload)?)),
            "hello" => Ok(Request::Hello(Hello::from_value(body)?)),
            "batch" => Ok(Request::Batch(Vec::from_value(body)?)),
            "snapshot" => Ok(Request::Snapshot),
            "metrics" => Ok(Request::Metrics),
            "finish" => Ok(Request::Finish),
            "shutdown" => Ok(Request::Shutdown {
                token: match body.get("token") {
                    Some(Value::Null) | None => None,
                    Some(t) => Some(String::from_value(t)?),
                },
            }),
            other => Err(Error::custom(format!(
                "request: unknown frame tag `{other}`"
            ))),
        }
    }
}

impl Deserialize for Request {
    /// The compatibility rule for old servers and tools: a `trace`
    /// entry is accepted and discarded, never refused.
    fn from_value(v: &Value) -> Result<Request, Error> {
        Request::from_traced_value(v).map(|(request, _)| request)
    }
}

/// What went wrong, as a machine-matchable class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Missing or wrong auth token.
    Auth,
    /// A per-tenant quota (bins, in-flight items, events/sec) was hit.
    Quota,
    /// The frame itself was malformed or out of protocol order.
    Protocol,
    /// The session rejected the event (off-grid, duplicate id, ...).
    Session,
    /// The request is valid but this server can't serve it
    /// (e.g. `snapshot` on a journal-less tenant).
    Unavailable,
}

impl ErrorKind {
    fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::Auth => "auth",
            ErrorKind::Quota => "quota",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Session => "session",
            ErrorKind::Unavailable => "unavailable",
        }
    }
}

impl Serialize for ErrorKind {
    fn to_value(&self) -> Value {
        Value::Str(self.wire_name().to_string())
    }
}

impl Deserialize for ErrorKind {
    fn from_value(v: &Value) -> Result<ErrorKind, Error> {
        match v.as_str() {
            Some("auth") => Ok(ErrorKind::Auth),
            Some("quota") => Ok(ErrorKind::Quota),
            Some("protocol") => Ok(ErrorKind::Protocol),
            Some("session") => Ok(ErrorKind::Session),
            Some("unavailable") => Ok(ErrorKind::Unavailable),
            _ => Err(Error::expected("error kind string", v)),
        }
    }
}

/// A typed server-side failure, sent as a [`Response::Error`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For batch requests: index of the first event that failed
    /// (everything before it was applied).
    pub index: Option<u64>,
}

impl WireError {
    /// Shorthand constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            index: None,
        }
    }

    /// Attach the failing batch index.
    pub fn at_index(mut self, index: u64) -> Self {
        self.index = Some(index);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.wire_name(), self.message)?;
        if let Some(i) = self.index {
            write!(f, " (at batch index {i})")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

impl Serialize for WireError {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("message".to_string(), Value::Str(self.message.clone())),
        ];
        if let Some(i) = self.index {
            obj.push(("index".to_string(), Value::Int(i as i128)));
        }
        Value::Object(obj)
    }
}

impl Deserialize for WireError {
    fn from_value(v: &Value) -> Result<WireError, Error> {
        let obj = v.as_object().ok_or_else(|| Error::expected("object", v))?;
        let get = |name: &str| obj.iter().find_map(|(k, val)| (k == name).then_some(val));
        Ok(WireError {
            kind: ErrorKind::from_value(
                get("kind").ok_or_else(|| Error::missing_field("kind", "error"))?,
            )?,
            message: String::from_value(
                get("message").ok_or_else(|| Error::missing_field("message", "error"))?,
            )?,
            index: match get("index") {
                Some(Value::Null) | None => None,
                Some(v) => Some(u64::from_value(v)?),
            },
        })
    }
}

/// A server-to-client frame; every request gets exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Hello accepted; reports how many journaled events were
    /// replayed into the session before this connection attached.
    Hello {
        /// Tenant key the connection is now driving.
        tenant: String,
        /// Journaled events replayed on resume (0 for a fresh tenant).
        resumed_events: u64,
    },
    /// Placement (arrival) or freed bin (departure) for one event.
    Bin(BinId),
    /// Placements for a batch, one per event in submission order.
    Bins(Vec<BinId>),
    /// A resumable checkpoint of the tenant session.
    Snapshot(SessionSnapshot),
    /// Live stream metrics (folded across shards for fleets). Boxed:
    /// `SessionMetrics` is ~370 bytes and would otherwise dominate
    /// the size of every hot-path `Bin` response moved around.
    Metrics(Box<SessionMetrics>),
    /// Finished packing outcomes, one per shard.
    Outcomes(Vec<PackingOutcome>),
    /// The server acknowledged shutdown and is stopping.
    Shutdown,
    /// The request failed; the session state is unchanged except as
    /// described by [`WireError::index`].
    Error(WireError),
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let (tag, body) = match self {
            Response::Hello {
                tenant,
                resumed_events,
            } => (
                "hello",
                Value::Object(vec![
                    ("tenant".to_string(), Value::Str(tenant.clone())),
                    (
                        "resumed_events".to_string(),
                        Value::Int(*resumed_events as i128),
                    ),
                ]),
            ),
            Response::Bin(bin) => ("bin", bin.to_value()),
            Response::Bins(bins) => (
                "bins",
                Value::Array(bins.iter().map(Serialize::to_value).collect()),
            ),
            Response::Snapshot(s) => ("snapshot", s.to_value()),
            Response::Metrics(m) => ("metrics", m.to_value()),
            Response::Outcomes(outcomes) => (
                "outcomes",
                Value::Array(outcomes.iter().map(Serialize::to_value).collect()),
            ),
            Response::Shutdown => ("shutdown", Value::Object(vec![])),
            Response::Error(e) => ("error", e.to_value()),
        };
        tag_version(Value::Object(vec![(tag.to_string(), body)]))
    }
}

impl Response {
    /// The versioned frame with the request's `trace` id echoed:
    /// `{"v":1,"trace":N,"bin":5}`. `trace: None` is exactly
    /// [`Serialize::to_value`].
    pub fn to_traced_value(&self, trace: Option<u64>) -> Value {
        attach_trace(self.to_value(), trace)
    }

    /// Parses a response frame and the echoed `trace` id, if any.
    pub fn from_traced_value(v: &Value) -> Result<(Response, Option<u64>), Error> {
        let payload = strip_version(v).map_err(Error::custom)?;
        let (payload, trace) = split_trace(payload, "response")?;
        Ok((Response::from_stripped(&payload)?, trace))
    }

    fn from_stripped(payload: &[&(String, Value)]) -> Result<Response, Error> {
        let [(tag, body)] = payload else {
            return Err(Error::custom(
                "response: expected exactly one frame tag next to `v`",
            ));
        };
        match tag.as_str() {
            "hello" => {
                let get = |name: &str| {
                    body.as_object()
                        .and_then(|o| o.iter().find_map(|(k, v)| (k == name).then_some(v)))
                        .ok_or_else(|| Error::missing_field(name, "hello response"))
                };
                Ok(Response::Hello {
                    tenant: String::from_value(get("tenant")?)?,
                    resumed_events: u64::from_value(get("resumed_events")?)?,
                })
            }
            "bin" => Ok(Response::Bin(BinId::from_value(body)?)),
            "bins" => Ok(Response::Bins(Vec::from_value(body)?)),
            "snapshot" => Ok(Response::Snapshot(SessionSnapshot::from_value(body)?)),
            "metrics" => Ok(Response::Metrics(Box::new(SessionMetrics::from_value(
                body,
            )?))),
            "outcomes" => Ok(Response::Outcomes(Vec::from_value(body)?)),
            "shutdown" => Ok(Response::Shutdown),
            "error" => Ok(Response::Error(WireError::from_value(body)?)),
            other => Err(Error::custom(format!(
                "response: unknown frame tag `{other}`"
            ))),
        }
    }
}

impl Deserialize for Response {
    /// Like requests, an echoed `trace` entry is accepted and
    /// discarded by the untraced entry point.
    fn from_value(v: &Value) -> Result<Response, Error> {
        Response::from_traced_value(v).map(|(response, _)| response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::ItemId;
    use dbp_numeric::rat;

    fn round_trip_request(req: &Request) {
        let text = serde_json::to_string(&req.to_value()).unwrap();
        let back = Request::from_value(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, req, "through {text}");
    }

    fn round_trip_response(resp: &Response) {
        let text = serde_json::to_string(&resp.to_value()).unwrap();
        let back = Response::from_value(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, resp, "through {text}");
    }

    #[test]
    fn requests_round_trip() {
        let mut hello = Hello::new("acme", "firstfit");
        hello.token = Some("s3cret".into());
        hello.grid = Some(TickGrid::new(1, 128));
        hello.shards = 4;
        hello.telemetry = true;
        hello.journal = false;
        round_trip_request(&Request::Hello(hello));
        round_trip_request(&Request::Event(Event::Arrive {
            id: ItemId(3),
            size: rat(1, 3),
            time: rat(7, 2),
        }));
        round_trip_request(&Request::Batch(vec![
            Event::Arrive {
                id: ItemId(0),
                size: rat(1, 2),
                time: rat(0, 1),
            },
            Event::Depart {
                id: ItemId(0),
                time: rat(3, 1),
            },
        ]));
        round_trip_request(&Request::Snapshot);
        round_trip_request(&Request::Metrics);
        round_trip_request(&Request::Finish);
        round_trip_request(&Request::Shutdown { token: None });
        round_trip_request(&Request::Shutdown {
            token: Some("s3cret".into()),
        });
    }

    #[test]
    fn event_request_frame_is_the_stream_line() {
        let ev = Event::Depart {
            id: ItemId(9),
            time: rat(4, 1),
        };
        let frame = serde_json::to_string(&Request::Event(ev).to_value()).unwrap();
        let line = crate::event_to_line(&ev);
        assert_eq!(frame, line);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Hello {
            tenant: "acme".into(),
            resumed_events: 42,
        });
        round_trip_response(&Response::Bin(BinId(5)));
        round_trip_response(&Response::Bins(vec![BinId(0), BinId(1), BinId(0)]));
        round_trip_response(&Response::Shutdown);
        round_trip_response(&Response::Error(
            WireError::new(ErrorKind::Quota, "events/sec over quota").at_index(17),
        ));
    }

    #[test]
    fn hello_defaults_fill_missing_fields() {
        let minimal = serde_json::parse(r#"{"tenant":"t","algo":"firstfit"}"#).unwrap();
        let hello = Hello::from_value(&minimal).unwrap();
        assert_eq!(hello, Hello::new("t", "firstfit"));
    }

    #[test]
    fn trace_is_optional_and_never_breaks_untraced_frames() {
        let ev = Event::Arrive {
            id: ItemId(3),
            size: rat(1, 3),
            time: rat(7, 2),
        };
        let req = Request::Event(ev);
        // Untraced traced-encoding is byte-identical to the plain one.
        assert_eq!(
            serde_json::to_string(&req.to_traced_value(None)).unwrap(),
            serde_json::to_string(&req.to_value()).unwrap(),
        );
        // Traced frames carry the id next to `v` and round-trip it.
        let traced = serde_json::to_string(&req.to_traced_value(Some(7))).unwrap();
        assert!(
            traced.starts_with(r#"{"v":1,"trace":7,"arrive""#),
            "{traced}"
        );
        let (back, trace) =
            Request::from_traced_value(&serde_json::parse(&traced).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(trace, Some(7));
        // The compatibility rule: the untraced entry point accepts a
        // traced frame (old tooling never refuses new clients).
        assert_eq!(
            Request::from_value(&serde_json::parse(&traced).unwrap()).unwrap(),
            req
        );
        // Responses echo the same shape.
        let resp = Response::Bin(BinId(5));
        let echoed = serde_json::to_string(&resp.to_traced_value(Some(7))).unwrap();
        assert_eq!(echoed, r#"{"v":1,"trace":7,"bin":5}"#);
        let (back, trace) =
            Response::from_traced_value(&serde_json::parse(&echoed).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(trace, Some(7));
        assert_eq!(
            Response::from_value(&serde_json::parse(&echoed).unwrap()).unwrap(),
            resp
        );
    }

    #[test]
    fn traced_frames_round_trip_every_request_kind() {
        for req in [
            Request::Hello(Hello::new("acme", "firstfit")),
            Request::Batch(vec![Event::Depart {
                id: ItemId(0),
                time: rat(3, 1),
            }]),
            Request::Snapshot,
            Request::Metrics,
            Request::Finish,
            Request::Shutdown { token: None },
        ] {
            let text = serde_json::to_string(&req.to_traced_value(Some(99))).unwrap();
            let (back, trace) =
                Request::from_traced_value(&serde_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, req, "through {text}");
            assert_eq!(trace, Some(99), "through {text}");
        }
    }

    #[test]
    fn bad_trace_values_are_typed_errors() {
        let negative = serde_json::parse(r#"{"v":1,"trace":-1,"finish":{}}"#).unwrap();
        assert!(Request::from_traced_value(&negative).is_err());
        let stringy = serde_json::parse(r#"{"v":1,"trace":"x","finish":{}}"#).unwrap();
        assert!(Request::from_traced_value(&stringy).is_err());
    }

    #[test]
    fn unknown_tags_and_versions_are_errors() {
        let bogus = serde_json::parse(r#"{"v":1,"teleport":{}}"#).unwrap();
        assert!(Request::from_value(&bogus).is_err());
        let future = serde_json::parse(r#"{"v":9,"finish":{}}"#).unwrap();
        assert!(Request::from_value(&future).is_err());
    }
}
