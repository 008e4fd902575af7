//! Request-phase spans and the slow-request ring.
//!
//! Every placement request (event or batch) a connection serves is
//! timed as a [`RequestSpan`]: five monotonic phases — Decode (frame
//! bytes → `Request`), Quota (admission), Apply (session placement),
//! Journal (append + flush), Encode (response → frame bytes) — on the
//! same `Instant`-based span discipline as `dbp_obs::prof`. Finished
//! spans fold into the owning tenant's [`WireStats`] (a log₂ latency
//! histogram plus per-phase nanosecond counters the exposition page
//! publishes as `tenant_<name>_request_latency_us`,
//! `tenant_<name>_request_<phase>_ns_total`, ...), and requests over
//! the server's `--slow-ms` threshold additionally land in a bounded
//! [`SlowRing`] dumped on shutdown as JSONL and as Chrome trace spans
//! (`chrome_trace_with_spans`), where they share a timeline with
//! in-engine `PhaseProbe` spans.
//!
//! Spans carry the frame's optional `trace` request id (see
//! `dbp_proto::frame`), so a slow-log line is joinable against
//! client-side records — but timing itself is unconditional: untraced
//! requests are measured identically, the id only labels them.

use dbp_obs::{chrome_trace_with_spans, Histogram, MetricsRegistry};
use serde::Value;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The five timed request phases, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frame bytes → parsed `Request` (excludes socket wait).
    Decode = 0,
    /// Quota admission (rate limiter + arrival head-room checks).
    Quota = 1,
    /// Session placement.
    Apply = 2,
    /// Journal append + flush (the durability fsync before the ack).
    Journal = 3,
    /// Response → frame bytes (excludes the socket write).
    Encode = 4,
}

/// Phase names, indexed by `Phase as usize` — used for metric names
/// and Chrome span labels.
pub const PHASE_NAMES: [&str; 5] = ["decode", "quota", "apply", "journal", "encode"];

/// One placement request being timed.
#[derive(Debug)]
pub struct RequestSpan {
    /// The frame's `trace` request id, if the client sent one.
    pub trace: Option<u64>,
    /// `"event"` or `"batch"`.
    pub kind: &'static str,
    /// Events carried by the request (1 for single events).
    pub events: u64,
    /// Nanoseconds attributed to each phase.
    pub phase_ns: [u64; 5],
    /// Journal flushes performed while serving this request.
    pub fsyncs: u64,
    /// The request was refused at admission.
    pub quota_refused: bool,
    /// When the span opened (directly after decode completed).
    started: Instant,
    total_ns: u64,
}

impl RequestSpan {
    /// Opens a span for a just-decoded request; `decode_ns` is the
    /// parse time the frame reader already measured.
    pub fn new(kind: &'static str, events: u64, trace: Option<u64>, decode_ns: u64) -> RequestSpan {
        let mut phase_ns = [0u64; 5];
        phase_ns[Phase::Decode as usize] = decode_ns;
        RequestSpan {
            trace,
            kind,
            events,
            phase_ns,
            fsyncs: 0,
            quota_refused: false,
            started: Instant::now(),
            total_ns: 0,
        }
    }

    /// Attributes `elapsed` to `phase` (phases re-entered accumulate).
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        self.phase_ns[phase as usize] += elapsed.as_nanos() as u64;
    }

    /// Times `f` under `phase`.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let answer = f();
        self.record(phase, t.elapsed());
        answer
    }

    /// Closes the span: total latency = decode + everything since the
    /// span opened (so inter-phase glue is counted, phases are an
    /// attribution of it). Idempotent from the first call's clock.
    pub fn finish(&mut self) -> u64 {
        if self.total_ns == 0 {
            self.total_ns =
                self.phase_ns[Phase::Decode as usize] + self.started.elapsed().as_nanos() as u64;
        }
        self.total_ns
    }

    /// Request start relative to `origin` (the span opened *after*
    /// decode, so decode time is subtracted back out).
    pub fn start_since(&self, origin: Instant) -> Duration {
        self.started
            .saturating_duration_since(origin)
            .saturating_sub(Duration::from_nanos(self.phase_ns[Phase::Decode as usize]))
    }
}

/// Per-tenant wire-level SLO accumulators, folded into the tenant's
/// exposition registry next to its stream telemetry.
#[derive(Debug, Default)]
pub struct WireStats {
    /// End-to-end request latency in microseconds (log₂ buckets, so
    /// p50/p99 are derivable from the rendered `_bucket` series).
    pub latency_us: Histogram,
    /// Nanoseconds attributed to each phase, across all requests —
    /// the per-phase share counters (share = phase / sum of phases).
    pub phase_ns: [u64; 5],
    /// Placement requests served (including refused ones).
    pub requests: u64,
    /// Requests that carried a `trace` id.
    pub traced_requests: u64,
    /// Requests refused at quota admission.
    pub quota_refusals: u64,
    /// Journal append + flush calls.
    pub journal_fsyncs: u64,
    /// Requests at or over the slow threshold.
    pub slow_requests: u64,
}

impl WireStats {
    /// Folds one finished span in.
    pub fn record(&mut self, span: &RequestSpan, total_ns: u64, slow: bool) {
        self.latency_us.observe(total_ns as f64 / 1e3);
        for (acc, ns) in self.phase_ns.iter_mut().zip(span.phase_ns) {
            *acc += ns;
        }
        self.requests += 1;
        if span.trace.is_some() {
            self.traced_requests += 1;
        }
        if span.quota_refused {
            self.quota_refusals += 1;
        }
        self.journal_fsyncs += span.fsyncs;
        if slow {
            self.slow_requests += 1;
        }
    }

    /// Publishes the accumulators into `registry` under the names the
    /// page merges (`request_latency_us`, `request_<phase>_ns`,
    /// `quota_refusals`, `journal_fsyncs`, ...).
    pub fn fold_into(&self, registry: &mut MetricsRegistry) {
        if self.requests == 0 {
            return;
        }
        registry.merge_histogram("request_latency_us", &self.latency_us);
        for (name, ns) in PHASE_NAMES.iter().zip(self.phase_ns) {
            registry.inc_by(&format!("request_{name}_ns"), ns);
        }
        registry.inc_by("requests", self.requests);
        registry.inc_by("traced_requests", self.traced_requests);
        registry.inc_by("quota_refusals", self.quota_refusals);
        registry.inc_by("journal_fsyncs", self.journal_fsyncs);
        registry.inc_by("slow_requests", self.slow_requests);
    }
}

/// One slow-log entry: a finished span pinned to the server timeline.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// Tenant the request was served for.
    pub tenant: String,
    /// `"event"` or `"batch"`.
    pub kind: &'static str,
    /// The frame's `trace` id, if any.
    pub trace: Option<u64>,
    /// Connection ordinal (Chrome track id).
    pub conn: u64,
    /// Request start, µs since the server started.
    pub start_us: f64,
    /// End-to-end latency, µs.
    pub total_us: f64,
    /// Per-phase attribution, µs, indexed like [`PHASE_NAMES`].
    pub phase_us: [f64; 5],
    /// Events carried by the request.
    pub events: u64,
    /// The request was refused at admission.
    pub refused: bool,
}

impl SlowRequest {
    /// Builds an entry from a finished span.
    pub fn from_span(span: &RequestSpan, tenant: &str, conn: u64, origin: Instant) -> SlowRequest {
        let mut phase_us = [0f64; 5];
        for (us, ns) in phase_us.iter_mut().zip(span.phase_ns) {
            *us = ns as f64 / 1e3;
        }
        SlowRequest {
            tenant: tenant.to_string(),
            kind: span.kind,
            trace: span.trace,
            conn,
            start_us: span.start_since(origin).as_nanos() as f64 / 1e3,
            total_us: span.total_ns as f64 / 1e3,
            phase_us,
            events: span.events,
            refused: span.quota_refused,
        }
    }

    /// The JSONL line value.
    pub fn to_value(&self) -> Value {
        let mut obj = vec![
            ("tenant".to_string(), Value::Str(self.tenant.clone())),
            ("kind".to_string(), Value::Str(self.kind.to_string())),
            (
                "trace".to_string(),
                match self.trace {
                    Some(id) => Value::Int(id as i128),
                    None => Value::Null,
                },
            ),
            ("conn".to_string(), Value::Int(self.conn as i128)),
            ("start_us".to_string(), Value::Float(self.start_us)),
            ("total_us".to_string(), Value::Float(self.total_us)),
            ("events".to_string(), Value::Int(self.events as i128)),
            ("refused".to_string(), Value::Bool(self.refused)),
        ];
        for (name, us) in PHASE_NAMES.iter().zip(self.phase_us) {
            obj.push((format!("{name}_us"), Value::Float(us)));
        }
        Value::Object(obj)
    }

    /// Chrome `"X"` spans: one request-level span plus one child per
    /// non-empty phase, laid out sequentially inside it. Server spans
    /// live on `pid` 3 (the engine timeline uses 1, the profiler 2)
    /// with one track per connection.
    pub fn chrome_spans(&self) -> Vec<Value> {
        let span = |name: String, ts: f64, dur: f64| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(name)),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Float(ts)),
                ("dur".to_string(), Value::Float(dur)),
                ("pid".to_string(), Value::Int(3)),
                ("tid".to_string(), Value::Int(self.conn as i128)),
            ])
        };
        let label = match self.trace {
            Some(id) => format!("{} {} trace={id}", self.tenant, self.kind),
            None => format!("{} {}", self.tenant, self.kind),
        };
        let mut spans = vec![span(label, self.start_us, self.total_us)];
        let mut at = self.start_us;
        for (name, us) in PHASE_NAMES.iter().zip(self.phase_us) {
            if us > 0.0 {
                spans.push(span((*name).to_string(), at, us));
                at += us;
            }
        }
        spans
    }
}

/// A bounded ring of the slowest-path evidence: requests at or over
/// the threshold, newest kept, oldest evicted.
#[derive(Debug)]
pub struct SlowRing {
    threshold_ns: u64,
    cap: usize,
    entries: VecDeque<SlowRequest>,
    evicted: u64,
}

/// Ring capacity: enough to hold a burst, small enough to never
/// matter for memory.
pub const SLOW_RING_CAP: usize = 256;

impl SlowRing {
    /// A ring recording requests slower than `threshold`.
    pub fn new(threshold: Duration) -> SlowRing {
        SlowRing {
            threshold_ns: threshold.as_nanos() as u64,
            cap: SLOW_RING_CAP,
            entries: VecDeque::new(),
            evicted: 0,
        }
    }

    /// The recording threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Records one slow request, evicting the oldest at capacity.
    pub fn offer(&mut self, entry: SlowRequest) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// Entries currently held, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &SlowRequest> {
        self.entries.iter()
    }

    /// How many entries the ring has evicted (so a dump can say it is
    /// a suffix, not the whole story).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The ring as JSONL, one request per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(
                &serde_json::to_string(&entry.to_value()).expect("slow entries serialize"),
            );
            out.push('\n');
        }
        out
    }

    /// The ring as a Chrome trace document (via
    /// `chrome_trace_with_spans`, so engine `TraceEvent`s could ride
    /// along on the same timeline).
    pub fn chrome_trace(&self) -> Value {
        let spans = self
            .entries
            .iter()
            .flat_map(SlowRequest::chrome_spans)
            .collect();
        chrome_trace_with_spans(&[], spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_span() -> RequestSpan {
        let mut span = RequestSpan::new("event", 1, Some(7), 1_000);
        span.record(Phase::Quota, Duration::from_nanos(500));
        span.record(Phase::Apply, Duration::from_nanos(2_000));
        span.record(Phase::Journal, Duration::from_nanos(3_000));
        span.fsyncs = 1;
        span.record(Phase::Encode, Duration::from_nanos(250));
        span.finish();
        span
    }

    #[test]
    fn spans_accumulate_phases_and_total_covers_them() {
        let mut span = finished_span();
        assert_eq!(span.phase_ns, [1_000, 500, 2_000, 3_000, 250]);
        let total = span.finish();
        // Total includes decode plus wall time since open, which
        // bounds the timed phases after decode from above.
        assert!(total >= 1_000);
        // finish() is stable.
        assert_eq!(span.finish(), total);
    }

    #[test]
    fn wire_stats_fold_spans_into_registry_names() {
        let mut stats = WireStats::default();
        let span = finished_span();
        stats.record(&span, 10_000, true);
        let mut refused = RequestSpan::new("batch", 8, None, 100);
        refused.quota_refused = true;
        let total = refused.finish();
        stats.record(&refused, total, false);

        assert_eq!(stats.requests, 2);
        assert_eq!(stats.traced_requests, 1);
        assert_eq!(stats.quota_refusals, 1);
        assert_eq!(stats.journal_fsyncs, 1);
        assert_eq!(stats.slow_requests, 1);
        assert_eq!(stats.latency_us.count(), 2);

        let mut registry = MetricsRegistry::new();
        stats.fold_into(&mut registry);
        assert_eq!(registry.histogram("request_latency_us").unwrap().count(), 2);
        assert_eq!(registry.counter("request_decode_ns"), 1_100);
        assert_eq!(registry.counter("request_journal_ns"), 3_000);
        assert_eq!(registry.counter("requests"), 2);
        assert_eq!(registry.counter("quota_refusals"), 1);
        assert_eq!(registry.counter("journal_fsyncs"), 1);
        assert_eq!(registry.counter("slow_requests"), 1);

        // An untouched accumulator publishes nothing (a tenant that
        // never saw a placement keeps its page lean).
        let mut empty = MetricsRegistry::new();
        WireStats::default().fold_into(&mut empty);
        assert_eq!(empty.counter("requests"), 0);
        assert!(empty.histogram("request_latency_us").is_none());
    }

    #[test]
    fn slow_ring_bounds_entries_and_renders_both_dumps() {
        let mut ring = SlowRing::new(Duration::from_millis(0));
        let origin = Instant::now();
        for i in 0..(SLOW_RING_CAP + 3) {
            let mut span = RequestSpan::new("event", 1, (i % 2 == 0).then_some(i as u64), 10);
            span.finish();
            ring.offer(SlowRequest::from_span(&span, "acme", 1, origin));
        }
        assert_eq!(ring.entries().count(), SLOW_RING_CAP);
        assert_eq!(ring.evicted(), 3);

        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), SLOW_RING_CAP);
        let first: Value = serde_json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("tenant").and_then(Value::as_str), Some("acme"));
        assert!(first.get("total_us").is_some());
        assert!(first.get("decode_us").is_some());

        let chrome = ring.chrome_trace();
        let events = chrome
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("chrome trace has traceEvents");
        // Each entry contributes a request span plus its decode span.
        assert!(events.len() >= 2 * SLOW_RING_CAP);
        let request_span = events
            .iter()
            .find(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.contains("trace="))
            })
            .expect("traced request span present");
        assert_eq!(
            request_span.get("pid").and_then(Value::as_int),
            Some(3),
            "server spans live on pid 3"
        );
    }
}
