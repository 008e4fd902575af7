//! The layer pass: a workload's frames driven in-process, with no
//! socket, through the same public calls the served path makes —
//!
//! 1. `fast::write_*_request` (client encode)
//! 2. `write_frame_bytes` / 3. `read_frame_raw` (request framing)
//! 4. `fast::parse_request_traced` (server decode)
//! 5. `Tenant::apply` / `Tenant::batch`, whose `RequestSpan.phase_ns`
//!    gives the `server.quota` and `core.session` children
//! 6. `Journal::append` (append and flush), on journaling workloads
//! 7. `fast::write_*_response`, response framing, and
//!    `fast::parse_response_traced` (client decode)
//!
//! — each call a span under the frame's root span, all sharing the
//! frame's request id. The chain makes exactly the served path's calls:
//! on workloads that do not journal, one more lifetime's frames are
//! appended to a journal on their own afterwards, so the journal's cost
//! is known for every frame shape without its writes evicting the rest
//! of the chain from the cache. That journal is then read back with
//! `read_journal` and rebuilt with `Tenant::recover`, and the engine
//! rungs below the tenant (`CompiledInstance::{compile,run}`,
//! `Session::ingest`) are timed on the same instance.
//!
//! Spans keep the durations as measured; the metrics derived from them
//! are scaled by the host-speed probe sampled around each lifetime or
//! repetition (see [`crate::speed`]), like every other timing.

use crate::serve::Tally;
use crate::stats::{median, median_by_position, Summary};
use crate::trace::SpanLog;
use crate::workload::{tick_grid, Inputs, WorkloadSpec};
use dbp_core::{Backend, CompiledInstance, FirstFit, Session, TickPolicy};
use dbp_proto::{fast, read_frame_raw, write_frame_bytes, Hello, Request, Response};
use dbp_server::journal::{journal_path, read_journal, Journal, JournalHeader};
use dbp_server::tenant::Tenant;
use dbp_server::{Phase, Quotas, RequestSpan};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Root span of one frame.
pub const FRAME: &str = "frame";
/// Client-side request encode.
pub const ENCODE_REQUEST: &str = "proto.encode_request";
/// Length-prefix framing, either direction.
pub const WRITE_FRAME: &str = "proto.write_frame";
/// Length-prefixed frame read, either direction.
pub const READ_FRAME: &str = "proto.read_frame";
/// Server-side request decode.
pub const DECODE_REQUEST: &str = "proto.decode_request";
/// `Tenant::apply` / `Tenant::batch`.
pub const TENANT: &str = "server.tenant";
/// Quota admission inside the tenant call.
pub const QUOTA: &str = "server.quota";
/// Session placement inside the tenant call.
pub const SESSION: &str = "core.session";
/// `Journal::append` (append + flush).
pub const JOURNAL: &str = "server.journal";
/// Server-side response encode.
pub const ENCODE_RESPONSE: &str = "proto.encode_response";
/// Client-side response decode.
pub const DECODE_RESPONSE: &str = "proto.decode_response";

const TENANT_NAME: &str = "layers";

/// Timed repetitions of the read-back and engine rungs.
const REPS: usize = 3;

/// What the layer pass measured.
#[derive(Debug)]
pub struct LayerPass {
    /// Every span of the pass, as measured.
    pub log: SpanLog,
    /// Frames per lifetime.
    pub frames_per_lifetime: usize,
    /// The host's slowdown around each lifetime.
    pub slowdowns: Vec<f64>,
    /// Frames driven.
    pub frames: u64,
    /// Events driven.
    pub events: u64,
    /// Request payload bytes (before framing).
    pub request_bytes: u64,
    /// Requests the fast parser accepted.
    pub fast_parsed: u64,
    /// `Journal::append` calls (each flushes once).
    pub journal_appends: u64,
    /// Events those calls appended.
    pub journal_events: u64,
    /// Journal file bytes per event of one lifetime.
    pub journal_bytes_per_event: f64,
    /// `read_journal` throughput, events/s per repetition, scaled.
    pub journal_read_events_per_s: Summary,
    /// `Tenant::recover` throughput, events/s per repetition, scaled.
    pub recover_events_per_s: Summary,
    /// Frame, outcome and recovery checks.
    pub tally: Tally,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start, start.elapsed())
}

/// [`timed`] between two `slowdown` samples, whose mean comes last.
fn timed_scaled<T>(
    slowdown: &mut impl FnMut() -> Result<f64, String>,
    f: impl FnOnce() -> T,
) -> Result<(T, Instant, Duration, f64), String> {
    let before = slowdown()?;
    let (value, start, dur) = timed(f);
    Ok((value, start, dur, (before + slowdown()?) / 2.0))
}

fn hello(w: &WorkloadSpec) -> Hello {
    Hello {
        grid: Some(tick_grid()),
        journal: w.journal,
        ..Hello::new(TENANT_NAME, "firstfit")
    }
}

fn journal_header() -> JournalHeader {
    JournalHeader {
        tenant: TENANT_NAME.to_string(),
        algo: "FirstFit".to_string(),
        backend: Backend::Auto,
        grid: Some(tick_grid()),
        shards: 1,
        telemetry: false,
    }
}

// Canonical frames take the fast parser; anything else falls back to
// the generic codec, exactly as the daemon does.
fn decode_request(bytes: &[u8]) -> Option<(Request, bool)> {
    if let Some((request, _)) = fast::parse_request_traced(bytes) {
        return Some((request, true));
    }
    let value = serde_json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    Request::from_traced_value(&value)
        .ok()
        .map(|(request, _)| (request, false))
}

fn decode_response(bytes: &[u8]) -> Option<Response> {
    if let Some((response, _)) = fast::parse_response_traced(bytes) {
        return Some(response);
    }
    let value = serde_json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    Response::from_traced_value(&value)
        .ok()
        .map(|(response, _)| response)
}

/// Drives whole lifetimes of `inputs` through the chain until at least
/// `min_frames` frames went through, then reads the last lifetime's
/// journal back. `dir` holds the journal and is removed afterwards.
/// `slowdown` samples the host-speed probe between lifetimes and around
/// each read-back repetition.
pub fn layer_pass(
    w: &WorkloadSpec,
    inputs: &Inputs,
    dir: &Path,
    min_frames: usize,
    origin: Instant,
    mut slowdown: impl FnMut() -> Result<f64, String>,
) -> Result<LayerPass, String> {
    let io = |e: std::io::Error| format!("layer pass journal {}: {e}", dir.display());
    let frames_per_lifetime = inputs.events.len().div_ceil(w.frame_events);
    let lifetimes = min_frames.div_ceil(frames_per_lifetime).max(1);
    let mut pass = LayerPass {
        log: SpanLog::new(origin, lifetimes * frames_per_lifetime * 16 + 4 * REPS),
        frames_per_lifetime,
        slowdowns: Vec::with_capacity(lifetimes),
        frames: 0,
        events: 0,
        request_bytes: 0,
        fast_parsed: 0,
        journal_appends: 0,
        journal_events: 0,
        journal_bytes_per_event: 0.0,
        journal_read_events_per_s: Summary::single(0.0),
        recover_events_per_s: Summary::single(0.0),
        tally: Tally::default(),
    };
    let (mut request, mut wire, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let (mut response, mut back) = (Vec::new(), Vec::new());
    let single = w.frame_events == 1;
    let mut before = slowdown()?;
    for _ in 0..lifetimes {
        let mut tenant =
            Tenant::create(&hello(w), Quotas::unlimited(), None).map_err(|e| e.to_string())?;
        let mut journal = w
            .journal
            .then(|| Journal::create(dir, &journal_header()))
            .transpose()
            .map_err(io)?;
        for frame in inputs.events.chunks(w.frame_events) {
            pass.frames += 1;
            pass.events += frame.len() as u64;
            pass.tally.attempted += 1;
            let id = pass.frames;
            let frame_start = Instant::now();
            let ((), enc_start, enc) = timed(|| {
                request.clear();
                if single {
                    fast::write_event_request(&mut request, &frame[0]);
                } else {
                    fast::write_batch_request(&mut request, frame);
                }
            });
            pass.request_bytes += request.len() as u64;
            let (written, wf_start, wf) = timed(|| {
                wire.clear();
                write_frame_bytes(&mut wire, &request)
            });
            let (read, rf_start, rf) = timed(|| read_frame_raw(&mut &wire[..], &mut scratch));
            written
                .and(read)
                .map_err(|e| format!("framing failed: {e}"))?;
            let (decoded, dec_start, dec) = timed(|| decode_request(&scratch));
            let Some((decoded, fast_path)) = decoded else {
                return Err("a benchmark frame did not decode".to_string());
            };
            pass.fast_parsed += fast_path as u64;
            let mut span = RequestSpan::new(
                if single { "event" } else { "batch" },
                frame.len() as u64,
                None,
                dec.as_nanos() as u64,
            );
            let (placed, tenant_start, tenant_dur) = timed(|| match &decoded {
                Request::Event(event) => tenant.apply(event, &mut span).map(|bin| vec![bin]),
                Request::Batch(events) => tenant.batch(events, &mut span),
                _ => unreachable!("placement frames decode to placement requests"),
            });
            // A refusal at admission is a failed frame, as on the wire.
            let Ok(bins) = placed else {
                pass.tally.failed += 1;
                break;
            };
            let appended = match &mut journal {
                Some(journal) => {
                    let (appended, start, dur) = timed(|| journal.append(frame));
                    appended.map_err(io)?;
                    pass.journal_appends += 1;
                    pass.journal_events += frame.len() as u64;
                    Some((start, dur))
                }
                None => None,
            };
            let ((), er_start, er) = timed(|| {
                response.clear();
                if single {
                    fast::write_bin_response(&mut response, bins[0]);
                } else {
                    fast::write_bins_response(&mut response, &bins);
                }
            });
            let (written, wr_start, wr) = timed(|| {
                wire.clear();
                write_frame_bytes(&mut wire, &response)
            });
            let (read, rr_start, rr) = timed(|| read_frame_raw(&mut &wire[..], &mut back));
            written
                .and(read)
                .map_err(|e| format!("framing failed: {e}"))?;
            let (answer, dr_start, dr) = timed(|| decode_response(&back));
            let total = frame_start.elapsed();
            let expected = if single {
                Response::Bin(bins[0])
            } else {
                Response::Bins(bins)
            };
            if answer.as_ref() != Some(&expected) {
                pass.tally.mismatches += 1;
            }

            let log = &mut pass.log;
            let root = log.record(FRAME, None, id, frame_start, total);
            for (name, start, dur) in [
                (ENCODE_REQUEST, enc_start, enc),
                (WRITE_FRAME, wf_start, wf),
                (READ_FRAME, rf_start, rf),
                (DECODE_REQUEST, dec_start, dec),
            ] {
                log.record(name, Some(root), id, start, dur);
            }
            let parent = log.record(TENANT, Some(root), id, tenant_start, tenant_dur);
            // The tenant timed its own phases as durations; lay them
            // out back to back from the call's start.
            let mut at = log.offset(tenant_start);
            for (name, phase) in [(QUOTA, Phase::Quota), (SESSION, Phase::Apply)] {
                let ns = span.phase_ns[phase as usize];
                log.record_at(name, Some(parent), id, at, ns);
                at += ns;
            }
            if let Some((start, dur)) = appended {
                log.record(JOURNAL, Some(root), id, start, dur);
            }
            for (name, start, dur) in [
                (ENCODE_RESPONSE, er_start, er),
                (WRITE_FRAME, wr_start, wr),
                (READ_FRAME, rr_start, rr),
                (DECODE_RESPONSE, dr_start, dr),
            ] {
                log.record(name, Some(root), id, start, dur);
            }
        }
        let after = slowdown()?;
        pass.slowdowns.push((before + after) / 2.0);
        before = after;
        pass.tally.attempted += 1;
        match tenant.finish() {
            Ok(outcomes) if outcomes.len() == 1 && outcomes[0] == inputs.reference.outcome => {}
            Ok(_) => pass.tally.mismatches += 1,
            Err(_) => pass.tally.failed += 1,
        }
    }
    if !w.journal {
        // The journal rung: one more lifetime's frames, appended on
        // their own, numbered as the frames of one more lifetime.
        let mut journal = Journal::create(dir, &journal_header()).map_err(io)?;
        for (id, frame) in (pass.frames + 1..).zip(inputs.events.chunks(w.frame_events)) {
            let (appended, start, dur) = timed(|| journal.append(frame));
            appended.map_err(io)?;
            pass.journal_appends += 1;
            pass.journal_events += frame.len() as u64;
            pass.log.record(JOURNAL, None, id, start, dur);
        }
        let after = slowdown()?;
        pass.slowdowns.push((before + after) / 2.0);
    }

    let path = journal_path(dir, TENANT_NAME);
    let lifetime_events = inputs.events.len() as f64;
    pass.journal_bytes_per_event =
        std::fs::metadata(&path).map_err(io)?.len() as f64 / lifetime_events;
    let (mut read_rates, mut recover_rates) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (recovered, start, dur, s) = timed_scaled(&mut slowdown, || read_journal(&path))?;
        let recovered = recovered.map_err(io)?;
        pass.log.record("server.read_journal", None, 0, start, dur);
        read_rates.push(lifetime_events * s / dur.as_secs_f64());
        let (tenant, start, dur, s) = timed_scaled(&mut slowdown, || {
            Tenant::recover(recovered, Quotas::unlimited(), dir)
        })?;
        let tenant = tenant.map_err(|e| e.to_string())?;
        pass.log.record("server.recover", None, 0, start, dur);
        recover_rates.push(lifetime_events * s / dur.as_secs_f64());
        pass.tally.attempted += 1;
        if tenant.accepted() != inputs.events.len() as u64 {
            pass.tally.mismatches += 1;
        }
    }
    pass.journal_read_events_per_s = Summary::of(&read_rates);
    pass.recover_events_per_s = Summary::of(&recover_rates);
    std::fs::remove_dir_all(dir).map_err(io)?;
    Ok(pass)
}

impl LayerPass {
    /// The host's slowdown around frame `frame` (1-based).
    fn slowdown_at(&self, frame: u64) -> f64 {
        self.slowdowns[(frame as usize - 1) / self.frames_per_lifetime]
    }

    /// Median over frames of each named stage's per-frame total, scaled
    /// (a stage entered twice in a frame, like framing, is summed). The
    /// journal rung's frames count for the journal only.
    pub fn stage_medians(&self) -> BTreeMap<&'static str, f64> {
        let mut per_frame: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut current: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut frame = 0;
        let mut flush = |current: &mut BTreeMap<&'static str, u64>, frame: u64| {
            for (name, ns) in std::mem::take(current) {
                let scaled = ns as f64 / self.slowdown_at(frame);
                per_frame.entry(name).or_default().push(scaled);
            }
        };
        for span in self.log.spans().iter().filter(|s| s.frame > 0) {
            if span.frame != frame {
                if frame > 0 {
                    flush(&mut current, frame);
                }
                frame = span.frame;
            }
            *current.entry(span.name).or_default() += span.dur_ns;
        }
        if frame > 0 {
            flush(&mut current, frame);
        }
        per_frame
            .into_iter()
            .map(|(name, values)| (name, median(&values)))
            .collect()
    }

    /// Per frame position within a lifetime, the median over the pass's
    /// lifetimes of the time the served path spends in its stages,
    /// scaled: the calls directly under the frame's root span, the
    /// journal append only when the workload journals.
    pub fn served_ns_by_position(&self, journal: bool) -> Vec<f64> {
        let spans = self.log.spans();
        let mut per_frame = vec![0u64; self.frames as usize];
        for s in spans {
            let under_root = s
                .parent
                .is_some_and(|p| spans[p as usize - 1].name == FRAME);
            if under_root && (journal || s.name != JOURNAL) {
                per_frame[s.frame as usize - 1] += s.dur_ns;
            }
        }
        let samples = (1..)
            .zip(per_frame)
            .map(|(frame, ns)| (frame, ns as f64 / self.slowdown_at(frame)));
        median_by_position(samples, self.frames_per_lifetime)
    }
}

/// The engine rungs under the tenant, timed on the lifetime instance
/// and scaled.
#[derive(Debug)]
pub struct CoreRungs {
    /// `CompiledInstance::compile`, milliseconds per repetition.
    pub compile_ms: Summary,
    /// `CompiledInstance::run(FirstFit)`, nanoseconds per event.
    pub tick_ns_per_event: Summary,
    /// `Session::ingest` of the rendered stream, nanoseconds per event.
    pub session_ns_per_event: Summary,
    /// Outcome checks.
    pub tally: Tally,
}

/// Times compile, compiled replay and session ingest, [`REPS`] times
/// each between `slowdown` samples, checking every outcome against the
/// reference.
pub fn core_rungs(
    inputs: &Inputs,
    log: &mut SpanLog,
    mut slowdown: impl FnMut() -> Result<f64, String>,
) -> Result<CoreRungs, String> {
    let events = inputs.events.len() as f64;
    let mut tally = Tally::default();
    let mut check = |ok: bool| {
        tally.attempted += 1;
        tally.mismatches += (!ok) as u64;
    };
    let (mut compile, mut tick, mut session) = (Vec::new(), Vec::new(), Vec::new());
    let mut compiled = None;
    for _ in 0..REPS {
        let (c, start, dur, s) = timed_scaled(&mut slowdown, || {
            CompiledInstance::compile(&inputs.instance)
        })?;
        log.record("core.tick.compile", None, 0, start, dur);
        compile.push(dur.as_secs_f64() * 1e3 / s);
        compiled = Some(c.map_err(|e| format!("compile failed: {e}"))?);
    }
    let compiled = compiled.expect("REPS > 0");
    for _ in 0..REPS {
        let (outcome, start, dur, s) =
            timed_scaled(&mut slowdown, || compiled.run(TickPolicy::FirstFit))?;
        log.record("core.tick.run", None, 0, start, dur);
        tick.push(dur.as_nanos() as f64 / s / events);
        check(outcome.as_ref() == Ok(&inputs.reference.outcome));
    }
    for _ in 0..REPS {
        let mut sess = Session::builder(FirstFit::new())
            .grid(tick_grid())
            .without_checkpoints()
            .build()
            .expect("First Fit runs on the tick grid");
        let (ingested, start, dur, s) =
            timed_scaled(&mut slowdown, || sess.ingest(&inputs.events))?;
        log.record("core.session.ingest", None, 0, start, dur);
        session.push(dur.as_nanos() as f64 / s / events);
        check(ingested.is_ok() && sess.finish().as_ref() == Ok(&inputs.reference.outcome));
    }
    Ok(CoreRungs {
        compile_ms: Summary::of(&compile),
        tick_ns_per_event: Summary::of(&tick),
        session_ns_per_event: Summary::of(&session),
        tally,
    })
}
