//! A closed-loop client over loopback: tenant lifetimes, timed windows,
//! daemon cold starts and crash recovery.
//!
//! The loop is closed — a client sends its next frame only after the
//! previous placement came back — because a cluster scheduler waits
//! for the placement before it boots the VM.

use crate::daemon::Daemon;
use crate::trace::SpanLog;
use crate::workload::{
    tick_grid, Inputs, WorkloadSpec, RECOVERY_FRAME_EVENTS, RECOVERY_REPS, RECOVERY_TENANTS,
};
use dbp_core::Event;
use dbp_server::{Client, ClientError};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Frames attempted and failed, and outcomes that differed from the
/// reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Frames sent (hello and finish included).
    pub attempted: u64,
    /// Frames that failed or were refused.
    pub failed: u64,
    /// Finished lifetimes (or replays, or recovered tenants) whose
    /// result differed from the reference.
    pub mismatches: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// One timed window: events placed, time taken, and every frame's
/// round trip (for replay: every call's duration), sorted. Timings are
/// scaled to nominal host speed piece by piece (see [`crate::speed`]).
#[derive(Debug)]
pub struct Window {
    /// Timed seconds, scaled: the streaming phases (serve) or the
    /// calls (replay).
    pub seconds: f64,
    /// The same seconds as measured.
    pub measured_seconds: f64,
    /// Events placed.
    pub events: u64,
    /// Per-frame latency samples in nanoseconds, scaled, ascending.
    pub latency_ns: Vec<u64>,
    /// The host's slowdown around each piece of timed work (lifetime
    /// or call), in order.
    pub slowdowns: Vec<f64>,
    /// Frame and outcome checks.
    pub tally: Tally,
    /// The `transport.rtt` spans (as measured), when traced.
    pub log: Option<SpanLog>,
}

impl Window {
    /// An empty window for `samples` latency samples.
    pub fn new(samples: usize, log: Option<SpanLog>) -> Window {
        Window {
            seconds: 0.0,
            measured_seconds: 0.0,
            events: 0,
            latency_ns: Vec::with_capacity(samples),
            slowdowns: Vec::new(),
            tally: Tally::default(),
            log,
        }
    }

    /// Events per second over the window, scaled.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.seconds
    }

    /// Events per second over the window, as measured.
    pub fn measured_events_per_s(&self) -> f64 {
        self.events as f64 / self.measured_seconds
    }

    /// Adds one piece of timed work — `seconds` as measured, `events`
    /// placed, its latency samples from index `first_sample` on — that
    /// ran at `slowdown` times nominal.
    pub fn add(&mut self, seconds: f64, events: u64, first_sample: usize, slowdown: f64) {
        self.measured_seconds += seconds;
        self.seconds += seconds / slowdown;
        self.slowdowns.push(slowdown);
        self.events += events;
        for ns in &mut self.latency_ns[first_sample..] {
            *ns = (*ns as f64 / slowdown).round() as u64;
        }
    }
}

fn connect(addr: SocketAddr, tenant: &str, journal: bool) -> Result<Client, ClientError> {
    let mut builder = Client::builder("firstfit").tenant(tenant).grid(tick_grid());
    if !journal {
        builder = builder.without_journal();
    }
    builder.connect(addr)
}

/// Hello for one lifetime; a failed or refused hello is a failed frame.
fn attach(addr: SocketAddr, tenant: &str, w: &WorkloadSpec, tally: &mut Tally) -> Option<Client> {
    tally.attempted += 1;
    let client = connect(addr, tenant, w.journal).ok();
    tally.failed += client.is_none() as u64;
    client
}

/// A lifetime's whole stream, one closed-loop round trip per frame;
/// stops at the first failed frame.
fn stream_lifetime(
    client: &mut Client,
    w: &WorkloadSpec,
    inputs: &Inputs,
    window: &mut Window,
) -> Tally {
    let mut tally = Tally::default();
    for frame in inputs.events.chunks(w.frame_events) {
        tally.attempted += 1;
        let start = Instant::now();
        let placed = if w.frame_events == 1 {
            client.apply(&frame[0]).is_ok()
        } else {
            client.ingest(frame).is_ok()
        };
        let elapsed = start.elapsed();
        window.latency_ns.push(elapsed.as_nanos() as u64);
        if let Some(log) = &mut window.log {
            let id = window.latency_ns.len() as u64;
            log.record("transport.rtt", None, id, start, elapsed);
        }
        if !placed {
            tally.failed += 1;
            break;
        }
    }
    tally
}

/// `finish`, with the outcome checked against the reference.
fn finish(client: Client, inputs: &Inputs) -> Tally {
    let mut tally = Tally {
        attempted: 1,
        ..Tally::default()
    };
    match client.finish() {
        Ok(outcomes) if outcomes.len() == 1 && outcomes[0] == inputs.reference.outcome => {}
        Ok(_) => tally.mismatches += 1,
        Err(_) => tally.failed += 1,
    }
    tally
}

/// The tenant every lifetime attaches; `finish` removes it, so each
/// lifetime starts from an empty session.
const TENANT: &str = "bench";

/// One lifetime: hello, the stream, `finish`. Only the stream is timed,
/// because `finish` returns the full outcome through the generic codec
/// (~3 µs per item), an artifact of the short benchmark lifetimes that
/// would otherwise drown the placement path. Returns the streaming
/// seconds.
fn lifetime(
    addr: SocketAddr,
    w: &WorkloadSpec,
    inputs: &Inputs,
    window: &mut Window,
    tally: &mut Tally,
) -> f64 {
    let Some(mut client) = attach(addr, TENANT, w, tally) else {
        return 0.0;
    };
    let start = Instant::now();
    *tally += stream_lifetime(&mut client, w, inputs, window);
    let seconds = start.elapsed().as_secs_f64();
    if tally.failed == 0 {
        *tally += finish(client, inputs);
    }
    seconds
}

/// Runs back-to-back lifetimes for `seconds`, untimed (fills caches,
/// the daemon's allocator and the page cache).
pub fn warm_up(addr: SocketAddr, w: &WorkloadSpec, inputs: &Inputs, seconds: f64) -> Tally {
    let mut window = Window::new(inputs.events.len().div_ceil(w.frame_events), None);
    let mut tally = Tally::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && tally.failed == 0 {
        window.latency_ns.clear();
        lifetime(addr, w, inputs, &mut window, &mut tally);
    }
    tally
}

/// One timed window: `lifetimes` back-to-back tenant lifetimes on one
/// connection each, each scaled by the mean of the `slowdown` samples
/// taken before and after it. When `origin` is set, each round trip is
/// also kept as a `transport.rtt` span.
pub fn window(
    addr: SocketAddr,
    w: &WorkloadSpec,
    inputs: &Inputs,
    lifetimes: usize,
    origin: Option<Instant>,
    mut slowdown: impl FnMut() -> Result<f64, String>,
) -> Result<Window, String> {
    let frames = lifetimes * inputs.events.len().div_ceil(w.frame_events);
    let mut window = Window::new(frames, origin.map(|o| SpanLog::new(o, frames)));
    let mut tally = Tally::default();
    let mut before = slowdown()?;
    for _ in 0..lifetimes {
        let first = window.latency_ns.len();
        let seconds = lifetime(addr, w, inputs, &mut window, &mut tally);
        let after = slowdown()?;
        window.add(
            seconds,
            inputs.events.len() as u64,
            first,
            (before + after) / 2.0,
        );
        before = after;
        if tally.failed > 0 {
            break;
        }
    }
    window.latency_ns.sort_unstable();
    window.tally = tally;
    Ok(window)
}

/// One daemon cold start: spawn → ready (address printed: listener
/// bound, journals scanned, accept loop running), in seconds. The
/// daemon must then acknowledge a hello, checked but untimed: the first
/// hello waits for the accept loop's 5 ms poll about half the time,
/// which would make the timing bimodal (~1 ms or ~6 ms).
pub fn cold_start(exe: &Path) -> Result<(f64, Tally), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(exe, None)?;
    let seconds = start.elapsed().as_secs_f64();
    let tally = Tally {
        attempted: 1,
        failed: connect(daemon.addr, "cold", false).is_err() as u64,
        mismatches: 0,
    };
    Ok((seconds, tally))
}

/// Streams `events` into one tenant in recovery-sized frames, without
/// finishing it.
fn stream(client: &mut Client, events: &[Event]) -> Tally {
    let mut tally = Tally::default();
    for frame in events.chunks(RECOVERY_FRAME_EVENTS) {
        tally.attempted += 1;
        if client.ingest(frame).is_err() {
            tally.failed += 1;
            break;
        }
    }
    tally
}

fn recovery_tenant(i: usize) -> String {
    format!("recover{i}")
}

/// Restores the recovery tenants, one after the other, on a
/// just-restarted daemon: a journaled tenant must come back holding
/// every event; a journal-less one comes back empty and its client
/// streams the events again.
fn restore(addr: SocketAddr, w: &WorkloadSpec, inputs: &Inputs) -> Tally {
    let mut tally = Tally::default();
    for i in 0..RECOVERY_TENANTS {
        let Some(mut client) = attach(addr, &recovery_tenant(i), w, &mut tally) else {
            continue;
        };
        let resumed = client.resumed_events();
        if resumed
            != if w.journal {
                inputs.recovery.len() as u64
            } else {
                0
            }
        {
            tally.mismatches += 1;
        } else if !w.journal {
            tally += stream(&mut client, &inputs.recovery);
        }
    }
    tally
}

/// The recovery phase: (journaled workloads) load every recovery
/// tenant, then [`RECOVERY_REPS`] times SIGKILL the daemon, restart it
/// on the same journal directory and time restart → every tenant
/// restored. Each repetition is scaled by the mean of the `slowdown`
/// samples taken before the restart (no daemon running) and after the
/// restore (the restored daemon). Scaled seconds per repetition.
pub fn recovery(
    exe: &Path,
    w: &WorkloadSpec,
    inputs: &Inputs,
    journal_dir: Option<&Path>,
    mut slowdown: impl FnMut(Option<&Daemon>) -> Result<f64, String>,
) -> Result<(Vec<f64>, Tally), String> {
    let mut daemon = Daemon::spawn(exe, journal_dir)?;
    let mut tally = Tally::default();
    if w.journal {
        for i in 0..RECOVERY_TENANTS {
            if let Some(mut client) = attach(daemon.addr, &recovery_tenant(i), w, &mut tally) {
                tally += stream(&mut client, &inputs.recovery);
            }
        }
    }
    let mut seconds = Vec::with_capacity(RECOVERY_REPS);
    for _ in 0..RECOVERY_REPS {
        drop(daemon);
        let before = slowdown(None)?;
        let start = Instant::now();
        daemon = Daemon::spawn(exe, journal_dir)?;
        tally += restore(daemon.addr, w, inputs);
        let measured = start.elapsed().as_secs_f64();
        let after = slowdown(Some(&daemon))?;
        seconds.push(measured / ((before + after) / 2.0));
    }
    Ok((seconds, tally))
}
