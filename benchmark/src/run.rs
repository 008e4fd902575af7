//! One run of one workload: set-up, warm-up, timed windows, and either
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Every timing is scaled by the host-speed probe sampled around the
//! piece of work it covers (see [`crate::speed`]); spans written to
//! trace files keep the durations as measured.

use crate::daemon::{self, Daemon};
use crate::layers::{self, CoreRungs, LayerPass};
use crate::serve::{self, Tally, Window};
use crate::spec::Spec;
use crate::speed::{Gauge, Probe};
use crate::stats::{median, median_by_position, quantile, Summary};
use crate::trace::{self, SpanLog};
use crate::workload::{
    tick_grid, Inputs, Kind, WorkloadSpec, RECOVERY_PROBE, RECOVERY_REPS, RECOVERY_TENANTS,
};
use dbp_core::{CompiledInstance, FirstFit, Session, TickPolicy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Lifetimes of replay's frames served over a socket in a traced
/// replay run, for its transport rung.
const REPLAY_TRANSPORT_LIFETIMES: usize = 4;

/// Echo samples a traced run takes for `transport.echo_p50_us` on top
/// of any its windows took.
const ECHO_SAMPLES: usize = 9;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload (possibly scaled down, in tests).
    pub spec: WorkloadSpec,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed windows (at least `min_windows` run).
    pub seconds: f64,
    /// Untimed warm-up seconds before the first window.
    pub warmup: f64,
    /// Fewest timed windows (traced: fewest untraced/traced pairs).
    pub min_windows: usize,
    /// Set-up repetitions (daemon cold starts, or compiles).
    pub cold_starts: usize,
    /// Report per-layer (traced) instead of end-to-end metrics.
    pub traced: bool,
    /// Frames the layer pass drives at least.
    pub layer_frames: usize,
    /// This binary, re-executed as the daemon child.
    pub exe: PathBuf,
    /// Where traces, results and scratch journals go.
    pub out_dir: PathBuf,
}

impl Plan {
    /// The protocol's defaults: 2 s warm-up, at least 3 windows, 41
    /// set-up repetitions (each a few milliseconds; many make the median
    /// steady).
    pub fn new(spec: &WorkloadSpec, seed: u64, seconds: f64, traced: bool, exe: PathBuf) -> Plan {
        Plan {
            spec: spec.clone(),
            seed,
            seconds,
            warmup: 2.0,
            min_windows: 3,
            cold_starts: 41,
            traced,
            layer_frames: 2_000,
            exe,
            out_dir: PathBuf::from("target/benchmark"),
        }
    }

    fn scratch(&self, what: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}-{what}-{}", self.spec.name, std::process::id()))
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Per-layer (traced) or end-to-end run.
    pub traced: bool,
    /// Input seed.
    pub seed: u64,
    /// Frames attempted and failed, outcome mismatches.
    pub tally: Tally,
    /// Timed windows run.
    pub windows: usize,
    /// Events per timed window.
    pub events_per_window: u64,
    /// Every reported metric, in contract order.
    pub metrics: Vec<(String, Summary)>,
    /// Printed-only diagnostics (ungated quantiles, the layer split).
    pub notes: Vec<String>,
}

impl RunResult {
    /// No frame failed and every outcome matched the reference.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.mismatches == 0
    }

    /// The summary of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find_map(|(n, s)| (n == name).then_some(s))
    }
}

/// Runs `plan` on `inputs` (built from `plan.seed` — tests may hand in
/// altered ones to check that the correctness gate fires).
pub fn run(plan: &Plan, inputs: &Inputs) -> Result<RunResult, String> {
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("{}: {e}", plan.out_dir.display()))?;
    let measured = match (plan.spec.kind, plan.traced) {
        (Kind::Serve, false) => serve_end_to_end(plan, inputs)?,
        (Kind::Replay, false) => replay_end_to_end(plan, inputs)?,
        (_, true) => traced(plan, inputs)?,
    };
    let mut by_name = measured.metrics;
    let mut metrics = Vec::new();
    for spec in Spec::get().reported(plan.traced) {
        let summary = by_name
            .remove(spec.name.as_str())
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        metrics.push((spec.name.clone(), summary));
    }
    Ok(RunResult {
        workload: plan.spec.name,
        traced: plan.traced,
        seed: plan.seed,
        tally: measured.tally,
        windows: measured.windows,
        events_per_window: plan.spec.events_per_window(),
        metrics,
        notes: measured.notes,
    })
}

struct Measured {
    tally: Tally,
    windows: usize,
    metrics: BTreeMap<&'static str, Summary>,
    notes: Vec<String>,
}

fn clean(w: &Window) -> bool {
    w.tally.failed == 0 && w.tally.mismatches == 0
}

/// Windows until `plan.seconds` have passed and at least
/// `plan.min_windows` ran, stopping early on a failed check, with the
/// `plan.cold_starts` set-up repetitions spread evenly over that time
/// between windows: slow stretches of the host come and go within
/// seconds, and a burst of repetitions would catch one whole. Both
/// closures get `gauge`.
fn timed_windows(
    plan: &Plan,
    gauge: &mut Gauge,
    mut window: impl FnMut(&mut Gauge) -> Result<Window, String>,
    mut setup: impl FnMut(&mut Gauge) -> Result<(), String>,
) -> Result<Vec<Window>, String> {
    let start = Instant::now();
    let mut windows: Vec<Window> = Vec::new();
    let mut setups = 0;
    while windows.len() < plan.min_windows || start.elapsed().as_secs_f64() < plan.seconds {
        let w = window(gauge)?;
        let ok = clean(&w);
        windows.push(w);
        if !ok {
            break;
        }
        let share = start.elapsed().as_secs_f64() / plan.seconds;
        let due = (plan.cold_starts as f64 * share).ceil() as usize;
        while setups < due.min(plan.cold_starts) {
            setup(gauge)?;
            setups += 1;
        }
    }
    for _ in setups..plan.cold_starts {
        setup(gauge)?;
    }
    Ok(windows)
}

fn tally_of(windows: &[Window]) -> Tally {
    let mut tally = Tally::default();
    for w in windows {
        tally += w.tally;
    }
    tally
}

/// `events_per_s` and `latency_p50_us` over windows, with the
/// ungated tail, the sample counts and the throughput as measured as a
/// note. The tail is printed, not gated: window p99s swing between 18
/// and 40 us within one run as the host interferes, so a run's p99
/// moves by more than any useful bound between runs. It is taken over
/// every frame of the run, at each quantile with at least ten samples
/// beyond it.
fn window_metrics(windows: &[Window], m: &mut BTreeMap<&'static str, Summary>) -> String {
    let per = |f: &dyn Fn(&Window) -> f64| Summary::of(&windows.iter().map(f).collect::<Vec<_>>());
    m.insert("events_per_s", per(&Window::events_per_s));
    m.insert(
        "latency_p50_us",
        per(&|w| quantile(&w.latency_ns, 500) as f64 / 1e3),
    );
    let mut all: Vec<u64> = windows.iter().flat_map(|w| w.latency_ns.clone()).collect();
    all.sort_unstable();
    let tail: Vec<String> = [(990, "p99"), (999, "p99.9")]
        .into_iter()
        .filter(|&(per_mille, _)| all.len() as u64 * (1000 - per_mille) >= 10_000)
        .map(|(per_mille, name)| format!("{name} {:.2} us", quantile(&all, per_mille) as f64 / 1e3))
        .collect();
    format!(
        "latency p50 {:.2} us (median over {} windows of {:.0} samples); tail over all {} \
         samples, ungated: {}; as measured, before scaling: {:.1} events/s",
        m["latency_p50_us"].median,
        windows.len(),
        per(&|w| w.latency_ns.len() as f64).median,
        all.len(),
        if tail.is_empty() {
            "too few samples".to_string()
        } else {
            tail.join(", ")
        },
        per(&Window::measured_events_per_s).median,
    )
}

fn remove_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn serve_end_to_end(plan: &Plan, inputs: &Inputs) -> Result<Measured, String> {
    let w = &plan.spec;
    let journal = w.journal.then(|| plan.scratch("journal"));
    let daemon = Daemon::spawn(&plan.exe, journal.as_deref())?;
    let mut gauge = Gauge::start()?;
    let mut tally = serve::warm_up(daemon.addr, w, inputs, plan.warmup);
    let mut setup = Vec::with_capacity(plan.cold_starts);
    let windows = timed_windows(
        plan,
        &mut gauge,
        |gauge| {
            serve::window(daemon.addr, w, inputs, w.lifetimes_per_window, None, || {
                gauge.sample(w.window_probe, Some(&daemon))
            })
        },
        |gauge| {
            let (seconds, checks) = serve::cold_start(&plan.exe)?;
            setup.push(seconds / gauge.sample(w.setup_probe(), Some(&daemon))?);
            tally += checks;
            Ok(())
        },
    )?;
    let rss = daemon.peak_rss_mib()?;
    drop(daemon);
    remove_dir(journal.as_deref());
    tally += tally_of(&windows);

    let recovery_dir = w.journal.then(|| plan.scratch("recovery"));
    let recovered = serve::recovery(&plan.exe, w, inputs, recovery_dir.as_deref(), |daemon| {
        gauge.sample(RECOVERY_PROBE, daemon)
    });
    remove_dir(recovery_dir.as_deref());
    let (recovery, recovery_tally) = recovered?;
    tally += recovery_tally;

    let mut m = BTreeMap::new();
    let note = window_metrics(&windows, &mut m);
    m.insert("setup_s", Summary::of(&setup));
    m.insert("recovery_s", Summary::of(&recovery));
    m.insert("rss_peak_mb", Summary::single(rss));
    m.insert(
        "usage_over_lb",
        Summary::single(inputs.reference.usage_over_lb),
    );
    Ok(Measured {
        tally,
        windows: windows.len(),
        metrics: m,
        notes: vec![note, gauge.note()],
    })
}

/// `calls` compiled replays, each timed as one latency sample and
/// scaled by the mean of the `slowdown` samples taken before and after
/// it; the window's time is the sum of the calls (the outcome checks
/// between calls are not timed). When `origin` is set, each call is
/// also kept as a `core.tick.run` span.
fn replay_window(
    compiled: &CompiledInstance,
    inputs: &Inputs,
    calls: usize,
    origin: Option<Instant>,
    mut slowdown: impl FnMut() -> Result<f64, String>,
) -> Result<Window, String> {
    let mut window = Window::new(calls, origin.map(|o| SpanLog::new(o, calls)));
    let mut before = slowdown()?;
    for call in 0..calls {
        let start = Instant::now();
        let outcome = compiled.run(TickPolicy::FirstFit);
        let elapsed = start.elapsed();
        if let Some(log) = &mut window.log {
            log.record("core.tick.run", None, call as u64 + 1, start, elapsed);
        }
        window.latency_ns.push(elapsed.as_nanos() as u64);
        let after = slowdown()?;
        window.add(
            elapsed.as_secs_f64(),
            inputs.events.len() as u64,
            call,
            (before + after) / 2.0,
        );
        before = after;
        window.tally.attempted += 1;
        match outcome {
            Ok(outcome) if outcome == inputs.reference.outcome => {}
            Ok(_) => window.tally.mismatches += 1,
            Err(_) => window.tally.failed += 1,
        }
    }
    window.latency_ns.sort_unstable();
    Ok(window)
}

fn compile(inputs: &Inputs) -> Result<CompiledInstance, String> {
    CompiledInstance::compile(&inputs.instance).map_err(|e| format!("compile failed: {e}"))
}

fn replay_warm_up(
    plan: &Plan,
    compiled: &CompiledInstance,
    inputs: &Inputs,
) -> Result<Tally, String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    while start.elapsed().as_secs_f64() < plan.warmup {
        tally += replay_window(compiled, inputs, 1, None, || Ok(1.0))?.tally;
    }
    Ok(tally)
}

fn replay_end_to_end(plan: &Plan, inputs: &Inputs) -> Result<Measured, String> {
    let w = &plan.spec;
    let compiled = compile(inputs)?;
    let mut gauge = Gauge::start()?;
    let mut tally = replay_warm_up(plan, &compiled, inputs)?;
    let mut setup = Vec::with_capacity(plan.cold_starts);
    let windows = timed_windows(
        plan,
        &mut gauge,
        |gauge| {
            replay_window(&compiled, inputs, w.lifetimes_per_window, None, || {
                gauge.sample(w.window_probe, None)
            })
        },
        |gauge| {
            let start = Instant::now();
            let again = compile(inputs)?;
            let seconds = start.elapsed().as_secs_f64();
            drop(again);
            setup.push(seconds / gauge.sample(w.setup_probe(), None)?);
            Ok(())
        },
    )?;
    tally += tally_of(&windows);
    let rss = daemon::peak_rss_mib("/proc/self/status")?;

    // In process, "recovery" is rebuilding every recovery tenant's
    // session from its events — the engine floor under the daemon's
    // journal replay, with no file, parse or socket on top. Each tenant
    // is scaled on its own, by the probes around it.
    let mut recovery = Vec::with_capacity(RECOVERY_REPS);
    let mut before = gauge.sample(RECOVERY_PROBE, None)?;
    for _ in 0..RECOVERY_REPS {
        let mut seconds = 0.0;
        for _ in 0..RECOVERY_TENANTS {
            let start = Instant::now();
            let mut session = Session::builder(FirstFit::new())
                .grid(tick_grid())
                .build()
                .expect("First Fit runs on the tick grid");
            tally.attempted += 1;
            if session.ingest(&inputs.recovery).is_err() {
                tally.failed += 1;
            }
            let measured = start.elapsed().as_secs_f64();
            let after = gauge.sample(RECOVERY_PROBE, None)?;
            seconds += measured / ((before + after) / 2.0);
            before = after;
        }
        recovery.push(seconds);
    }

    let mut m = BTreeMap::new();
    let note = window_metrics(&windows, &mut m);
    m.insert("setup_s", Summary::of(&setup));
    m.insert("recovery_s", Summary::of(&recovery));
    m.insert("rss_peak_mb", Summary::single(rss));
    m.insert(
        "usage_over_lb",
        Summary::single(inputs.reference.usage_over_lb),
    );
    Ok(Measured {
        tally,
        windows: windows.len(),
        metrics: m,
        notes: vec![note, gauge.note()],
    })
}

/// What a traced run's windows drive.
enum Target {
    Served(Daemon),
    Replayed(CompiledInstance),
}

/// The traced run: pairs of an untraced and a traced window, one right
/// after the other so both see the same stretch of host time, until
/// `plan.seconds` have passed; then (replay) the transport rung, the
/// layer pass and the engine rungs. Writes the spans as trace files.
fn traced(plan: &Plan, inputs: &Inputs) -> Result<Measured, String> {
    let w = &plan.spec;
    let origin = Instant::now();
    let mut gauge = Gauge::start()?;
    let journal = w.journal.then(|| plan.scratch("journal"));
    let target = match w.kind {
        Kind::Serve => Target::Served(Daemon::spawn(&plan.exe, journal.as_deref())?),
        Kind::Replay => Target::Replayed(compile(inputs)?),
    };
    let mut tally = match &target {
        Target::Served(daemon) => serve::warm_up(daemon.addr, w, inputs, plan.warmup),
        Target::Replayed(compiled) => replay_warm_up(plan, compiled, inputs)?,
    };
    let window = |gauge: &mut Gauge, origin: Option<Instant>| match &target {
        Target::Served(daemon) => serve::window(
            daemon.addr,
            w,
            inputs,
            w.lifetimes_per_window,
            origin,
            || gauge.sample(w.window_probe, Some(daemon)),
        ),
        Target::Replayed(compiled) => {
            replay_window(compiled, inputs, w.lifetimes_per_window, origin, || {
                gauge.sample(w.window_probe, None)
            })
        }
    };
    let mut overhead = Vec::new();
    let mut traced_windows = Vec::new();
    let start = Instant::now();
    while overhead.len() < plan.min_windows || start.elapsed().as_secs_f64() < plan.seconds {
        let untraced = window(&mut gauge, None)?;
        let traced = window(&mut gauge, Some(origin))?;
        tally += untraced.tally;
        tally += traced.tally;
        overhead.push(traced.events_per_s() / untraced.events_per_s());
        let ok = clean(&untraced) && clean(&traced);
        traced_windows.push(traced);
        if !ok {
            break;
        }
    }

    // Replay has no socket of its own; its frames are served over one
    // connection so that the ladder has every rung.
    let (daemon, transport) = match target {
        Target::Served(daemon) => (daemon, std::mem::take(&mut traced_windows)),
        Target::Replayed(_) => {
            let daemon = Daemon::spawn(&plan.exe, None)?;
            tally += serve::warm_up(daemon.addr, w, inputs, plan.warmup);
            let t = serve::window(
                daemon.addr,
                w,
                inputs,
                REPLAY_TRANSPORT_LIFETIMES,
                Some(origin),
                || gauge.sample(w.window_probe, Some(&daemon)),
            )?;
            tally += t.tally;
            (daemon, vec![t])
        }
    };
    for _ in 0..ECHO_SAMPLES {
        gauge.sample(Probe::Echo, Some(&daemon))?;
    }
    drop(daemon);
    remove_dir(journal.as_deref());

    let mut pass = layers::layer_pass(
        w,
        inputs,
        &plan.scratch("layers"),
        plan.layer_frames,
        origin,
        || gauge.sample(Probe::Sort, None),
    )?;
    tally += pass.tally;
    let core = layers::core_rungs(inputs, &mut pass.log, || gauge.sample(Probe::Sort, None))?;
    tally += core.tally;

    let mut m = BTreeMap::new();
    let mut notes = layer_metrics(w, inputs, &pass, &core, &transport, &mut m);
    m.insert("trace.overhead_ratio", Summary::of(&overhead));
    let echo = gauge.echo_p50_us().expect("the echo probe was sampled");
    m.insert("transport.echo_p50_us", Summary::single(echo));
    notes.push(gauge.note());

    let mut threads: Vec<(u32, &SpanLog)> = vec![(0, &pass.log)];
    let logs = traced_windows
        .iter()
        .chain(&transport)
        .filter_map(|t| t.log.as_ref());
    threads.extend((1..).zip(logs));
    trace::write(&plan.out_dir, w.name, &threads)?;
    Ok(Measured {
        tally,
        windows: 2 * overhead.len(),
        metrics: m,
        notes,
    })
}

/// Per-layer metrics from the layer pass, the engine rungs and the
/// traced round trips; returns the printed layer split.
fn layer_metrics(
    w: &WorkloadSpec,
    inputs: &Inputs,
    pass: &LayerPass,
    core: &CoreRungs,
    transport: &[Window],
    m: &mut BTreeMap<&'static str, Summary>,
) -> Vec<String> {
    use layers::*;
    let stage = pass.stage_medians();
    let ns = |name: &str| stage.get(name).copied().unwrap_or(0.0);
    let per_event = w.frame_events as f64;
    let one = Summary::single;
    m.insert("core.tick.compile_ms", core.compile_ms);
    m.insert("core.tick.ns_per_event", core.tick_ns_per_event);
    m.insert("core.session.ns_per_event", core.session_ns_per_event);
    m.insert(
        "core.session.open_bins_mean",
        one(inputs.shape.open_bins_mean),
    );
    for (metric, name) in [
        ("proto.encode_request_ns_per_event", ENCODE_REQUEST),
        ("proto.decode_request_ns_per_event", DECODE_REQUEST),
        ("proto.encode_response_ns_per_event", ENCODE_RESPONSE),
        ("proto.decode_response_ns_per_event", DECODE_RESPONSE),
        ("server.apply_ns_per_event", SESSION),
        ("server.tenant_ns_per_event", TENANT),
        ("server.journal_ns_per_event", JOURNAL),
    ] {
        m.insert(metric, one(ns(name) / per_event));
    }
    let framing = ns(WRITE_FRAME) + ns(READ_FRAME);
    m.insert("proto.framing_ns_per_frame", one(framing));
    m.insert("server.quota_ns_per_frame", one(ns(QUOTA)));
    let events = pass.events as f64;
    m.insert(
        "proto.request_bytes_per_event",
        one(pass.request_bytes as f64 / events),
    );
    m.insert(
        "proto.fast_parse_share",
        one(pass.fast_parsed as f64 / pass.frames as f64),
    );
    m.insert(
        "server.journal_flushes_per_event",
        one(pass.journal_appends as f64 / pass.journal_events as f64),
    );
    m.insert(
        "server.journal_bytes_per_event",
        one(pass.journal_bytes_per_event),
    );
    m.insert(
        "server.journal_read_events_per_s",
        pass.journal_read_events_per_s,
    );
    m.insert("server.recover_events_per_s", pass.recover_events_per_s);

    let rtt = |per_mille| {
        let per_window: Vec<f64> = transport
            .iter()
            .map(|t| quantile(&t.latency_ns, per_mille) as f64 / 1e3)
            .collect();
        Summary::of(&per_window)
    };
    let (p50, p99) = (rtt(500), rtt(990));
    m.insert("transport.rtt_p50_us", p50);
    m.insert("transport.rtt_p99_us", p99);

    // Transport self time frame by frame: the round trip at each frame
    // position minus the same frame's stage time in the layer pass, both
    // scaled. Pairing by position cancels what the frame itself costs,
    // which in a flash crowd differs tenfold between frames, so the
    // medians of the two sides alone do not subtract.
    let frames_per_lifetime = pass.frames_per_lifetime;
    let rtt_samples = transport.iter().flat_map(|t| {
        let spans = t.log.as_ref().map_or(&[][..], |log| log.spans());
        spans.iter().map(|s| {
            let lifetime = (s.frame as usize - 1) / frames_per_lifetime;
            (s.frame, s.dur_ns as f64 / t.slowdowns[lifetime])
        })
    });
    let rtt_at = median_by_position(rtt_samples, frames_per_lifetime);
    let stages_at = pass.served_ns_by_position(w.journal);
    let paired: Vec<(f64, f64)> = rtt_at
        .into_iter()
        .zip(stages_at)
        .filter(|(rtt, stages)| !rtt.is_nan() && !stages.is_nan())
        .collect();
    let (transport_self, paired_rtt) = if paired.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        let self_ns: Vec<f64> = paired.iter().map(|(rtt, stages)| rtt - stages).collect();
        let rtt_ns: Vec<f64> = paired.iter().map(|(rtt, _)| *rtt).collect();
        (median(&self_ns), median(&rtt_ns))
    };
    m.insert("transport.self_p50_us", one(transport_self / 1e3));
    m.insert("transport.self_share", one(transport_self / paired_rtt));

    // The served path's stage medians, per frame: journaling is on it
    // only when the workload journals.
    let proto = ns(ENCODE_REQUEST)
        + framing
        + ns(DECODE_REQUEST)
        + ns(ENCODE_RESPONSE)
        + ns(DECODE_RESPONSE);
    let journal = if w.journal { ns(JOURNAL) } else { 0.0 };
    let core_ns = ns(SESSION);
    let server = ns(TENANT) - core_ns + journal;

    let us = |ns: f64| ns / 1e3;
    let ev = |ns: f64| ns / per_event;
    vec![
        format!(
            "rtt p50 {:.2} us per frame: proto {:.2} + server {:.2} + core {:.2} (stage medians) \
             + transport self {:.2} (median of per-frame differences)",
            p50.median,
            us(proto),
            us(server),
            us(core_ns),
            us(transport_self)
        ),
        format!(
            "per-event ladder: replay {:.1} -> session {:.1} -> proto {:.1} -> tenant {:.1} -> \
             transport {:.1} ns/event (rtt {:.1} ns/event)",
            core.tick_ns_per_event.median,
            core.session_ns_per_event.median,
            ev(proto),
            ev(ns(TENANT) + journal),
            ev(transport_self),
            ev(p50.median * 1e3)
        ),
    ]
}
