//! The in-engine profiler: a [`PhaseProbe`] that turns the engines'
//! phase brackets into attributed self-time, folded flamegraph
//! stacks, and per-arrival work-count histograms.
//!
//! [`Profiler`] attaches through `SessionBuilder::probe` /
//! `Runner::probe` and works on **both** engines — unlike observers
//! it never forces the exact Rational engine, so a profiled
//! `Backend::Auto` run takes exactly the code path an unprofiled one
//! would, and outcomes stay bit-identical (the `prop_profiler`
//! property suite asserts this).
//!
//! What it collects:
//!
//! * **Phase self-time** — monotonic-clock spans around each
//!   [`Phase`], with child time subtracted, so the shares reported by
//!   [`phase_shares`](Profiler::phase_shares) sum to 1 and answer
//!   "where do the cycles go" directly. Span timing is paid only on
//!   *sampled* events ([`with_sampling`](Profiler::with_sampling));
//!   the default samples every event.
//! * **Folded stacks** — every sampled span also accumulates into an
//!   inferno-compatible `stack weight` line
//!   ([`folded`](Profiler::folded)), weighted by self-time
//!   nanoseconds: `inferno-flamegraph < profile.folded` renders the
//!   run as a flamegraph.
//! * **Probe counts** — the per-arrival algorithmic work counters
//!   ([`ProbeCounter`]: bins scanned, tree descent depth) land in
//!   log₂ [`Histogram`]s on every event, sampled or not.
//! * **Gcd steps** — when `dbp_numeric::gcd_stats` accounting is on
//!   (the constructor enables it), each event is charged the
//!   Euclidean remainder steps the exact arithmetic spent since the
//!   previous event: two relaxed atomic loads per event. The tally is
//!   process-wide, so concurrent exact runs bleed into each other's
//!   deltas — profile one run at a time when this counter matters.
//! * **Chrome spans** — a bounded list of completed spans
//!   ([`chrome_events`](Profiler::chrome_events)) that
//!   [`chrome_trace_with_spans`](crate::chrome::chrome_trace_with_spans)
//!   merges into the trace export, on their own process track.
//!
//! Everything exports through [`report`](Profiler::report) (terminal
//! table), [`folded`](Profiler::folded) (flamegraph text),
//! [`to_registry`](Profiler::to_registry) (the OpenMetrics/JSON
//! surface), and [`chrome_events`](Profiler::chrome_events).

use crate::metrics::{Histogram, MetricsRegistry};
use dbp_core::probe::{EventKind, Phase, PhaseProbe, ProbeCounter};
use dbp_numeric::gcd_stats;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Completed chrome spans kept per profiler; beyond this the trace
/// stays representative of the run's head rather than unbounded.
const MAX_CHROME_SPANS: usize = 10_000;

/// Accumulated self-time and span count of one phase.
#[derive(Debug, Clone, Copy, Default)]
struct SpanAcc {
    self_ns: u64,
    spans: u64,
}

/// One completed span retained for the Chrome trace export.
#[derive(Debug, Clone, Copy)]
struct ChromeSpan {
    phase: Phase,
    /// Nanoseconds since the profiler was created.
    start_ns: u64,
    /// Total (inclusive) duration.
    dur_ns: u64,
    /// Nesting depth at entry (0 = outermost), used as the track id.
    depth: u32,
}

/// An open phase frame: entry instant plus the time already
/// attributed to completed children (subtracted to get self-time).
#[derive(Debug, Clone, Copy)]
struct Frame {
    phase: Phase,
    entered: Instant,
    child_ns: u64,
}

/// A sampling self-profiler over the engines' [`PhaseProbe`] hooks.
///
/// ```
/// use dbp_core::prelude::*;
/// use dbp_numeric::rat;
/// use dbp_obs::Profiler;
///
/// let jobs = Instance::builder()
///     .item(rat(1, 2), rat(0, 1), rat(2, 1))
///     .item(rat(3, 4), rat(0, 1), rat(3, 1))
///     .build()
///     .unwrap();
/// let mut prof = Profiler::new();
/// Runner::new(&jobs)
///     .probe(&mut prof)
///     .run(&mut FirstFit::new())
///     .unwrap();
/// let shares: f64 = prof.phase_shares().iter().map(|(_, s)| s).sum();
/// assert!((shares - 1.0).abs() < 1e-9);
/// println!("{}", prof.report());
/// ```
#[derive(Debug)]
pub struct Profiler {
    /// Root frame of every folded stack (defaults to `"engine"`).
    root: String,
    /// Time every `sample_every`-th event (1 = every event).
    sample_every: u64,
    /// Events until the next sampled one.
    countdown: u64,
    /// Whether the current event's phases are being timed.
    sampling: bool,
    origin: Instant,
    events: u64,
    arrivals: u64,
    departures: u64,
    sampled_events: u64,
    spans: [SpanAcc; Phase::COUNT],
    stack: Vec<Frame>,
    /// `stack path → self-time ns`, keyed `root;phase[;phase…]`.
    folded: BTreeMap<String, u64>,
    counters: [Histogram; ProbeCounter::COUNT],
    chrome: Vec<ChromeSpan>,
    /// `gcd_stats` steps already attributed to earlier events.
    gcd_steps_seen: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A profiler that times every event, rooted at `"engine"`.
    /// Enables process-wide [`gcd_stats`] accounting so exact-engine
    /// events can be charged their Euclidean work.
    pub fn new() -> Profiler {
        gcd_stats::enable();
        let (_, steps) = gcd_stats::snapshot();
        Profiler {
            root: "engine".to_string(),
            sample_every: 1,
            countdown: 1,
            sampling: false,
            origin: Instant::now(),
            events: 0,
            arrivals: 0,
            departures: 0,
            sampled_events: 0,
            spans: [SpanAcc::default(); Phase::COUNT],
            stack: Vec::with_capacity(8),
            folded: BTreeMap::new(),
            counters: std::array::from_fn(|_| Histogram::default()),
            chrome: Vec::new(),
            gcd_steps_seen: steps,
        }
    }

    /// Times only every `n`-th event (`n ≥ 1`); probe counts are
    /// still recorded on every event. Lowers clock-read overhead on
    /// long runs at the cost of span-count resolution — shares stay
    /// unbiased because events are sampled round-robin.
    pub fn with_sampling(mut self, n: u64) -> Profiler {
        self.sample_every = n.max(1);
        self.countdown = 1; // sample the first event, then every n-th
        self
    }

    /// Renames the folded-stack root frame (default `"engine"`), so
    /// flamegraphs from different configurations merge side by side.
    pub fn with_root(mut self, root: &str) -> Profiler {
        self.root = root.to_string();
        self
    }

    /// Engine events seen (arrivals + departures).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events whose phases were clock-timed.
    pub fn sampled_events(&self) -> u64 {
        self.sampled_events
    }

    /// `(self_ns, span_count)` accumulated for `phase`.
    pub fn span(&self, phase: Phase) -> (u64, u64) {
        let acc = self.spans[phase.index()];
        (acc.self_ns, acc.spans)
    }

    /// Total attributed self-time across all phases, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(|a| a.self_ns).sum()
    }

    /// Each phase's share of the total attributed self-time, in
    /// [`Phase::ALL`] order. Shares sum to 1 once any span completed
    /// (all-zero before the first sampled event).
    pub fn phase_shares(&self) -> Vec<(Phase, f64)> {
        let total = self.total_self_ns();
        Phase::ALL
            .iter()
            .map(|&p| {
                let ns = self.spans[p.index()].self_ns;
                let share = if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                };
                (p, share)
            })
            .collect()
    }

    /// The histogram of per-event work counts for `counter` (empty
    /// until the relevant engine path reported samples).
    pub fn counter(&self, counter: ProbeCounter) -> &Histogram {
        &self.counters[counter.index()]
    }

    /// The folded-stack flamegraph text: one `stack self_ns` line per
    /// distinct phase path, inferno/`flamegraph.pl` compatible.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, ns) in &self.folded {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// A fixed-width terminal table of phase shares, span counts, and
    /// per-event work counters.
    pub fn report(&self) -> String {
        let total = self.total_self_ns();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} events ({} arrivals, {} departures), {} sampled, {:.3} ms attributed",
            self.events,
            self.arrivals,
            self.departures,
            self.sampled_events,
            total as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12} {:>10}",
            "phase", "share", "self_ns", "spans"
        );
        for (phase, share) in self.phase_shares() {
            let acc = self.spans[phase.index()];
            let _ = writeln!(
                out,
                "{:<18} {:>7.2}% {:>12} {:>10}",
                phase.name(),
                share * 100.0,
                acc.self_ns,
                acc.spans,
            );
        }
        for &c in ProbeCounter::ALL.iter() {
            let h = self.counter(c);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<18} mean {:.2} max {:.0} over {} events",
                c.name(),
                h.mean().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
                h.count(),
            );
        }
        out
    }

    /// Renders the profiler into a fresh [`MetricsRegistry`]:
    /// counters `profile_<phase>_self_ns` / `profile_<phase>_spans`
    /// and `profile_events` / `profile_sampled_events`, gauges
    /// `profile_<phase>_share`, and histograms `probe_<counter>`.
    /// Registry sections are merge-safe, so profiles of several runs
    /// fold.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc_by("profile_events", self.events);
        r.inc_by("profile_sampled_events", self.sampled_events);
        for (phase, share) in self.phase_shares() {
            let acc = self.spans[phase.index()];
            r.inc_by(&format!("profile_{}_self_ns", phase.name()), acc.self_ns);
            r.inc_by(&format!("profile_{}_spans", phase.name()), acc.spans);
            r.set_gauge(&format!("profile_{}_share", phase.name()), share);
        }
        for &c in ProbeCounter::ALL.iter() {
            let h = self.counter(c);
            if h.count() == 0 {
                continue;
            }
            r.merge_histogram(&format!("probe_{}", c.name()), h);
        }
        r
    }

    /// The retained spans as Chrome trace-event values (`ph: "X"` on
    /// process 2, one track per nesting depth), ready for
    /// [`chrome_trace_with_spans`](crate::chrome::chrome_trace_with_spans).
    /// Retention is capped at 10k spans; [`events`](Self::events)
    /// versus the exported count tells a reader when the cap bit.
    pub fn chrome_events(&self) -> Vec<Value> {
        self.chrome
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.phase.name().to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Value::Float(s.dur_ns as f64 / 1e3)),
                    ("pid".to_string(), Value::Int(2)),
                    ("tid".to_string(), Value::Int(s.depth as i128)),
                ])
            })
            .collect()
    }
}

impl PhaseProbe for Profiler {
    fn is_active(&self) -> bool {
        true
    }

    fn event(&mut self, kind: EventKind) {
        debug_assert!(self.stack.is_empty(), "phase stack leaked across events");
        self.events += 1;
        match kind {
            EventKind::Arrival => self.arrivals += 1,
            EventKind::Departure => self.departures += 1,
        }
        // Charge the Euclidean work since the previous event to this
        // one: on the tick engine the delta is structurally zero, on
        // the exact engine it is the Rational normalization cost.
        let (_, steps) = gcd_stats::snapshot();
        let delta = steps.saturating_sub(self.gcd_steps_seen);
        self.gcd_steps_seen = steps;
        self.counters[ProbeCounter::GcdSteps.index()].observe(delta as f64);
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            self.sampling = true;
            self.sampled_events += 1;
        } else {
            self.sampling = false;
        }
    }

    fn enter(&mut self, phase: Phase) {
        if !self.sampling {
            return;
        }
        self.stack.push(Frame {
            phase,
            entered: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self, phase: Phase) {
        if !self.sampling {
            return;
        }
        let frame = self.stack.pop().expect("exit without matching enter");
        debug_assert_eq!(frame.phase, phase, "phase brackets interleaved");
        let dur_ns = frame.entered.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(frame.child_ns);
        let acc = &mut self.spans[phase.index()];
        acc.self_ns += self_ns;
        acc.spans += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let mut key = self.root.clone();
        for f in &self.stack {
            key.push(';');
            key.push_str(f.phase.name());
        }
        key.push(';');
        key.push_str(phase.name());
        *self.folded.entry(key).or_insert(0) += self_ns;
        if self.chrome.len() < MAX_CHROME_SPANS {
            self.chrome.push(ChromeSpan {
                phase,
                start_ns: frame.entered.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
                depth: self.stack.len() as u32,
            });
        }
    }

    fn count(&mut self, counter: ProbeCounter, n: u64) {
        self.counters[counter.index()].observe(n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::session::{Backend, Runner, Session};
    use dbp_core::{FirstFit, Instance, TickGrid};
    use dbp_numeric::rat;

    fn scenario() -> Instance {
        Instance::builder()
            .item(rat(7, 10), rat(0, 1), rat(10, 1))
            .item(rat(2, 5), rat(0, 1), rat(6, 1))
            .item(rat(9, 10), rat(0, 1), rat(1, 1))
            .item(rat(1, 2), rat(1, 1), rat(10, 1))
            .item(rat(3, 10), rat(2, 1), rat(10, 1))
            .item(rat(3, 5), rat(6, 1), rat(10, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn phase_shares_sum_to_one_and_stacks_balance() {
        let inst = scenario();
        let mut prof = Profiler::new();
        Runner::new(&inst)
            .backend(Backend::Exact)
            .probe(&mut prof)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(prof.events(), 2 * inst.len() as u64);
        assert_eq!(prof.sampled_events(), prof.events());
        let total: f64 = prof.phase_shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        // Every arrival timed a fit scan; every departure a drain.
        assert_eq!(prof.span(Phase::FitScan).1, inst.len() as u64);
        assert_eq!(prof.span(Phase::DepartureDrain).1, inst.len() as u64);
        // Folded stacks carry exactly the attributed self time.
        let folded_total: u64 = prof
            .folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(folded_total, prof.total_self_ns());
        // Nested phases fold under their parent.
        assert!(prof.folded().lines().any(|l| l.starts_with("engine;")));
    }

    #[test]
    fn probe_counters_land_in_histograms_on_both_engines() {
        let inst = scenario();
        let mut exact = Profiler::new();
        Runner::new(&inst)
            .backend(Backend::Exact)
            .probe(&mut exact)
            .run(&mut FirstFit::new())
            .unwrap();
        // Linear FF reports bins-scanned on every arrival.
        assert_eq!(
            exact.counter(ProbeCounter::BinsScanned).count(),
            inst.len() as u64
        );
        // The exact engine did Rational work.
        assert!(exact.counter(ProbeCounter::GcdSteps).sum() > 0.0);

        let mut tick = Profiler::new();
        Runner::new(&inst)
            .backend(Backend::Tick)
            .probe(&mut tick)
            .run(&mut FirstFit::new())
            .unwrap();
        // The compiled engine reports scan work per arrival too
        // (linear below the crossover), and charges gcd deltas per
        // event all the same (the tally is process-wide, so a
        // concurrent exact run may bleed in — only the count is
        // deterministic here).
        assert_eq!(
            tick.counter(ProbeCounter::BinsScanned).count(),
            inst.len() as u64
        );
        assert_eq!(tick.counter(ProbeCounter::GcdSteps).count(), tick.events());
        assert_eq!(tick.events(), 2 * inst.len() as u64);
    }

    #[test]
    fn sampling_times_a_subset_but_counts_everything() {
        let inst = scenario();
        let mut prof = Profiler::new().with_sampling(3);
        Runner::new(&inst)
            .backend(Backend::Exact)
            .probe(&mut prof)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(prof.events(), 12);
        assert_eq!(prof.sampled_events(), 4); // events 1, 4, 7, 10
        assert_eq!(
            prof.counter(ProbeCounter::BinsScanned).count(),
            inst.len() as u64
        );
    }

    #[test]
    fn profiled_session_outcome_is_bit_identical() {
        let inst = scenario();
        let plain = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        let mut prof = Profiler::new();
        let profiled = Runner::new(&inst)
            .probe(&mut prof)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(profiled, plain);
        // Streaming sessions accept the probe on the tick path too.
        let grid = TickGrid::for_instance(&inst).unwrap();
        let mut prof2 = Profiler::new();
        let mut s = Session::builder(FirstFit::new())
            .grid(grid)
            .probe(&mut prof2)
            .build()
            .unwrap();
        assert!(s.tick_active());
        for ev in dbp_core::event_schedule(&inst).iter() {
            match ev.class {
                dbp_simcore::EventClass::Arrival => {
                    s.arrive(ev.payload, inst.item(ev.payload).size, ev.time)
                        .unwrap();
                }
                dbp_simcore::EventClass::Departure => {
                    s.depart(ev.payload, ev.time).unwrap();
                }
                dbp_simcore::EventClass::Control => {}
            }
        }
        assert_eq!(s.finish().unwrap(), plain);
        assert_eq!(prof2.events(), prof.events());
    }

    #[test]
    fn registry_and_chrome_exports_are_well_formed() {
        let inst = scenario();
        let mut prof = Profiler::new().with_root("exact");
        Runner::new(&inst)
            .backend(Backend::Exact)
            .probe(&mut prof)
            .run(&mut FirstFit::new())
            .unwrap();
        let r = prof.to_registry();
        assert_eq!(r.counter("profile_events"), prof.events());
        assert!(r.counter("profile_fit_scan_spans") > 0);
        let share: f64 = Phase::ALL
            .iter()
            .map(|p| r.gauge(&format!("profile_{}_share", p.name())).unwrap())
            .sum();
        assert!((share - 1.0).abs() < 1e-9);
        assert!(r.histogram("probe_bins_scanned").is_some());
        // The OpenMetrics page renders the profile families.
        let page = r.to_openmetrics();
        assert!(page.contains("dbp_profile_fit_scan_self_ns_total"));
        assert!(page.contains("dbp_probe_bins_scanned_bucket"));
        // Chrome spans: bounded, X-phase, root renamed.
        let spans = prof.chrome_events();
        assert!(!spans.is_empty() && spans.len() <= 10_000);
        for s in &spans {
            assert_eq!(s.get("ph").unwrap().as_str(), Some("X"));
            assert_eq!(s.get("pid").unwrap().as_int(), Some(2));
        }
        assert!(prof.folded().lines().all(|l| l.starts_with("exact;")));
        assert!(prof.report().contains("fit_scan"));
    }
}
