//! Streaming online sessions and the unified batch runner.
//!
//! Batch replay ([`Runner`]) knows every event up front; a *session*
//! ingests them one at a time, the way a live cloud allocator sees
//! jobs: an arrival carries only the item's size — its departure is
//! revealed by a later departure event. A [`Session`] wraps an
//! engine, an algorithm, and an optional observer behind one
//! incremental API:
//!
//! * [`arrive`](Session::arrive) / [`depart`](Session::depart) /
//!   [`ingest`](Session::ingest) — feed events in non-decreasing time
//!   order; violations of the online contract (time regression,
//!   duplicate arrivals, unknown departures, a departure *after* an
//!   arrival at the same instant) are typed [`SessionError`]s that
//!   leave the session untouched.
//! * [`metrics`](Session::metrics) — live counters: open bins, load,
//!   usage time accrued so far, peak concurrency.
//! * [`snapshot`](Session::snapshot) / [`Session::resume`] —
//!   log-based checkpointing: a snapshot records the configuration
//!   plus every applied event, and resuming replays them into an
//!   equivalent session. The log keeps each event the tick engine
//!   applied as a 12-byte `(id, units, tick)` record and a full
//!   80-byte [`Event`] only for events the exact engine applied.
//! * [`finish`](Session::finish) — drains into the same
//!   [`PackingOutcome`] the batch path produces, **bit-identical**
//!   to [`Runner`] on the same event order.
//!
//! ## Backends
//!
//! [`Backend::Auto`] (the default) runs on the integer
//! [`TickEngine`] when the session has a declared [`TickGrid`], the
//! algorithm has an integer-engine equivalent
//! ([`PackingAlgorithm::tick_policy`]), and no observer is attached;
//! otherwise it runs on the exact Rational engine. If a streamed
//! event ever leaves the declared grid, the tick books are promoted
//! to exact Rationals mid-run and the session continues — callers
//! never observe which engine ran. [`Backend::Tick`] makes off-grid
//! events a typed error instead; [`Backend::Exact`] forces the
//! Rational engine.
//!
//! ```
//! use dbp_core::session::Session;
//! use dbp_core::{FirstFit, ItemId};
//! use dbp_numeric::rat;
//!
//! let mut s = Session::builder(FirstFit::new()).build().unwrap();
//! s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
//! s.arrive(ItemId(1), rat(3, 4), rat(1, 1)).unwrap();
//! assert_eq!(s.metrics().open_bins, 2);
//! s.depart(ItemId(0), rat(2, 1)).unwrap();
//! s.depart(ItemId(1), rat(3, 1)).unwrap();
//! let out = s.finish().unwrap();
//! assert_eq!(out.total_usage(), rat(2, 1) + rat(2, 1));
//! ```

use crate::algo::{by_name, PackingAlgorithm};
use crate::bin::BinId;
use crate::engine::{event_schedule, PackingEngine, PackingError, PackingOutcome};
use crate::item::{Instance, ItemId};
use crate::observe::{EngineObserver, NoopObserver};
use crate::probe::{NoopProbe, PhaseProbe};
use crate::state::{StateError, StateReader, StateWriter, MAGIC, VERSION};
use crate::tick::{CompileError, CompiledInstance, Grid, TickEngine, TickPolicy};
use dbp_numeric::Rational;
use dbp_simcore::{EventClass, EventSchedule, StreamEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One wire event of a session's stream, keyed by [`ItemId`].
pub type Event = StreamEvent<ItemId>;

/// Which engine a session or runner should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// Integer tick engine when possible (declared grid, tick-capable
    /// algorithm, no observer), exact Rational engine otherwise —
    /// with transparent mid-run promotion if a streamed event leaves
    /// the grid. Outcomes never depend on which engine ran.
    #[default]
    Auto,
    /// Always the exact Rational engine.
    Exact,
    /// Strictly the integer tick engine: building fails if the
    /// configuration cannot run on it, and off-grid events are
    /// [`SessionError::OffGrid`] instead of a silent fallback.
    Tick,
}

/// A backend's byte in the state codec.
fn backend_code(backend: Backend) -> u8 {
    match backend {
        Backend::Auto => 0,
        Backend::Exact => 1,
        Backend::Tick => 2,
    }
}

/// The integer grid a streaming session declares up front: the
/// analogue of the LCM scales [`CompiledInstance::compile`] derives
/// from a complete instance.
///
/// `time_scale` is the number of ticks per time unit, `size_scale`
/// the number of units per bin capacity. An event is *on the grid*
/// when its timestamp (relative to the session's first event) is an
/// integer number of ticks within the `u32::MAX` horizon and, for
/// arrivals, its size is an integer number of units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickGrid {
    /// Ticks per time unit (`≥ 1`).
    pub time_scale: u32,
    /// Units per bin capacity (`≥ 1`).
    pub size_scale: u32,
}

impl TickGrid {
    /// A grid with `time_scale` ticks per time unit and `size_scale`
    /// units per bin capacity. Both must be nonzero.
    pub fn new(time_scale: u32, size_scale: u32) -> TickGrid {
        assert!(time_scale >= 1, "time_scale must be >= 1");
        assert!(size_scale >= 1, "size_scale must be >= 1");
        TickGrid {
            time_scale,
            size_scale,
        }
    }

    /// The exact grid of a complete instance (its denominator LCMs),
    /// or the reason the instance does not fit tick space: the scales
    /// [`CompiledInstance::compile`] would use, or its
    /// [`CompileError`], from the same folds and horizon checks but
    /// without building a schedule.
    pub fn for_instance(instance: &Instance) -> Result<TickGrid, CompileError> {
        let grid = Grid::of(instance)?;
        for item in instance.items() {
            grid.ticks(item.arrival())?;
            grid.ticks(item.departure())?;
        }
        Ok(TickGrid {
            time_scale: grid.time_scale,
            size_scale: grid.size_scale,
        })
    }
}

/// Errors surfaced by sessions and the unified [`Runner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// An engine-level rejection (time regression, duplicate arrival,
    /// unknown departure, infeasible placement, …).
    Packing(PackingError),
    /// The instance handed to a strict-tick [`Runner`] does not fit
    /// tick space.
    Compile(CompileError),
    /// [`Backend::Tick`] was requested but the configuration cannot
    /// run on the integer engine (no grid, no tick-capable algorithm,
    /// or an observer is attached).
    TickUnavailable(&'static str),
    /// A streamed event left the declared [`TickGrid`] under strict
    /// [`Backend::Tick`].
    OffGrid {
        /// Which quantity was off the grid (`"time"` or `"size"`).
        what: &'static str,
        /// The offending value.
        value: Rational,
    },
    /// A departure was submitted after an arrival at the same
    /// instant. Intervals are half-open, so the engine's canonical
    /// order processes all departures of an instant before its
    /// arrivals; accepting the reverse would silently diverge from
    /// the batch replay.
    DepartureAfterArrival {
        /// The shared timestamp.
        time: Rational,
    },
    /// An arriving item's size is outside `(0, 1]`.
    InvalidSize {
        /// The arriving item.
        id: ItemId,
        /// The rejected size.
        size: Rational,
    },
    /// [`Session::resume`] could not reconstruct the checkpointed
    /// algorithm from its name (seeded, scripted, and
    /// instance-dependent algorithms need
    /// [`Session::resume_with`]).
    UnknownAlgorithm(String),
    /// [`Session::resume_with`] was handed an algorithm whose name
    /// does not match the checkpoint.
    AlgorithmMismatch {
        /// Name recorded in the snapshot.
        expected: String,
        /// Name of the supplied algorithm.
        got: String,
    },
    /// [`Session::snapshot`] on a session built with
    /// [`SessionBuilder::without_checkpoints`].
    CheckpointsDisabled,
}

impl From<PackingError> for SessionError {
    fn from(e: PackingError) -> SessionError {
        SessionError::Packing(e)
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Packing(e) => write!(f, "{e}"),
            SessionError::Compile(e) => write!(f, "tick compilation failed: {e}"),
            SessionError::TickUnavailable(why) => {
                write!(f, "tick backend unavailable: {why}")
            }
            SessionError::OffGrid { what, value } => {
                write!(f, "{what} {value} off the declared tick grid")
            }
            SessionError::DepartureAfterArrival { time } => write!(
                f,
                "departure after an arrival at the same instant {time} \
                 (half-open intervals: submit departures first)"
            ),
            SessionError::InvalidSize { id, size } => {
                write!(f, "item {id}: size {size} outside (0, 1]")
            }
            SessionError::UnknownAlgorithm(name) => {
                write!(f, "cannot reconstruct algorithm `{name}` from its name")
            }
            SessionError::AlgorithmMismatch { expected, got } => {
                write!(f, "checkpoint records algorithm `{expected}`, got `{got}`")
            }
            SessionError::CheckpointsDisabled => {
                write!(f, "session was built without checkpoint support")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A batched-ingestion failure: events before `index` were applied,
/// the event at `index` was rejected, nothing after it was touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the rejected event within the submitted batch.
    pub index: usize,
    /// Why it was rejected.
    pub error: SessionError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {}

/// Live counters of a running session (see [`Session::metrics`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// Session clock (time of the last applied event).
    pub now: Option<Rational>,
    /// Total events applied.
    pub events: u64,
    /// Arrivals applied.
    pub arrivals: u64,
    /// Departures applied.
    pub departures: u64,
    /// Currently open bins.
    pub open_bins: usize,
    /// Currently active items.
    pub active_items: usize,
    /// Bins ever opened.
    pub bins_opened: usize,
    /// Peak number of simultaneously open bins so far.
    pub peak_open_bins: usize,
    /// Total level across the open bins (current load).
    pub load: Rational,
    /// Usage time `Σ_k |U_k|` accrued so far: closed bins fully, open
    /// bins up to the session clock. The objective-to-date.
    pub usage_time: Rational,
    /// Workload volume `vol(R) = Σᵢ sᵢ·lenᵢ = ∫ load dt` accrued so
    /// far (Proposition 1 lower bound on OPT). `None` unless the
    /// session was built with
    /// [`telemetry`](SessionBuilder::telemetry).
    #[serde(default)]
    pub vol: Option<Rational>,
    /// Busy time `span(R)` — total time with at least one active item
    /// — accrued so far (Proposition 2 lower bound on OPT). `None`
    /// unless telemetry is enabled.
    #[serde(default)]
    pub span: Option<Rational>,
    /// Shortest completed item lifetime so far (`None` until an item
    /// departs, or without telemetry).
    #[serde(default)]
    pub min_lifetime: Option<Rational>,
    /// Longest completed item lifetime so far (`None` until an item
    /// departs, or without telemetry).
    #[serde(default)]
    pub max_lifetime: Option<Rational>,
}

impl SessionMetrics {
    /// The paper's lower bound on the optimum for the stream so far:
    /// `max(vol(R), span(R))` (Propositions 1–2). `None` without
    /// telemetry.
    pub fn lower_bound(&self) -> Option<Rational> {
        match (self.vol, self.span) {
            (Some(v), Some(s)) => Some(v.max(s)),
            _ => None,
        }
    }

    /// Estimated `µ = max duration / min duration` over *completed*
    /// items. `None` until at least one item has departed (the online
    /// contract makes every lifetime positive, so the quotient is
    /// well-defined).
    pub fn mu_estimate(&self) -> Option<Rational> {
        match (self.min_lifetime, self.max_lifetime) {
            (Some(lo), Some(hi)) if lo.is_positive() => Some(hi / lo),
            _ => None,
        }
    }

    /// Live *upper estimate* of the competitive ratio:
    /// `usage_time / max(vol, span)`. Since `OPT ≥ max(vol, span)`,
    /// the true ratio `usage/OPT` is at most this value. `None`
    /// without telemetry or while the lower bound is still zero.
    pub fn ratio_upper_estimate(&self) -> Option<Rational> {
        let bound = self.lower_bound()?;
        bound.is_positive().then(|| self.usage_time / bound)
    }
}

/// Stream telemetry beyond what the engines already keep: the busy
/// time `span(R)` and the completed-item lifetime extremes. `vol(R)`
/// is not kept here: it is `∫ load dt`, the sum of the per-bin level
/// integrals each engine keeps anyway
/// ([`PackingEngine::vol_accrued`], [`TickEngine::vol_accrued`]).
///
/// `span(R)` accrues only at busy/idle **transitions**; the running
/// segment is folded in on demand by [`span_at`](Self::span_at).
#[derive(Debug, Clone, Default)]
struct Telemetry {
    /// Start of the current busy segment (`Some` while items are
    /// active).
    busy_since: Option<Rational>,
    /// Total length of *closed* busy segments.
    span: Rational,
    min_lifetime: Option<Rational>,
    max_lifetime: Option<Rational>,
}

impl Telemetry {
    /// An item of `lifetime` departed at `t`; `idle` when it was the
    /// last active item.
    fn on_departure(&mut self, t: Rational, lifetime: Rational, idle: bool) {
        // The same-instant ordering contract makes lifetimes strictly
        // positive, so µ̂ never divides by zero.
        self.min_lifetime = Some(self.min_lifetime.map_or(lifetime, |lo| lo.min(lifetime)));
        self.max_lifetime = Some(self.max_lifetime.map_or(lifetime, |hi| hi.max(lifetime)));
        if idle {
            if let Some(since) = self.busy_since.take() {
                self.span += t - since;
            }
        }
    }

    /// `span(R)` up to `now`: closed busy segments plus the running
    /// one.
    fn span_at(&self, now: Option<Rational>) -> Rational {
        match (self.busy_since, now) {
            (Some(since), Some(now)) => self.span + (now - since),
            _ => self.span,
        }
    }
}

/// A checkpoint of a session: its configuration plus every applied
/// event, in order. Serializable through the workspace data
/// model; [`Session::resume`] replays it into an equivalent session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Name of the session's algorithm.
    pub algorithm: String,
    /// The backend the session was built with (the *request*, not the
    /// engine currently in use — replaying the same events through
    /// the same request reproduces any promotion deterministically).
    pub backend: Backend,
    /// The declared tick grid, if any.
    pub grid: Option<TickGrid>,
    /// Whether the session tracked stream telemetry
    /// ([`SessionBuilder::telemetry`]); resuming replays it so the
    /// `vol`/`span` accounting continues seamlessly.
    #[serde(default)]
    pub telemetry: bool,
    /// Every applied event, in application order.
    pub events: Vec<Event>,
}

/// One logged event the tick engine applied, as it consumed it: the
/// item, its size in grid units (`0` for a departure, since arrivals
/// are at least one unit) and its tick relative to the session
/// origin. Routing bounds all three to `u32` (`push_tick` checks),
/// so a record is 12 bytes where an [`Event`] is 80.
struct TickEntry {
    id: u32,
    units: u32,
    tick: u32,
}

/// A checkpointing session's log of every applied event, split by the
/// engine that applied it: [`TickEntry`] records while the session
/// runs on the tick engine, then full [`Event`]s once it runs exact
/// (from the start, or after the one-way off-grid promotion). A
/// session never returns to the tick engine, so no tick record
/// follows an `Event` and the ticks-then-events concatenation is the
/// application order.
#[derive(Default)]
struct CheckpointLog {
    ticks: Vec<TickEntry>,
    exact: Vec<Event>,
}

impl CheckpointLog {
    #[inline]
    fn push_tick(&mut self, id: ItemId, units: u64, tick: u64) {
        debug_assert!(self.exact.is_empty(), "a tick record follows an Event");
        self.ticks.push(TickEntry {
            id: id.0,
            units: u32::try_from(units).expect("on-grid sizes are at most size_scale units"),
            tick: u32::try_from(tick).expect("routing keeps ticks within the u32 horizon"),
        });
    }

    /// Every logged event in application order, tick records decoded
    /// at `origin_ticks` on `grid` back to the canonical Rationals
    /// the caller sent: `(origin_ticks + tick) / time_scale` and
    /// `units / size_scale`, both reduced.
    fn events(&self, grid: Option<TickGrid>, origin_ticks: Option<i128>) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.ticks.len() + self.exact.len());
        if !self.ticks.is_empty() {
            let grid = grid.expect("tick records imply a grid");
            let origin = origin_ticks.expect("tick records imply an origin");
            events.extend(self.ticks.iter().map(|entry| {
                let id = ItemId(entry.id);
                let time = Rational::new(origin + entry.tick as i128, grid.time_scale as i128);
                match entry.units {
                    0 => StreamEvent::Depart { id, time },
                    units => StreamEvent::Arrive {
                        id,
                        size: Rational::new(units as i128, grid.size_scale as i128),
                        time,
                    },
                }
            }));
        }
        events.extend_from_slice(&self.exact);
        events
    }
}

/// The engine a session is currently running on. Every event on a
/// tick core goes through one grid conversion
/// ([`Session::grid_point`]): on the grid it reaches the tick engine,
/// built at the first on-grid event; off it, the session rejects the
/// event ([`Backend::Tick`]) or moves to the exact engine for good
/// ([`Backend::Auto`]).
// Not boxed: a session owns exactly one `Core` (never collections of
// them), so the variant size gap costs a few hundred bytes per
// session, while boxing would put a pointer hop on the per-event hot
// path.
#[allow(clippy::large_enum_variant)]
enum Core {
    /// Exact Rational engine.
    Exact(PackingEngine),
    /// Tick backend selected but no event applied yet: the engine for
    /// this policy is created at the first event, whose timestamp
    /// fixes the origin.
    TickIdle(TickPolicy),
    /// Live integer engine.
    Tick(TickEngine),
}

/// Configures and builds a [`Session`] (see [`Session::builder`]).
pub struct SessionBuilder<'s> {
    algo: Box<dyn PackingAlgorithm + 's>,
    observer: Option<&'s mut dyn EngineObserver>,
    probe: Option<&'s mut dyn PhaseProbe>,
    backend: Backend,
    grid: Option<TickGrid>,
    checkpoints: bool,
    telemetry: bool,
}

impl<'s> SessionBuilder<'s> {
    /// Attaches a passive observer. Observers see every engine event;
    /// they force the exact Rational engine (the integer engine has
    /// no instrumentation hooks).
    pub fn observer(mut self, obs: &'s mut dyn EngineObserver) -> SessionBuilder<'s> {
        self.observer = Some(obs);
        self
    }

    /// Attaches a [`PhaseProbe`] for self-profiling. Unlike observers
    /// probes are wired into **both** engines, so attaching one does
    /// not change which backend runs — outcomes stay bit-identical to
    /// an unprobed session.
    pub fn probe(mut self, probe: &'s mut dyn PhaseProbe) -> SessionBuilder<'s> {
        self.probe = Some(probe);
        self
    }

    /// Selects the engine policy (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> SessionBuilder<'s> {
        self.backend = backend;
        self
    }

    /// Declares the integer grid for the tick backend. Without a
    /// grid, [`Backend::Auto`] always runs exact and
    /// [`Backend::Tick`] fails to build.
    pub fn grid(mut self, grid: TickGrid) -> SessionBuilder<'s> {
        self.grid = Some(grid);
        self
    }

    /// Disables the checkpoint log, so [`Session::snapshot`] becomes
    /// [`SessionError::CheckpointsDisabled`]. The log costs one `Vec`
    /// push per event: a 12-byte record for each event the tick
    /// engine applies, an 80-byte [`Event`] for each event the exact
    /// engine applies. On a 2-core VM a long-lived tick session grew
    /// by ~34 B/event with the log and ~22 without it.
    pub fn without_checkpoints(mut self) -> SessionBuilder<'s> {
        self.checkpoints = false;
        self
    }

    /// Enables stream telemetry: incremental `vol(R)` and `span(R)`
    /// accounting plus completed-item lifetime extremes, surfaced
    /// through [`Session::metrics`] (`vol`, `span`, `min_lifetime`,
    /// `max_lifetime` and the derived
    /// [`lower_bound`](SessionMetrics::lower_bound) /
    /// [`ratio_upper_estimate`](SessionMetrics::ratio_upper_estimate)).
    ///
    /// Telemetry is stream-derived, not an observer — it works on
    /// **every** backend, including the integer tick engine, and does
    /// not force the exact engine. `vol` comes from the level
    /// integrals both engines keep anyway, so tracking costs a few
    /// exact operations per departure and one at each busy/idle
    /// transition; off by default.
    pub fn telemetry(mut self) -> SessionBuilder<'s> {
        self.telemetry = true;
        self
    }

    /// Resolves the backend and builds the session. Fails only for
    /// [`Backend::Tick`] configurations that cannot run on the
    /// integer engine.
    pub fn build(mut self) -> Result<Session<'s>, SessionError> {
        let name = self.algo.name();
        self.algo.reset();
        let policy = self.algo.tick_policy();
        let core = match self.backend {
            Backend::Exact => Core::Exact(PackingEngine::new()),
            Backend::Auto => match policy {
                Some(p) if self.grid.is_some() && self.observer.is_none() => Core::TickIdle(p),
                _ => Core::Exact(PackingEngine::new()),
            },
            Backend::Tick => {
                if self.observer.is_some() {
                    return Err(SessionError::TickUnavailable(
                        "observers require the exact engine",
                    ));
                }
                let p = policy.ok_or(SessionError::TickUnavailable(
                    "algorithm has no integer-engine equivalent",
                ))?;
                if self.grid.is_none() {
                    return Err(SessionError::TickUnavailable("no tick grid declared"));
                }
                Core::TickIdle(p)
            }
        };
        Ok(Session {
            algo: self.algo,
            observer: self.observer,
            probe: self.probe,
            noop: NoopObserver,
            backend: self.backend,
            grid: self.grid,
            core,
            origin_ticks: None,
            time_quot_memo: (0, 0),
            size_quot_memo: (0, 0),
            name,
            now: None,
            arrival_at_now: false,
            log: self.checkpoints.then(CheckpointLog::default),
            telemetry: self.telemetry.then(Telemetry::default),
            arrivals: 0,
            departures: 0,
        })
    }
}

/// An incremental online packing session: the streaming counterpart
/// of the batch [`Runner`], producing bit-identical outcomes on the
/// same event order. See the [module docs](self) for the contract.
pub struct Session<'s> {
    algo: Box<dyn PackingAlgorithm + 's>,
    observer: Option<&'s mut dyn EngineObserver>,
    probe: Option<&'s mut dyn PhaseProbe>,
    noop: NoopObserver,
    backend: Backend,
    grid: Option<TickGrid>,
    core: Core,
    /// First event's timestamp on the tick grid (tick sessions
    /// only): `origin.scaled_to(time_scale)`, cached so the per-event
    /// time conversion is one `scaled_to` plus an integer subtract
    /// instead of a full `Rational` subtraction.
    origin_ticks: Option<i128>,
    /// One-entry divisor memos — `(den, scale / den)` for the last
    /// on-grid denominator seen on each axis. Streams overwhelmingly
    /// reuse a handful of denominators, so the per-event grid
    /// conversion usually replaces a hardware division with a
    /// compare plus a multiply. `(0, _)` is the empty memo: reduced
    /// denominators are always positive.
    time_quot_memo: (i128, i128),
    size_quot_memo: (i128, i128),
    name: String,
    now: Option<Rational>,
    /// `true` while an arrival has been applied at the current
    /// instant (rejects misordered equal-time departures).
    arrival_at_now: bool,
    /// Every applied event, for [`Session::snapshot`]; `None` when
    /// built [`without_checkpoints`](SessionBuilder::without_checkpoints).
    log: Option<CheckpointLog>,
    telemetry: Option<Telemetry>,
    arrivals: u64,
    departures: u64,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("algorithm", &self.name)
            .field("backend", &self.backend)
            .field("tick_active", &self.tick_active())
            .field("now", &self.now)
            .field("arrivals", &self.arrivals)
            .field("departures", &self.departures)
            .finish_non_exhaustive()
    }
}

impl<'s> Session<'s> {
    /// Starts configuring a session around `algo`.
    pub fn builder(algo: impl PackingAlgorithm + 's) -> SessionBuilder<'s> {
        SessionBuilder {
            algo: Box::new(algo),
            observer: None,
            probe: None,
            backend: Backend::Auto,
            grid: None,
            checkpoints: true,
            telemetry: false,
        }
    }

    /// Rebuilds a session from a checkpoint by reconstructing the
    /// algorithm from its recorded name and replaying its events.
    /// Fails with [`SessionError::UnknownAlgorithm`] for algorithms
    /// that need external state ([`Session::resume_with`] covers
    /// those).
    pub fn resume(snapshot: &SessionSnapshot) -> Result<Session<'static>, SessionError> {
        let algo = by_name(&snapshot.algorithm)
            .ok_or_else(|| SessionError::UnknownAlgorithm(snapshot.algorithm.clone()))?;
        Self::replay(snapshot, algo)
    }

    /// [`Session::resume`] with a caller-supplied algorithm (for
    /// seeded, scripted, or instance-dependent algorithms the name
    /// alone cannot reconstruct). The algorithm's name must match the
    /// checkpoint.
    pub fn resume_with<'a>(
        snapshot: &SessionSnapshot,
        algo: impl PackingAlgorithm + 'a,
    ) -> Result<Session<'a>, SessionError> {
        if algo.name() != snapshot.algorithm {
            return Err(SessionError::AlgorithmMismatch {
                expected: snapshot.algorithm.clone(),
                got: algo.name(),
            });
        }
        Self::replay(snapshot, algo)
    }

    fn replay<'a>(
        snapshot: &SessionSnapshot,
        algo: impl PackingAlgorithm + 'a,
    ) -> Result<Session<'a>, SessionError> {
        let mut builder = Session::builder(algo).backend(snapshot.backend);
        if let Some(grid) = snapshot.grid {
            builder = builder.grid(grid);
        }
        if snapshot.telemetry {
            builder = builder.telemetry();
        }
        let mut session = builder.build()?;
        // Logged events were all applied once, so replay cannot
        // fail on a well-formed snapshot; corrupt ones surface the
        // offending event's error.
        session.ingest(&snapshot.events).map_err(|e| e.error)?;
        Ok(session)
    }

    /// The algorithm's name (as reported in the final outcome).
    pub fn algorithm(&self) -> &str {
        &self.name
    }

    /// The backend the session was built with (the request;
    /// [`tick_active`](Self::tick_active) tells which engine is
    /// actually running).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `true` while the session is on (or still headed for) the
    /// integer tick engine.
    pub fn tick_active(&self) -> bool {
        !matches!(self.core, Core::Exact(_))
    }

    /// Session clock: time of the last applied event.
    pub fn now(&self) -> Option<Rational> {
        self.now
    }

    /// `true` iff `id` has arrived and not departed.
    pub fn is_active(&self, id: ItemId) -> bool {
        match &self.core {
            Core::Exact(e) => e.is_active(id),
            Core::Tick(e) => e.is_active(id),
            Core::TickIdle(_) => false,
        }
    }

    /// Monotone-clock check shared by both event kinds.
    #[inline]
    fn check_monotone(&self, t: Rational) -> Result<(), SessionError> {
        if let Some(now) = self.now {
            if t < now {
                return Err(SessionError::Packing(PackingError::TimeRegression {
                    now,
                    event: t,
                }));
            }
        }
        Ok(())
    }

    /// Integer `value.scaled_to(scale)` through a one-entry divisor
    /// memo; `None` when `value` is off the `1/scale` grid. Off-grid
    /// denominators are not memoized — they promote the session, so
    /// each is seen at most once.
    #[inline]
    fn memo_scaled(memo: &mut (i128, i128), value: Rational, scale: i128) -> Option<i128> {
        debug_assert!(
            (1..=u32::MAX as i128).contains(&scale),
            "grid scales are u32-bounded"
        );
        let den = value.denom();
        if memo.0 != den {
            // Both are positive and the scale fits `u32`: a larger
            // denominator cannot divide it, and any other pair takes
            // one 32-bit division instead of two `i128` libcalls.
            if den > scale {
                return None;
            }
            let (scale, den) = (scale as u32, den as u32);
            if scale % den != 0 {
                return None;
            }
            *memo = (i128::from(den), i128::from(scale / den));
        }
        // The quotient is below 2^32 (grid scales are u32-bounded),
        // so any numerator below 2^63 multiplies without overflow on
        // the inlined 128-bit product — `checked_mul` is a libcall on
        // x86-64 and this sits on the per-event streaming path.
        let num = value.numer();
        if num.unsigned_abs() < 1 << 63 {
            return Some(num * memo.1);
        }
        num.checked_mul(memo.1)
    }

    /// The event at `t` (of `size`, for an arrival) on the session's
    /// grid: its tick measured from the origin, tick 0 for the first
    /// event (which fixes the origin), and its size in units, 0 for a
    /// departure. Off the grid, the quantity that is off and its
    /// value; the time is checked before the size, and a tick past the
    /// `u32` horizon counts as an off-grid time. Only the divisor memos
    /// are mutated. Always inlined: under a plain `#[inline]` the
    /// compiler kept it a call, which returns its `Result` through
    /// memory, and a tick session's ingest ran ~5% slower.
    #[inline(always)]
    fn grid_point(
        &mut self,
        t: Rational,
        size: Option<Rational>,
    ) -> Result<(u64, u64), (&'static str, Rational)> {
        let grid = self.grid.expect("a tick core implies a grid");
        // Monotonicity (checked first) puts `t` at or after the
        // origin, so the subtraction and the conversion fail only past
        // the horizon.
        let tick = Self::memo_scaled(&mut self.time_quot_memo, t, grid.time_scale as i128)
            .and_then(|ticks| ticks.checked_sub(self.origin_ticks.unwrap_or(ticks)))
            .and_then(|tick| u32::try_from(tick).ok())
            .ok_or(("time", t))?;
        let units = match size {
            // Sizes are pre-validated in (0, 1], so an on-grid size is
            // automatically in 1..=size_scale.
            Some(size) => {
                Self::memo_scaled(&mut self.size_quot_memo, size, grid.size_scale as i128)
                    .ok_or(("size", size))? as u64
            }
            None => 0,
        };
        Ok((u64::from(tick), units))
    }

    /// An event of `id` on a tick core is off the grid in `what`, as
    /// [`grid_point`](Self::grid_point) named it. A duplicate arrival
    /// or an unknown departure is rejected as such first, so it never
    /// promotes; then strict [`Backend::Tick`] rejects the event as
    /// [`SessionError::OffGrid`], and [`Backend::Auto`] converts the
    /// tick books to exact Rationals, for good, so the exact engine
    /// applies it.
    #[cold]
    fn leave_grid(
        &mut self,
        id: ItemId,
        arriving: bool,
        (what, value): (&'static str, Rational),
    ) -> Result<(), SessionError> {
        match (arriving, self.is_active(id)) {
            (true, true) => return Err(SessionError::Packing(PackingError::DuplicateItem(id))),
            (false, false) => return Err(SessionError::Packing(PackingError::UnknownItem(id))),
            _ => {}
        }
        if self.backend == Backend::Tick {
            return Err(SessionError::OffGrid { what, value });
        }
        // Before the first event the stored algorithm is still fresh,
        // so the new exact engine drives it directly.
        let core = std::mem::replace(&mut self.core, Core::Exact(PackingEngine::new()));
        if let Core::Tick(engine) = core {
            // Mid-run: the tick engine embodied the policy and never
            // drove the stored algorithm, which may be any algorithm
            // that claims the policy. Swap in the linear equivalent,
            // which keeps no placement state and so decides correctly
            // from any books.
            self.algo = engine.policy().linear_algo();
            self.core = Core::Exact(engine.into_exact());
        }
        Ok(())
    }

    /// Builds the tick engine for `policy` at the first on-grid event,
    /// whose time `t` becomes the origin. That event is an arrival,
    /// which an empty engine cannot reject, so a rejected event never
    /// builds the engine.
    #[cold]
    fn start_tick(&mut self, policy: TickPolicy, t: Rational) {
        let grid = self.grid.expect("a tick core implies a grid");
        self.origin_ticks = Self::memo_scaled(&mut self.time_quot_memo, t, grid.time_scale as i128);
        self.core = Core::Tick(TickEngine::with_grid(
            policy,
            t,
            grid.time_scale as i128,
            grid.size_scale as i128,
        ));
    }

    /// Applies an arrival: `id` of `size` at time `t`. Returns the
    /// bin the item was placed into.
    pub fn arrive(
        &mut self,
        id: ItemId,
        size: Rational,
        t: Rational,
    ) -> Result<BinId, SessionError> {
        self.check_monotone(t)?;
        // `0 < size <= 1` via raw parts: denominators are positive,
        // so `size <= 1  <=>  num <= den` — two integer compares, no
        // cross-multiplication on the per-event path.
        if size.numer() <= 0 || size.numer() > size.denom() {
            return Err(SessionError::InvalidSize { id, size });
        }
        if !matches!(self.core, Core::Exact(_)) {
            match self.grid_point(t, Some(size)) {
                Ok((tick, units)) => {
                    if let Core::TickIdle(policy) = self.core {
                        self.start_tick(policy, t);
                    }
                    let Core::Tick(engine) = &mut self.core else {
                        unreachable!("an on-grid event runs on the tick engine");
                    };
                    let bin = match self.probe.as_deref_mut() {
                        Some(p) => engine.arrive_probed(p, id, units, tick)?,
                        None => engine.arrive(id, units, tick)?,
                    };
                    self.note_arrival(id, size, t, Some((units, tick)));
                    return Ok(bin);
                }
                Err(off) => self.leave_grid(id, true, off)?,
            }
        }
        let Core::Exact(engine) = &mut self.core else {
            unreachable!("an off-grid event leaves the tick core");
        };
        let obs: &mut dyn EngineObserver = match self.observer.as_deref_mut() {
            Some(o) => o,
            None => &mut self.noop,
        };
        let bin = match self.probe.as_deref_mut() {
            Some(p) => engine.arrive_probed(self.algo.as_mut(), obs, p, id, size, t)?,
            None => engine.arrive_observed(self.algo.as_mut(), obs, id, size, t)?,
        };
        self.note_arrival(id, size, t, None);
        Ok(bin)
    }

    /// Post-event bookkeeping shared by every successful arrival:
    /// clock commit, counters, telemetry, and the checkpoint log.
    /// `on_grid` is `(units, tick)` when the tick engine applied it.
    /// Always inlined: as a call it would cost the per-event hot path
    /// a few ns even when neither telemetry nor the log is on.
    #[inline(always)]
    fn note_arrival(
        &mut self,
        id: ItemId,
        size: Rational,
        t: Rational,
        on_grid: Option<(u64, u64)>,
    ) {
        self.now = Some(t);
        self.arrival_at_now = true;
        self.arrivals += 1;
        if let Some(tele) = &mut self.telemetry {
            tele.busy_since.get_or_insert(t);
        }
        if let Some(log) = &mut self.log {
            match on_grid {
                Some((units, tick)) => log.push_tick(id, units, tick),
                None => log.exact.push(StreamEvent::Arrive { id, size, time: t }),
            }
        }
    }

    /// Applies a departure of `id` at time `t`. Returns the bin the
    /// item left.
    pub fn depart(&mut self, id: ItemId, t: Rational) -> Result<BinId, SessionError> {
        self.check_monotone(t)?;
        if self.now == Some(t) && self.arrival_at_now {
            return Err(SessionError::DepartureAfterArrival { time: t });
        }
        match self.core {
            Core::Exact(_) => {}
            // Nothing has arrived yet, so the item cannot be active.
            Core::TickIdle(_) => return Err(SessionError::Packing(PackingError::UnknownItem(id))),
            Core::Tick(_) => match self.grid_point(t, None) {
                Ok((tick, _)) => {
                    let Core::Tick(engine) = &mut self.core else {
                        unreachable!("core variant matched above");
                    };
                    let (bin, arrived) = match self.probe.as_deref_mut() {
                        Some(p) => engine.depart_probed(p, id, tick)?,
                        None => engine.depart_probed(&mut NoopProbe, id, tick)?,
                    };
                    let idle = engine.active_items() == 0;
                    let scale =
                        i128::from(self.grid.expect("a tick core implies a grid").time_scale);
                    let lifetime = || Rational::new((tick - arrived) as i128, scale);
                    self.note_departure(id, t, idle, Some(tick), lifetime);
                    return Ok(bin);
                }
                Err(off) => self.leave_grid(id, false, off)?,
            },
        }
        let Core::Exact(engine) = &mut self.core else {
            unreachable!("an off-grid event leaves the tick core");
        };
        let obs: &mut dyn EngineObserver = match self.observer.as_deref_mut() {
            Some(o) => o,
            None => &mut self.noop,
        };
        let (bin, arrived) = match self.probe.as_deref_mut() {
            Some(p) => engine.depart_probed(self.algo.as_mut(), obs, p, id, t)?,
            None => engine.depart_probed(self.algo.as_mut(), obs, &mut NoopProbe, id, t)?,
        };
        let idle = engine.active_items() == 0;
        self.note_departure(id, t, idle, None, || t - arrived);
        Ok(bin)
    }

    /// Post-event bookkeeping shared by every successful departure;
    /// `idle` when no item is left active, `on_grid` the tick when the
    /// tick engine applied it. `lifetime` runs only when telemetry is
    /// on. Always inlined, as [`note_arrival`](Self::note_arrival) is.
    #[inline(always)]
    fn note_departure(
        &mut self,
        id: ItemId,
        t: Rational,
        idle: bool,
        on_grid: Option<u64>,
        lifetime: impl FnOnce() -> Rational,
    ) {
        self.now = Some(t);
        self.arrival_at_now = false;
        self.departures += 1;
        if let Some(tele) = &mut self.telemetry {
            tele.on_departure(t, lifetime(), idle);
        }
        if let Some(log) = &mut self.log {
            match on_grid {
                Some(tick) => log.push_tick(id, 0, tick),
                None => log.exact.push(StreamEvent::Depart { id, time: t }),
            }
        }
    }

    /// Applies one wire event.
    pub fn apply(&mut self, event: &Event) -> Result<BinId, SessionError> {
        match *event {
            StreamEvent::Arrive { id, size, time } => self.arrive(id, size, time),
            StreamEvent::Depart { id, time } => self.depart(id, time),
        }
    }

    /// Applies a batch of events in order. On failure, events before
    /// the reported index were applied and nothing after it was
    /// touched.
    pub fn ingest(&mut self, events: &[Event]) -> Result<(), BatchError> {
        for (index, event) in events.iter().enumerate() {
            self.apply(event)
                .map_err(|error| BatchError { index, error })?;
        }
        Ok(())
    }

    /// Live counters: clock, event tallies, open bins, load, and the
    /// usage time accrued so far.
    pub fn metrics(&self) -> SessionMetrics {
        let (open_bins, active_items, bins_opened, peak_open_bins, load, usage_time) =
            match &self.core {
                Core::Exact(e) => (
                    e.open_bins(),
                    e.active_items(),
                    e.bins_opened(),
                    e.peak_open_bins(),
                    e.load(),
                    e.usage_accrued(),
                ),
                Core::Tick(e) => (
                    e.open_bins(),
                    e.active_items(),
                    e.bins_opened(),
                    e.peak_open_bins(),
                    e.load(),
                    e.usage_accrued(),
                ),
                Core::TickIdle(_) => (0, 0, 0, 0, Rational::ZERO, Rational::ZERO),
            };
        let tele = self.telemetry.as_ref();
        let vol = || match &self.core {
            Core::Exact(e) => e.vol_accrued(),
            Core::Tick(e) => e.vol_accrued(),
            Core::TickIdle(_) => Rational::ZERO,
        };
        SessionMetrics {
            now: self.now,
            events: self.arrivals + self.departures,
            arrivals: self.arrivals,
            departures: self.departures,
            open_bins,
            active_items,
            bins_opened,
            peak_open_bins,
            load,
            usage_time,
            vol: tele.map(|_| vol()),
            span: tele.map(|t| t.span_at(self.now)),
            min_lifetime: tele.and_then(|t| t.min_lifetime),
            max_lifetime: tele.and_then(|t| t.max_lifetime),
        }
    }

    /// Checkpoints the session: configuration plus every applied
    /// event, in order. Events the tick engine applied are logged as
    /// 12-byte `(id, units, tick)` records and rebuilt here as the
    /// exact Rationals the caller sent, so the snapshot is the same
    /// whichever engine applied them. Fails if the session was built
    /// [`without_checkpoints`](SessionBuilder::without_checkpoints).
    pub fn snapshot(&self) -> Result<SessionSnapshot, SessionError> {
        let log = self.log.as_ref().ok_or(SessionError::CheckpointsDisabled)?;
        Ok(SessionSnapshot {
            algorithm: self.name.clone(),
            backend: self.backend,
            grid: self.grid,
            telemetry: self.telemetry.is_some(),
            events: log.events(self.grid, self.origin_ticks),
        })
    }

    /// Appends this session's state to `out` in the versioned binary
    /// codec of [`crate::state`]: its configuration, then, once an
    /// event has started the tick engine, the engine's books, the
    /// session clock's arrival flag and the telemetry. Restoring it
    /// with [`load_state`](Self::load_state) costs O(state) where
    /// [`resume`](Self::resume) replays every event, and the state
    /// holds no events: a session's checkpoint log is not part of it.
    ///
    /// Only a session on the tick engine has such books; one on the
    /// exact engine fails with [`StateError::Unsupported`] and leaves
    /// `out` as it was.
    pub fn write_state(&self, out: &mut Vec<u8>) -> Result<(), StateError> {
        let engine = match &self.core {
            Core::Exact(_) => {
                return Err(StateError::Unsupported(
                    "the session runs on the exact engine",
                ))
            }
            Core::TickIdle(_) => None,
            Core::Tick(engine) => Some(engine),
        };
        let grid = self.grid.expect("a tick core implies a grid");
        let start = out.len();
        let written = self.write_state_to(&mut StateWriter(out), grid, engine);
        if written.is_err() {
            out.truncate(start);
        }
        written
    }

    fn write_state_to(
        &self,
        w: &mut StateWriter,
        grid: TickGrid,
        engine: Option<&TickEngine>,
    ) -> Result<(), StateError> {
        w.0.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.len(self.name.len())?;
        w.0.extend_from_slice(self.name.as_bytes());
        w.u8(backend_code(self.backend));
        w.u32(grid.time_scale);
        w.u32(grid.size_scale);
        w.bool(self.telemetry.is_some());
        w.bool(engine.is_some());
        let Some(engine) = engine else {
            return Ok(());
        };
        let origin = self.origin_ticks.expect("a tick engine implies an origin");
        w.i128(origin);
        w.bool(self.arrival_at_now);
        engine.write_state(w)?;
        if let Some(tele) = &self.telemetry {
            // Every time a tick session saw is on the grid, so each
            // telemetry value is a whole number of ticks.
            let off_grid = StateError::Unsupported("telemetry off the tick grid");
            let ticks = |t: Rational| {
                t.scaled_to(i128::from(grid.time_scale))
                    .ok_or(off_grid.clone())
            };
            let narrow = |ticks: i128| u32::try_from(ticks).map_err(|_| off_grid.clone());
            w.u64(u64::try_from(ticks(tele.span)?).map_err(|_| off_grid.clone())?);
            w.opt_u32(
                tele.busy_since
                    .map(|t| narrow(ticks(t)? - origin))
                    .transpose()?,
            );
            w.opt_u32(tele.min_lifetime.map(|l| narrow(ticks(l)?)).transpose()?);
            w.opt_u32(tele.max_lifetime.map(|l| narrow(ticks(l)?)).transpose()?);
        }
        Ok(())
    }

    /// Restores state [`write_state`](Self::write_state) wrote into
    /// this fresh session, which must have been built with the same
    /// algorithm, backend, grid and telemetry setting as the writer,
    /// [`without_checkpoints`](SessionBuilder::without_checkpoints),
    /// and not have applied an event. Afterwards it answers every
    /// event, [`metrics`](Self::metrics) call and
    /// [`finish`](Self::finish) exactly as the writer would have.
    ///
    /// Damaged bytes fail with a [`StateError`] and never panic; on any
    /// error the session is left as it was.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let policy = match self.core {
            Core::TickIdle(policy) => policy,
            Core::Exact(_) => {
                return Err(StateError::Unsupported(
                    "the session runs on the exact engine",
                ))
            }
            Core::Tick(_) => return Err(StateError::Unsupported("the session has applied events")),
        };
        if self.log.is_some() {
            return Err(StateError::Unsupported(
                "the session keeps a checkpoint log, which the state does not fill",
            ));
        }
        let grid = self.grid.expect("a tick core implies a grid");
        let mut r = StateReader(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(StateError::Invalid("not a session state"));
        }
        match r.u32()? {
            VERSION => {}
            other => return Err(StateError::Version(other)),
        }
        let name = r.u32()? as usize;
        if r.take(name)? != self.name.as_bytes() {
            return Err(StateError::Mismatch("algorithm"));
        }
        if r.u8()? != backend_code(self.backend) {
            return Err(StateError::Mismatch("backend"));
        }
        if (r.u32()?, r.u32()?) != (grid.time_scale, grid.size_scale) {
            return Err(StateError::Mismatch("grid"));
        }
        if r.bool("the telemetry flag")? != self.telemetry.is_some() {
            return Err(StateError::Mismatch("telemetry setting"));
        }
        if !r.bool("the engine flag")? {
            return r.end();
        }
        let origin = r.i128()?;
        if origin == i128::MIN {
            return Err(StateError::Invalid("the origin"));
        }
        let arrival_at_now = r.bool("the arrival flag")?;
        let scale = i128::from(grid.time_scale);
        let engine =
            TickEngine::read_state(&mut r, policy, origin, scale, i128::from(grid.size_scale))?;
        let now = engine.now().expect("a restored engine has a clock");
        let telemetry = match self.telemetry {
            None => None,
            Some(_) => {
                let now_ticks = now.scaled_to(scale).expect("the clock is on the grid") - origin;
                let span = i128::from(r.u64()?);
                let busy_since = r.opt_u32("telemetry")?.map(i128::from);
                let min_lifetime = r.opt_u32("telemetry")?;
                let max_lifetime = r.opt_u32("telemetry")?;
                if span > now_ticks
                    || busy_since.is_some_and(|t| t > now_ticks)
                    || min_lifetime == Some(0)
                    || max_lifetime == Some(0)
                {
                    return Err(StateError::Invalid("telemetry"));
                }
                let lifetime = |ticks: u32| Rational::new(i128::from(ticks), scale);
                Some(Telemetry {
                    busy_since: busy_since.map(|t| Rational::new(origin + t, scale)),
                    span: Rational::new(span, scale),
                    min_lifetime: min_lifetime.map(lifetime),
                    max_lifetime: max_lifetime.map(lifetime),
                })
            }
        };
        r.end()?;
        self.origin_ticks = Some(origin);
        self.now = Some(now);
        self.arrival_at_now = arrival_at_now;
        self.arrivals = engine.arrivals() as u64;
        self.departures = self.arrivals - engine.active_items() as u64;
        self.telemetry = telemetry;
        self.core = Core::Tick(engine);
        Ok(())
    }

    /// Finalizes the session into the same [`PackingOutcome`] the
    /// batch path produces. Fails with
    /// [`PackingError::ItemsStillActive`] while items remain active.
    pub fn finish(self) -> Result<PackingOutcome, SessionError> {
        let Session {
            core,
            observer,
            mut noop,
            name,
            ..
        } = self;
        match core {
            Core::Exact(engine) => {
                let obs: &mut dyn EngineObserver = match observer {
                    Some(o) => o,
                    None => &mut noop,
                };
                Ok(engine.finish_observed(&name, obs)?)
            }
            Core::Tick(engine) => Ok(engine.finish(&name)?),
            // No event was ever applied: an empty run.
            Core::TickIdle(_) => {
                let obs: &mut dyn EngineObserver = match observer {
                    Some(o) => o,
                    None => &mut noop,
                };
                Ok(PackingEngine::new().finish_observed(&name, obs)?)
            }
        }
    }
}

/// The unified batch entry point: replays a complete [`Instance`]
/// through a [`Session`], with one builder for every option.
///
/// ```
/// use dbp_core::session::Runner;
/// use dbp_core::{FirstFit, Instance};
/// use dbp_numeric::rat;
///
/// let instance = Instance::builder()
///     .item(rat(1, 2), rat(0, 1), rat(2, 1))
///     .item(rat(3, 4), rat(1, 1), rat(3, 1))
///     .build()
///     .unwrap();
/// let out = Runner::new(&instance).run(&mut FirstFit::new()).unwrap();
/// assert_eq!(out.bins_opened(), 2);
/// ```
///
/// With [`Backend::Auto`] (the default) the run is dispatched to the
/// integer tick engine whenever the algorithm has an integer
/// equivalent, the instance compiles, and no observer is attached —
/// the outcome is bit-identical either way, algorithm name included.
pub struct Runner<'a> {
    instance: &'a Instance,
    schedule: Option<&'a EventSchedule<ItemId>>,
    observer: Option<&'a mut dyn EngineObserver>,
    probe: Option<&'a mut dyn PhaseProbe>,
    backend: Backend,
}

impl<'a> Runner<'a> {
    /// A runner over `instance` with defaults: fresh schedule, no
    /// observer, [`Backend::Auto`].
    pub fn new(instance: &'a Instance) -> Runner<'a> {
        Runner {
            instance,
            schedule: None,
            observer: None,
            probe: None,
            backend: Backend::Auto,
        }
    }

    /// Replays a caller-owned prebuilt schedule (one
    /// [`event_schedule`] shared across many runs) instead of
    /// rebuilding it. The schedule must belong to this instance.
    pub fn schedule(mut self, schedule: &'a EventSchedule<ItemId>) -> Runner<'a> {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches a passive observer (forces the exact engine).
    pub fn observer(mut self, obs: &'a mut dyn EngineObserver) -> Runner<'a> {
        self.observer = Some(obs);
        self
    }

    /// Attaches a self-profiling [`PhaseProbe`]. Probes run on both
    /// engines, so unlike [`observer`](Runner::observer) this does
    /// not change how [`Backend::Auto`] dispatches, and outcomes are
    /// bit-identical to an unprobed run.
    pub fn probe(mut self, probe: &'a mut dyn PhaseProbe) -> Runner<'a> {
        self.probe = Some(probe);
        self
    }

    /// Selects the engine policy (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Runner<'a> {
        self.backend = backend;
        self
    }

    /// Runs `algo` over the instance and returns the completed
    /// outcome.
    pub fn run(self, algo: &mut dyn PackingAlgorithm) -> Result<PackingOutcome, SessionError> {
        match self.backend {
            Backend::Tick => {
                if self.observer.is_some() {
                    return Err(SessionError::TickUnavailable(
                        "observers require the exact engine",
                    ));
                }
                let policy = algo.tick_policy().ok_or(SessionError::TickUnavailable(
                    "algorithm has no integer-engine equivalent",
                ))?;
                let compiled =
                    CompiledInstance::compile(self.instance).map_err(SessionError::Compile)?;
                algo.reset();
                Self::run_compiled(&compiled, policy, algo, self.probe)
            }
            Backend::Auto => {
                if let (Some(policy), None) = (algo.tick_policy(), self.observer.as_ref()) {
                    if let Ok(compiled) = CompiledInstance::compile(self.instance) {
                        algo.reset();
                        return Self::run_compiled(&compiled, policy, algo, self.probe);
                    }
                }
                self.run_exact(algo)
            }
            Backend::Exact => self.run_exact(algo),
        }
    }

    /// The batch tick path: replay the pre-compiled schedule on the
    /// integer engine. Relabeled with the driven algorithm's own name,
    /// which the exact engine would report.
    fn run_compiled(
        compiled: &CompiledInstance,
        policy: TickPolicy,
        algo: &mut dyn PackingAlgorithm,
        probe: Option<&mut dyn PhaseProbe>,
    ) -> Result<PackingOutcome, SessionError> {
        let name = algo.name();
        let outcome = match probe {
            Some(p) => compiled.run_probed(policy, p)?,
            None => compiled.run(policy)?,
        };
        Ok(outcome.with_algorithm(&name))
    }

    /// The exact path: drive a (checkpoint-free) streaming session with
    /// the batch schedule.
    fn run_exact(self, algo: &mut dyn PackingAlgorithm) -> Result<PackingOutcome, SessionError> {
        let built;
        let schedule = match self.schedule {
            Some(s) => s,
            None => {
                built = event_schedule(self.instance);
                &built
            }
        };
        let mut builder = Session::builder(algo)
            .backend(Backend::Exact)
            .without_checkpoints();
        if let Some(obs) = self.observer {
            builder = builder.observer(obs);
        }
        if let Some(p) = self.probe {
            builder = builder.probe(p);
        }
        let mut session = builder.build()?;
        for ev in schedule {
            match ev.class {
                EventClass::Arrival => {
                    let size = self.instance.item(ev.payload).size;
                    session.arrive(ev.payload, size, ev.time)?;
                }
                EventClass::Departure => {
                    session.depart(ev.payload, ev.time)?;
                }
                EventClass::Control => {}
            }
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BestFit, FirstFit, RandomFit};
    use dbp_numeric::rat;

    /// Mid-run closures, exact fills, equal-time boundaries.
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

    /// The batch schedule of `instance` as a stream event list.
    fn events_of(instance: &Instance) -> Vec<Event> {
        let schedule = event_schedule(instance);
        schedule
            .iter()
            .map(|ev| match ev.class {
                EventClass::Arrival => StreamEvent::Arrive {
                    id: ev.payload,
                    size: instance.item(ev.payload).size,
                    time: ev.time,
                },
                EventClass::Departure => StreamEvent::Depart {
                    id: ev.payload,
                    time: ev.time,
                },
                EventClass::Control => unreachable!("schedules carry no control events"),
            })
            .collect()
    }

    #[test]
    fn streamed_session_matches_batch_runner() {
        let inst = scenario();
        let batch = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        let mut session = Session::builder(FirstFit::new()).build().unwrap();
        session.ingest(&events_of(&inst)).unwrap();
        assert_eq!(session.finish().unwrap(), batch);
    }

    #[test]
    fn tick_hot_path_engages_and_matches_exact() {
        let inst = scenario();
        let grid = TickGrid::for_instance(&inst).unwrap();
        let exact = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        let mut session = Session::builder(FirstFit::new())
            .grid(grid)
            .build()
            .unwrap();
        assert!(session.tick_active());
        session.ingest(&events_of(&inst)).unwrap();
        assert!(session.tick_active());
        assert_eq!(session.finish().unwrap(), exact);
    }

    #[test]
    fn off_grid_event_promotes_transparently() {
        let inst = scenario();
        // A unit grid: the integer timestamps of `scenario` fit, the
        // half-integer event below does not.
        let grid = TickGrid::new(1, 10);
        let exact = {
            let mut s = Session::builder(FirstFit::new())
                .backend(Backend::Exact)
                .build()
                .unwrap();
            s.ingest(&events_of(&inst)).unwrap();
            s.arrive(ItemId(9), rat(1, 2), rat(21, 2)).unwrap();
            s.depart(ItemId(9), rat(11, 1)).unwrap();
            s.finish().unwrap()
        };
        let mut s = Session::builder(FirstFit::new())
            .grid(grid)
            .build()
            .unwrap();
        s.ingest(&events_of(&inst)).unwrap();
        assert!(s.tick_active());
        s.arrive(ItemId(9), rat(1, 2), rat(21, 2)).unwrap();
        assert!(!s.tick_active());
        s.depart(ItemId(9), rat(11, 1)).unwrap();
        assert_eq!(s.finish().unwrap(), exact);
    }

    #[test]
    fn mid_run_promotion_preserves_live_metrics() {
        // Promote while bins are open and compare every counter
        // against an exact-only twin.
        let grid = TickGrid::new(1, 4);
        let mut tick = Session::builder(FirstFit::new())
            .grid(grid)
            .build()
            .unwrap();
        let mut exact = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .build()
            .unwrap();
        let feed = [
            StreamEvent::Arrive {
                id: ItemId(0),
                size: rat(3, 4),
                time: rat(0, 1),
            },
            StreamEvent::Arrive {
                id: ItemId(1),
                size: rat(1, 2),
                time: rat(1, 1),
            },
            StreamEvent::Depart {
                id: ItemId(0),
                time: rat(2, 1),
            },
            // Off-grid time: forces the promotion.
            StreamEvent::Arrive {
                id: ItemId(2),
                size: rat(1, 4),
                time: rat(5, 2),
            },
        ];
        tick.ingest(&feed).unwrap();
        exact.ingest(&feed).unwrap();
        assert!(!tick.tick_active());
        assert_eq!(tick.metrics(), exact.metrics());
        let drain = [
            StreamEvent::Depart {
                id: ItemId(1),
                time: rat(3, 1),
            },
            StreamEvent::Depart {
                id: ItemId(2),
                time: rat(4, 1),
            },
        ];
        tick.ingest(&drain).unwrap();
        exact.ingest(&drain).unwrap();
        assert_eq!(tick.metrics(), exact.metrics());
        assert_eq!(tick.finish().unwrap(), exact.finish().unwrap());
    }

    /// Promotion rebuilds each open bin's contents from its item log,
    /// where an id that departed and arrived again occurs twice and
    /// only the later occurrence is active. Id 0 re-arrives into its
    /// own bin (bin 0's log reads `[0, 1, 0, 2]` when the session
    /// promotes), id 3 into a new bin; the promoted session must
    /// finish bit for bit as an exact one.
    #[test]
    fn promotion_with_re_arrived_ids_matches_the_exact_engine() {
        let arrive = |id, size, time| StreamEvent::Arrive {
            id: ItemId(id),
            size,
            time,
        };
        let depart = |id, time| StreamEvent::Depart {
            id: ItemId(id),
            time,
        };
        let mut tick = Session::builder(FirstFit::new())
            .grid(TickGrid::new(1, 4))
            .build()
            .unwrap();
        let mut exact = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .build()
            .unwrap();
        let feed = [
            arrive(0, rat(1, 2), rat(0, 1)), // bin 0
            arrive(1, rat(1, 4), rat(0, 1)), // bin 0
            arrive(3, rat(3, 4), rat(0, 1)), // bin 1
            depart(0, rat(1, 1)),
            depart(3, rat(1, 1)),            // bin 1 closes
            arrive(0, rat(1, 4), rat(1, 1)), // bin 0 again
            arrive(2, rat(1, 4), rat(1, 1)), // bin 0
            arrive(3, rat(1, 2), rat(1, 1)), // bin 2
            // Off-grid size and time: promotes the session.
            arrive(4, rat(2, 3), rat(5, 2)), // bin 3
        ];
        tick.ingest(&feed).unwrap();
        exact.ingest(&feed).unwrap();
        assert!(!tick.tick_active());
        assert_eq!(tick.metrics(), exact.metrics());
        // What algorithms see: each open bin's active items, in
        // arrival order — bin 0 holds the later 0, after 1.
        let open_bins = |s: &Session| match &s.core {
            Core::Exact(engine) => engine.snapshot().open_bins().to_vec(),
            _ => unreachable!("both sessions run on the exact engine"),
        };
        let promoted = open_bins(&tick);
        assert_eq!(promoted, open_bins(&exact));
        let bin0: Vec<u32> = promoted[0].contents.iter().map(|c| c.0 .0).collect();
        assert_eq!(bin0, vec![1, 0, 2]);
        let drain = [
            depart(0, rat(3, 1)),
            depart(3, rat(3, 1)),
            arrive(0, rat(1, 2), rat(3, 1)), // bin 0 a third time
            depart(1, rat(4, 1)),
            depart(2, rat(4, 1)),
            depart(4, rat(4, 1)),
            depart(0, rat(5, 1)),
        ];
        tick.ingest(&drain).unwrap();
        exact.ingest(&drain).unwrap();
        let out = tick.finish().unwrap();
        assert_eq!(out, exact.finish().unwrap());
        let logs: Vec<Vec<u32>> = out
            .bins()
            .iter()
            .map(|b| b.items.iter().map(|i| i.0).collect())
            .collect();
        assert_eq!(logs, vec![vec![0, 1, 0, 2, 0], vec![3], vec![3], vec![4]]);
    }

    #[test]
    fn strict_tick_rejects_off_grid_events() {
        let grid = TickGrid::new(1, 2);
        let mut s = Session::builder(FirstFit::new())
            .backend(Backend::Tick)
            .grid(grid)
            .build()
            .unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        assert_eq!(
            s.arrive(ItemId(1), rat(1, 2), rat(1, 2)),
            Err(SessionError::OffGrid {
                what: "time",
                value: rat(1, 2)
            })
        );
        assert_eq!(
            s.arrive(ItemId(1), rat(1, 3), rat(1, 1)),
            Err(SessionError::OffGrid {
                what: "size",
                value: rat(1, 3)
            })
        );
        // Still on the tick engine and still usable on-grid.
        assert!(s.tick_active());
        s.arrive(ItemId(1), rat(1, 2), rat(1, 1)).unwrap();
    }

    /// How the contract's rejections and the grid rank: a duplicate
    /// arrival or unknown departure is named before `OffGrid` and
    /// never promotes an `Auto` session; an event off the grid in both
    /// time and size names the time, on the first event and mid-run; a
    /// departure as the first event is unknown, on or off the grid;
    /// and `u32::MAX` ticks past the origin is the last on-grid tick.
    #[test]
    fn rejections_outrank_off_grid_and_time_is_named_first() {
        let unknown = |id| Err(SessionError::Packing(PackingError::UnknownItem(ItemId(id))));
        let duplicate = |id| {
            Err(SessionError::Packing(PackingError::DuplicateItem(ItemId(
                id,
            ))))
        };
        let off_time = |value| {
            Err(SessionError::OffGrid {
                what: "time",
                value,
            })
        };
        let third = rat(1, 3);
        let horizon = rat(u32::MAX as i128, 1);
        for backend in [Backend::Auto, Backend::Tick] {
            let strict = backend == Backend::Tick;
            let mut s = Session::builder(FirstFit::new())
                .backend(backend)
                .grid(TickGrid::new(1, 4))
                .build()
                .unwrap();
            assert_eq!(s.depart(ItemId(0), rat(0, 1)), unknown(0));
            assert_eq!(s.depart(ItemId(0), third), unknown(0));
            if strict {
                assert_eq!(s.arrive(ItemId(0), third, third), off_time(third));
            }
            s.arrive(ItemId(0), rat(1, 4), rat(0, 1)).unwrap();
            let before = (s.metrics(), s.snapshot().unwrap());
            for (size, time) in [(third, rat(0, 1)), (rat(1, 4), third), (third, third)] {
                assert_eq!(s.arrive(ItemId(0), size, time), duplicate(0));
            }
            assert_eq!(s.depart(ItemId(9), third), unknown(9));
            if strict {
                assert_eq!(s.arrive(ItemId(1), third, third), off_time(third));
            }
            assert!(s.tick_active());
            assert_eq!((s.metrics(), s.snapshot().unwrap()), before);
            s.arrive(ItemId(1), rat(1, 4), horizon).unwrap();
            assert!(s.tick_active());
            let past = horizon + Rational::ONE;
            let result = s.arrive(ItemId(2), rat(1, 4), past);
            if strict {
                assert_eq!(result, off_time(past));
            } else {
                assert_eq!(result, Ok(BinId(0)));
            }
            assert_eq!(s.tick_active(), strict);
        }
    }

    #[test]
    fn strict_tick_rejects_incapable_configurations() {
        assert_eq!(
            Session::builder(FirstFit::new())
                .backend(Backend::Tick)
                .build()
                .unwrap_err(),
            SessionError::TickUnavailable("no tick grid declared")
        );
        assert_eq!(
            Session::builder(RandomFit::seeded(7))
                .backend(Backend::Tick)
                .grid(TickGrid::new(1, 2))
                .build()
                .unwrap_err(),
            SessionError::TickUnavailable("algorithm has no integer-engine equivalent")
        );
        let mut obs = NoopObserver;
        assert_eq!(
            Session::builder(FirstFit::new())
                .backend(Backend::Tick)
                .grid(TickGrid::new(1, 2))
                .observer(&mut obs)
                .build()
                .unwrap_err(),
            SessionError::TickUnavailable("observers require the exact engine")
        );
    }

    #[test]
    fn online_contract_violations_are_typed_and_harmless() {
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(1, 1)).unwrap();
        // Time regression.
        assert_eq!(
            s.arrive(ItemId(1), rat(1, 2), rat(0, 1)),
            Err(SessionError::Packing(PackingError::TimeRegression {
                now: rat(1, 1),
                event: rat(0, 1)
            }))
        );
        // Duplicate arrival.
        assert_eq!(
            s.arrive(ItemId(0), rat(1, 4), rat(2, 1)),
            Err(SessionError::Packing(PackingError::DuplicateItem(ItemId(
                0
            ))))
        );
        // Unknown departure.
        assert_eq!(
            s.depart(ItemId(9), rat(2, 1)),
            Err(SessionError::Packing(PackingError::UnknownItem(ItemId(9))))
        );
        // Departure after an arrival at the same instant.
        assert_eq!(
            s.depart(ItemId(0), rat(1, 1)),
            Err(SessionError::DepartureAfterArrival { time: rat(1, 1) })
        );
        // Size outside (0, 1].
        assert_eq!(
            s.arrive(ItemId(1), rat(3, 2), rat(2, 1)),
            Err(SessionError::InvalidSize {
                id: ItemId(1),
                size: rat(3, 2)
            })
        );
        // None of the rejections perturbed the books.
        let m = s.metrics();
        assert_eq!((m.events, m.arrivals, m.active_items), (1, 1, 1));
        // Same-instant departure is fine once time advances, and
        // departure-then-arrival at one instant is the canonical
        // half-open order.
        s.depart(ItemId(0), rat(2, 1)).unwrap();
        s.arrive(ItemId(1), rat(1, 2), rat(2, 1)).unwrap();
        s.depart(ItemId(1), rat(3, 1)).unwrap();
        s.finish().unwrap();
    }

    #[test]
    fn rejected_events_stay_out_of_the_journal() {
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        let _ = s.arrive(ItemId(0), rat(1, 2), rat(1, 1));
        let _ = s.depart(ItemId(5), rat(1, 1));
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.events.len(), 1);
        let resumed = Session::resume(&snap).unwrap();
        assert_eq!(resumed.metrics(), s.metrics());
    }

    #[test]
    fn live_metrics_track_the_run() {
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        assert_eq!(s.metrics().usage_time, Rational::ZERO);
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        s.arrive(ItemId(1), rat(3, 4), rat(0, 1)).unwrap();
        let m = s.metrics();
        assert_eq!(m.open_bins, 2);
        assert_eq!(m.load, rat(5, 4));
        assert_eq!(m.usage_time, Rational::ZERO);
        s.depart(ItemId(0), rat(2, 1)).unwrap();
        let m = s.metrics();
        assert_eq!(m.open_bins, 1);
        assert_eq!(m.active_items, 1);
        assert_eq!(m.load, rat(3, 4));
        // Bin 0 closed with usage 2; bin 1 open since 0, now = 2.
        assert_eq!(m.usage_time, rat(4, 1));
        s.depart(ItemId(1), rat(3, 1)).unwrap();
        let m = s.metrics();
        assert_eq!(m.usage_time, rat(5, 1));
        assert_eq!(m.peak_open_bins, 2);
        assert_eq!(m.bins_opened, 2);
        let out = s.finish().unwrap();
        assert_eq!(out.total_usage(), rat(5, 1));
    }

    #[test]
    fn tick_and_exact_metrics_agree_mid_run() {
        let inst = scenario();
        let grid = TickGrid::for_instance(&inst).unwrap();
        let events = events_of(&inst);
        let mut tick = Session::builder(FirstFit::new())
            .grid(grid)
            .build()
            .unwrap();
        let mut exact = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .build()
            .unwrap();
        for ev in &events {
            tick.apply(ev).unwrap();
            exact.apply(ev).unwrap();
            assert_eq!(tick.metrics(), exact.metrics());
        }
        assert!(tick.tick_active());
    }

    #[test]
    fn snapshot_resume_round_trips_mid_run() {
        let inst = scenario();
        let events = events_of(&inst);
        for cut in 0..=events.len() {
            let mut s = Session::builder(BestFit::new()).build().unwrap();
            s.ingest(&events[..cut]).unwrap();
            let snap = s.snapshot().unwrap();
            // The snapshot survives the serde data model.
            let snap = SessionSnapshot::from_value(&snap.to_value()).unwrap();
            let mut resumed = Session::resume(&snap).unwrap();
            assert_eq!(resumed.metrics(), s.metrics());
            resumed.ingest(&events[cut..]).unwrap();
            s.ingest(&events[cut..]).unwrap();
            assert_eq!(resumed.finish().unwrap(), s.finish().unwrap());
        }
    }

    #[test]
    fn checkpoints_naming_a_retired_tree_variant_resume() {
        let inst = scenario();
        let events = events_of(&inst);
        let cut = events.len() / 2;
        let mut s = Session::builder(BestFit::new()).build().unwrap();
        s.ingest(&events[..cut]).unwrap();
        let mut snap = s.snapshot().unwrap();
        snap.algorithm = "BestFitFast".into();
        let mut resumed = Session::resume(&snap).unwrap();
        assert_eq!(resumed.metrics(), s.metrics());
        resumed.ingest(&events[cut..]).unwrap();
        s.ingest(&events[cut..]).unwrap();
        let out = resumed.finish().unwrap();
        assert_eq!(out.algorithm(), "BestFit");
        assert_eq!(out, s.finish().unwrap());
    }

    #[test]
    fn resume_guards_algorithm_identity() {
        let mut s = Session::builder(RandomFit::seeded(42)).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        let snap = s.snapshot().unwrap();
        // RandomFit is not reconstructible from its name alone…
        assert_eq!(
            Session::resume(&snap).unwrap_err(),
            SessionError::UnknownAlgorithm("RandomFit".into())
        );
        // …but resumes with the matching seeded value.
        let resumed = Session::resume_with(&snap, RandomFit::seeded(42)).unwrap();
        assert_eq!(resumed.metrics(), s.metrics());
        assert_eq!(
            Session::resume_with(&snap, FirstFit::new()).unwrap_err(),
            SessionError::AlgorithmMismatch {
                expected: "RandomFit".into(),
                got: "FirstFit".into()
            }
        );
    }

    /// The log holds each event the tick engine applied as a 12-byte
    /// record and each event the exact engine applied as an `Event`,
    /// and the snapshot rebuilds both, in order, exactly as sent: a
    /// nonzero origin, a reducible size and time, and a promotion
    /// mid-run included.
    #[test]
    fn checkpoint_log_keeps_tick_records_then_events() {
        assert_eq!(std::mem::size_of::<TickEntry>(), 12);
        let feed = [
            StreamEvent::Arrive {
                id: ItemId(7),
                size: rat(1, 2),
                time: rat(5, 2),
            },
            StreamEvent::Arrive {
                id: ItemId(3),
                size: rat(3, 4),
                time: rat(3, 1),
            },
            StreamEvent::Depart {
                id: ItemId(7),
                time: rat(7, 2),
            },
            // Off the quarter-unit size grid: promotes the session.
            StreamEvent::Arrive {
                id: ItemId(1),
                size: rat(1, 3),
                time: rat(4, 1),
            },
            StreamEvent::Depart {
                id: ItemId(3),
                time: rat(9, 2),
            },
        ];
        let mut s = Session::builder(FirstFit::new())
            .grid(TickGrid::new(2, 4))
            .build()
            .unwrap();
        s.ingest(&feed[..3]).unwrap();
        assert_eq!(s.snapshot().unwrap().events, feed[..3]);
        s.ingest(&feed[3..]).unwrap();
        assert!(!s.tick_active());
        let log = s.log.as_ref().unwrap();
        assert_eq!((log.ticks.len(), log.exact.len()), (3, 2));
        assert_eq!(s.snapshot().unwrap().events, feed);
    }

    #[test]
    fn checkpoints_can_be_disabled() {
        let s = Session::builder(FirstFit::new())
            .without_checkpoints()
            .build()
            .unwrap();
        assert_eq!(s.snapshot().unwrap_err(), SessionError::CheckpointsDisabled);
    }

    #[test]
    fn observers_see_the_streamed_run() {
        struct Count(usize);
        impl EngineObserver for Count {
            fn on_arrival(
                &mut self,
                _: &crate::algo::ArrivalView,
                _: &crate::bin::BinSnapshot<'_>,
            ) {
                self.0 += 1;
            }
        }
        let inst = scenario();
        let mut count = Count(0);
        let mut s = Session::builder(FirstFit::new())
            .observer(&mut count)
            .grid(TickGrid::for_instance(&inst).unwrap())
            .build()
            .unwrap();
        // The observer forces the exact engine even with a grid.
        assert!(!s.tick_active());
        s.ingest(&events_of(&inst)).unwrap();
        s.finish().unwrap();
        assert_eq!(count.0, inst.len());
    }

    #[test]
    fn finish_rejects_active_items_and_empty_runs_succeed() {
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        assert_eq!(
            s.finish().unwrap_err(),
            SessionError::Packing(PackingError::ItemsStillActive(1))
        );
        let empty = Session::builder(FirstFit::new()).build().unwrap();
        let out = empty.finish().unwrap();
        assert_eq!(out.bins_opened(), 0);
        assert_eq!(out.algorithm(), "FirstFit");
        // Tick-idle sessions drain to the same empty outcome.
        let idle = Session::builder(FirstFit::new())
            .grid(TickGrid::new(1, 2))
            .build()
            .unwrap();
        assert_eq!(idle.finish().unwrap(), out);
    }

    #[test]
    fn runner_backends_and_prebuilt_schedules_agree() {
        let inst = scenario();
        let exact = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        let auto = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        let tick = Runner::new(&inst)
            .backend(Backend::Tick)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(auto, exact);
        assert_eq!(tick, exact);
        let sched = event_schedule(&inst);
        let scheduled = Runner::new(&inst)
            .schedule(&sched)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        assert_eq!(scheduled, exact);
    }

    #[test]
    fn runner_strict_tick_reports_typed_failures() {
        let inst = scenario();
        assert_eq!(
            Runner::new(&inst)
                .backend(Backend::Tick)
                .run(&mut RandomFit::seeded(1))
                .unwrap_err(),
            SessionError::TickUnavailable("algorithm has no integer-engine equivalent")
        );
        let huge = Instance::builder()
            .item(rat(1, 2), rat(1, 99991), rat(2, 1))
            .item(rat(1, 2), rat(1, 99989), rat(2, 1))
            .build()
            .unwrap();
        assert_eq!(
            Runner::new(&huge)
                .backend(Backend::Tick)
                .run(&mut FirstFit::new())
                .unwrap_err(),
            SessionError::Compile(CompileError::TimeScaleOverflow)
        );
        // Auto degrades to the exact engine instead.
        let auto = Runner::new(&huge).run(&mut FirstFit::new()).unwrap();
        assert_eq!(auto.bins_opened(), 1);
    }

    #[test]
    fn runner_auto_promotes_nothing_it_should_not() {
        // An observer must force the exact engine under Auto.
        struct Fail;
        impl EngineObserver for Fail {}
        let inst = scenario();
        let mut obs = Fail;
        let observed = Runner::new(&inst)
            .observer(&mut obs)
            .run(&mut FirstFit::new())
            .unwrap();
        let plain = Runner::new(&inst).run(&mut FirstFit::new()).unwrap();
        assert_eq!(observed, plain);
    }

    #[test]
    fn telemetry_tracks_vol_span_and_lifetimes() {
        let mut s = Session::builder(FirstFit::new())
            .telemetry()
            .build()
            .unwrap();
        // Item 0: size 1/2 over [0, 4]; item 1: size 1/4 over [1, 2];
        // idle gap (4, 6); item 2: size 1/2 over [6, 7].
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        s.arrive(ItemId(1), rat(1, 4), rat(1, 1)).unwrap();
        s.depart(ItemId(1), rat(2, 1)).unwrap();
        s.depart(ItemId(0), rat(4, 1)).unwrap();
        s.arrive(ItemId(2), rat(1, 2), rat(6, 1)).unwrap();
        s.depart(ItemId(2), rat(7, 1)).unwrap();
        let m = s.metrics();
        // vol = Σ sᵢ·lenᵢ = 1/2·4 + 1/4·1 + 1/2·1 = 11/4.
        assert_eq!(m.vol, Some(rat(11, 4)));
        // span = |[0,4] ∪ [6,7]| = 5 (the idle gap does not count).
        assert_eq!(m.span, Some(rat(5, 1)));
        assert_eq!(m.min_lifetime, Some(rat(1, 1)));
        assert_eq!(m.max_lifetime, Some(rat(4, 1)));
        assert_eq!(m.lower_bound(), Some(rat(5, 1)));
        assert_eq!(m.mu_estimate(), Some(rat(4, 1)));
        // One bin the whole busy time: usage = 5, ratio estimate 1.
        assert_eq!(m.ratio_upper_estimate(), Some(rat(1, 1)));
        s.finish().unwrap();
    }

    #[test]
    fn telemetry_is_backend_independent_and_resumes() {
        let inst = scenario();
        let events = events_of(&inst);
        let grid = TickGrid::for_instance(&inst).unwrap();
        let mut exact = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .telemetry()
            .build()
            .unwrap();
        exact.ingest(&events).unwrap();
        let mut tick = Session::builder(FirstFit::new())
            .grid(grid)
            .telemetry()
            .build()
            .unwrap();
        tick.ingest(&events).unwrap();
        assert!(tick.tick_active());
        let (me, mt) = (exact.metrics(), tick.metrics());
        // Stream-derived telemetry cannot depend on the engine.
        assert_eq!(me.vol, mt.vol);
        assert_eq!(me.span, mt.span);
        assert_eq!(me.min_lifetime, mt.min_lifetime);
        assert_eq!(me.max_lifetime, mt.max_lifetime);
        assert!(me.vol.is_some() && me.vol.unwrap().is_positive());
        assert!(me.ratio_upper_estimate().unwrap() >= Rational::ONE);
        // Resuming a telemetry session keeps the accounting running.
        let cut = events.len() / 2;
        let mut first = Session::builder(FirstFit::new())
            .telemetry()
            .build()
            .unwrap();
        first.ingest(&events[..cut]).unwrap();
        let snap = first.snapshot().unwrap();
        assert!(snap.telemetry);
        let mut resumed = Session::resume(&snap).unwrap();
        resumed.ingest(&events[cut..]).unwrap();
        assert_eq!(resumed.metrics(), me);
    }

    #[test]
    fn telemetry_off_leaves_metrics_none() {
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        s.depart(ItemId(0), rat(1, 1)).unwrap();
        let m = s.metrics();
        assert_eq!(m.vol, None);
        assert_eq!(m.span, None);
        assert_eq!(m.lower_bound(), None);
        assert_eq!(m.mu_estimate(), None);
        assert_eq!(m.ratio_upper_estimate(), None);
    }

    /// The per-axis divisor memo is `Rational::scaled_to` with a
    /// cache. On a cold memo, on a memo primed by the same value and
    /// on one primed by another denominator, it returns what
    /// `scaled_to` returns: denominators below, at and above each
    /// scale and across the `u32` and `u64` boundaries, numerators
    /// past ±2⁶³ (where the product leaves the inlined multiply) and
    /// near the `i128` limits (where it overflows).
    #[test]
    fn memo_scaled_matches_scaled_to() {
        const U32: i128 = u32::MAX as i128;
        const U64: i128 = u64::MAX as i128;
        const TWO_63: i128 = 1 << 63;
        let scales = [1, 2, 3, 1024, 3 << 20, 1 << 31, U32 - 1, U32];
        let dens = [
            1,
            2,
            3,
            5,
            1024,
            3 << 20,
            1 << 31,
            U32 - 1,
            U32,
            U32 + 1,
            U32 + 2,
            U64,
            U64 + 1,
            U64 + 2,
        ];
        let nums = [
            0,
            1,
            -1,
            7,
            -7,
            TWO_63 - 1,
            TWO_63,
            TWO_63 + 1,
            1 - TWO_63,
            -TWO_63,
            -TWO_63 - 1,
            i128::MAX / 5,
            i128::MIN / 5,
        ];
        for scale in scales {
            for den in dens {
                for num in nums {
                    let value = Rational::new(num, den);
                    let expected = value.scaled_to(scale);
                    let mut cold = (0, 0);
                    let mut other = (0, 0);
                    Session::memo_scaled(&mut other, Rational::ONE, scale);
                    for memo in [&mut cold, &mut other] {
                        for pass in ["first", "again"] {
                            assert_eq!(
                                Session::memo_scaled(memo, value, scale),
                                expected,
                                "{value} on scale {scale}, {pass} call"
                            );
                        }
                    }
                }
            }
        }
    }
}
