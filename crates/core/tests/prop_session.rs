//! Property-based tests of the streaming session layer.
//!
//! The contract under test (DESIGN.md, "Streaming sessions"): feeding
//! a session the canonical event stream of an instance produces an
//! outcome *bit-identical* to the batch [`Runner`] replay — same
//! assignments, same usage intervals, same totals — for every
//! algorithm and engine backend, and a session checkpointed and
//! resumed at any point finishes exactly like one that never stopped.

use dbp_core::prelude::*;
use dbp_core::session::{Session, SessionMetrics, SessionSnapshot};
use dbp_core::{event_schedule, CompiledInstance, PackingAlgorithm, TickPolicy, SCAN_CROSSOVER};
use dbp_numeric::{rat, Rational};
use dbp_obs::telemetry_registry;
use dbp_simcore::EventClass;
use proptest::prelude::*;

/// Strategy: a well-formed instance with up to 20 items, sizes from
/// small fractions, arrivals on a quarter grid — lots of equal-time
/// ties so the departure-before-arrival canonical order is exercised.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 1i128..=8, 0i128..=40, 1i128..=16).prop_map(|(num, den, arr4, dur4)| {
        let size = rat(num.min(den), den);
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..20)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// Strategy: an instance that fits a `TickGrid::new(4, 8)` — sizes
/// are eighths, times are quarters — so Auto sessions with a declared
/// grid run on the integer tick engine.
fn gridded_instance_strategy() -> impl Strategy<Value = Instance> {
    let item = (1i128..=8, 0i128..=40, 1i128..=16).prop_map(|(eighths, arr4, dur4)| {
        let size = rat(eighths, 8);
        let arrival = rat(arr4, 4);
        let duration = rat(dur4, 4);
        (size, arrival, arrival + duration)
    });
    prop::collection::vec(item, 0..20)
        .prop_map(|specs| Instance::new(specs).expect("strategy produces valid specs"))
}

/// The canonical wire stream of an instance: the batch engine's own
/// event order (time-sorted, departures before arrivals at ties),
/// rendered as [`Event`]s.
fn events_of(inst: &Instance) -> Vec<Event> {
    event_schedule(inst)
        .iter()
        .map(|entry| match entry.class {
            EventClass::Arrival => Event::Arrive {
                id: entry.payload,
                size: inst.item(entry.payload).size,
                time: entry.time,
            },
            EventClass::Departure => Event::Depart {
                id: entry.payload,
                time: entry.time,
            },
            EventClass::Control => unreachable!("instances schedule no control events"),
        })
        .collect()
}

/// Algorithms a session can stream through: the tick-capable Any-Fit
/// algorithms.
fn algorithms() -> Vec<Box<dyn PackingAlgorithm>> {
    vec![
        Box::new(FirstFit::new()),
        Box::new(BestFit::new()),
        Box::new(WorstFit::new()),
    ]
}

/// Streams `events` into a fresh session built by `make` and finishes
/// it.
fn stream(
    events: &[Event],
    make: impl FnOnce() -> Result<Session<'static>, SessionError>,
) -> PackingOutcome {
    let mut session = make().expect("session builds");
    session.ingest(events).expect("canonical stream is valid");
    session.finish().expect("finish after a valid stream")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming one event at a time is bit-identical to the batch
    /// replay, for every algorithm.
    #[test]
    fn streaming_matches_batch_bit_for_bit(inst in instance_strategy()) {
        let events = events_of(&inst);
        for mut algo in algorithms() {
            let batch = Runner::new(&inst)
                .backend(Backend::Exact)
                .run(algo.as_mut())
                .unwrap();
            let name = batch.algorithm().to_string();
            let streamed = match name.as_str() {
                "FirstFit" => stream(&events, || Session::builder(FirstFit::new()).build()),
                "BestFit" => stream(&events, || Session::builder(BestFit::new()).build()),
                "WorstFit" => stream(&events, || Session::builder(WorstFit::new()).build()),
                other => unreachable!("unexpected algorithm {other}"),
            };
            prop_assert_eq!(streamed, batch);
        }
    }

    /// With a declared grid, an Auto session runs the integer tick
    /// engine — and its outcome is still bit-identical to the exact
    /// batch replay.
    #[test]
    fn tick_sessions_match_exact_batch(inst in gridded_instance_strategy()) {
        let events = events_of(&inst);
        let batch = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(&mut FirstFit::new())
            .unwrap();
        let mut session = Session::builder(FirstFit::new())
            .grid(TickGrid::new(4, 8))
            .build()
            .unwrap();
        session.ingest(&events).unwrap();
        if !events.is_empty() {
            prop_assert!(session.tick_active(), "grid declared but tick not engaged");
        }
        prop_assert_eq!(session.finish().unwrap(), batch);
    }

    /// A session snapshotted after a random prefix and resumed from
    /// the checkpoint finishes exactly like one that never stopped.
    #[test]
    fn snapshot_resume_is_seamless(inst in instance_strategy(), cut in 0usize..=40) {
        let events = events_of(&inst);
        let full = stream(&events, || Session::builder(FirstFit::new()).build());

        let cut = cut.min(events.len());
        let mut first = Session::builder(FirstFit::new()).build().unwrap();
        first.ingest(&events[..cut]).unwrap();
        let checkpoint = first.snapshot().unwrap();

        let mut resumed = Session::resume(&checkpoint).unwrap();
        prop_assert_eq!(resumed.metrics(), first.metrics());
        resumed.ingest(&events[cut..]).unwrap();
        prop_assert_eq!(resumed.finish().unwrap(), full);
    }

    /// One session's telemetry registry is byte-identical whichever
    /// engine runs it: a gridded stream on `Backend::Exact`,
    /// `Backend::Tick` and `Backend::Auto` renders the same
    /// `telemetry_registry` snapshot at a random cut (items still
    /// active) and after its last event.
    #[test]
    fn telemetry_registries_are_byte_identical_across_backends(
        inst in gridded_instance_strategy(),
        cut in 0usize..=40,
    ) {
        let events = events_of(&inst);
        for prefix in [&events[..cut.min(events.len())], &events[..]] {
            let registry = |backend| {
                let mut session = Session::builder(FirstFit::new())
                    .backend(backend)
                    .grid(TickGrid::new(4, 8))
                    .telemetry()
                    .build()
                    .unwrap();
                session.ingest(prefix).unwrap();
                telemetry_registry(&session.metrics()).to_json_pretty()
            };
            let exact = registry(Backend::Exact);
            prop_assert_eq!(registry(Backend::Tick), exact.clone());
            prop_assert_eq!(registry(Backend::Auto), exact);
        }
    }

    /// Live metrics agree with the finished outcome: after the last
    /// event, accrued usage equals the outcome's total usage and the
    /// bin tallies match.
    #[test]
    fn final_metrics_agree_with_outcome(inst in instance_strategy()) {
        let events = events_of(&inst);
        let mut session = Session::builder(BestFit::new()).build().unwrap();
        session.ingest(&events).unwrap();
        let metrics = session.metrics();
        let outcome = session.finish().unwrap();
        prop_assert_eq!(metrics.events as usize, events.len());
        prop_assert_eq!(metrics.arrivals as usize, inst.len());
        prop_assert_eq!(metrics.departures as usize, inst.len());
        prop_assert_eq!(metrics.bins_opened, outcome.bins().len());
        prop_assert_eq!(metrics.usage_time, outcome.total_usage());
        prop_assert_eq!(metrics.open_bins, 0);
        prop_assert_eq!(metrics.active_items, 0);
    }
}

// ---------------------------------------------------------------
// Typed rejection: every contract violation maps to a specific
// `SessionError`, and a rejected event never corrupts the session.
// ---------------------------------------------------------------

#[test]
fn rejects_departure_after_arrival_at_same_instant() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    session.arrive(ItemId(1), rat(1, 4), rat(5, 1)).unwrap();
    // Departure at t=5 after an arrival at t=5: half-open intervals
    // require departures first, so this must be a typed rejection.
    let err = session.depart(ItemId(0), rat(5, 1)).unwrap_err();
    assert_eq!(err, SessionError::DepartureAfterArrival { time: rat(5, 1) });
    // The session is still usable: later departures proceed.
    session.depart(ItemId(0), rat(6, 1)).unwrap();
    session.depart(ItemId(1), rat(7, 1)).unwrap();
    let outcome = session.finish().unwrap();
    assert_eq!(outcome.assignments().len(), 2);
}

#[test]
fn rejects_sizes_outside_unit_interval() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    let zero = session.arrive(ItemId(0), rat(0, 1), rat(0, 1)).unwrap_err();
    assert_eq!(
        zero,
        SessionError::InvalidSize {
            id: ItemId(0),
            size: rat(0, 1)
        }
    );
    let over = session.arrive(ItemId(0), rat(3, 2), rat(0, 1)).unwrap_err();
    assert_eq!(
        over,
        SessionError::InvalidSize {
            id: ItemId(0),
            size: rat(3, 2)
        }
    );
    // Size exactly 1 is legal.
    session.arrive(ItemId(0), rat(1, 1), rat(0, 1)).unwrap();
}

#[test]
fn rejects_time_regression_and_unknown_departure_as_packing_errors() {
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(10, 1)).unwrap();
    let back = session.arrive(ItemId(1), rat(1, 2), rat(9, 1)).unwrap_err();
    assert!(matches!(back, SessionError::Packing(_)), "{back:?}");
    let ghost = session.depart(ItemId(7), rat(11, 1)).unwrap_err();
    assert!(matches!(ghost, SessionError::Packing(_)), "{ghost:?}");
}

#[test]
fn ingest_reports_the_failing_index_and_applies_the_prefix() {
    let events = vec![
        Event::Arrive {
            id: ItemId(0),
            size: rat(1, 2),
            time: rat(0, 1),
        },
        Event::Arrive {
            id: ItemId(1),
            size: rat(5, 2), // invalid size: rejected at index 1
            time: rat(1, 1),
        },
        Event::Depart {
            id: ItemId(0),
            time: rat(2, 1),
        },
    ];
    let mut session = Session::builder(FirstFit::new()).build().unwrap();
    let err = session.ingest(&events).unwrap_err();
    assert_eq!(err.index, 1);
    assert!(matches!(err.error, SessionError::InvalidSize { .. }));
    // Events before the failing index were applied; nothing after.
    let metrics = session.metrics();
    assert_eq!(metrics.events, 1);
    assert!(session.is_active(ItemId(0)));
}

#[test]
fn snapshot_without_checkpoints_is_a_typed_error() {
    let mut session = Session::builder(FirstFit::new())
        .without_checkpoints()
        .build()
        .unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    assert_eq!(
        session.snapshot().unwrap_err(),
        SessionError::CheckpointsDisabled
    );
}

#[test]
fn resume_rejects_unknown_and_mismatched_algorithms() {
    let snapshot = SessionSnapshot {
        algorithm: "NoSuchFit".to_string(),
        backend: Backend::Auto,
        grid: None,
        telemetry: false,
        events: Vec::new(),
    };
    assert_eq!(
        Session::resume(&snapshot).unwrap_err(),
        SessionError::UnknownAlgorithm("NoSuchFit".to_string())
    );
    assert_eq!(
        Session::resume_with(&snapshot, Box::new(FirstFit::new())).unwrap_err(),
        SessionError::AlgorithmMismatch {
            expected: "NoSuchFit".to_string(),
            got: "FirstFit".to_string(),
        }
    );
}

#[test]
fn strict_tick_sessions_reject_off_grid_events() {
    let mut session = Session::builder(FirstFit::new())
        .backend(Backend::Tick)
        .grid(TickGrid::new(1, 4))
        .build()
        .unwrap();
    session.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    let err = session.arrive(ItemId(1), rat(1, 3), rat(1, 1)).unwrap_err();
    assert_eq!(
        err,
        SessionError::OffGrid {
            what: "size",
            value: rat(1, 3)
        }
    );
}

#[test]
fn equal_time_burst_streams_like_batch() {
    // Dense tie at t=1: two departures then three arrivals, all at
    // the same instant — the canonical order the batch engine uses.
    let inst = Instance::builder()
        .item(rat(1, 2), rat(0, 1), rat(1, 1))
        .item(rat(1, 2), rat(0, 1), rat(1, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .item(rat(1, 2), rat(1, 1), rat(2, 1))
        .build()
        .unwrap();
    let batch = Runner::new(&inst)
        .backend(Backend::Exact)
        .run(&mut FirstFit::new())
        .unwrap();
    let streamed = stream(&events_of(&inst), || {
        Session::builder(FirstFit::new()).build()
    });
    assert_eq!(streamed, batch);
}

// ---------------------------------------------------------------
// Tree mode: past `SCAN_CROSSOVER` open bins the tick engine promotes
// from its linear sweep to the `FitTree`. The proptest instances above
// stay far below that, so this deterministic flash crowd covers the
// promoted path the daemon's batch streams run on.
// ---------------------------------------------------------------

/// The linear reference for each tick policy, which is also the
/// algorithm a tick-backed session runs it through.
fn linear_algo(policy: TickPolicy) -> Box<dyn PackingAlgorithm> {
    match policy {
        TickPolicy::FirstFit => Box::new(FirstFit::new()),
        TickPolicy::BestFit => Box::new(BestFit::new()),
        TickPolicy::WorstFit => Box::new(WorstFit::new()),
    }
}

/// Waves of 1,000 simultaneous arrivals one time unit apart, sizes in
/// 64ths up to 5/8, lifetimes of 1 to 2¾ units: consecutive waves
/// overlap, so the open-bin count peaks well above `SCAN_CROSSOVER`
/// and bins keep closing and refilling after the promotion.
fn flash_crowd() -> Instance {
    let mut state = 0x5EEDu64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % m) as i128
    };
    let mut specs = Vec::new();
    for wave in 0..5 {
        for _ in 0..1000 {
            let size = rat(1 + next(40), 64);
            let arrival = rat(wave, 1);
            specs.push((size, arrival, arrival + rat(4 + next(8), 4)));
        }
    }
    Instance::new(specs).expect("flash crowd is well formed")
}

/// A strict tick session on the flash crowd's grid: an event off the
/// grid would be an error, never a silent switch to the exact engine.
fn tree_mode_session(policy: TickPolicy) -> Session<'static> {
    Session::builder(linear_algo(policy))
        .backend(Backend::Tick)
        .grid(TickGrid::new(4, 64))
        .build()
        .expect("tick session builds")
}

#[test]
fn tree_mode_sessions_match_batch_and_exact_references() {
    let inst = flash_crowd();
    let events = events_of(&inst);
    let compiled = CompiledInstance::compile(&inst).expect("flash crowd compiles");
    for policy in [
        TickPolicy::FirstFit,
        TickPolicy::BestFit,
        TickPolicy::WorstFit,
    ] {
        let name = policy.name();
        let batch = compiled.run(policy).unwrap();
        let exact = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(linear_algo(policy).as_mut())
            .unwrap();
        assert_eq!(batch, exact, "{name}: compiled replay vs exact reference");
        assert!(
            batch.max_open_bins() > SCAN_CROSSOVER,
            "{name}: peak {} never reaches tree mode",
            batch.max_open_bins()
        );

        let mut per_event = tree_mode_session(policy);
        for ev in &events {
            per_event.apply(ev).unwrap();
        }
        assert!(per_event.tick_active(), "{name}: left the tick engine");
        assert_eq!(
            per_event.finish().unwrap(),
            exact,
            "{name}: per-event apply"
        );

        let mut ingested = tree_mode_session(policy);
        ingested.ingest(&events).unwrap();
        assert_eq!(ingested.finish().unwrap(), exact, "{name}: single ingest");

        // Cut once the session has promoted, with bins still open.
        let mut first = tree_mode_session(policy);
        let mut cut = 0;
        while first.metrics().peak_open_bins <= SCAN_CROSSOVER {
            first.apply(&events[cut]).unwrap();
            cut += 1;
        }
        cut += 500;
        first.ingest(&events[cut - 500..cut]).unwrap();
        let checkpoint = first.snapshot().unwrap();
        let mut resumed = Session::resume(&checkpoint).unwrap();
        assert!(resumed.tick_active(), "{name}: resumed off the tick engine");
        assert_eq!(
            resumed.metrics(),
            first.metrics(),
            "{name}: resume at {cut}"
        );
        resumed.ingest(&events[cut..]).unwrap();
        assert_eq!(
            resumed.finish().unwrap(),
            exact,
            "{name}: snapshot→resume at {cut}"
        );
    }
}

// ---------------------------------------------------------------
// Checkpoint logs. A tick session logs each event its tick engine
// applies as a compact `(id, units, tick)` record and rebuilds the
// events at `snapshot`; an exact-engine event is logged as is. These
// properties stream contract-violating input through grid sessions
// and check, after every event, that the snapshot lists exactly the
// events the session accepted, in order.
// ---------------------------------------------------------------

/// One scripted stream event and whether the session contract
/// accepts it.
type Step = (Event, bool);

/// A model of the session contract that labels scripted events.
#[derive(Default)]
struct Contract {
    steps: Vec<Step>,
    /// The index of the step `script` moved off the grid, with the
    /// [`SessionError::OffGrid`] a strict session returns for it.
    off_grid: Option<(usize, SessionError)>,
    now: Option<Rational>,
    arrival_at_now: bool,
    active: Vec<ItemId>,
    departed: Vec<ItemId>,
    next_id: u32,
}

impl Contract {
    fn fresh(&mut self) -> ItemId {
        self.next_id += 1;
        ItemId(self.next_id - 1)
    }

    /// The `k`-th active item, if any.
    fn active_at(&self, k: u8) -> Option<ItemId> {
        (!self.active.is_empty()).then(|| self.active[k as usize % self.active.len()])
    }

    /// Labels `event` (`reject` forces a rejection, as strict tick
    /// sessions reject off-grid events) and applies it if accepted.
    fn push(&mut self, event: Event, reject: bool) {
        let id = event.id();
        let time = event.time();
        let ok = !reject
            && match event {
                Event::Arrive { .. } => {
                    self.now.is_none_or(|now| time >= now) && !self.active.contains(&id)
                }
                Event::Depart { .. } => {
                    self.now
                        .is_none_or(|now| time > now || (time == now && !self.arrival_at_now))
                        && self.active.contains(&id)
                }
            };
        if ok {
            self.now = Some(time);
            match event {
                Event::Arrive { .. } => {
                    self.active.push(id);
                    self.departed.retain(|&d| d != id);
                    self.arrival_at_now = true;
                }
                Event::Depart { .. } => {
                    self.active.retain(|&a| a != id);
                    self.departed.push(id);
                    self.arrival_at_now = false;
                }
            }
        }
        self.steps.push((event, ok));
    }
}

/// Renders random `ops` into a labelled stream on the
/// `TickGrid::new(4, 8)` grid (quarter-unit times, sizes in eighths)
/// that starts `start` quarters in. Valid arrivals (fresh and
/// re-arriving ids), departures and clock advances are interleaved
/// with events the contract rejects: duplicate arrivals, unknown
/// departures, time regressions and departures after an arrival at
/// the same instant. `off_grid = Some((i, variant))` adds one valid
/// off-grid event before op `i`: an arrival sized in thirds, an
/// arrival at a third of a unit, or a departure at a third of a unit.
/// Under `strict` the off-grid event is labelled rejected. Every item
/// still active at the end departs. Returns the steps and, with
/// `off_grid`, the off-grid step's index and `OffGrid` error.
fn script(
    ops: &[(u8, u8, u8)],
    start: i128,
    off_grid: Option<(usize, u8)>,
    strict: bool,
) -> (Vec<Step>, Option<(usize, SessionError)>) {
    let arrive = |id, eighths: u8, time| Event::Arrive {
        id,
        size: rat(eighths as i128 % 8 + 1, 8),
        time,
    };
    let depart = |id, time| Event::Depart { id, time };
    let mut c = Contract::default();
    let mut t = rat(start, 4);
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        if let Some((_, variant)) = off_grid.filter(|&(at, _)| at.min(ops.len() - 1) == i) {
            let third = t + rat(1, 3);
            let (event, what, value) = match (variant % 3, c.active_at(a)) {
                (2, Some(id)) => (depart(id, third), "time", third),
                (1, _) => (arrive(c.fresh(), b, third), "time", third),
                _ => {
                    let size = rat(1 + variant as i128 % 2, 3);
                    let id = c.fresh();
                    (Event::Arrive { id, size, time: t }, "size", size)
                }
            };
            c.off_grid = Some((c.steps.len(), SessionError::OffGrid { what, value }));
            c.push(event, strict);
            t += rat(1, 2);
        }
        match kind {
            0 => t += rat(a as i128 % 4, 4),
            1 => {
                let id = c.fresh();
                c.push(arrive(id, b, t), false);
            }
            2 => {
                // Re-arrive a departed id when there is one.
                let id = if c.departed.is_empty() {
                    c.fresh()
                } else {
                    c.departed[a as usize % c.departed.len()]
                };
                c.push(arrive(id, b, t), false);
            }
            3 => match c.active_at(a) {
                Some(id) => c.push(depart(id, t), false),
                None => {
                    let id = c.fresh();
                    c.push(arrive(id, b, t), false);
                }
            },
            // Duplicate arrival.
            4 => {
                let id = c.active_at(a).unwrap_or_else(|| c.fresh());
                c.push(arrive(id, b, t), false);
            }
            // Unknown departure: an id that never arrived.
            5 => {
                let id = ItemId(c.next_id + 1000 + a as u32);
                c.push(depart(id, t), false);
            }
            // Time regression.
            6 => {
                let id = c.fresh();
                let before = c.now.map_or(t, |now| now - rat(a as i128 % 3 + 1, 4));
                c.push(arrive(id, b, before), false);
            }
            // An arrival, then a departure at the same instant.
            _ => {
                let id = c.fresh();
                c.push(arrive(id, b, t), false);
                let id = c.active_at(a).expect("an item just arrived");
                c.push(depart(id, t), false);
            }
        }
    }
    t += rat(1, 1);
    for id in c.active.clone() {
        c.push(depart(id, t), false);
    }
    (c.steps, c.off_grid)
}

/// Streams `steps` through a session from `make`: each event must be
/// accepted or rejected as labelled, with the error a
/// `Backend::Exact` twin under `policy`, fed the same accepted
/// events, returns, except that the off-grid step (`off_grid`), when
/// rejected, must be that `OffGrid` error. After every event the
/// snapshot must list exactly the accepted events so far. The session
/// ends on the tick engine iff `ends_on_tick`. Each snapshot, resumed
/// and fed the rest of the stream, must return the same errors and
/// finish bit-identical to the uninterrupted run.
fn check_checkpoints(
    steps: &[Step],
    off_grid: Option<(usize, SessionError)>,
    ends_on_tick: bool,
    policy: TickPolicy,
    make: impl Fn() -> Session<'static>,
) -> Result<(), TestCaseError> {
    let mut session = make();
    let mut twin = Session::builder(linear_algo(policy))
        .backend(Backend::Exact)
        .without_checkpoints()
        .build()
        .unwrap();
    let mut accepted = Vec::new();
    let mut errors = Vec::with_capacity(steps.len());
    let mut snapshots = vec![session.snapshot().unwrap()];
    for (i, (event, ok)) in steps.iter().enumerate() {
        let result = session.apply(event);
        prop_assert_eq!(result.is_ok(), *ok, "event {} {:?}: {:?}", i, event, result);
        let error = result.err();
        match &off_grid {
            Some((at, off)) if *at == i && !*ok => {
                prop_assert_eq!(error.as_ref(), Some(off), "off-grid event {}", i)
            }
            _ => prop_assert_eq!(&error, &twin.apply(event).err(), "event {} vs exact", i),
        }
        errors.push(error);
        if *ok {
            accepted.push(*event);
        }
        let snapshot = session.snapshot().unwrap();
        prop_assert_eq!(&snapshot.events, &accepted, "snapshot after event {}", i);
        snapshots.push(snapshot);
    }
    prop_assert_eq!(session.tick_active(), ends_on_tick);
    let full = session.finish().unwrap();
    for (cut, snapshot) in snapshots.iter().enumerate() {
        let mut resumed = Session::resume(snapshot).unwrap();
        for ((event, ok), error) in steps[cut..].iter().zip(&errors[cut..]) {
            let result = resumed.apply(event);
            prop_assert_eq!(result.is_ok(), *ok, "resumed at {}", cut);
            prop_assert_eq!(&result.err(), error, "resumed at {}", cut);
        }
        prop_assert_eq!(
            resumed.finish().unwrap(),
            full.clone(),
            "resumed at {}",
            cut
        );
    }
    Ok(())
}

const POLICIES: [TickPolicy; 3] = [
    TickPolicy::FirstFit,
    TickPolicy::BestFit,
    TickPolicy::WorstFit,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Backend::Auto` grid sessions, some promoted to the exact
    /// engine mid-run by one off-grid event: a snapshot lists exactly
    /// the accepted events, whichever engine applied them.
    #[test]
    fn auto_grid_snapshots_list_exactly_the_accepted_events(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..40),
        start in 0i128..=40,
        off_grid in (0u8..2, 0usize..40, 0u8..6),
        policy in 0usize..3,
    ) {
        let (promote, at, variant) = off_grid;
        let off_grid = (promote == 1).then_some((at, variant));
        let (steps, off) = script(&ops, start, off_grid, false);
        check_checkpoints(&steps, off, off_grid.is_none(), POLICIES[policy], || {
            Session::builder(linear_algo(POLICIES[policy]))
                .grid(TickGrid::new(4, 8))
                .build()
                .unwrap()
        })?;
    }

    /// Strict `Backend::Tick` grid sessions reject the off-grid event,
    /// and their snapshots leave it out.
    #[test]
    fn strict_tick_snapshots_leave_out_the_off_grid_event(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..40),
        start in 0i128..=40,
        off_grid in (0usize..40, 0u8..6),
        policy in 0usize..3,
    ) {
        let (steps, off) = script(&ops, start, Some(off_grid), true);
        prop_assert!(off.is_some());
        check_checkpoints(&steps, off, true, POLICIES[policy], || {
            Session::builder(linear_algo(POLICIES[policy]))
                .backend(Backend::Tick)
                .grid(TickGrid::new(4, 8))
                .build()
                .unwrap()
        })?;
    }
}

// ---------------------------------------------------------------
// Live telemetry. The engines report `vol` from their level
// integrals and the session keeps only the busy time and lifetime
// extremes, so these properties recompute all four at every cut of a
// scripted stream straight from the events the session accepted.
// ---------------------------------------------------------------

/// `(vol, span, min_lifetime, max_lifetime)` of `accepted` at its
/// last event's time, summed directly: `vol` as `Σ s·len` over every
/// item's interval (an active item's runs to that time), `span` as the
/// length of the intervals' union, the extremes over the departed
/// items' lifetimes.
fn direct_telemetry(
    accepted: &[Event],
) -> (Rational, Rational, Option<Rational>, Option<Rational>) {
    let mut active: Vec<(ItemId, Rational, Rational)> = Vec::new();
    let mut intervals: Vec<(Rational, Rational, Rational)> = Vec::new();
    let mut lifetimes: Vec<Rational> = Vec::new();
    for event in accepted {
        match *event {
            Event::Arrive { id, size, time } => active.push((id, size, time)),
            Event::Depart { id, time } => {
                let at = active
                    .iter()
                    .position(|&(a, ..)| a == id)
                    .expect("accepted departures name active items");
                let (_, size, arrival) = active.remove(at);
                intervals.push((arrival, time, size));
                lifetimes.push(time - arrival);
            }
        }
    }
    if let Some(now) = accepted.last().map(Event::time) {
        intervals.extend(
            active
                .iter()
                .map(|&(_, size, arrival)| (arrival, now, size)),
        );
    }
    let vol = intervals.iter().map(|&(a, b, s)| s * (b - a)).sum();
    intervals.sort_by_key(|&(a, ..)| a);
    let mut span = Rational::ZERO;
    let mut run: Option<(Rational, Rational)> = None;
    for &(a, b, _) in &intervals {
        run = match run {
            Some((lo, hi)) if a <= hi => Some((lo, hi.max(b))),
            Some((lo, hi)) => {
                span += hi - lo;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((lo, hi)) = run {
        span += hi - lo;
    }
    let min = lifetimes.iter().copied().min();
    let max = lifetimes.iter().copied().max();
    (vol, span, min, max)
}

fn check_telemetry(
    metrics: &SessionMetrics,
    accepted: &[Event],
    at: &str,
) -> Result<(), TestCaseError> {
    let (vol, span, min, max) = direct_telemetry(accepted);
    prop_assert_eq!(metrics.vol, Some(vol), "vol {}", at);
    prop_assert_eq!(metrics.span, Some(span), "span {}", at);
    prop_assert_eq!(metrics.min_lifetime, min, "min_lifetime {}", at);
    prop_assert_eq!(metrics.max_lifetime, max, "max_lifetime {}", at);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `vol`, `span`, `min_lifetime` and `max_lifetime` after every
    /// event equal sums over the accepted events, on `Backend::Auto`
    /// grid sessions (some promoted to the exact engine mid-run),
    /// exact sessions and strict tick sessions, across re-arrived ids
    /// and rejected events. At a random cut the session is replaced
    /// by one resumed from its snapshot, which must report the same
    /// metrics and carry on.
    #[test]
    fn live_telemetry_matches_sums_over_the_accepted_events(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..40),
        start in 0i128..=40,
        off_grid in (0u8..2, 0usize..40, 0u8..6),
        backend in 0usize..3,
        policy in 0usize..3,
        cut in 0usize..=120,
    ) {
        let backend = [Backend::Auto, Backend::Exact, Backend::Tick][backend];
        let strict = backend == Backend::Tick;
        let (promote, at, variant) = off_grid;
        let off_grid = (promote == 1 || strict).then_some((at, variant));
        let (steps, _) = script(&ops, start, off_grid, strict);
        let cut = cut % (steps.len() + 1);
        let mut session = Session::builder(linear_algo(POLICIES[policy]))
            .backend(backend)
            .grid(TickGrid::new(4, 8))
            .telemetry()
            .build()
            .unwrap();
        let mut accepted = Vec::new();
        check_telemetry(&session.metrics(), &accepted, "before any event")?;
        for (i, (event, ok)) in steps.iter().enumerate() {
            if i == cut {
                let resumed = Session::resume(&session.snapshot().unwrap()).unwrap();
                prop_assert_eq!(resumed.metrics(), session.metrics(), "resumed at {}", i);
                session = resumed;
            }
            let result = session.apply(event);
            prop_assert_eq!(result.is_ok(), *ok, "event {} {:?}: {:?}", i, event, result);
            if *ok {
                accepted.push(*event);
            }
            check_telemetry(&session.metrics(), &accepted, &format!("after event {i}"))?;
        }
        let ends_on_tick = strict || (backend == Backend::Auto && off_grid.is_none());
        prop_assert_eq!(session.tick_active(), ends_on_tick);
        prop_assert_eq!(session.metrics().active_items, 0);
    }
}

// ---------------------------------------------------------------
// Engine state. A tick-core session's `write_state`, loaded into a
// fresh session of the same configuration, must carry on exactly as
// the writer does: same result for every later event, same metrics
// after it, same outcome. Damaged state bytes must fail to load, or
// load into books the engine runs on, and never panic.
// ---------------------------------------------------------------

/// `steps` with every item id moved past the dense active table's
/// limit, so the tick engine keeps its active set hashed.
fn sparse_ids(steps: &[Step]) -> Vec<Step> {
    let far = |id: ItemId| ItemId(id.0 + (1 << 21));
    steps
        .iter()
        .map(|&(event, ok)| {
            let moved = match event {
                Event::Arrive { id, size, time } => Event::Arrive {
                    id: far(id),
                    size,
                    time,
                },
                Event::Depart { id, time } => Event::Depart { id: far(id), time },
            };
            (moved, ok)
        })
        .collect()
}

/// A session from `make` fed `steps[..cut]`, rejections included.
fn fed(make: &impl Fn() -> Session<'static>, steps: &[Step], cut: usize) -> Session<'static> {
    let mut session = make();
    for (event, _) in &steps[..cut] {
        let _ = session.apply(event);
    }
    session
}

/// Every cut of `steps`: the state written there, loaded into a fresh
/// session from `make`, writes the same bytes again and continues
/// bit-identical to the uninterrupted run (each later event's result
/// and the metrics after it, then the outcome); a session on the exact
/// engine refuses to write state and leaves the buffer as it was.
fn check_state_restarts(
    steps: &[Step],
    make: impl Fn() -> Session<'static>,
) -> Result<(), TestCaseError> {
    let mut full = make();
    let mut results = Vec::with_capacity(steps.len());
    let mut metrics = Vec::with_capacity(steps.len());
    for (event, _) in steps {
        results.push(full.apply(event));
        metrics.push(full.metrics());
    }
    let outcome = full.finish().unwrap();
    for cut in 0..=steps.len() {
        let head = fed(&make, steps, cut);
        let mut bytes = vec![7u8];
        if let Err(e) = head.write_state(&mut bytes) {
            prop_assert!(!head.tick_active(), "cut {}: {}", cut, e);
            prop_assert_eq!(bytes, vec![7u8]);
            continue;
        }
        let mut restored = make();
        let loaded = restored.load_state(&bytes[1..]);
        prop_assert_eq!(loaded, Ok(()), "cut {}", cut);
        let mut again = vec![7u8];
        restored.write_state(&mut again).unwrap();
        prop_assert_eq!(&again, &bytes, "restored at {} writes other bytes", cut);
        prop_assert_eq!(restored.metrics(), head.metrics(), "restored at {}", cut);
        for (i, (event, _)) in steps.iter().enumerate().skip(cut) {
            prop_assert_eq!(
                &restored.apply(event),
                &results[i],
                "restored at {}, event {}",
                cut,
                i
            );
            prop_assert_eq!(
                &restored.metrics(),
                &metrics[i],
                "restored at {}, event {}",
                cut,
                i
            );
        }
        prop_assert_eq!(
            restored.finish().unwrap(),
            outcome.clone(),
            "restored at {}",
            cut
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Backend::Auto` and strict tick grid sessions, telemetry on and
    /// off, some promoted to the exact engine by an off-grid event,
    /// with rejected events and (half the time) item ids past the
    /// dense active table: the state written at every cut restarts
    /// bit-identical to the uninterrupted run.
    #[test]
    fn state_restarts_are_bit_identical_at_every_cut(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..40),
        start in 0i128..=40,
        off_grid in (0u8..2, 0usize..40, 0u8..6),
        strict in 0u8..2,
        telemetry in 0u8..2,
        sparse in 0u8..2,
        policy in 0usize..3,
    ) {
        let (strict, telemetry) = (strict == 1, telemetry == 1);
        let (promote, at, variant) = off_grid;
        let off_grid = (promote == 1 || strict).then_some((at, variant));
        let (steps, _) = script(&ops, start, off_grid, strict);
        let steps = if sparse == 1 { sparse_ids(&steps) } else { steps };
        check_state_restarts(&steps, || {
            let mut builder = Session::builder(linear_algo(POLICIES[policy]))
                .backend(if strict { Backend::Tick } else { Backend::Auto })
                .grid(TickGrid::new(4, 8))
                .without_checkpoints();
            if telemetry {
                builder = builder.telemetry();
            }
            builder.build().unwrap()
        })?;
    }

    /// State bytes cut short always fail to load; state bytes with a
    /// flipped bit or a replaced byte fail to load or load into books
    /// the session then runs the rest of the stream on, and neither
    /// panics. A failed load leaves the session fresh.
    #[test]
    fn damaged_state_fails_or_loads_and_never_panics(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..40),
        start in 0i128..=40,
        telemetry in 0u8..2,
        sparse in 0u8..2,
        cut in 0usize..=120,
        damage in prop::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..4),
    ) {
        let telemetry = telemetry == 1;
        let (steps, _) = script(&ops, start, None, false);
        let steps = if sparse == 1 { sparse_ids(&steps) } else { steps };
        let make = || {
            let mut builder = Session::builder(FirstFit::new())
                .grid(TickGrid::new(4, 8))
                .without_checkpoints();
            if telemetry {
                builder = builder.telemetry();
            }
            builder.build().unwrap()
        };
        let cut = cut % (steps.len() + 1);
        let mut bytes = Vec::new();
        fed(&make, &steps, cut).write_state(&mut bytes).unwrap();
        for len in 0..bytes.len() {
            prop_assert!(make().load_state(&bytes[..len]).is_err(), "cut to {} bytes", len);
        }
        let mut damaged = bytes.clone();
        for &(at, byte, how) in &damage {
            let at = at % damaged.len();
            match how {
                0 => damaged[at] ^= 1 << (byte % 8),
                1 => damaged[at] = byte,
                _ => damaged[at] = damaged[at].wrapping_add(1),
            }
        }
        let mut session = make();
        match session.load_state(&damaged) {
            Ok(()) => {
                session.metrics();
                for (event, _) in &steps[cut..] {
                    let _ = session.apply(event);
                }
                session.metrics();
                let _ = session.finish();
            }
            Err(_) => {
                prop_assert_eq!(session.metrics(), make().metrics());
                prop_assert!(session.load_state(&bytes).is_ok());
            }
        }
    }
}

/// Sessions past the scan crossover restore in tree mode: the state
/// written after every 700 events of the flash crowd, on each policy,
/// continues to the exact reference's outcome.
#[test]
fn tree_mode_state_restarts_finish_like_the_exact_reference() {
    let inst = flash_crowd();
    let events = events_of(&inst);
    for policy in POLICIES {
        let exact = Runner::new(&inst)
            .backend(Backend::Exact)
            .run(linear_algo(policy).as_mut())
            .unwrap();
        let make = || {
            Session::builder(linear_algo(policy))
                .backend(Backend::Tick)
                .grid(TickGrid::new(4, 64))
                .without_checkpoints()
                .build()
                .unwrap()
        };
        let mut head = make();
        for (i, chunk) in events.chunks(700).enumerate() {
            let mut bytes = Vec::new();
            head.write_state(&mut bytes).unwrap();
            let mut restored = make();
            restored.load_state(&bytes).unwrap();
            assert_eq!(restored.metrics(), head.metrics(), "{policy:?} chunk {i}");
            restored.ingest(&events[i * 700..]).unwrap();
            assert_eq!(restored.finish().unwrap(), exact, "{policy:?} chunk {i}");
            head.ingest(chunk).unwrap();
        }
    }
}

/// `load_state` refuses sessions it cannot fill and states of another
/// configuration or version, each with its typed error.
#[test]
fn state_loads_refuse_other_sessions_configurations_and_versions() {
    use dbp_core::StateError;
    let build = |grid: TickGrid| {
        Session::builder(FirstFit::new())
            .grid(grid)
            .without_checkpoints()
            .build()
            .unwrap()
    };
    let mut session = build(TickGrid::new(4, 8));
    session.arrive(ItemId(3), rat(1, 2), rat(5, 4)).unwrap();
    let mut bytes = Vec::new();
    session.write_state(&mut bytes).unwrap();

    let mut logged = Session::builder(FirstFit::new())
        .grid(TickGrid::new(4, 8))
        .build()
        .unwrap();
    assert!(matches!(
        logged.load_state(&bytes),
        Err(StateError::Unsupported(_))
    ));
    let mut used = build(TickGrid::new(4, 8));
    used.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    assert!(matches!(
        used.load_state(&bytes),
        Err(StateError::Unsupported(_))
    ));
    let mut exact = Session::builder(FirstFit::new())
        .without_checkpoints()
        .build()
        .unwrap();
    assert!(matches!(
        exact.load_state(&bytes),
        Err(StateError::Unsupported(_))
    ));
    assert!(matches!(
        exact.write_state(&mut Vec::new()),
        Err(StateError::Unsupported(_))
    ));

    assert_eq!(
        build(TickGrid::new(2, 8)).load_state(&bytes),
        Err(StateError::Mismatch("grid"))
    );
    let mut best = Session::builder(BestFit::new())
        .grid(TickGrid::new(4, 8))
        .without_checkpoints()
        .build()
        .unwrap();
    assert_eq!(
        best.load_state(&bytes),
        Err(StateError::Mismatch("algorithm"))
    );
    let mut newer = bytes.clone();
    newer[8] = 2;
    assert_eq!(
        build(TickGrid::new(4, 8)).load_state(&newer),
        Err(StateError::Version(2))
    );

    let mut fresh = build(TickGrid::new(4, 8));
    fresh.load_state(&bytes).unwrap();
    assert_eq!(fresh.metrics(), session.metrics());
    assert!(fresh.is_active(ItemId(3)));
    assert_eq!(
        fresh.depart(ItemId(3), rat(2, 1)),
        session.depart(ItemId(3), rat(2, 1))
    );
    assert_eq!(fresh.finish(), session.finish());
}
