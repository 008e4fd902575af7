//! Property tests of the fleet metric fold (DESIGN.md, "Live
//! telemetry"): a fleet's merged registry is a *lawful* fold of its
//! shards' stream telemetry.
//!
//! For the same routed event stream, across shard counts 1/2/8 and
//! all three backends (Exact/Tick/Auto):
//!
//! * the fleet-merged registry snapshot is **byte-identical** to
//!   merging standalone per-shard session registries — parallel
//!   dispatch and merge order leave no trace;
//! * a single-shard fleet's registry is byte-identical to the plain
//!   single-session registry for the same instance;
//! * the partition-independent core (event counts, `load`, and the
//!   exact `vol` total) is identical no matter how the stream is
//!   sharded or which engine ran it.

use dbp_core::session::{Backend, Event, Session, TickGrid};
use dbp_core::{FirstFit, ItemId};
use dbp_numeric::{rat, Rational};
use dbp_obs::{telemetry_registry, MetricsRegistry};
use dbp_par::Fleet;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const BACKENDS: [Backend; 3] = [Backend::Exact, Backend::Tick, Backend::Auto];

/// Grid every generated event fits: integer times, eighth sizes.
const GRID: TickGrid = TickGrid {
    time_scale: 1,
    size_scale: 8,
};

/// Strategy: a well-formed event stream on the integer grid (so the
/// Tick backend can run it), time-sorted with departures before
/// arrivals at ties, each item departing strictly after it arrives.
fn stream_strategy() -> impl Strategy<Value = Vec<Event>> {
    let item = (1i128..=8, 0i128..=30, 1i128..=12);
    prop::collection::vec(item, 0..40).prop_map(|specs| {
        let mut events: Vec<(Rational, bool, Event)> = Vec::new();
        for (i, (eighths, arr, dur)) in specs.into_iter().enumerate() {
            let id = ItemId(i as u32);
            let (t0, t1) = (rat(arr, 1), rat(arr + dur, 1));
            events.push((
                t0,
                true,
                Event::Arrive {
                    id,
                    size: rat(eighths, 8),
                    time: t0,
                },
            ));
            events.push((t1, false, Event::Depart { id, time: t1 }));
        }
        // Canonical order: by time, departures before arrivals.
        events.sort_by_key(|(t, is_arrival, _)| (*t, *is_arrival));
        events.into_iter().map(|(_, _, e)| e).collect()
    })
}

/// Routes by item id, the CLI's default sharding.
fn route(event: &Event, shards: usize) -> usize {
    event.id().0 as usize % shards
}

fn build_session(backend: Backend) -> Session<'static> {
    Session::builder(FirstFit::new())
        .backend(backend)
        .grid(GRID)
        .telemetry()
        .build()
        .expect("gridded FirstFit builds on every backend")
}

/// The merged registry of a fleet of `shards` sessions on `backend`,
/// after absorbing the whole stream.
fn fleet_registry(events: &[Event], shards: usize, backend: Backend) -> MetricsRegistry {
    let mut fleet = Fleet::new((0..shards).map(|_| build_session(backend)).collect());
    let routed: Vec<(usize, Event)> = events.iter().map(|e| (route(e, shards), *e)).collect();
    fleet
        .dispatch_each(&routed, |(shard, event)| (*shard, event), |_, _| {})
        .expect("generated stream is valid");
    fleet.merged_metrics()
}

/// Merging standalone per-shard sessions by hand — the law the fleet
/// fold must reproduce byte for byte.
fn solo_fold(events: &[Event], shards: usize, backend: Backend) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for s in 0..shards {
        let mut solo = build_session(backend);
        for event in events.iter().filter(|e| route(e, shards) == s) {
            solo.apply(event).expect("generated stream is valid");
        }
        merged.merge(&telemetry_registry(&solo.metrics()));
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fleet-merged metrics equal single-session metrics: byte-
    /// identical to the standalone fold per configuration, and for
    /// one shard to the plain session registry, across shard counts
    /// 1/2/8 and backends Exact/Tick/Auto.
    #[test]
    fn fleet_fold_is_lawful_across_shards_and_backends(events in stream_strategy()) {
        // The single-session reference registry (exact backend).
        let mut single = build_session(Backend::Exact);
        single.ingest(&events).expect("generated stream is valid");
        let single_snapshot = telemetry_registry(&single.metrics()).to_json_pretty();

        let mut cores: Vec<String> = Vec::new();
        for backend in BACKENDS {
            for shards in SHARD_COUNTS {
                let merged = fleet_registry(&events, shards, backend);
                // Law 1: the parallel fold leaves no trace.
                prop_assert_eq!(
                    merged.to_json_pretty(),
                    solo_fold(&events, shards, backend).to_json_pretty(),
                    "fold mismatch: {:?} × {} shards", backend, shards
                );
                // Law 2: one shard ≡ the single session, bit for bit.
                if shards == 1 {
                    prop_assert_eq!(
                        merged.to_json_pretty(),
                        single_snapshot.clone(),
                        "single-shard mismatch on {:?}", backend
                    );
                }
                // Law 3 data: the partition-independent core.
                cores.push(format!(
                    "arrivals={} departures={} events={} active={} load={:?} vol={:?}",
                    merged.counter("arrivals"),
                    merged.counter("departures"),
                    merged.counter("events"),
                    merged.counter("active_items"),
                    merged.total("load"),
                    merged.total("vol"),
                ));
            }
        }
        // Law 3: the core is invariant across all 9 configurations.
        prop_assert!(
            cores.windows(2).all(|w| w[0] == w[1]),
            "partition-variant core: {cores:#?}"
        );
    }
}
