//! Property test: wire-served placements are bit-identical to
//! in-process `Session` batch runs, across random workload shapes,
//! algorithms and batch splits, including batch frames that the
//! session rejects partway through.

use dbp_core::algo::by_name;
use dbp_core::session::Session;
use dbp_core::{ItemId, PackingOutcome};
use dbp_numeric::rat;
use dbp_proto::{ErrorKind, Event, TickGrid};
use dbp_server::tenant::canonical_algo;
use dbp_server::{Client, ClientError, DbpServer, ServerConfig};
use proptest::prelude::*;

/// Deterministic wave stream: `waves`×`width` items, each departing
/// two steps after arrival, sizes on a 1/32 grid seeded by `salt`.
fn wave_stream(waves: u32, width: u32, salt: u32) -> Vec<Event> {
    let mut events = Vec::new();
    for step in 0..waves + 2 {
        if step >= 2 {
            for k in 0..width {
                let id = (step - 2) * width + k;
                if id < waves * width {
                    events.push(Event::Depart {
                        id: ItemId(id),
                        time: rat(step as i128, 1),
                    });
                }
            }
        }
        if step < waves {
            for k in 0..width {
                events.push(Event::Arrive {
                    id: ItemId(step * width + k),
                    size: rat(1 + ((salt + step * 7 + k) as i128 % 16), 32),
                    time: rat(step as i128, 1),
                });
            }
        }
    }
    events
}

/// A fresh in-process session of the served tenant's shape.
fn twin(algo: &str) -> Session<'static> {
    Session::builder(by_name(canonical_algo(algo).unwrap()).unwrap())
        .grid(TickGrid::new(1, 32))
        .build()
        .unwrap()
}

fn outcome(algo: &str, events: &[Event]) -> PackingOutcome {
    let mut session = twin(algo);
    for ev in events {
        session.apply(ev).unwrap();
    }
    session.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn served_outcomes_match_in_process_runs(
        waves in 1u32..8,
        width in 1u32..8,
        salt in 0u32..1000,
        algo_pick in 0usize..3,
        split in 0usize..5,
        reject in 0usize..3,
        at in 0usize..1024,
        ghost in 0u32..4,
    ) {
        let algo = ["firstfit", "bestfit", "nextfit"][algo_pick];
        let events = wave_stream(waves, width, salt);

        let server = DbpServer::start(ServerConfig::default()).unwrap();
        let mut client = Client::builder(algo)
            .tenant("prop")
            .grid(TickGrid::new(1, 32))
            .without_journal()
            .connect(server.local_addr())
            .unwrap();

        // Random split between single-event frames and one batch: the
        // submission framing must never affect placements.
        let cut = events.len() * split / 4;
        let (head, tail) = events.split_at(cut.min(events.len()));
        for ev in head {
            client.apply(ev).unwrap();
        }
        if !tail.is_empty() && reject > 0 {
            // The batch carries one event the session rejects: the
            // departure of an id that never arrived, inserted at `pos`.
            let pos = at % (tail.len() + 1);
            let bad_id = waves * width + ghost;
            let bad = Event::Depart {
                id: ItemId(bad_id),
                time: tail[pos.min(tail.len() - 1)].time(),
            };
            let mut frame = tail.to_vec();
            frame.insert(pos, bad);
            let err = client.ingest(&frame).unwrap_err();
            let ClientError::Remote(err) = err else {
                panic!("expected a typed rejection, got {err}");
            };
            prop_assert_eq!(err.kind, ErrorKind::Session);
            prop_assert_eq!(err.index, Some(pos as u64));

            // What the frame applied: every event before the bad one.
            let (before, rest) = tail.split_at(pos);
            let mut session = twin(algo);
            for ev in head.iter().chain(before) {
                session.apply(ev).unwrap();
            }
            prop_assert!(session.apply(&bad).is_err());
            prop_assert_eq!(client.metrics().unwrap(), session.metrics());

            // Resubmitting what the frame left unapplied finishes like
            // the stream that never held the bad event.
            if !rest.is_empty() {
                client.ingest(rest).unwrap();
            }
        } else if !tail.is_empty() {
            client.ingest(tail).unwrap();
        }

        let outcomes = client.finish().unwrap();
        prop_assert_eq!(outcomes, vec![outcome(algo, &events)]);
        server.stop();
    }
}
