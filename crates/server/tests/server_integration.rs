//! End-to-end tests of the allocation daemon over real sockets.
//!
//! The contracts under test are the ones the tentpole promises:
//! placements served over the wire are **bit-identical** to in-process
//! `Session` runs, a crashed server restarted from its journals resumes every tenant
//! verbatim, and refusals (quota, auth, protocol) come back as typed
//! errors without perturbing session state.

use dbp_core::algo::by_name;
use dbp_core::session::Session;
use dbp_core::{ItemId, PackingOutcome};
use dbp_numeric::rat;
use dbp_proto::{event_to_line, Backend, ErrorKind, Event, SessionSnapshot, TickGrid};
use dbp_server::journal::{journal_path, read_journal, Journal, JournalEnd, JournalHeader, BLOCK};
use dbp_server::tenant::Tenant;
use dbp_server::{
    Client, ClientBuilder, ClientError, DbpServer, Quotas, RequestSpan, ServerConfig, TokenPolicy,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic arrive/depart stream: `waves` waves of
/// `width` items, each wave departing two steps later, departures
/// before arrivals at every shared instant.
fn wave_stream(waves: u32, width: u32) -> Vec<Event> {
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
                    size: rat(1 + ((step + k) as i128 % 16), 32),
                    time: rat(step as i128, 1),
                });
            }
        }
    }
    events
}

// `algo` is the CLI-style name the wire speaks; the in-process twin
// rebuilds it through the same canonicalization the server uses.
fn session_outcome(algo: &str, events: &[Event]) -> PackingOutcome {
    let canonical = dbp_server::tenant::canonical_algo(algo).unwrap();
    let mut session = Session::builder(by_name(canonical).unwrap())
        .grid(TickGrid::new(1, 32))
        .build()
        .unwrap();
    for ev in events {
        session.apply(ev).unwrap();
    }
    session.finish().unwrap()
}

#[test]
fn socket_outcomes_match_in_process_sessions() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let events = wave_stream(6, 5);

    // Several tenants, several algorithms, one server — each must
    // finish exactly like its in-process twin.
    for algo in ["firstfit", "bestfit", "nextfit"] {
        let mut client = Client::builder(algo)
            .tenant(format!("twin-{algo}"))
            .grid(TickGrid::new(1, 32))
            .without_journal()
            .connect(addr)
            .unwrap();
        // Mix single-event and batched submission: same stream, same
        // placements either way.
        let (head, tail) = events.split_at(events.len() / 3);
        for ev in head {
            client.apply(ev).unwrap();
        }
        client.ingest(tail).unwrap();
        let outcomes = client.finish().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0], session_outcome(algo, &events), "algo {algo}");
    }
}

#[test]
fn crash_recovery_resumes_bit_identically() {
    let dir = test_dir("recovery");
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let events = wave_stream(6, 4);
    let (head, tail) = events.split_at(events.len() / 2);

    // Stream the head into a journaled tenant, then "crash": stop
    // severs every connection but leaves journals on disk.
    let server = DbpServer::start(config()).unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .grid(TickGrid::new(1, 32))
        .connect(server.local_addr())
        .unwrap();
    assert_eq!(client.resumed_events(), 0);
    for ev in head {
        client.apply(ev).unwrap();
    }
    server.stop();
    assert!(matches!(
        client.apply(&tail[0]),
        Err(ClientError::Io(_) | ClientError::Protocol(_))
    ));
    drop(client);

    // Restart from the same journal directory: the tenant resumes with
    // every acked event replayed, and the finished outcome is
    // bit-identical to an uninterrupted in-process run.
    let server = DbpServer::start(config()).unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .grid(TickGrid::new(1, 32))
        .connect(server.local_addr())
        .unwrap();
    assert_eq!(client.resumed_events(), head.len() as u64);
    client.ingest(tail).unwrap();
    let outcomes = client.finish().unwrap();
    assert_eq!(outcomes, vec![session_outcome("firstfit", &events)]);

    // Finish removed the journal: a third attach starts fresh.
    let client = Client::builder("firstfit")
        .tenant("acme")
        .grid(TickGrid::new(1, 32))
        .connect(server.local_addr())
        .unwrap();
    assert_eq!(client.resumed_events(), 0);
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch frame that a journaled tenant rejects partway through: the
/// tenant keeps the events before the rejection, and the journal holds
/// exactly those. A restart resumes them, and resubmitting the events
/// the frame left unapplied finishes like the stream that never held
/// the bad event.
#[test]
fn a_rejected_batch_frame_resumes_what_it_applied_across_a_restart() {
    let dir = test_dir("rejected-frame");
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let connect = |server: &DbpServer| {
        Client::builder("firstfit")
            .tenant("acme")
            .grid(TickGrid::new(1, 32))
            .connect(server.local_addr())
            .unwrap()
    };
    let events = wave_stream(6, 4);
    let (head, tail) = events.split_at(events.len() / 3);
    // The departure of an id that never arrived, in the middle of the
    // frame.
    let pos = 5;
    let bad = Event::Depart {
        id: ItemId(25),
        time: tail[pos].time(),
    };
    let mut frame = tail.to_vec();
    frame.insert(pos, bad);
    // The frame applies every event before the bad one.
    let (before, rest) = tail.split_at(pos);
    assert!(rest.len() > 1);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    client.ingest(head).unwrap();
    match client.ingest(&frame) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.kind, ErrorKind::Session, "{e}");
            assert_eq!(e.index, Some(pos as u64), "{e}");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    server.stop();
    drop(client);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    assert_eq!(client.resumed_events(), (head.len() + before.len()) as u64);
    client.ingest(rest).unwrap();
    assert_eq!(
        client.finish().unwrap(),
        vec![session_outcome("firstfit", &events)]
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal whose header says `shards` 2, as a sharded tenant of an
/// earlier build wrote it, keeps the daemon from starting: the error
/// names the file, and every file under the journal directory keeps
/// its bytes, an earlier journal's torn tail included.
#[test]
fn a_sharded_journal_fails_the_start_and_is_left_as_it_was() {
    let dir = test_dir("sharded-journal");
    let events = wave_stream(3, 2);
    for header in [
        first_fit_header("a"),
        JournalHeader {
            shards: 2,
            ..first_fit_header("b")
        },
    ] {
        let mut journal = Journal::create(&dir, &header).unwrap();
        journal.append(&events).unwrap();
    }
    let mut torn = std::fs::OpenOptions::new()
        .append(true)
        .open(journal_path(&dir, "a"))
        .unwrap();
    torn.write_all(b"{\"v\":1,\"arr").unwrap();
    drop(torn);
    let files = |dir: &Path| {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = files(&dir);

    let err = DbpServer::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .err()
    .expect("a sharded journal fails the start");
    let named = format!(
        "{}: journal of a tenant with 2 shards",
        journal_path(&dir, "b").display()
    );
    assert!(err.to_string().contains(&named), "{err}");
    assert_eq!(files(&dir), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that tears the journal's last line must not keep the
/// daemon from starting: the tenant resumes from the acknowledged
/// prefix, and later appends extend it cleanly.
#[test]
fn torn_journal_tail_resumes_the_acknowledged_prefix() {
    let dir = test_dir("torn");
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let connect = |server: &DbpServer| {
        Client::builder("firstfit")
            .tenant("acme")
            .grid(TickGrid::new(1, 32))
            .connect(server.local_addr())
            .unwrap()
    };
    let events = wave_stream(6, 4);
    let (head, tail) = events.split_at(events.len() / 2);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    client.ingest(head).unwrap();
    server.stop();
    drop(client);
    // Half of the next event's line reached the file, never acked.
    let path = dbp_server::journal::journal_path(&dir, "acme");
    let line = dbp_proto::event_to_line(&tail[0]);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
    drop(file);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    assert_eq!(client.resumed_events(), head.len() as u64);
    client.ingest(&tail[..1]).unwrap();
    server.stop();
    drop(client);

    // The second restart reads the prefix plus the event appended
    // after the cut, so the finished outcome is the uncut run's.
    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    assert_eq!(client.resumed_events(), head.len() as u64 + 1);
    client.ingest(&tail[1..]).unwrap();
    assert_eq!(
        client.finish().unwrap(),
        vec![session_outcome("firstfit", &events)]
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tenants of the retired tree-indexed variants still load: a journal
/// whose header names `FirstFitFast` recovers as First Fit, and a
/// `firstfit-fast` hello starts a First Fit tenant.
#[test]
fn retired_fast_algorithm_names_still_load() {
    let dir = test_dir("legacy-names");
    let events = wave_stream(6, 4);
    let (head, tail) = events.split_at(events.len() / 2);
    let mut journal = dbp_server::journal::Journal::create(
        &dir,
        &dbp_server::journal::JournalHeader {
            tenant: "acme".into(),
            algo: "FirstFitFast".into(),
            backend: dbp_proto::Backend::Auto,
            grid: Some(TickGrid::new(1, 32)),
            shards: 1,
            telemetry: false,
        },
    )
    .unwrap();
    journal.append(head).unwrap();
    drop(journal);

    let server = DbpServer::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .grid(TickGrid::new(1, 32))
        .connect(server.local_addr())
        .unwrap();
    assert_eq!(client.resumed_events(), head.len() as u64);
    client.ingest(tail).unwrap();
    let expected = session_outcome("firstfit", &events);
    assert_eq!(expected.algorithm(), "FirstFit");
    assert_eq!(client.finish().unwrap(), vec![expected.clone()]);

    let mut fresh = Client::builder("firstfit-fast")
        .tenant("fresh")
        .grid(TickGrid::new(1, 32))
        .without_journal()
        .connect(server.local_addr())
        .unwrap();
    fresh.ingest(&events).unwrap();
    assert_eq!(fresh.finish().unwrap(), vec![expected]);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The header of a First Fit tenant on the served grid.
fn first_fit_header(tenant: &str) -> JournalHeader {
    JournalHeader {
        tenant: tenant.into(),
        algo: "FirstFit".into(),
        backend: Backend::Auto,
        grid: Some(TickGrid::new(1, 32)),
        shards: 1,
        telemetry: false,
    }
}

/// Recovery touches no journal until every journal has replayed: when
/// a later journal (`b`) holds a corrupt middle line, the daemon does
/// not start, and an earlier journal's (`a`) torn tail is still on
/// disk, byte for byte.
#[test]
fn a_failing_journal_leaves_earlier_torn_tails_uncut() {
    let dir = test_dir("fail-late");
    let events = wave_stream(6, 4);
    for tenant in ["a", "b"] {
        let mut journal = Journal::create(&dir, &first_fit_header(tenant)).unwrap();
        journal.append(&events[..8]).unwrap();
    }
    let append = |tenant: &str, bytes: &[u8]| {
        let path = journal_path(&dir, tenant);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(bytes).unwrap();
    };
    let line = dbp_proto::event_to_line(&events[8]);
    append("a", &line.as_bytes()[..line.len() / 2]);
    append("b", b"{\"v\":1,\"arrive\":{\"id\":}}\n");
    append("b", format!("{line}\n").as_bytes());
    let a = std::fs::read(journal_path(&dir, "a")).unwrap();

    let err = DbpServer::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .err()
    .expect("a corrupt journal refuses the restart");
    assert!(err.to_string().contains("bad journal line"), "{err}");
    assert_eq!(std::fs::read(journal_path(&dir, "a")).unwrap(), a);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal line that parses but that the session rejects on replay
/// (a duplicate arrival on line 4) refuses the restart with the line's
/// number and starting byte, and leaves the file as it was.
#[test]
fn a_rejected_journal_event_names_its_line_and_byte() {
    let dir = test_dir("replay-reject");
    let events = wave_stream(6, 4);
    let mut journal = Journal::create(&dir, &first_fit_header("acme")).unwrap();
    journal.append(&events[..2]).unwrap();
    drop(journal);
    let path = journal_path(&dir, "acme");
    let offset = std::fs::metadata(&path).unwrap().len();
    let recovered = read_journal(&path).unwrap();
    let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
    journal.append(&[events[0], events[2]]).unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();

    let err = DbpServer::start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .err()
    .expect("a journal the sessions reject refuses the restart");
    let err = err.to_string();
    assert!(
        err.contains("rejected an event it once accepted")
            && err.contains(&format!("line 4 at byte {offset}:")),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quota_refusals_are_typed_and_leave_state_untouched() {
    let server = DbpServer::start(ServerConfig {
        quotas: Quotas {
            max_active_items: Some(3),
            ..Quotas::unlimited()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("capped")
        .without_journal()
        .connect(server.local_addr())
        .unwrap();

    for i in 0..3u32 {
        client
            .arrive(ItemId(i), rat(1, 8), rat(i as i128, 1))
            .unwrap();
    }
    let refused = client.arrive(ItemId(9), rat(1, 8), rat(3, 1));
    match refused {
        Err(ClientError::Remote(e)) => assert_eq!(e.kind, ErrorKind::Quota, "{e}"),
        other => panic!("expected a quota error, got {other:?}"),
    }

    // The refused arrival never touched the session: after a depart
    // frees a slot, the same arrival is admitted and the stream
    // continues at the same instant.
    client.depart(ItemId(0), rat(3, 1)).unwrap();
    client.arrive(ItemId(9), rat(1, 8), rat(3, 1)).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.active_items, 3);
}

#[test]
fn batch_quota_refusals_report_the_failing_index() {
    let server = DbpServer::start(ServerConfig {
        quotas: Quotas {
            max_active_items: Some(2),
            ..Quotas::unlimited()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("capped")
        .without_journal()
        .connect(server.local_addr())
        .unwrap();

    // Admission is all-or-nothing per request: a batch that would
    // exceed the cap is refused outright, index 0.
    let batch: Vec<Event> = (0..3u32)
        .map(|i| Event::Arrive {
            id: ItemId(i),
            size: rat(1, 8),
            time: rat(0, 1),
        })
        .collect();
    match client.ingest(&batch) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.kind, ErrorKind::Quota);
            assert_eq!(e.index, Some(0));
        }
        other => panic!("expected a quota error, got {other:?}"),
    }
    assert_eq!(client.metrics().unwrap().events, 0);
}

/// A frame's result as the client sees it: the placements, or a
/// refusal's kind, batch index and message.
type FrameResult = Result<Vec<u32>, (ErrorKind, Option<u64>, String)>;

/// Count quotas (at most 4 items in flight, 3 open bins) over one
/// tenant flavour, then a scripted mix of single and batch frames:
/// 3/4-size items open a bin each, 1/8-size items fit beside them.
/// Returns every frame's result and the final `(active, open)`
/// counters.
fn count_quota_script(
    flavour: fn(ClientBuilder) -> ClientBuilder,
) -> (Vec<FrameResult>, (usize, usize)) {
    let server = DbpServer::start(ServerConfig {
        quotas: Quotas {
            max_active_items: Some(4),
            max_open_bins: Some(3),
            ..Quotas::unlimited()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = flavour(
        Client::builder("firstfit")
            .tenant("capped")
            .without_journal(),
    )
    .connect(server.local_addr())
    .unwrap();
    let arrive = |id: u32, eighths: i128, t: i128| Event::Arrive {
        id: ItemId(id),
        size: rat(eighths, 8),
        time: rat(t, 1),
    };
    let depart = |id: u32, t: i128| Event::Depart {
        id: ItemId(id),
        time: rat(t, 1),
    };
    let frames: Vec<Vec<Event>> = vec![
        vec![arrive(0, 6, 0)],
        vec![arrive(1, 6, 0)],
        vec![arrive(2, 6, 1), arrive(3, 1, 1)],
        vec![arrive(2, 6, 1)],
        vec![arrive(3, 1, 1)],
        vec![depart(0, 2)],
        vec![depart(1, 2), arrive(3, 1, 2)],
        vec![arrive(4, 1, 3), arrive(5, 1, 3), arrive(6, 1, 3)],
        vec![arrive(4, 1, 3), arrive(5, 1, 3)],
        vec![arrive(6, 1, 3)],
    ];
    let results = frames
        .iter()
        .map(|frame| {
            let sent = match frame.as_slice() {
                [one] => client.apply(one).map(|bin| vec![bin]),
                many => client.ingest(many),
            };
            match sent {
                Ok(bins) => Ok(bins.iter().map(|b| b.0).collect()),
                Err(ClientError::Remote(e)) => Err((e.kind, e.index, e.message)),
                Err(other) => panic!("transport failure: {other:?}"),
            }
        })
        .collect();
    let metrics = client.metrics().unwrap();
    server.stop();
    (results, (metrics.active_items, metrics.open_bins))
}

fn open_bins_refusal(open: u64, arriving: u64, index: Option<u64>) -> FrameResult {
    Err((
        ErrorKind::Quota,
        index,
        format!("open-bins quota exceeded ({open} open + up to {arriving} new > limit 3)"),
    ))
}

fn active_items_refusal(active: u64, arriving: u64, index: Option<u64>) -> FrameResult {
    Err((
        ErrorKind::Quota,
        index,
        format!("active-items quota exceeded ({active} in flight + {arriving} arriving > limit 4)"),
    ))
}

/// One session: `max_open_bins` refuses an arrival that would have fit
/// an open bin (the documented conservative rule), and both count
/// quotas refuse single and batch frames with the counters they saw.
fn single_session_expectation() -> (Vec<FrameResult>, (usize, usize)) {
    (
        vec![
            Ok(vec![0]),
            Ok(vec![1]),
            open_bins_refusal(2, 2, Some(0)),
            Ok(vec![2]),
            open_bins_refusal(3, 1, None),
            Ok(vec![0]),
            Ok(vec![1, 2]),
            active_items_refusal(2, 3, Some(0)),
            Ok(vec![2, 3]),
            active_items_refusal(4, 1, None),
        ],
        (4, 2),
    )
}

#[test]
fn open_bins_and_active_items_quotas_refuse_single_and_batch_frames() {
    assert_eq!(count_quota_script(|b| b), single_session_expectation());
}

/// Telemetry tenants keep the exact same refusals: admission reads
/// the same counters whether or not `vol`/`span` are tracked.
#[test]
fn count_quotas_refuse_identically_on_a_telemetry_tenant() {
    assert_eq!(
        count_quota_script(|b| b.telemetry()),
        single_session_expectation()
    );
}

#[test]
fn bad_tokens_are_typed_auth_errors() {
    let server = DbpServer::start(ServerConfig {
        auth: TokenPolicy::PerTenant(HashMap::from([("acme".to_string(), "s3cret".to_string())])),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let auth_err = |result: Result<Client, ClientError>| match result {
        Err(ClientError::Remote(e)) => assert_eq!(e.kind, ErrorKind::Auth, "{e}"),
        other => panic!(
            "expected an auth error, got {:?}",
            other.map(|_| "a connected client")
        ),
    };
    auth_err(Client::builder("firstfit").tenant("acme").connect(addr));
    auth_err(
        Client::builder("firstfit")
            .tenant("acme")
            .token("wrong")
            .connect(addr),
    );
    auth_err(
        Client::builder("firstfit")
            .tenant("unprovisioned")
            .token("s3cret")
            .connect(addr),
    );

    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .token("s3cret")
        .connect(addr)
        .unwrap();
    client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();

    // Shutdown obeys the same policy.
    let wrong = Client::builder("firstfit")
        .tenant("acme")
        .token("s3cret")
        .connect(addr)
        .unwrap();
    match wrong.shutdown_server(Some("nope")) {
        Err(ClientError::Remote(e)) => assert_eq!(e.kind, ErrorKind::Auth),
        other => panic!("expected an auth error, got {other:?}"),
    }
}

#[test]
fn snapshot_without_journal_is_typed_unavailable() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("flat")
        .without_journal()
        .connect(server.local_addr())
        .unwrap();
    client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    match client.snapshot() {
        Err(ClientError::Remote(e)) => assert_eq!(e.kind, ErrorKind::Unavailable, "{e}"),
        other => panic!("expected unavailable, got {other:?}"),
    }
}

/// `wave_stream` moved `by` time units later, so a tick session's
/// origin is not zero.
fn shifted(events: &[Event], by: i128) -> Vec<Event> {
    events
        .iter()
        .map(|ev| match *ev {
            Event::Arrive { id, size, time } => Event::Arrive {
                id,
                size,
                time: time + rat(by, 1),
            },
            Event::Depart { id, time } => Event::Depart {
                id,
                time: time + rat(by, 1),
            },
        })
        .collect()
}

/// The checkpoint an in-process First Fit session on the served grid
/// takes after `events`.
fn session_snapshot(events: &[Event]) -> dbp_proto::SessionSnapshot {
    let mut session = Session::builder(by_name("FirstFit").unwrap())
        .grid(TickGrid::new(1, 32))
        .build()
        .unwrap();
    session.ingest(events).unwrap();
    session.snapshot().unwrap()
}

/// A journaled tenant's `snapshot` over the socket equals an
/// in-process session's over the same events, from the live tenant
/// and from the tenant recovered after a restart, and resuming it
/// finishes exactly as the tenant does.
#[test]
fn wire_snapshots_match_in_process_sessions_across_a_restart() {
    let dir = test_dir("snapshot");
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let connect = |server: &DbpServer| {
        Client::builder("firstfit")
            .tenant("acme")
            .grid(TickGrid::new(1, 32))
            .connect(server.local_addr())
            .unwrap()
    };
    let events = shifted(&wave_stream(6, 4), 3);
    let (head, tail) = events.split_at(events.len() / 2);
    let (middle, rest) = tail.split_at(tail.len() / 2);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    client.ingest(head).unwrap();
    assert!(client.metrics().unwrap().active_items > 0);
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot, session_snapshot(head));
    server.stop();
    drop(client);

    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    assert_eq!(client.resumed_events(), head.len() as u64);
    assert_eq!(client.snapshot().unwrap(), snapshot);
    client.ingest(middle).unwrap();
    assert!(client.metrics().unwrap().active_items > 0);
    let snapshot = client.snapshot().unwrap();
    let applied = head.len() + middle.len();
    assert_eq!(snapshot, session_snapshot(&events[..applied]));

    let mut resumed = Session::resume(&snapshot).unwrap();
    resumed.ingest(rest).unwrap();
    client.ingest(rest).unwrap();
    assert_eq!(client.finish().unwrap(), vec![resumed.finish().unwrap()]);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots need no journal directory: a tenant whose hello asks for
/// journaling answers `snapshot` from its session's log.
#[test]
fn journaling_tenant_snapshots_without_a_journal_dir() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("logged")
        .grid(TickGrid::new(1, 32))
        .connect(server.local_addr())
        .unwrap();
    let events = shifted(&wave_stream(6, 4), 3);
    let head = &events[..events.len() / 2];
    client.ingest(head).unwrap();
    assert_eq!(client.snapshot().unwrap(), session_snapshot(head));
}

#[test]
fn metrics_page_carries_server_and_prefixed_tenant_series() {
    let server = DbpServer::start(ServerConfig {
        metrics: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let scrape_addr = server.metrics_addr().unwrap();

    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .telemetry()
        .without_journal()
        .connect(server.local_addr())
        .unwrap();
    client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    client.arrive(ItemId(1), rat(1, 4), rat(1, 1)).unwrap();
    // A metrics request republishes the page synchronously.
    client.metrics().unwrap();

    let mut stream = std::net::TcpStream::connect(scrape_addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut page = String::new();
    stream.read_to_string(&mut page).unwrap();

    assert!(page.contains("dbp_server_events_total 2"), "{page}");
    assert!(page.contains("dbp_server_tenants 1"), "{page}");
    // The tenant's telemetry appears both under its prefix and in the
    // lawful un-prefixed merge.
    assert!(page.contains("tenant_acme_"), "{page}");
}

#[test]
fn traced_placements_are_bit_identical_and_echo_ids() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let events = wave_stream(6, 5);

    // Same stream as the in-process twin, but every frame carries a
    // trace id the server must echo. Tracing must not perturb
    // placement: the outcome stays bit-identical.
    let mut client = Client::builder("firstfit")
        .tenant("traced-twin")
        .grid(TickGrid::new(1, 32))
        .without_journal()
        .traced()
        .connect(server.local_addr())
        .unwrap();
    let (head, tail) = events.split_at(events.len() / 3);
    for ev in head {
        client.apply(ev).unwrap();
    }
    client.ingest(tail).unwrap();
    // Ids are sequential from 1 (the hello), one per exchange; the
    // client verified each echo on the way.
    assert_eq!(client.echoed_trace(), Some(1 + head.len() as u64 + 1));
    let outcomes = client.finish().unwrap();
    assert_eq!(outcomes[0], session_outcome("firstfit", &events));
}

#[test]
fn traced_frames_need_no_negotiation() {
    use dbp_proto::{fast, read_frame_raw, write_frame_bytes, RawFrame, Request};
    use serde::Serialize;

    let server = DbpServer::start(ServerConfig::default()).unwrap();

    // A raw connection whose hello never mentioned tracing: the
    // compatibility rule says any later frame may still carry a
    // `trace` id, and the server accepts it and echoes it back.
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut scratch = Vec::new();

    let hello = dbp_proto::Hello::new("raw", "firstfit");
    let payload = serde_json::to_string(&Request::Hello(hello).to_value()).unwrap();
    write_frame_bytes(&mut writer, payload.as_bytes()).unwrap();
    writer.flush().unwrap();
    assert!(matches!(
        read_frame_raw(&mut reader, &mut scratch).unwrap(),
        RawFrame::Payload
    ));
    // Untraced hello, untraced answer — byte-identical to the pre-trace
    // protocol.
    assert!(!String::from_utf8_lossy(&scratch).contains("trace"));

    let mut frame = Vec::new();
    fast::write_event_request_traced(
        &mut frame,
        &Event::Arrive {
            id: ItemId(0),
            size: rat(1, 2),
            time: rat(0, 1),
        },
        Some(7),
    );
    write_frame_bytes(&mut writer, &frame).unwrap();
    writer.flush().unwrap();
    assert!(matches!(
        read_frame_raw(&mut reader, &mut scratch).unwrap(),
        RawFrame::Payload
    ));
    assert_eq!(scratch, br#"{"v":1,"trace":7,"bin":0}"#);
}

#[test]
fn slow_ring_dumps_jsonl_and_chrome_trace_on_shutdown() {
    let dir = test_dir("slowring");
    let out = dir.join("slow.jsonl");
    // `slow_ms: 0` records every placement; `trace_out` dumps the ring
    // when the server stops.
    let server = DbpServer::start(ServerConfig {
        slow_ms: Some(0),
        trace_out: Some(out.clone()),
        ..ServerConfig::default()
    })
    .unwrap();

    let mut client = Client::builder("firstfit")
        .tenant("ring")
        .grid(TickGrid::new(1, 32))
        .without_journal()
        .traced()
        .connect(server.local_addr())
        .unwrap();
    let events = wave_stream(3, 3);
    for ev in &events {
        client.apply(ev).unwrap();
    }
    drop(client);
    server.stop();

    let jsonl = std::fs::read_to_string(&out).unwrap();
    assert_eq!(
        jsonl.lines().count(),
        events.len(),
        "one line per placement"
    );
    let first = serde_json::parse(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(
        first.get("tenant").and_then(serde::Value::as_str),
        Some("ring")
    );
    // The client traced every frame (hello = 1), so the first
    // placement carries id 2, joinable against client-side records.
    assert_eq!(first.get("trace").and_then(serde::Value::as_int), Some(2));
    assert!(first.get("total_us").is_some(), "{jsonl}");
    assert!(first.get("apply_us").is_some(), "{jsonl}");

    let chrome = std::fs::read_to_string(out.with_extension("chrome.json")).unwrap();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"pid\":3"), "server spans live on pid 3");
    assert!(chrome.contains("trace=2"), "{chrome}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_latency_series_reach_the_metrics_page() {
    let server = DbpServer::start(ServerConfig {
        metrics: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let scrape_addr = server.metrics_addr().unwrap();

    let mut client = Client::builder("firstfit")
        .tenant("globex")
        .without_journal()
        .traced()
        .connect(server.local_addr())
        .unwrap();
    client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
    client.arrive(ItemId(1), rat(1, 4), rat(1, 1)).unwrap();
    client.metrics().unwrap();

    let mut stream = std::net::TcpStream::connect(scrape_addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut page = String::new();
    stream.read_to_string(&mut page).unwrap();

    // Wire-level SLO series appear under the tenant prefix and in the
    // lawful un-prefixed merge.
    assert!(
        page.contains("dbp_tenant_globex_request_latency_us"),
        "{page}"
    );
    assert!(
        page.contains("dbp_tenant_globex_requests_total 2"),
        "{page}"
    );
    assert!(
        page.contains("dbp_tenant_globex_traced_requests_total 2"),
        "{page}"
    );
    assert!(
        page.contains("dbp_tenant_globex_quota_refusals_total 0"),
        "{page}"
    );
    assert!(page.contains("dbp_request_latency_us"), "{page}");

    // The in-process snapshot sees the same page without HTTP.
    let registry = server.registry_snapshot();
    let h = registry
        .histogram("tenant_globex_request_latency_us")
        .expect("latency histogram on the snapshot");
    assert_eq!(h.count(), 2);
    assert!(h.quantile(0.99).is_some());
}

#[test]
fn wire_shutdown_stops_the_server() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let client = Client::builder("firstfit")
        .tenant("any")
        .without_journal()
        .connect(addr)
        .unwrap();
    client.shutdown_server(None).unwrap();
    // The accept loop notices the flag and severs everything; new
    // connections are refused once it exits.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match Client::builder("firstfit").tenant("late").connect(addr) {
            Err(_) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10))
            }
            Ok(_) => panic!("server still accepting after wire shutdown"),
        }
    }
    server.stop();
}

/// Journals `events` with [`Journal::append`], except that event
/// `padded` goes in as a non-canonical line ending at byte
/// `padded_end`: whitespace between its version tag and its body,
/// which the generic parser skips, and around the whole line, which it
/// trims. Returns the file's bytes.
fn journal_run(dir: &Path, events: &[Event], padded: usize, padded_end: usize) -> Vec<u8> {
    let mut journal = Journal::create(dir, &first_fit_header("acme")).unwrap();
    journal.append(&events[..padded]).unwrap();
    drop(journal);
    let path = journal_path(dir, "acme");
    let mut bytes = std::fs::read(&path).unwrap();
    let line = event_to_line(&events[padded]);
    let (tag, body) = line.split_at("{\"v\":1,".len());
    let padding = padded_end - bytes.len() - line.len() - 4;
    bytes.extend_from_slice(format!(" {tag}{}{body} \t\n", " ".repeat(padding)).as_bytes());
    assert_eq!(bytes.len(), padded_end);
    std::fs::write(&path, &bytes).unwrap();
    let recovered = read_journal(&path).unwrap();
    let mut journal = Journal::reopen(&path, recovered.end, recovered.lines).unwrap();
    journal.append(&events[padded + 1..]).unwrap();
    drop(journal);
    std::fs::read(&path).unwrap()
}

/// Crash points of a journal: a copy of a journaled run cut at a byte
/// offset recovers exactly the complete lines before the cut.
///
/// The run spans three read blocks of the journal reader and holds one
/// non-canonical line longer than a block. It is cut at every offset
/// of its first lines and at every offset near each block boundary.
/// Each cut copy is recovered the way a restart does it
/// (`Tenant::recover_all`): the tenant's snapshot equals an in-process
/// session's over the complete lines, the torn bytes are the cut's
/// distance from the last complete line, and an event appended after
/// the reopen reads back right after that prefix.
#[test]
fn every_cut_recovers_the_complete_lines_before_it() {
    let dir = test_dir("crash-points");
    // 40 canonical lines, one padded line over the first block
    // boundary that ends just before the second, then canonical lines
    // over the second boundary: the run spans three blocks.
    let mut events = wave_stream(12, 4);
    let padded = 40;
    let mut run = journal_run(&dir, &events, padded, 2 * BLOCK - 100);
    // `ends[i]` is where line i + 1 ends; every line after the
    // header holds one event.
    let mut ends: Vec<usize> = (0..run.len())
        .filter(|&i| run[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    assert_eq!(ends.len(), events.len() + 1);
    assert!(ends[padded + 1] - ends[padded] > BLOCK);
    // End the run one line past the second boundary.
    let line = ends[2] - ends[1];
    let lines = ends.partition_point(|&end| end < 2 * BLOCK + line) + 1;
    ends.truncate(lines);
    events.truncate(lines - 1);
    run.truncate(ends[lines - 1]);
    assert!(run.len() > 2 * BLOCK);

    // Every offset of the first lines, then every offset within two
    // canonical lines of each block boundary: inside the long line at
    // the first, around its end and the file's at the second.
    let reach = 2 * line;
    let mut windows: Vec<RangeInclusive<usize>> = vec![0..=ends[padded] + reach];
    for boundary in (BLOCK..run.len()).step_by(BLOCK) {
        windows.push(boundary - reach..=boundary + reach);
    }
    let mut cuts: Vec<usize> = windows
        .into_iter()
        .flatten()
        .filter(|&cut| cut <= run.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    let extra = Event::Arrive {
        id: ItemId(events.len() as u32),
        size: rat(1, 32),
        time: events.last().unwrap().time(),
    };
    let mut snapshots: HashMap<usize, SessionSnapshot> = HashMap::new();
    let path = journal_path(&dir, "acme");
    for &cut in &cuts {
        std::fs::write(&path, &run[..cut]).unwrap();
        let lines = ends.partition_point(|&end| end <= cut);
        if lines == 0 {
            let err = Tenant::recover_all(&dir, Quotas::unlimited())
                .err()
                .unwrap();
            assert!(
                err.to_string().contains("no complete journal header"),
                "cut {cut}: {err}"
            );
            continue;
        }
        let complete = ends[lines - 1];
        let prefix = &events[..lines - 1];
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.events, prefix, "cut {cut}");
        let end = JournalEnd {
            complete_len: complete as u64,
            torn_bytes: (cut - complete) as u64,
        };
        assert_eq!(recovered.end, end, "cut {cut}");

        let mut tenants = Tenant::recover_all(&dir, Quotas::unlimited()).unwrap();
        assert_eq!(tenants.len(), 1, "cut {cut}");
        let mut tenant = tenants.pop().unwrap();
        assert_eq!(tenant.accepted(), prefix.len() as u64, "cut {cut}");
        let expected = snapshots
            .entry(prefix.len())
            .or_insert_with(|| session_snapshot(prefix));
        assert_eq!(&tenant.snapshot().unwrap(), expected, "cut {cut}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            complete as u64,
            "cut {cut}"
        );

        let mut span = RequestSpan::new("event", 1, None, 0);
        tenant.apply(&extra, &mut span).unwrap();
        drop(tenant);
        let appended = read_journal(&path).unwrap();
        assert_eq!(appended.events, [prefix, &[extra]].concat(), "cut {cut}");
        assert_eq!(appended.end.torn_bytes, 0, "cut {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept loop blocks in `accept`, with no poll: each way a server
/// stops (`stop`, `Drop`, and a wire `shutdown` followed by `wait`)
/// wakes and joins it, so no accept thread outlives its server. Twenty
/// rounds of the three run under a timeout, each server stopped while
/// its accept thread waits with a client attached.
#[test]
fn every_way_of_stopping_wakes_the_blocked_accept_loop() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..20 {
            for way in 0..3 {
                let server = DbpServer::start(ServerConfig::default()).unwrap();
                let connect = || {
                    Client::builder("firstfit")
                        .tenant(format!("t{round}"))
                        .without_journal()
                        .connect(server.local_addr())
                        .unwrap()
                };
                let mut client = connect();
                client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
                match way {
                    0 => server.stop(),
                    1 => drop(server),
                    _ => {
                        connect().shutdown_server(None).unwrap();
                        server.wait();
                    }
                }
                assert!(client.arrive(ItemId(1), rat(1, 2), rat(1, 1)).is_err());
            }
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a stopped server's accept loop kept running");
}

/// This process's sockets whose local port is `port`: a server's
/// listener plus every connection it accepted that still has an open
/// descriptor. The descriptors come from `/proc/self/fd`, their ports
/// from `/proc/net/tcp`, so the sockets of tests running alongside,
/// on other ports, never count.
fn open_sockets_on(port: u16) -> usize {
    let inodes: std::collections::HashSet<u64> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|entry| {
            let link = std::fs::read_link(entry.ok()?.path()).ok()?;
            let inode = link.to_str()?.strip_prefix("socket:[")?.strip_suffix(']')?;
            inode.parse().ok()
        })
        .collect();
    std::fs::read_to_string("/proc/net/tcp")
        .unwrap()
        .lines()
        .skip(1)
        .filter(|line| {
            let columns: Vec<&str> = line.split_whitespace().collect();
            let local_port = columns[1].rsplit(':').next().unwrap();
            u16::from_str_radix(local_port, 16) == Ok(port)
                && columns[9]
                    .parse()
                    .is_ok_and(|inode| inodes.contains(&inode))
        })
        .count()
}

/// A connection's socket closes when its handler ends, not when the
/// daemon stops: 200 hello → finish connections leave the server's
/// open sockets within 2 of where they started.
#[test]
fn finished_connections_close_their_sockets() {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let port = server.local_addr().port();
    let before = open_sockets_on(port);
    for i in 0..200 {
        let client = Client::builder("firstfit")
            .tenant(format!("fd{i}"))
            .without_journal()
            .connect(server.local_addr())
            .unwrap();
        client.finish().unwrap();
    }
    // Each handler ends once its client hangs up, a moment after
    // `finish` returned.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut open = open_sockets_on(port);
    while open > before + 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        open = open_sockets_on(port);
    }
    assert!(
        open <= before + 2,
        "{open} sockets open on the server's port after 200 finished connections, {before} before"
    );
    server.stop();
}

/// A client whose first frame is not a hello gets one typed error and
/// then end of stream: the daemon closes the socket rather than leave
/// the client waiting for an answer that never comes.
#[test]
fn a_refused_first_frame_is_answered_then_closed() {
    use dbp_proto::{decode_response, read_frame_raw, write_frame_bytes, RawFrame, Response};

    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame_bytes(&mut stream, br#"{"v":1,"metrics":{}}"#).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut scratch = Vec::new();
    assert!(matches!(
        read_frame_raw(&mut reader, &mut scratch).unwrap(),
        RawFrame::Payload
    ));
    match decode_response(&scratch).unwrap() {
        (Response::Error(e), None) => {
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert_eq!(e.message, "first frame must be `hello`");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("no end of stream within 5 s of the refusal");
    assert!(rest.is_empty(), "{rest:?}");
    server.stop();
}

/// Three hellos refused under three names (an unknown algorithm,
/// `shards` 2 and `shards` 0), each with a typed `protocol` error, leave
/// no slot in the tenant registry: after one good hello, the page and
/// `/healthz` count one tenant.
#[test]
fn refused_hellos_leave_no_registry_slot() {
    use dbp_proto::Response;

    let server = DbpServer::start(ServerConfig {
        metrics: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    for (hello, says) in [
        (
            r#"{"v":1,"hello":{"tenant":"a","algo":"nope"}}"#,
            "algorithm",
        ),
        (
            r#"{"v":1,"hello":{"tenant":"b","algo":"firstfit","shards":2}}"#,
            "shards must be 1, got 2",
        ),
        (
            r#"{"v":1,"hello":{"tenant":"c","algo":"firstfit","shards":0}}"#,
            "shards must be 1, got 0",
        ),
    ] {
        match &raw_exchange(addr, &[hello.as_bytes()], 1)[..] {
            [Response::Error(e)] => {
                assert_eq!(e.kind, ErrorKind::Protocol, "{hello}: {e}");
                assert!(e.message.contains(says), "{hello}: {e}");
            }
            other => panic!("{hello}: expected a refusal, got {other:?}"),
        }
    }
    let client = Client::builder("firstfit")
        .tenant("good")
        .without_journal()
        .connect(addr)
        .unwrap();
    let get = |path: &str| {
        let mut stream = std::net::TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        answer
    };
    let page = get("/metrics");
    assert!(page.contains("dbp_server_tenants 1\n"), "{page}");
    let health = get("/healthz");
    assert!(health.contains("tenants 1\n"), "{health}");
    drop(client);
    server.stop();
}

/// Writes each payload as a frame on one fresh connection and decodes
/// the first `answers` responses.
fn raw_exchange(
    addr: std::net::SocketAddr,
    payloads: &[&[u8]],
    answers: usize,
) -> Vec<dbp_proto::Response> {
    use dbp_proto::{decode_response, read_frame_raw, write_frame_bytes, RawFrame};

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    for payload in payloads {
        write_frame_bytes(&mut stream, payload).unwrap();
    }
    let mut reader = std::io::BufReader::new(stream);
    let mut scratch = Vec::new();
    (0..answers)
        .map(|_| {
            assert!(matches!(
                read_frame_raw(&mut reader, &mut scratch).unwrap(),
                RawFrame::Payload
            ));
            decode_response(&scratch).unwrap().0
        })
        .collect()
}

/// The server-wide counters on the page, for each kind of traffic
/// that is not a plain placement: a refused hello counts a frame and
/// an error, a malformed frame an error and no frame (before the hello
/// as after it), a shutdown before the hello no frame (and an error
/// when refused), and one after the hello a frame. Refused placements
/// count a frame and an error and no events, whether the frame
/// carried one event or a batch.
#[test]
fn server_counters_count_refusals_malformed_frames_and_shutdowns() {
    use dbp_proto::Response;

    let counters = |server: &DbpServer| {
        let page = server.registry_snapshot();
        [
            page.counter("server_frames"),
            page.counter("server_errors"),
            page.counter("server_events"),
        ]
    };
    let arrive = |id: u32, t: i128| Event::Arrive {
        id: ItemId(id),
        size: rat(1, 4),
        time: rat(t, 1),
    };

    let server = DbpServer::start(ServerConfig {
        auth: TokenPolicy::Shared("s3cret".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let refused = Client::builder("firstfit")
        .tenant("acme")
        .token("wrong")
        .connect(addr);
    assert!(matches!(refused, Err(ClientError::Remote(_))));
    assert_eq!(counters(&server), [1, 1, 0]);

    let answers = raw_exchange(addr, &[b"{not json"], 1);
    assert!(matches!(answers[..], [Response::Error(_)]));
    assert_eq!(counters(&server), [1, 2, 0]);

    let mut client = Client::builder("firstfit")
        .tenant("acme")
        .token("s3cret")
        .without_journal()
        .connect(addr)
        .unwrap();
    client.apply(&arrive(0, 0)).unwrap();
    client.ingest(&[arrive(1, 1), arrive(2, 1)]).unwrap();
    // A refused event frame names no index, a refused batch the index
    // of the event it stopped at.
    match client.apply(&arrive(0, 2)) {
        Err(ClientError::Remote(e)) => assert_eq!((e.kind, e.index), (ErrorKind::Session, None)),
        other => panic!("expected a session refusal, got {other:?}"),
    }
    match client.ingest(&[arrive(3, 2), arrive(1, 2)]) {
        Err(ClientError::Remote(e)) => {
            assert_eq!((e.kind, e.index), (ErrorKind::Session, Some(1)))
        }
        other => panic!("expected a session refusal, got {other:?}"),
    }
    assert_eq!(counters(&server), [6, 4, 3]);

    let attached = raw_exchange(
        addr,
        &[
            br#"{"v":1,"hello":{"tenant":"globex","algo":"firstfit","token":"s3cret"}}"#,
            b"{not json",
            br#"{"v":1,"shutdown":{"token":"wrong"}}"#,
        ],
        3,
    );
    assert!(matches!(
        attached[..],
        [
            Response::Hello { .. },
            Response::Error(_),
            Response::Error(_)
        ]
    ));
    assert_eq!(counters(&server), [8, 6, 3]);

    let answers = raw_exchange(addr, &[br#"{"v":1,"shutdown":{"token":"wrong"}}"#], 1);
    assert!(matches!(answers[..], [Response::Error(_)]));
    assert_eq!(counters(&server), [8, 7, 3]);
    let answers = raw_exchange(addr, &[br#"{"v":1,"shutdown":{"token":"s3cret"}}"#], 1);
    assert!(matches!(answers[..], [Response::Shutdown]));
    assert_eq!(counters(&server), [8, 7, 3]);
    server.wait();

    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let mut client = Client::builder("firstfit")
        .tenant("initech")
        .without_journal()
        .connect(server.local_addr())
        .unwrap();
    client.apply(&arrive(0, 0)).unwrap();
    client.shutdown_server(None).unwrap();
    assert_eq!(counters(&server), [3, 0, 1]);
    server.wait();
}

/// `Tenant::apply` is a one-event batch whose refusals, at admission
/// or in the session, name no batch index, as an event frame's do.
#[test]
fn tenant_apply_refusals_name_no_index() {
    let quotas = Quotas {
        max_active_items: Some(1),
        ..Quotas::unlimited()
    };
    let mut tenant = Tenant::create(&dbp_proto::Hello::new("solo", "firstfit"), quotas, None)
        .map_err(|e| e.to_string())
        .unwrap();
    let arrive = |id: u32| Event::Arrive {
        id: ItemId(id),
        size: rat(1, 4),
        time: rat(0, 1),
    };
    let mut span = RequestSpan::new("event", 1, None, 0);
    assert_eq!(
        tenant
            .apply(&arrive(0), &mut span)
            .map_err(|e| e.to_string()),
        Ok(dbp_proto::BinId(0))
    );
    for (event, kind) in [
        (arrive(1), ErrorKind::Quota),
        (
            Event::Depart {
                id: ItemId(7),
                time: rat(1, 1),
            },
            ErrorKind::Session,
        ),
    ] {
        match tenant.apply(&event, &mut span) {
            Err(dbp_server::ServerError::Wire(e)) => assert_eq!((e.kind, e.index), (kind, None)),
            Err(e) => panic!("expected a wire refusal, got {e}"),
            Ok(bin) => panic!("expected a refusal, got {bin:?}"),
        }
    }
}
