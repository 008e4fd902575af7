//! Restarts from engine-state checkpoints.
//!
//! A journaled tenant on the tick engine writes `<tenant>.ckpt` beside
//! its journal, and `Tenant::recover_all` loads it and replays only the
//! journal after the point it covers. The contract: every restart
//! equals, bit for bit, an uninterrupted in-process run over the
//! journal's complete lines (same accepted count, metrics, snapshot,
//! later placements and outcome), or fails with the typed error a
//! restart without the checkpoint fails with. These tests damage the
//! checkpoint and the journal at crash points, finish and re-create
//! tenants, promote tenants off the tick grid after their last
//! checkpoint, and check all of it at random cuts in a property.

use dbp_core::{ItemId, PackingOutcome};
use dbp_numeric::rat;
use dbp_proto::{event_to_line, Event, Hello, TickGrid, WireError};
use dbp_server::checkpoint::checkpoint_path;
use dbp_server::journal::{journal_path, read_journal};
use dbp_server::tenant::Tenant;
use dbp_server::{Client, DbpServer, Quotas, RequestSpan, ServerConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-ckpt-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn span() -> RequestSpan {
    RequestSpan::new("batch", 0, None, 0)
}

fn hello(telemetry: bool) -> Hello {
    Hello {
        grid: Some(TickGrid::new(1, 32)),
        telemetry,
        ..Hello::new("acme", "firstfit")
    }
}

/// Waves of `width` items one time unit apart, each departing `stay`
/// steps after it arrived, sizes on the 1/32 grid mixed by `salt`;
/// departures come before arrivals at every shared instant, and every
/// item departs by the end.
fn waves(count: u32, width: u32, stay: u32, salt: u32) -> Vec<Event> {
    let mut events = Vec::new();
    for step in 0..count + stay {
        if step >= stay {
            for k in 0..width {
                let id = (step - stay) * width + k;
                if id < count * width {
                    events.push(Event::Depart {
                        id: ItemId(id),
                        time: rat(step as i128, 1),
                    });
                }
            }
        }
        if step < count {
            for k in 0..width {
                let mix = (salt.wrapping_mul(2654435761) ^ (step * 31 + k * 7)) % 24;
                events.push(Event::Arrive {
                    id: ItemId(step * width + k),
                    size: rat(1 + mix as i128, 32),
                    time: rat(step as i128, 1),
                });
            }
        }
    }
    events
}

/// The uninterrupted in-process run over `events`: a tenant without a
/// journal file, every event accepted.
fn reference(hello: &Hello, events: &[Event]) -> Tenant {
    let mut tenant = Tenant::create(hello, Quotas::unlimited(), None).unwrap();
    for event in events {
        tenant.apply(event, &mut span()).unwrap();
    }
    tenant
}

/// The one tenant `recover_all` rebuilds from `dir`.
fn restart(dir: &Path) -> Tenant {
    let mut tenants = Tenant::recover_all(dir, Quotas::unlimited()).unwrap();
    assert_eq!(tenants.len(), 1);
    tenants.pop().unwrap()
}

fn finish(tenant: Tenant) -> Result<Vec<PackingOutcome>, WireError> {
    tenant.finish().map_err(|(_, e)| e)
}

/// `restarted` equals `reference` now and after both take `rest`:
/// accepted count (the hello's `resumed_events`), metrics and
/// snapshot, then every later frame's answer and the outcome.
fn assert_same(mut restarted: Tenant, mut reference: Tenant, rest: &[Vec<Event>], at: &str) {
    assert_eq!(restarted.accepted(), reference.accepted(), "{at}: accepted");
    assert_eq!(restarted.metrics(), reference.metrics(), "{at}: metrics");
    assert_eq!(restarted.snapshot(), reference.snapshot(), "{at}: snapshot");
    for (i, frame) in rest.iter().enumerate() {
        let answer = |t: &mut Tenant| t.batch(frame, &mut span()).map_err(|e| e.into_wire());
        assert_eq!(
            answer(&mut restarted),
            answer(&mut reference),
            "{at}: frame {i} after"
        );
        assert_eq!(
            restarted.metrics(),
            reference.metrics(),
            "{at}: frame {i} after"
        );
    }
    assert_eq!(finish(restarted), finish(reference), "{at}: finish");
}

/// A journaled run of `events` in `frame`-event batches with a
/// checkpoint forced after `checkpoint_after` events, left as a crash
/// leaves it. Returns the journal's and the checkpoint's bytes.
fn journaled_run(
    dir: &Path,
    events: &[Event],
    frame: usize,
    checkpoint_after: usize,
) -> (Vec<u8>, Vec<u8>) {
    let mut tenant = Tenant::create(&hello(true), Quotas::unlimited(), Some(dir)).unwrap();
    let mut checkpoint = None;
    for (i, batch) in events.chunks(frame).enumerate() {
        tenant.batch(batch, &mut span()).unwrap();
        if (i + 1) * frame >= checkpoint_after && checkpoint.is_none() {
            assert!(tenant.checkpoint(), "a tick tenant writes its checkpoint");
            checkpoint = Some(fs::read(checkpoint_path(&journal_path(dir, "acme"))).unwrap());
        }
    }
    drop(tenant);
    let journal = fs::read(journal_path(dir, "acme")).unwrap();
    (journal, checkpoint.expect("a checkpoint was written"))
}

/// Line ends of `journal` (the header's included).
fn line_ends(journal: &[u8]) -> Vec<usize> {
    (0..journal.len())
        .filter(|&i| journal[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// Cuts the checkpoint at every byte offset and flips every third bit
/// of it, so every byte sees a flip: each restart equals the
/// uninterrupted run over the journal, having fallen back to the full
/// replay; the whole checkpoint restarts equal too.
#[test]
fn every_damaged_checkpoint_restarts_like_the_journal_alone() {
    let dir = test_dir("cut-ckpt");
    let events = waves(12, 3, 3, 1);
    let (journal, ckpt) = journaled_run(&dir, &events, 5, events.len() / 2);
    let path = checkpoint_path(&journal_path(&dir, "acme"));
    let rest: Vec<Vec<Event>> = Vec::new();
    let mut damaged: Vec<(String, Vec<u8>)> = (0..ckpt.len())
        .map(|cut| (format!("checkpoint cut at {cut}"), ckpt[..cut].to_vec()))
        .collect();
    for bit in (0..ckpt.len() * 8).step_by(3) {
        let mut flipped = ckpt.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        damaged.push((format!("checkpoint bit {bit} flipped"), flipped));
    }
    damaged.push(("whole checkpoint".to_string(), ckpt.clone()));
    for (at, bytes) in damaged {
        fs::write(journal_path(&dir, "acme"), &journal).unwrap();
        fs::write(&path, &bytes).unwrap();
        assert_same(restart(&dir), reference(&hello(true), &events), &rest, &at);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The checkpoint really replaces the replay of what it covers: with
/// an event line before its window damaged, the restart succeeds from
/// the checkpoint, and without the checkpoint it fails as it does
/// today, naming the damaged line.
#[test]
fn a_restart_reads_only_the_journal_after_its_checkpoint() {
    let dir = test_dir("tail-only");
    let events = waves(80, 4, 3, 2);
    let (mut journal, _) = journaled_run(&dir, &events, 8, events.len() - 40);
    let ends = line_ends(&journal);
    // Line 3 holds the second event; its `"v":1` becomes `"v":9`.
    let at = ends[1] + 4;
    assert_eq!(&journal[at..at + 3], b":1,");
    journal[at + 1] = b'9';
    fs::write(journal_path(&dir, "acme"), &journal).unwrap();
    let tenant = restart(&dir);
    assert_eq!(tenant.accepted(), events.len() as u64);
    let expected = reference(&hello(true), &events);
    assert_eq!(tenant.metrics(), expected.metrics());
    assert_eq!(finish(tenant), finish(expected));

    // `finish` removed both files; the journal alone comes back.
    assert!(!checkpoint_path(&journal_path(&dir, "acme")).exists());
    fs::write(journal_path(&dir, "acme"), &journal).unwrap();
    let err = Tenant::recover_all(&dir, Quotas::unlimited())
        .err()
        .unwrap();
    assert!(
        err.to_string()
            .contains(&format!("bad journal line 3 at byte {}", ends[1])),
        "{err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint that holds two states, as no build writes any more,
/// reads as no checkpoint: with an event line before its window
/// damaged, the restart replays the whole journal and fails on that
/// line; with the journal whole, it replays it and equals the
/// uninterrupted run.
#[test]
fn a_checkpoint_of_two_states_restarts_from_the_whole_journal() {
    let dir = test_dir("two-states");
    let events = waves(80, 4, 3, 2);
    let (journal, ckpt) = journaled_run(&dir, &events, 8, events.len() - 40);
    // The state count sits after the 44 header bytes, the one state's
    // length and bytes after it; the CRC seals the file.
    let sealed = ckpt.len() - 4;
    assert_eq!(ckpt[44..48], 1u32.to_le_bytes());
    let mut two = ckpt[..44].to_vec();
    two.extend_from_slice(&2u32.to_le_bytes());
    two.extend_from_slice(&ckpt[48..sealed]);
    two.extend_from_slice(&ckpt[48..sealed]);
    let crc = dbp_proto::crc32(&two);
    two.extend_from_slice(&crc.to_le_bytes());

    let mut damaged = journal.clone();
    let at = line_ends(&journal)[1] + 4;
    assert_eq!(&damaged[at..at + 3], b":1,");
    damaged[at + 1] = b'9';
    let ckpt_path = checkpoint_path(&journal_path(&dir, "acme"));
    fs::write(journal_path(&dir, "acme"), &damaged).unwrap();
    fs::write(&ckpt_path, &two).unwrap();
    let err = Tenant::recover_all(&dir, Quotas::unlimited())
        .err()
        .unwrap();
    assert!(err.to_string().contains("bad journal line 3"), "{err}");

    fs::write(journal_path(&dir, "acme"), &journal).unwrap();
    assert_same(
        restart(&dir),
        reference(&hello(true), &events),
        &[],
        "two states",
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Cuts the journal at every offset from a few lines before the
/// checkpoint's offset to a few lines after it: before the offset the
/// checkpoint is out of step and the restart replays the complete
/// lines; after it, the checkpoint loads and the tail's complete lines
/// replay. Either way the restart equals the uninterrupted run over
/// the complete lines, then carries on with the rest of the stream.
#[test]
fn cutting_the_journal_around_the_checkpoint_restarts_its_complete_lines() {
    let dir = test_dir("cut-journal");
    let events = waves(12, 3, 3, 3);
    let (journal, ckpt) = journaled_run(&dir, &events, 4, 20);
    let ends = line_ends(&journal);
    let offset = u64::from_le_bytes(ckpt[12..20].try_into().unwrap()) as usize;
    let at = ends
        .iter()
        .position(|&end| end == offset)
        .expect("offset ends a line");
    for cut in ends[at - 3]..=ends[at + 3] {
        fs::write(journal_path(&dir, "acme"), &journal[..cut]).unwrap();
        fs::write(checkpoint_path(&journal_path(&dir, "acme")), &ckpt).unwrap();
        let lines = ends.partition_point(|&end| end <= cut) - 1;
        let rest: Vec<Vec<Event>> = events[lines..].chunks(4).map(<[Event]>::to_vec).collect();
        let at = format!("journal cut at {cut} (checkpoint at {offset})");
        let restarted = restart(&dir);
        let len = fs::metadata(journal_path(&dir, "acme")).unwrap().len();
        assert_eq!(len, ends[lines] as u64, "{at}: torn tail cut");
        assert_same(
            restarted,
            reference(&hello(true), &events[..lines]),
            &rest,
            &at,
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `finish` removes the checkpoint with the journal, and a tenant
/// re-created under the same name starts clean: `Journal::create`
/// removes a stale checkpoint before it truncates, and one put back
/// beside the new journal anyway is out of step with it and ignored.
#[test]
fn a_finished_tenant_recreated_under_its_name_ignores_the_old_checkpoint() {
    let dir = test_dir("recreate");
    let old = waves(12, 3, 3, 4);
    let (_, stale) = journaled_run(&dir, &old, 4, 20);
    let ckpt = checkpoint_path(&journal_path(&dir, "acme"));
    let tenant = restart(&dir);
    finish(tenant).unwrap();
    assert!(!ckpt.exists() && !journal_path(&dir, "acme").exists());

    let torn = ckpt.with_extension("ckpt.tmp");
    fs::write(&ckpt, &stale).unwrap();
    fs::write(&torn, &stale[..stale.len() / 2]).unwrap();
    let mut tenant = Tenant::create(&hello(true), Quotas::unlimited(), Some(&dir)).unwrap();
    assert!(!ckpt.exists(), "Journal::create removes a stale checkpoint");
    assert!(!torn.exists(), "and a torn temporary one");
    // The same items, other sizes: a journal as long as the old one.
    let new = waves(12, 3, 3, 5);
    assert_ne!(new, old);
    tenant.batch(&new, &mut span()).unwrap();
    drop(tenant);
    fs::write(&ckpt, &stale).unwrap();
    assert_same(
        restart(&dir),
        reference(&hello(true), &new),
        &[],
        "stale checkpoint",
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A tenant promoted to the exact engine after its last checkpoint
/// writes no other, and restarts from that one through the promotion.
#[test]
fn a_tenant_promoted_after_its_checkpoint_restarts_through_the_promotion() {
    let dir = test_dir("promote");
    let mut events = waves(12, 3, 3, 6);
    // An item sized in thirds, off the 1/32 grid, arrives among the
    // later arrivals and departs last.
    let at = events.len() * 3 / 4;
    let at = at + events[at..].iter().position(Event::is_arrival).unwrap();
    let time = events[at].time();
    events.insert(
        at,
        Event::Arrive {
            id: ItemId(999),
            size: rat(1, 3),
            time,
        },
    );
    let end = events.last().unwrap().time() + rat(1, 1);
    events.push(Event::Depart {
        id: ItemId(999),
        time: end,
    });

    let mut tenant = Tenant::create(&hello(true), Quotas::unlimited(), Some(&dir)).unwrap();
    tenant.batch(&events[..at / 2], &mut span()).unwrap();
    assert!(tenant.checkpoint());
    let written = fs::read(checkpoint_path(&journal_path(&dir, "acme"))).unwrap();
    let (middle, rest) = events[at / 2..].split_at(at + 5 - at / 2);
    tenant.batch(middle, &mut span()).unwrap();
    assert!(
        !tenant.checkpoint(),
        "an exact-engine tenant writes no checkpoint"
    );
    assert_eq!(
        fs::read(checkpoint_path(&journal_path(&dir, "acme"))).unwrap(),
        written
    );
    drop(tenant);
    let applied = &events[..at / 2 + middle.len()];
    assert_same(
        restart(&dir),
        reference(&hello(true), applied),
        &[rest.to_vec()],
        "promoted after the checkpoint",
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A line the sessions reject in the tail after a checkpoint fails the
/// restart naming its line and byte, exactly as without the
/// checkpoint.
#[test]
fn a_rejected_tail_event_names_its_line_and_byte() {
    let dir = test_dir("tail-reject");
    let events = waves(12, 3, 3, 7);
    let (journal, ckpt) = journaled_run(&dir, &events, 4, 20);
    let unknown = Event::Depart {
        id: ItemId(777),
        time: events.last().unwrap().time(),
    };
    let mut damaged = journal.clone();
    damaged.extend_from_slice(format!("{}\n", event_to_line(&unknown)).as_bytes());
    let line = line_ends(&journal).len() + 1;
    let expected = format!("on line {line} at byte {}", journal.len());
    let mut errors = Vec::new();
    for with_checkpoint in [true, false] {
        fs::write(journal_path(&dir, "acme"), &damaged).unwrap();
        let path = checkpoint_path(&journal_path(&dir, "acme"));
        if with_checkpoint {
            fs::write(&path, &ckpt).unwrap();
        } else {
            let _ = fs::remove_file(&path);
        }
        let err = Tenant::recover_all(&dir, Quotas::unlimited())
            .err()
            .unwrap()
            .to_string();
        assert!(err.contains(&expected), "{err}");
        errors.push(err);
    }
    assert_eq!(errors[0], errors[1]);
    let _ = fs::remove_dir_all(&dir);
}

/// A daemon whose journal passes the checkpoint threshold writes the
/// checkpoint on its own; restarted, it resumes every event over the
/// wire and finishes like an in-process run.
#[test]
fn a_daemon_checkpoints_past_the_threshold_and_resumes_from_it() {
    let dir = test_dir("daemon");
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
    // ~77 bytes per line: 60,000 events pass 4 MiB.
    let events = waves(2100, 15, 3, 8);
    assert!(events.len() > 60_000);
    let server = DbpServer::start(config()).unwrap();
    let mut client = connect(&server);
    for frame in events.chunks(1024) {
        client.ingest(frame).unwrap();
    }
    server.stop();
    drop(client);
    assert!(checkpoint_path(&journal_path(&dir, "acme")).exists());

    let server = DbpServer::start(config()).unwrap();
    let client = connect(&server);
    assert_eq!(client.resumed_events(), events.len() as u64);
    let expected = finish(reference(&hello(false), &events)).unwrap();
    assert_eq!(client.finish().unwrap(), expected);
    assert!(!checkpoint_path(&journal_path(&dir, "acme")).exists());
    server.stop();
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams in random frames, telemetry on or off, some
    /// frames ending in an event the session rejects, and half the time
    /// an off-grid arrival that promotes the session to the exact
    /// engine; checkpoints forced after random frames and a crash
    /// after a random frame. The restart equals the uninterrupted run:
    /// accepted count, metrics, snapshot, every later frame's answer
    /// and the outcome.
    #[test]
    fn checkpoint_restarts_match_uninterrupted_runs(
        shape in (2u32..14, 1u32..5, 1u32..4, 0u32..1000),
        telemetry in 0u8..2,
        frame in 1usize..9,
        checkpoints in prop::collection::vec(0usize..64, 0..4),
        rejects in prop::collection::vec(0usize..64, 0..3),
        promote in (0u8..2, 0usize..1000),
        crash in 0usize..64,
    ) {
        let (count, width, stay, salt) = shape;
        let mut events = waves(count, width, stay, salt);
        if promote.0 == 1 {
            let from = promote.1 % events.len();
            if let Some(i) = events[from..].iter().position(Event::is_arrival) {
                let time = events[from + i].time();
                events.insert(from + i, Event::Arrive { id: ItemId(5000), size: rat(1, 3), time });
                let end = events.last().unwrap().time() + rat(1, 1);
                events.push(Event::Depart { id: ItemId(5000), time: end });
            }
        }
        let mut frames: Vec<Vec<Event>> = events.chunks(frame).map(<[Event]>::to_vec).collect();
        for &at in &rejects {
            let len = frames.len();
            let frame = &mut frames[at % len];
            let time = frame.last().unwrap().time();
            frame.push(Event::Depart { id: ItemId(9000 + at as u32), time });
        }
        let hello = hello(telemetry == 1);
        let dir = test_dir(&format!("prop-{telemetry}-{frame}"));
        let crash = crash % (frames.len() + 1);
        let mut tenant = Tenant::create(&hello, Quotas::unlimited(), Some(&dir)).unwrap();
        let mut uninterrupted = Tenant::create(&hello, Quotas::unlimited(), None).unwrap();
        for (i, frame) in frames[..crash].iter().enumerate() {
            let answer = tenant.batch(frame, &mut span()).map_err(|e| e.into_wire());
            let twin = uninterrupted.batch(frame, &mut span()).map_err(|e| e.into_wire());
            prop_assert_eq!(answer, twin);
            if checkpoints.iter().any(|&c| c % frames.len() == i) {
                tenant.checkpoint();
            }
        }
        drop(tenant);
        let journal = read_journal(&journal_path(&dir, "acme")).unwrap();
        prop_assert_eq!(journal.events.len() as u64, uninterrupted.accepted());
        let restarted = restart(&dir);
        assert_same(restarted, uninterrupted, &frames[crash..], &format!("crash after frame {crash}"));
        let _ = fs::remove_dir_all(&dir);
    }
}
