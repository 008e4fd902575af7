//! Hostile bytes through the whole connection handler, in process.
//!
//! [`DbpServer::serve_connection`] reads a `BufRead` and writes a
//! `Write`, so this property feeds it byte streams no well-behaved
//! client sends: a valid frame sequence for one tenant, or for two
//! (hello, event, batch, metrics, snapshot, event, batch, finish
//! each), with one length line made oversized, longer or shorter than
//! its payload, garbled or cut off, and then bits flipped, bytes
//! inserted or deleted, the stream truncated, or spliced onto the other
//! tenant's frames (`prop_wire`'s mutations, shared by path). Every
//! case must return without a panic, everything the handler wrote must
//! parse as length-prefixed `Response` frames, and a tenant whose name
//! never appears in the input must answer `metrics` exactly as before.

#[path = "../../proto/tests/mutation/mod.rs"]
mod mutation;

use dbp_core::ItemId;
use dbp_numeric::rat;
use dbp_proto::{
    decode_response, encode_request, read_frame_raw, write_frame_bytes, Event, Hello, RawFrame,
    Request, Response, MAX_FRAME_BYTES,
};
use dbp_server::{DbpServer, ServerConfig};
use mutation::{mutate, mutation_strategy};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One tenant's session: `sizes.len()` items in eighths, the hello's
/// `shards` (2 gets the hello refused, so the tenant never attaches),
/// and whether its frames carry `trace` ids.
#[derive(Debug, Clone)]
struct Script {
    sizes: Vec<i128>,
    shards: u32,
    traced: bool,
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (
        prop::collection::vec(1i128..=8, 1..=5),
        1u32..=2,
        (0u8..=1).prop_map(|b| b == 1),
    )
        .prop_map(|(sizes, shards, traced)| Script {
            sizes,
            shards,
            traced,
        })
}

/// The script's request payloads: item 0 arrives alone, the others in
/// a batch that also departs item 0, then `metrics` and `snapshot`,
/// item 1 departs alone, the rest in a batch, and `finish`.
fn payloads(tenant: &str, script: &Script) -> Vec<Vec<u8>> {
    let arrive = |i: usize, t: i128| Event::Arrive {
        id: ItemId(i as u32),
        size: rat(script.sizes[i], 8),
        time: rat(t, 1),
    };
    let depart = |i: usize| Event::Depart {
        id: ItemId(i as u32),
        time: rat(3, 1),
    };
    let n = script.sizes.len();
    let mut hello = Hello::new(tenant, "firstfit");
    hello.shards = script.shards;
    let mut batch: Vec<Event> = (1..n).map(|i| arrive(i, 1)).collect();
    batch.push(Event::Depart {
        id: ItemId(0),
        time: rat(2, 1),
    });
    let mut requests = vec![
        Request::Hello(hello),
        Request::Event(arrive(0, 0)),
        Request::Batch(batch),
        Request::Metrics,
        Request::Snapshot,
    ];
    if n > 1 {
        requests.push(Request::Event(depart(1)));
    }
    requests.push(Request::Batch((2..n).map(depart).collect()));
    requests.push(Request::Finish);
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut payload = Vec::new();
            encode_request(&mut payload, request, script.traced.then_some(i as u64));
            payload
        })
        .collect()
}

/// How the damaged frame's length line reads.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// One past [`MAX_FRAME_BYTES`].
    Oversized,
    /// A number no `usize` holds.
    Overflowing,
    /// The payload's length plus `k`.
    Longer(usize),
    /// The payload's length minus `k`.
    Shorter(usize),
    /// Not a number.
    Garbled,
    /// The stream ends partway through the length line.
    Cut,
}

fn length_strategy() -> impl Strategy<Value = Option<(usize, Length)>> {
    let edit = prop_oneof![
        Just(Length::Oversized),
        Just(Length::Overflowing),
        (1usize..=8).prop_map(Length::Longer),
        (1usize..=8).prop_map(Length::Shorter),
        Just(Length::Garbled),
        Just(Length::Cut),
    ];
    prop_oneof![Just(None), Just(None), (0usize..16, edit).prop_map(Some),]
}

/// Frames `payloads`, damaging the length line of frame
/// `at % payloads.len()` when `length` says so.
fn framed(payloads: &[Vec<u8>], length: Option<(usize, Length)>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let Some((_, edit)) = length.filter(|&(at, _)| at % payloads.len() == i) else {
            write_frame_bytes(&mut bytes, payload).unwrap();
            continue;
        };
        let line = match edit {
            Length::Oversized => (MAX_FRAME_BYTES + 1).to_string(),
            Length::Overflowing => "9".repeat(30),
            Length::Longer(k) => (payload.len() + k).to_string(),
            Length::Shorter(k) => payload.len().saturating_sub(k).to_string(),
            Length::Garbled => format!("{}x", payload.len()),
            Length::Cut => {
                let line = payload.len().to_string();
                bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
                return bytes;
            }
        };
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(payload);
        bytes.push(b'\n');
    }
    bytes
}

/// Every frame in `output`, decoded; `Err` names the first that is not
/// a whole length-prefixed `Response`.
fn responses(mut output: &[u8]) -> Result<Vec<Response>, String> {
    let mut scratch = Vec::new();
    let mut responses = Vec::new();
    loop {
        match read_frame_raw(&mut output, &mut scratch) {
            Ok(RawFrame::Eof) => return Ok(responses),
            Ok(RawFrame::Payload) => responses.push(decode_response(&scratch)?.0),
            Err(e) => return Err(format!("frame {}: {e}", responses.len())),
        }
    }
}

/// Serves `payloads` as one well-formed connection and returns the
/// responses.
fn serve(server: &DbpServer, payloads: &[Vec<u8>]) -> Vec<Response> {
    let mut output = Vec::new();
    server
        .serve_connection(&framed(payloads, None)[..], &mut output)
        .unwrap();
    responses(&output).unwrap()
}

/// The bystander tenant's `metrics` answer, after `frames` (which
/// start with its hello).
fn bystander_metrics(server: &DbpServer, frames: &[Vec<u8>]) -> Response {
    let mut payloads = frames.to_vec();
    payloads.push(br#"{"v":1,"metrics":{}}"#.to_vec());
    serve(server, &payloads).pop().unwrap()
}

#[derive(Debug)]
struct Case {
    first: Script,
    second: Script,
    both: bool,
    length: Option<(usize, Length)>,
    mutations: Vec<mutation::Mutation>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        script_strategy(),
        script_strategy(),
        (0u8..=1).prop_map(|b| b == 1),
        length_strategy(),
        prop::collection::vec(mutation_strategy(), 0..=3),
    )
        .prop_map(|(first, second, both, length, mutations)| Case {
            first,
            second,
            both,
            length,
            mutations,
        })
}

/// One case on a fresh server. Returns how many placement answers and
/// how many error frames the handler wrote.
fn run_case(case: &Case) -> Result<(usize, usize), String> {
    let server = DbpServer::start(ServerConfig::default()).unwrap();
    let bystander = payloads(
        "bystander",
        &Script {
            sizes: vec![3, 5, 2],
            shards: 1,
            traced: false,
        },
    );
    let before = bystander_metrics(&server, &bystander[..3]);

    let (first, second) = (payloads("a", &case.first), payloads("b", &case.second));
    let mut input = first.clone();
    if case.both {
        input.extend(second.iter().cloned());
    }
    let hostile = mutate(
        framed(&input, case.length),
        &framed(&second, None),
        &case.mutations,
    );
    let mut output = Vec::new();
    let _ = server.serve_connection(&hostile[..], &mut output);
    let written = responses(&output).map_err(|e| {
        format!(
            "{e}\n  input  {}\n  output {}",
            String::from_utf8_lossy(&hostile),
            String::from_utf8_lossy(&output)
        )
    })?;

    let after = bystander_metrics(&server, &bystander[..1]);
    server.stop();
    if after != before {
        return Err(format!(
            "bystander's metrics moved: {before:?} -> {after:?}\n  input {}",
            String::from_utf8_lossy(&hostile)
        ));
    }
    let placed = written
        .iter()
        .filter(|r| matches!(r, Response::Bin(_) | Response::Bins(_)))
        .count();
    let errors = written
        .iter()
        .filter(|r| matches!(r, Response::Error(_)))
        .count();
    Ok((placed, errors))
}

#[test]
fn hostile_connections_answer_in_frames_and_leave_other_tenants_alone() {
    let cases = ProptestConfig::with_cases(1024).effective_cases();
    // Under a timeout: a wedged handler fails the test instead of
    // hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut rng = TestRng::for_test("prop_connection::hostile_connections");
        let strategy = case_strategy();
        let (mut placing, mut refusing) = (0, 0);
        for n in 0..cases {
            let case = strategy.generate(&mut rng);
            match run_case(&case) {
                Ok((placed, errors)) => {
                    placing += usize::from(placed > 0);
                    refusing += usize::from(errors > 0);
                }
                Err(e) => panic!("case {n}: {e}\n  case {case:?}"),
            }
        }
        done.send((placing, refusing)).unwrap();
    });
    let received = finished.recv_timeout(std::time::Duration::from_secs(300));
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = received {
        panic!("the cases did not finish");
    }
    // A failed case panics the worker, and the panic surfaces here.
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
    let (placing, refusing) = received.unwrap();
    // Not vacuous: many cases still place events, and many are refused
    // somewhere along the way.
    assert!(
        placing * 4 >= cases as usize,
        "only {placing} of {cases} cases placed an event"
    );
    assert!(
        refusing * 4 >= cases as usize,
        "only {refusing} of {cases} cases drew an error frame"
    );
}
