//! Property-based round-trip tests of the wire schema.
//!
//! The contract: every frame and line serializes to JSON text and
//! parses back **bit-identically** — including `Rational` timestamps
//! with awkward numerators/denominators — because downstream
//! bit-identity guarantees (wire-driven outcomes == in-process runs)
//! rest on the wire never rounding anything.

use dbp_core::session::Session;
use dbp_core::{FirstFit, ItemId};
use dbp_numeric::{rat, Rational};
use dbp_proto::{
    checkpoint_from_json, checkpoint_to_json, event_to_line, parse_event_line, Backend, Event,
    Hello, PackingOutcome, Request, Response, SessionSnapshot, TickGrid,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

mod mutation;
use mutation::{mutate, mutation_strategy};

// The vendored proptest stand-in has no `any`/string/option
// strategies; everything is built from ranges, `Just`, and maps.

fn bool_strategy() -> impl Strategy<Value = bool> {
    (0u8..=1).prop_map(|b| b == 1)
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..36, 1..12).prop_map(|digits| {
        digits
            .into_iter()
            .map(|d| {
                if d < 26 {
                    (b'a' + d) as char
                } else {
                    (b'0' + d - 26) as char
                }
            })
            .collect()
    })
}

fn token_strategy() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        name_strategy().prop_map(Some),
        // Tokens with characters that need JSON escaping.
        name_strategy().prop_map(|s| Some(format!("\"{s}\"\\\n\t"))),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let rational = || (-1_000_000i128..=1_000_000, 1i128..=9973);
    let arrive = (0u32..=u32::MAX, rational(), rational()).prop_map(|(id, (sn, sd), (tn, td))| {
        Event::Arrive {
            id: ItemId(id),
            size: rat(sn.max(1), sd),
            time: rat(tn, td),
        }
    });
    let depart = (0u32..=u32::MAX, rational()).prop_map(|(id, (tn, td))| Event::Depart {
        id: ItemId(id),
        time: rat(tn, td),
    });
    prop_oneof![arrive, depart]
}

/// Integers at and past the edges of the codec's 64-bit kernels:
/// around 10¹⁸ (where the parser's 18-digit `u64` run ends), 2⁶³ (the
/// `i64` edge) and 2⁶⁴ (where the writer switches to 128-bit digits),
/// and up to `i128::MAX`, in both signs.
fn wide_int_strategy() -> impl Strategy<Value = i128> {
    let near = |x: i128| (x - 64)..=(x + 64);
    let magnitude = prop_oneof![
        near(10i128.pow(18)),
        near(1 << 63),
        near(1 << 64),
        (i128::MAX - 128)..=i128::MAX,
        0i128..=i128::MAX,
    ];
    (bool_strategy(), magnitude).prop_map(|(negative, m)| if negative { -m } else { m })
}

/// Rationals with at least one wide leg; the denominator is made
/// positive, and `rat` reduces the pair as the codec must.
fn wide_rational_strategy() -> impl Strategy<Value = dbp_numeric::Rational> {
    let den = || wide_int_strategy().prop_map(|d| d.abs().max(1));
    prop_oneof![
        (wide_int_strategy(), den()),
        (wide_int_strategy(), 1i128..=9973),
        (-1_000_000i128..=1_000_000, den()),
    ]
    .prop_map(|(n, d)| rat(n, d))
}

/// Item ids at the top of the `u32` range.
fn wide_id_strategy() -> impl Strategy<Value = u32> {
    (u32::MAX - 64)..=u32::MAX
}

fn wide_event_strategy() -> impl Strategy<Value = Event> {
    let arrive = (
        wide_id_strategy(),
        wide_rational_strategy(),
        wide_rational_strategy(),
    )
        .prop_map(|(id, size, time)| Event::Arrive {
            id: ItemId(id),
            size,
            time,
        });
    let depart =
        (wide_id_strategy(), wide_rational_strategy()).prop_map(|(id, time)| Event::Depart {
            id: ItemId(id),
            time,
        });
    prop_oneof![arrive, depart]
}

/// Grid-sized and wide events, half and half.
fn any_event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![event_strategy(), wide_event_strategy()]
}

fn bin_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..=u32::MAX, wide_id_strategy()]
}

fn hello_strategy() -> impl Strategy<Value = Hello> {
    (
        (
            name_strategy(),
            token_strategy(),
            prop_oneof![
                Just("firstfit".to_string()),
                Just("bestfit".to_string()),
                Just("worstfit".to_string()),
            ],
            prop_oneof![
                Just(Backend::Auto),
                Just(Backend::Exact),
                Just(Backend::Tick)
            ],
        ),
        (
            prop_oneof![
                Just(None),
                (1u32..=64, 1u32..=1024).prop_map(|(t, s)| Some(TickGrid::new(t, s))),
            ],
            1u32..=8,
            bool_strategy(),
            bool_strategy(),
        ),
    )
        .prop_map(
            |((tenant, token, algo, backend), (grid, shards, telemetry, journal))| Hello {
                tenant,
                token,
                algo,
                backend,
                grid,
                shards,
                telemetry,
                journal,
            },
        )
}

/// Drives `(arrival, departure, size)` items through `session`,
/// departures before arrivals at equal times, and finishes it.
fn finished(
    mut session: Session<'static>,
    items: &[(Rational, Rational, Rational)],
) -> PackingOutcome {
    let mut events = Vec::with_capacity(2 * items.len());
    for (i, &(arrive, depart, size)) in items.iter().enumerate() {
        let id = ItemId(i as u32);
        events.push(Event::Arrive {
            id,
            size,
            time: arrive,
        });
        events.push(Event::Depart { id, time: depart });
    }
    events.sort_by_key(|ev| (ev.time(), ev.is_arrival(), ev.id()));
    for ev in &events {
        session.apply(ev).unwrap();
    }
    session.finish().unwrap()
}

/// Algorithm names holding every character class the string writer
/// treats differently: quotes, backslashes, control characters with
/// and without a short escape, DEL, and two-, three- and four-byte
/// UTF-8.
fn escaped_name_strategy() -> impl Strategy<Value = String> {
    const CHARS: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/', ' ', 'a',
        'Z', 'é', '→', '𝄞',
    ];
    prop::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// One shard's finish outcome: a tick session on quarter times and
/// sixteenth sizes, an exact session whose times all share one odd
/// denominator above 2⁶⁴ (so both legs of every usage period pass it),
/// or a tick outcome renamed through `PackingOutcome::from_value`.
fn outcome_strategy() -> impl Strategy<Value = PackingOutcome> {
    let items = || prop::collection::vec((0i128..40, 1i128..12, 1i128..=16), 0..12);
    let tick = || {
        items().prop_map(|items| {
            let session = Session::builder(FirstFit::new())
                .backend(Backend::Tick)
                .grid(TickGrid::new(4, 16))
                .build()
                .unwrap();
            let items: Vec<_> = items
                .into_iter()
                .map(|(at, stay, size)| (rat(at, 4), rat(at + stay, 4), rat(size, 16)))
                .collect();
            finished(session, &items)
        })
    };
    let exact = (items(), (1i128 << 63)..(1i128 << 65)).prop_map(|(items, half)| {
        let den = 2 * half + 1;
        let session = Session::builder(FirstFit::new())
            .backend(Backend::Exact)
            .build()
            .unwrap();
        let items: Vec<_> = items
            .into_iter()
            .map(|(at, stay, size)| {
                (
                    rat(at * den + 1, den),
                    rat((at + stay) * den + 2, den),
                    rat(size, 16),
                )
            })
            .collect();
        finished(session, &items)
    });
    let renamed = (tick(), escaped_name_strategy()).prop_map(|(outcome, name)| {
        let Value::Object(mut fields) = outcome.to_value() else {
            unreachable!("outcomes serialize as objects")
        };
        fields[0] = ("algorithm".to_string(), Value::Str(name));
        PackingOutcome::from_value(&Value::Object(fields)).unwrap()
    });
    prop_oneof![tick(), exact, renamed]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        hello_strategy().prop_map(Request::Hello),
        any_event_strategy().prop_map(Request::Event),
        prop::collection::vec(any_event_strategy(), 0..12).prop_map(Request::Batch),
        Just(Request::Snapshot),
        Just(Request::Metrics),
        Just(Request::Finish),
        token_strategy().prop_map(|token| Request::Shutdown { token }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stream lines round-trip bit-identically, versioned and legacy.
    #[test]
    fn event_lines_round_trip(ev in any_event_strategy()) {
        let line = event_to_line(&ev);
        prop_assert_eq!(parse_event_line(&line).unwrap().unwrap(), ev);

        // The same payload without the version tag (legacy traces).
        let legacy = serde_json::to_string(&ev.to_value()).unwrap();
        prop_assert_eq!(parse_event_line(&legacy).unwrap().unwrap(), ev);
    }

    /// Request frames survive serialize → text → parse unchanged.
    #[test]
    fn request_frames_round_trip(req in request_strategy()) {
        let text = serde_json::to_string(&req.to_value()).unwrap();
        let value = serde_json::parse(&text).unwrap();
        prop_assert_eq!(Request::from_value(&value).unwrap(), req);
    }

    /// The canonical fast codec is byte-identical to the generic
    /// encoder and parses its own output back exactly — so the hot
    /// path is an optimization, never a dialect.
    #[test]
    fn fast_codec_agrees_with_generic(
        ev in any_event_strategy(),
        batch in prop::collection::vec(any_event_strategy(), 0..12),
        bins in prop::collection::vec(bin_strategy(), 0..16),
    ) {
        use dbp_core::BinId;
        use dbp_proto::fast;

        let mut buf = Vec::new();
        fast::write_event_request(&mut buf, &ev);
        let generic = serde_json::to_string(&Request::Event(ev).to_value()).unwrap();
        prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), generic.as_str());
        prop_assert_eq!(fast::parse_request_traced(&buf), Some((Request::Event(ev), None)));

        buf.clear();
        fast::write_batch_request(&mut buf, &batch);
        let generic =
            serde_json::to_string(&Request::Batch(batch.clone()).to_value()).unwrap();
        prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), generic.as_str());
        prop_assert_eq!(fast::parse_request_traced(&buf), Some((Request::Batch(batch), None)));

        let bins: Vec<BinId> = bins.into_iter().map(BinId).collect();
        buf.clear();
        fast::write_bins_response(&mut buf, &bins);
        let generic =
            serde_json::to_string(&Response::Bins(bins.clone()).to_value()).unwrap();
        prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), generic.as_str());
        prop_assert_eq!(fast::parse_response_traced(&buf), Some((Response::Bins(bins), None)));
    }

    /// The tracing contract, over the whole request space: an absent
    /// `trace` keeps the canonical encoding byte-identical to the
    /// untraced (pre-tracing) format, and a present id round-trips
    /// through both the generic and (for hot frames) fast codecs.
    #[test]
    fn untraced_frames_are_byte_identical_and_traced_ids_round_trip(
        req in request_strategy(),
        trace in prop_oneof![Just(None), (0u64..=u64::MAX).prop_map(Some)],
    ) {
        use dbp_proto::fast;

        // `trace: None` is not a different encoding — it IS the plain
        // canonical frame, byte for byte.
        let plain = serde_json::to_string(&req.to_value()).unwrap();
        let untraced = serde_json::to_string(&req.to_traced_value(None)).unwrap();
        prop_assert_eq!(untraced.as_str(), plain.as_str());

        // Whatever the id, the traced frame parses back to the same
        // request with the same id, and the untraced entry point
        // accepts it too (the never-break-old-clients rule).
        let text = serde_json::to_string(&req.to_traced_value(trace)).unwrap();
        let value = serde_json::parse(&text).unwrap();
        let (back, echoed) = Request::from_traced_value(&value).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(echoed, trace);
        prop_assert_eq!(Request::from_value(&value).unwrap(), req.clone());

        // Hot frames: the traced fast writer stays byte-identical to
        // the generic encoder and the fast parser inverts it.
        let mut buf = Vec::new();
        match &req {
            Request::Event(ev) => {
                fast::write_event_request_traced(&mut buf, ev, trace);
                prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), text.as_str());
                prop_assert_eq!(fast::parse_request_traced(&buf), Some((req, trace)));
            }
            Request::Batch(events) => {
                fast::write_batch_request_traced(&mut buf, events, trace);
                prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), text.as_str());
                prop_assert_eq!(fast::parse_request_traced(&buf), Some((req, trace)));
            }
            _ => {}
        }
    }

    /// Traced responses echo ids through both codecs the same way.
    /// Finish frames (0–4 outcomes: the codec takes any count, though
    /// a daemon sends one) have a fast writer but no strict parser: the
    /// generic codec reads them.
    #[test]
    fn traced_responses_round_trip(
        bins in prop::collection::vec(0u32..=u32::MAX, 0..16),
        outcomes in prop::collection::vec(outcome_strategy(), 0..=4),
        trace in prop_oneof![
            Just(None),
            Just(Some(0)),
            Just(Some(u64::MAX)),
            (0u64..=u64::MAX).prop_map(Some),
        ],
    ) {
        use dbp_core::BinId;
        use dbp_proto::fast;

        let bins: Vec<BinId> = bins.into_iter().map(BinId).collect();
        for resp in [
            Response::Bin(bins.first().copied().unwrap_or(BinId(0))),
            Response::Bins(bins),
            Response::Outcomes(outcomes),
        ] {
            let plain = serde_json::to_string(&resp.to_value()).unwrap();
            let untraced = serde_json::to_string(&resp.to_traced_value(None)).unwrap();
            prop_assert_eq!(untraced.as_str(), plain.as_str());

            let text = serde_json::to_string(&resp.to_traced_value(trace)).unwrap();
            let value = serde_json::parse(&text).unwrap();
            let (back, echoed) = Response::from_traced_value(&value).unwrap();
            prop_assert_eq!(&back, &resp);
            prop_assert_eq!(echoed, trace);

            let mut buf = Vec::new();
            match &resp {
                Response::Bin(bin) => fast::write_bin_response_traced(&mut buf, *bin, trace),
                Response::Bins(bins) => fast::write_bins_response_traced(&mut buf, bins, trace),
                Response::Outcomes(outcomes) => {
                    fast::write_outcomes_response_traced(&mut buf, outcomes, trace)
                }
                _ => unreachable!(),
            };
            prop_assert_eq!(std::str::from_utf8(&buf).unwrap(), text.as_str());
            let expected = match resp {
                Response::Outcomes(_) => None,
                placement => Some((placement, trace)),
            };
            prop_assert_eq!(fast::parse_response_traced(&buf), expected);
        }
    }

    /// Checkpoint envelopes round-trip a session snapshot built from
    /// an arbitrary accepted event prefix, bit-identically.
    #[test]
    fn checkpoints_round_trip(hello in hello_strategy(), n in 0u32..30) {
        use dbp_core::session::Session;
        use dbp_core::FirstFit;

        let mut session = Session::builder(FirstFit::new()).build().unwrap();
        for i in 0..n {
            session
                .arrive(ItemId(i), rat(1 + (i as i128 % 7), 8), rat(i as i128, 4))
                .unwrap();
        }
        let snapshot = session.snapshot().unwrap();
        let doc = checkpoint_to_json(&snapshot);
        prop_assert_eq!(checkpoint_from_json(&doc).unwrap(), snapshot);

        // Hello frames are independent of the checkpoint but share the
        // strategy run: exercise their round trip too.
        let text = serde_json::to_string(&hello.to_value()).unwrap();
        let value = serde_json::parse(&text).unwrap();
        prop_assert_eq!(Hello::from_value(&value).unwrap(), hello);
    }

    /// Response frames carrying snapshots and outcomes round-trip.
    #[test]
    fn response_frames_round_trip(n in 0u32..20, bins in prop::collection::vec(0u32..=u32::MAX, 0..16)) {
        use dbp_core::session::Session;
        use dbp_core::{BinId, FirstFit};

        let mut session = Session::builder(FirstFit::new()).build().unwrap();
        for i in 0..n {
            session
                .arrive(ItemId(i), rat(1 + (i as i128 % 5), 8), rat(i as i128, 2))
                .unwrap();
        }
        let snapshot = session.snapshot().unwrap();
        let metrics = session.metrics();
        let outcome = {
            let mut s = Session::resume(&snapshot).unwrap();
            for i in 0..n {
                s.depart(ItemId(i), rat(100 + i as i128, 1)).unwrap();
            }
            s.finish().unwrap()
        };

        for resp in [
            Response::Snapshot(snapshot),
            Response::Metrics(Box::new(metrics)),
            Response::Outcomes(vec![outcome]),
            Response::Bins(bins.into_iter().map(BinId).collect()),
        ] {
            let text = serde_json::to_string(&resp.to_value()).unwrap();
            let value = serde_json::parse(&text).unwrap();
            prop_assert_eq!(Response::from_value(&value).unwrap(), resp);
        }
    }
}

/// A resumed session from a wire-round-tripped checkpoint finishes
/// bit-identically to the original — the end-to-end guarantee the
/// journal recovery path depends on.
#[test]
fn wire_checkpoint_resume_is_bit_identical() {
    use dbp_core::session::Session;
    use dbp_core::FirstFit;

    let build = || Session::builder(FirstFit::new()).build().unwrap();
    let feed = |s: &mut Session<'static>| {
        s.arrive(ItemId(0), rat(1, 3), rat(0, 1)).unwrap();
        s.arrive(ItemId(1), rat(2, 3), rat(1, 2)).unwrap();
        s.depart(ItemId(0), rat(5, 4)).unwrap();
    };
    let tail = |s: &mut Session<'static>| {
        s.arrive(ItemId(2), rat(1, 2), rat(2, 1)).unwrap();
        s.depart(ItemId(1), rat(3, 1)).unwrap();
        s.depart(ItemId(2), rat(7, 2)).unwrap();
    };

    let mut uninterrupted = build();
    feed(&mut uninterrupted);
    tail(&mut uninterrupted);
    let expected = uninterrupted.finish().unwrap();

    let mut first = build();
    feed(&mut first);
    let doc = checkpoint_to_json(&first.snapshot().unwrap());
    drop(first); // "crash"

    let snapshot: SessionSnapshot = checkpoint_from_json(&doc).unwrap();
    let mut resumed = Session::resume(&snapshot).unwrap();
    tail(&mut resumed);
    assert_eq!(resumed.finish().unwrap(), expected);
}

// Hostile bytes: the strict fast parser is the first reader of every
// placement frame and of every journal line, so on *any* input it must
// either defer (`None`) or agree exactly with the generic codec.

/// A canonical byte string the daemon or the journal reader meets:
/// event and batch requests (traced and untraced), `bin`/`bins`
/// responses, and journal lines.
fn canonical_bytes_strategy() -> BoxedStrategy<Vec<u8>> {
    use dbp_core::BinId;
    use dbp_proto::fast;

    let trace = || prop_oneof![Just(None), (0u64..=u64::MAX).prop_map(Some)];
    let bins = || prop::collection::vec(bin_strategy().prop_map(BinId), 0..4);
    prop_oneof![
        (any_event_strategy(), trace()).prop_map(|(ev, trace)| {
            let mut buf = Vec::new();
            fast::write_event_request_traced(&mut buf, &ev, trace);
            buf
        }),
        (prop::collection::vec(any_event_strategy(), 0..4), trace()).prop_map(|(events, trace)| {
            let mut buf = Vec::new();
            fast::write_batch_request_traced(&mut buf, &events, trace);
            buf
        }),
        (bin_strategy(), trace()).prop_map(|(bin, trace)| {
            let mut buf = Vec::new();
            fast::write_bin_response_traced(&mut buf, BinId(bin), trace);
            buf
        }),
        (bins(), trace()).prop_map(|(bins, trace)| {
            let mut buf = Vec::new();
            fast::write_bins_response_traced(&mut buf, &bins, trace);
            buf
        }),
        (any_event_strategy(), bool_strategy()).prop_map(|(ev, newline)| {
            let mut line = event_to_line(&ev);
            if newline {
                line.push('\n');
            }
            line.into_bytes()
        }),
    ]
    .boxed()
}

/// The stream-line reader with the generic codec only: what
/// `parse_event_line` returned before the strict parser read lines
/// first (`Some(None)` = a typed error).
fn generic_event_line(line: &str) -> Option<Option<Event>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return None;
    }
    let Ok(value) = serde_json::parse(trimmed) else {
        return Some(None);
    };
    let Some(entries) = value.as_object() else {
        return Some(None);
    };
    let mut payload = Vec::new();
    for (key, val) in entries {
        if key != "v" {
            payload.push((key.clone(), val.clone()));
        } else if val.as_int() != Some(1) {
            return Some(None);
        }
    }
    Some(Event::from_value(&serde::Value::Object(payload)).ok())
}

/// Checks both fast parsers and the line reader on `bytes` against
/// the generic codec. Returns how many fast parses accepted.
fn check_against_generic(bytes: &[u8]) -> Result<usize, String> {
    use dbp_proto::fast;

    let text = std::str::from_utf8(bytes).ok();
    let generic = || {
        let text = text.ok_or("fast parser accepted non-UTF-8 bytes")?;
        serde_json::parse(text).map_err(|e| format!("generic parser refused: {e}"))
    };
    let mut accepted = 0;
    if let Some(fast) = fast::parse_request_traced(bytes) {
        accepted += 1;
        let value = generic()?;
        match Request::from_traced_value(&value) {
            Ok(ref back) if *back == fast => {}
            other => return Err(format!("request: fast {fast:?}, generic {other:?}")),
        }
    }
    if let Some(fast) = fast::parse_response_traced(bytes) {
        accepted += 1;
        let value = generic()?;
        match Response::from_traced_value(&value) {
            Ok(ref back) if *back == fast => {}
            other => return Err(format!("response: fast {fast:?}, generic {other:?}")),
        }
    }
    if let Some(text) = text {
        let line = parse_event_line(text).map(Result::ok);
        let oracle = generic_event_line(text);
        if line != oracle {
            return Err(format!("line: fast-first {line:?}, generic {oracle:?}"));
        }
    }
    accepted += check_in_place_line(bytes)?;
    Ok(accepted)
}

/// Checks the journal reader's in-place entry on a read buffer that
/// starts at a line: when it claims a line, that line ends at the
/// first `\n`, `parse_request_traced` reads it as the same untraced
/// event, and `parse_event_line` and the generic-only reader return
/// that event too. Returns 1 when it claimed a line.
fn check_in_place_line(bytes: &[u8]) -> Result<usize, String> {
    use dbp_proto::fast;

    let Some((event, len)) = fast::read_event_line(bytes) else {
        return Ok(0);
    };
    let line = &bytes[..len];
    if line.iter().position(|&b| b == b'\n') != Some(len - 1) {
        return Err(format!("in place: claimed {len} bytes, not one line"));
    }
    let strict = fast::parse_request_traced(&line[..len - 1]);
    if strict != Some((Request::Event(event), None)) {
        return Err(format!(
            "in place: read {event:?}, strict parser {strict:?}"
        ));
    }
    let text = std::str::from_utf8(line).map_err(|_| "in place: accepted non-UTF-8 bytes")?;
    let (fast_first, generic) = (parse_event_line(text), generic_event_line(text));
    if fast_first != Some(Ok(event)) || generic != Some(Some(event)) {
        return Err(format!(
            "in place: read {event:?}, line parser {fast_first:?}, generic {generic:?}"
        ));
    }
    Ok(1)
}

/// A journal read buffer at a line start: one canonical event line,
/// its `\n`, then some leading bytes of the next line.
fn journal_buffer_strategy() -> impl Strategy<Value = Vec<u8>> {
    (any_event_strategy(), any_event_strategy(), 0usize..160).prop_map(|(ev, next, keep)| {
        let mut buf = event_to_line(&ev).into_bytes();
        buf.push(b'\n');
        let next = event_to_line(&next);
        buf.extend_from_slice(&next.as_bytes()[..keep.min(next.len())]);
        buf
    })
}

/// The journal reader's in-place entry (`fast::read_event_line`) on
/// canonical read buffers and on their mutants (0–3 flips, inserts,
/// deletes, truncations or splices): it reads every untouched
/// canonical line, and whatever it reads is exactly what
/// `parse_event_line` returns for that line; otherwise it defers. It
/// never claims a line that `parse_request_traced` refuses.
#[test]
fn in_place_line_reader_agrees_with_the_line_parser_or_defers() {
    use proptest::test_runner::TestRng;

    let cases = ProptestConfig::with_cases(8192).effective_cases();
    let mut rng = TestRng::for_test("prop_wire::in_place_line_reader");
    let buffers = journal_buffer_strategy();
    let mutations = prop::collection::vec(mutation_strategy(), 0..=3);
    let mut accepted = 0;
    for case in 0..cases {
        let buffer = buffers.generate(&mut rng);
        let other = buffers.generate(&mut rng);
        let ops = mutations.generate(&mut rng);
        let mutant = mutate(buffer.clone(), &other, &ops);
        let claimed = check_in_place_line(&mutant).unwrap_or_else(|e| {
            panic!(
                "case {case}: {e}\n  buffer {}\n  ops    {ops:?}\n  mutant {}",
                String::from_utf8_lossy(&buffer),
                String::from_utf8_lossy(&mutant)
            )
        });
        assert!(
            claimed == 1 || !ops.is_empty(),
            "case {case}: deferred on a canonical line: {}",
            String::from_utf8_lossy(&buffer)
        );
        accepted += claimed;
    }
    // Not vacuous: the untouched buffers alone are about a quarter of
    // the cases, and some mutants stay canonical.
    assert!(
        accepted * 5 >= cases as usize,
        "only {accepted} of {cases} buffers had a line read in place"
    );
}

/// 1–3 flips, inserts, deletes, truncations or cross-frame splices of
/// canonical frames and journal lines: whenever a fast parser accepts
/// a mutant, the generic codec yields the same value and trace id, and
/// the fast-first line reader never panics and never answers
/// differently from the generic-only one.
#[test]
fn hostile_bytes_never_split_the_fast_and_generic_parsers() {
    use proptest::test_runner::TestRng;

    let cases = ProptestConfig::with_cases(8192).effective_cases();
    let mut rng = TestRng::for_test("prop_wire::hostile_bytes");
    let frames = canonical_bytes_strategy();
    let mutations = prop::collection::vec(mutation_strategy(), 1..=3);
    let mut accepted = 0;
    for case in 0..cases {
        let frame = frames.generate(&mut rng);
        let other = frames.generate(&mut rng);
        let ops = mutations.generate(&mut rng);
        let mutant = mutate(frame.clone(), &other, &ops);
        match check_against_generic(&mutant) {
            Ok(n) => accepted += n,
            Err(e) => panic!(
                "case {case}: {e}\n  frame  {}\n  ops    {ops:?}\n  mutant {}",
                String::from_utf8_lossy(&frame),
                String::from_utf8_lossy(&mutant)
            ),
        }
    }
    // Not vacuous: a share of the mutants are still canonical (a digit
    // flipped to another digit, a splice at a shared boundary, ...).
    assert!(
        accepted * 100 >= cases as usize,
        "only {accepted} of {cases} mutants reached a fast parser"
    );
}
