//! End-to-end observability: the CLI captures a JSONL event trace and
//! a metrics snapshot, and the replay verifier reconstructs the
//! packing outcome from the trace **bit-for-bit**.

use dbp_core::Runner;
use mindbp::core::FirstFit;
use mindbp::obs::{parse_jsonl, verify, StepSeries};
use mindbp::workloads::load_instance;
use std::path::Path;

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|x| x.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mindbp-integration-obs");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn cli_trace_replays_bit_identically() {
    let workload = tmp("workload.json");
    let events = tmp("events.jsonl");
    let metrics = tmp("metrics.json");

    // Generate a workload and pack it with observability attached.
    mindbp_cli::run(&args(&[
        "generate", "--family", "random", "--n", "40", "--mu", "4", "--seed", "11", "--out",
        &workload,
    ]))
    .unwrap();
    let packed = mindbp_cli::run(&args(&[
        "pack",
        "--trace",
        &workload,
        "--algo",
        "firstfit",
        "--events",
        &events,
        "--metrics",
        &metrics,
    ]))
    .unwrap();
    assert!(packed.contains("trace events"), "{packed}");
    assert!(Path::new(&events).exists());
    assert!(Path::new(&metrics).exists());

    // Re-run the same instance through the engine directly…
    let (_, instance) = load_instance(Path::new(&workload)).unwrap();
    let outcome = Runner::new(&instance).run(&mut FirstFit::new()).unwrap();

    // …and check the CLI-emitted trace reconstructs the outcome
    // exactly: same total usage (as an exact rational), same peak.
    let text = std::fs::read_to_string(&events).unwrap();
    let trace = parse_jsonl(&text).unwrap();
    let summary = verify(&trace, &outcome).unwrap();
    assert_eq!(summary.total_usage, outcome.total_usage());
    assert_eq!(summary.max_open_bins, outcome.max_open_bins());
    assert_eq!(summary.bins_opened, outcome.bins_opened());
    assert_eq!(summary.arrivals, 40);
    assert_eq!(summary.departures, 40);

    // The step series derived from the same trace agrees too.
    let series = StepSeries::from_events(&trace);
    let s = series.summary().unwrap();
    assert_eq!(s.usage_integral, outcome.total_usage());
    assert_eq!(s.utilization, outcome.utilization());

    // The metrics snapshot is valid JSON and counted every event.
    let snap = serde_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_int())
            .unwrap()
    };
    assert_eq!(counter("arrivals"), 40);
    assert_eq!(counter("departures"), 40);
    assert_eq!(counter("bins_opened"), outcome.bins_opened() as i128);

    // `stats` reads the emitted event log and reports a clean replay.
    let stats = mindbp_cli::run(&args(&["stats", "--trace", &events])).unwrap();
    assert!(stats.contains("replay: OK"), "{stats}");

    for f in [&workload, &events, &metrics] {
        std::fs::remove_file(f).unwrap();
    }
}

#[test]
fn live_session_telemetry_pipeline_is_bounded_and_lossless() {
    use mindbp::core::session::{Event, Session};
    use mindbp::core::{event_schedule, FirstFit};
    use mindbp::numeric::rat;
    use mindbp::obs::{
        parse_jsonl, set_ratio_gauge, telemetry_registry, verify, TelemetrySink, Watchdog,
    };
    use mindbp::simcore::EventClass;
    use mindbp::workloads::RandomWorkload;

    let instance = RandomWorkload::with_mu(80, rat(4, 1), 7).generate();
    let events: Vec<Event> = event_schedule(&instance)
        .iter()
        .map(|e| match e.class {
            EventClass::Arrival => Event::Arrive {
                id: e.payload,
                size: instance.item(e.payload).size,
                time: e.time,
            },
            EventClass::Departure => Event::Depart {
                id: e.payload,
                time: e.time,
            },
            EventClass::Control => unreachable!(),
        })
        .collect();

    // Stream the whole instance through a live session with stream
    // telemetry on and a small bounded sink spilling every event.
    let spill_path = tmp("live-spill.jsonl");
    let mut sink = TelemetrySink::new()
        .ring(16)
        .spill(std::fs::File::create(&spill_path).unwrap());
    let mut session = Session::builder(FirstFit::new())
        .telemetry()
        .observer(&mut sink)
        .build()
        .unwrap();
    session.ingest(&events).unwrap();
    let metrics = session.metrics();
    let outcome = session.finish().unwrap();
    sink.flush();

    // The ring stayed bounded while the spill stayed lossless: the
    // JSONL file replays against the outcome bit-for-bit even though
    // only the 16 most recent events are held in memory.
    assert_eq!(sink.recent().count(), 16);
    assert_eq!(sink.evicted(), sink.kept() - 16);
    assert_eq!(sink.kept(), sink.seen());
    assert!(sink.spill_error().is_none());
    let trace = parse_jsonl(&std::fs::read_to_string(&spill_path).unwrap()).unwrap();
    assert_eq!(sink.spilled_lines() as usize, trace.len());
    let summary = verify(&trace, &outcome).unwrap();
    assert_eq!(summary.total_usage, outcome.total_usage());
    assert_eq!(summary.max_open_bins, outcome.max_open_bins());

    // Session telemetry feeds the lower-bound machinery: vol/span are
    // genuine lower bounds, so the live ratio upper estimate is ≥ 1,
    // and a deliberately tight watchdog threshold trips on it.
    let ratio = metrics.ratio_upper_estimate().unwrap();
    assert!(ratio >= rat(1, 1));
    let mut dog = Watchdog::with_threshold(rat(1, 1000));
    assert!(dog.check(&metrics).is_some());

    // The same metrics render as a valid OpenMetrics page with the
    // ratio gauge the scrape endpoint publishes.
    let mut registry = telemetry_registry(&metrics);
    set_ratio_gauge(&mut registry);
    let page = registry.to_openmetrics();
    assert!(page.contains("dbp_ratio_upper_estimate"), "{page}");
    assert!(page.ends_with("# EOF\n"), "{page}");

    std::fs::remove_file(&spill_path).unwrap();
}
