//! Socket load generator for the allocation daemon.
//!
//! Drives `--threads` client threads × `--tenants` tenants of batched
//! arrive/depart waves against a `dbp-server` (by default a fresh
//! in-process one on a loopback port for every pass, stopped when the
//! pass is measured, so no pass or later arm runs beside earlier
//! passes' live tenants; or `--addr` for an external daemon) in
//! [`PAIRS`] same-run pairs of passes, one untraced and one traced,
//! each on fresh tenants, alternating which pass of a pair goes first.
//! It records into a perf_check-compatible snapshot
//! (`results/BENCH_server.json` by convention):
//!
//! * aggregate placement events/sec, the median over each kind of
//!   pass, and every pair's traced/untraced ratio with their median
//!   (`traced_vs_untraced_ratio`, the tracing-overhead gate). A pair
//!   runs back to back, so slow drift of the host between pairs
//!   stays out of each ratio, and alternating the order keeps a
//!   drift within a pair from favouring one kind of pass;
//! * client-side placement latency from individually-timed frames,
//!   accumulated in the shared `dbp_obs` log₂ [`Histogram`] (same
//!   buckets the server publishes, so the two sides are comparable);
//! * server-side request latency and per-phase shares for the traced
//!   passes, read straight off each in-process server's merged
//!   exposition registry (`tenant_<name>_request_latency_us`,
//!   `tenant_<name>_request_<phase>_ns`) before it stops;
//! * the durable-restart rate (`journal_replay_events_per_sec`): one
//!   tenant's stream journaled with `Journal::create` and one
//!   `append` per batch, then rebuilt the way `DbpServer::start` does
//!   it (`Tenant::recover_all`, which streams the journal straight into
//!   the tenant), best of five;
//! * the checkpointed restart (`checkpoint_restart_ms`,
//!   `checkpoint_replay_ms` and their ratio
//!   `checkpoint_restart_vs_replay_ratio`, a same-run gate): one wave
//!   tenant journaled through `Tenant::batch` past several engine-state
//!   checkpoints, then `Tenant::recover_all` timed on its directory
//!   with the checkpoint and with the checkpoint moved aside (a full
//!   replay), interleaved, best of [`RESTART_ROUNDS`] each;
//! * the finish-frame encode (`finish_frame_fast_ms`,
//!   `finish_frame_generic_ms` and their ratio
//!   `finish_fast_vs_generic_ratio`, a same-run gate): one wave
//!   tenant's outcome, built in process, encoded by the canonical fast
//!   writer the daemon answers `finish` with and by the generic `Value`
//!   codec, interleaved, best of [`FINISH_ROUNDS`] each.
//!
//! The workload is the serving analogue of the bench suite's wave
//! pattern: at each integer step, the items that arrived two steps ago
//! depart, then a fresh batch arrives — departures before arrivals at
//! every shared instant, sizes cycling on a 1/128 grid so the tick
//! engine carries the whole stream.

use dbp_core::session::Session;
use dbp_core::FirstFit;
use dbp_numeric::rat;
use dbp_obs::Histogram;
use dbp_proto::{fast, Backend, Event, Hello, ItemId, Response, TickGrid};
use dbp_server::checkpoint::checkpoint_path;
use dbp_server::journal::{journal_path, Journal, JournalHeader};
use dbp_server::span::PHASE_NAMES;
use dbp_server::tenant::Tenant;
use dbp_server::{Client, DbpServer, Quotas, RequestSpan, ServerConfig};
use std::io::Write;
use std::time::Instant;

/// Untraced/traced pass pairs per run. On a 2-core VM, ten runs of a
/// single untraced-then-traced pair read ratios of 0.87–1.37; ten
/// medians of five alternating pairs read 0.94–1.12.
const PAIRS: usize = 5;

/// Rounds of the finish-frame encode comparison, each timing both
/// encoders once.
const FINISH_ROUNDS: usize = 5;

/// Events the checkpointed-restart arm journals: about 22 MiB of
/// journal, so a restart loads the fifth checkpoint and replays a tail
/// of under 4 MiB.
const RESTART_EVENTS: u64 = 300_000;

/// Interleaved rounds of the checkpointed-restart arm, each timing a
/// restart from the checkpoint and a full replay once.
const RESTART_ROUNDS: usize = 5;

struct Args {
    threads: usize,
    tenants: usize,
    events_per_tenant: u64,
    batch: usize,
    sample_every: usize,
    addr: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        tenants: 8,
        events_per_tenant: 250_000,
        batch: 1024,
        sample_every: 64,
        addr: None,
        out: Some("results/BENCH_server.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--tenants" => args.tenants = value("--tenants").parse().expect("--tenants"),
            "--events-per-tenant" => {
                args.events_per_tenant = value("--events-per-tenant")
                    .parse()
                    .expect("--events-per-tenant")
            }
            "--batch" => args.batch = value("--batch").parse().expect("--batch"),
            "--sample-every" => {
                args.sample_every = value("--sample-every").parse().expect("--sample-every")
            }
            "--addr" => args.addr = Some(value("--addr")),
            "--out" => args.out = Some(value("--out")),
            "--no-out" => args.out = None,
            other => panic!("unknown flag `{other}` (see loadgen source for usage)"),
        }
    }
    assert!(args.threads >= 1 && args.tenants >= 1 && args.batch >= 1);
    args
}

/// One tenant's deterministic wave stream, chunked into per-step
/// batches: departures of the step-before-last wave, then the next
/// wave of arrivals, all at integer times on the declared grid.
fn wave_batches(events_total: u64, batch: usize) -> Vec<Vec<Event>> {
    let wave = batch.max(2) / 2;
    let mut batches = Vec::new();
    let mut next_id: u32 = 0;
    let mut arrived: std::collections::VecDeque<(i128, Vec<ItemId>)> =
        std::collections::VecDeque::new();
    let mut produced: u64 = 0;
    let mut step: i128 = 0;
    while produced < events_total {
        let mut events = Vec::with_capacity(batch);
        if let Some(&(t, _)) = arrived.front() {
            if t <= step - 2 {
                let (_, ids) = arrived.pop_front().unwrap();
                for id in ids {
                    events.push(Event::Depart {
                        id,
                        time: rat(step, 1),
                    });
                }
            }
        }
        let mut ids = Vec::with_capacity(wave);
        for k in 0..wave {
            let id = ItemId(next_id);
            next_id = next_id.wrapping_add(1);
            ids.push(id);
            events.push(Event::Arrive {
                id,
                size: rat(1 + ((k as i128 + step) % 64), 128),
                time: rat(step, 1),
            });
        }
        arrived.push_back((step, ids));
        produced += events.len() as u64;
        batches.push(events);
        step += 1;
    }
    batches
}

/// One full workload pass. `prefix` namespaces the tenants (passes
/// must not share sessions) and `traced` turns on per-frame request
/// ids with echo verification. Returns total events, wall seconds,
/// and the client-side latency histogram of the sampled frames.
fn run_pass(args: &Args, addr: &str, prefix: &str, traced: bool) -> (u64, f64, Histogram) {
    let started = Instant::now();
    let per_thread: Vec<(u64, Histogram)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread in 0..args.threads {
            handles.push(scope.spawn(move || {
                let mut events_done: u64 = 0;
                let mut latencies_us = Histogram::default();
                for tenant in (thread..args.tenants).step_by(args.threads) {
                    let mut builder = Client::builder("firstfit")
                        .tenant(format!("{prefix}{tenant}"))
                        .grid(TickGrid::new(1, 128))
                        .without_journal();
                    if traced {
                        builder = builder.traced();
                    }
                    let mut client = builder.connect(addr).expect("connect");
                    let batches = wave_batches(args.events_per_tenant, args.batch);
                    for (i, events) in batches.iter().enumerate() {
                        if i % args.sample_every == args.sample_every - 1 {
                            // Individually-timed placement frames: one
                            // round trip per event, the latency the
                            // paper's serving story cares about.
                            for event in events {
                                let t0 = Instant::now();
                                client.apply(event).expect("placement");
                                latencies_us.observe(t0.elapsed().as_secs_f64() * 1e6);
                            }
                        } else {
                            client.ingest(events).expect("batch placement");
                        }
                        events_done += events.len() as u64;
                    }
                    // Leave tenants live (no finish): the benchmark
                    // measures steady-state placement, not teardown;
                    // stopping the pass's server drops them.
                }
                (events_done, latencies_us)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let total: u64 = per_thread.iter().map(|(n, _)| n).sum();
    let mut latencies = Histogram::default();
    for (_, h) in &per_thread {
        latencies.merge(h);
    }
    (total, wall, latencies)
}

/// Adds one traced pass's server-side view, its tenants' request
/// latency histograms and phase times under `prefix`, read off the
/// pass's in-process server.
fn read_server_side(
    server: &DbpServer,
    args: &Args,
    prefix: &str,
    latency: &mut Histogram,
    phase_ns: &mut [u64; 5],
) {
    let registry = server.registry_snapshot();
    for tenant in 0..args.tenants {
        let prefix = format!("tenant_{prefix}{tenant}_request");
        if let Some(h) = registry.histogram(&format!("{prefix}_latency_us")) {
            latency.merge(h);
        }
        for (acc, name) in phase_ns.iter_mut().zip(PHASE_NAMES) {
            *acc += registry.counter(&format!("{prefix}_{name}_ns"));
        }
    }
}

/// Journals one tenant's wave stream (one `append` per batch, as a
/// durable tenant writes it) into a temporary directory, then times the
/// restart path `DbpServer::start` runs — `Tenant::recover_all` over
/// the directory — best of five (the first repetitions also pay for
/// growing the heap). Returns replayed events per second.
fn journal_replay_rate(args: &Args) -> f64 {
    let dir = std::env::temp_dir().join(format!("dbp-loadgen-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let header = JournalHeader {
        tenant: "replay".to_string(),
        algo: "FirstFit".to_string(),
        backend: Backend::Auto,
        grid: Some(TickGrid::new(1, 128)),
        shards: 1,
        telemetry: false,
    };
    let batches = wave_batches(args.events_per_tenant, args.batch);
    let events: usize = batches.iter().map(Vec::len).sum();
    let mut journal = Journal::create(&dir, &header).expect("create journal");
    for batch in &batches {
        journal.append(batch).expect("append to journal");
    }
    drop(journal);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        let tenants = Tenant::recover_all(&dir, Quotas::unlimited()).expect("recover");
        best = best.min(started.elapsed().as_secs_f64());
        let accepted: Vec<u64> = tenants.iter().map(Tenant::accepted).collect();
        assert_eq!(accepted, [events as u64], "replay lost events");
    }
    std::fs::remove_dir_all(&dir).expect("remove temporary journal");
    events as f64 / best
}

/// Journals [`RESTART_EVENTS`] of one wave tenant through
/// `Tenant::batch`, as a durable tenant takes them, which writes an
/// engine-state checkpoint every few MiB. Then times `Tenant::recover_all`
/// on the directory, the restart path `DbpServer::start` runs, once from
/// the checkpoint and once with it moved aside, in [`RESTART_ROUNDS`]
/// interleaved rounds. Returns the best of each in milliseconds,
/// `(checkpoint, replay)`.
fn checkpoint_restart_ms() -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("dbp-loadgen-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut hello = Hello::new("restart", "firstfit");
    hello.grid = Some(TickGrid::new(1, 128));
    let mut tenant =
        Tenant::create(&hello, Quotas::unlimited(), Some(&dir)).expect("create tenant");
    for batch in wave_batches(RESTART_EVENTS, 1024) {
        let mut span = RequestSpan::new("batch", batch.len() as u64, None, 0);
        tenant.batch(&batch, &mut span).expect("journal a batch");
    }
    let accepted = tenant.accepted();
    drop(tenant);
    let checkpoint = checkpoint_path(&journal_path(&dir, "restart"));
    let aside = checkpoint.with_extension("aside");
    assert!(
        checkpoint.exists(),
        "the journal passed the checkpoint threshold"
    );
    let (mut from_checkpoint, mut replay) = (f64::INFINITY, f64::INFINITY);
    let restart = || {
        let started = Instant::now();
        let tenants = Tenant::recover_all(&dir, Quotas::unlimited()).expect("recover");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(tenants[0].accepted(), accepted, "restart lost events");
        ms
    };
    for _ in 0..RESTART_ROUNDS {
        from_checkpoint = from_checkpoint.min(restart());
        std::fs::rename(&checkpoint, &aside).expect("move the checkpoint aside");
        replay = replay.min(restart());
        std::fs::rename(&aside, &checkpoint).expect("put the checkpoint back");
    }
    std::fs::remove_dir_all(&dir).expect("remove temporary journal");
    (from_checkpoint, replay)
}

/// Times one wave tenant's finish frame, the response a `finish`
/// request gets: the tenant's stream runs through an in-process session
/// (its last waves departing two steps after the stream ends), and
/// the outcome is encoded by the canonical fast writer the daemon uses
/// and by the generic `Value` codec, each into a fresh buffer,
/// interleaved, best of [`FINISH_ROUNDS`]. Returns milliseconds as
/// `(fast, generic)` and the frame's length.
fn finish_frame_ms(args: &Args) -> (f64, f64, usize) {
    let mut session = Session::builder(FirstFit::new())
        .grid(TickGrid::new(1, 128))
        .without_checkpoints()
        .build()
        .expect("wave session builds");
    let mut live = std::collections::HashSet::new();
    let mut end = rat(0, 1);
    for event in wave_batches(args.events_per_tenant, args.batch)
        .iter()
        .flatten()
    {
        session.apply(event).expect("wave events apply");
        match *event {
            Event::Arrive { id, .. } => live.insert(id),
            Event::Depart { id, .. } => live.remove(&id),
        };
        end = event.time();
    }
    let mut live: Vec<ItemId> = live.into_iter().collect();
    live.sort_unstable();
    for id in live {
        session
            .depart(id, end + rat(2, 1))
            .expect("live items depart");
    }
    let response = Response::Outcomes(vec![session.finish().expect("wave session finishes")]);
    let Response::Outcomes(outcomes) = &response else {
        unreachable!("built as outcomes")
    };
    let (mut fast_best, mut generic_best) = (f64::INFINITY, f64::INFINITY);
    let mut frame_len = 0;
    for _ in 0..FINISH_ROUNDS {
        let started = Instant::now();
        let mut frame = Vec::new();
        fast::write_outcomes_response_traced(&mut frame, outcomes, None);
        fast_best = fast_best.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let generic = serde_json::value_to_string(&response.to_traced_value(None));
        generic_best = generic_best.min(started.elapsed().as_secs_f64());
        assert_eq!(frame, generic.as_bytes(), "finish frame encoders disagree");
        frame_len = frame.len();
    }
    (fast_best * 1e3, generic_best * 1e3, frame_len)
}

fn quantile_or_zero(h: &Histogram, q: f64) -> f64 {
    h.quantile(q).unwrap_or(0.0)
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Tenant-name prefix of one pass: passes never share sessions.
fn pass_prefix(pair: usize, traced: bool) -> String {
    format!("{}{pair}_", if traced { "lgt" } else { "lg" })
}

fn main() {
    let args = parse_args();

    eprintln!(
        "loadgen: {} threads x {} tenants, {} events/tenant, batch {}, against {}",
        args.threads,
        args.tenants,
        args.events_per_tenant,
        args.batch,
        args.addr
            .as_deref()
            .unwrap_or("a fresh in-process server per pass")
    );

    // Untraced/traced pairs. The untraced passes give the
    // baseline-comparable throughput; in a traced pass every frame
    // carries a request id the server echoes. Each pair's ratio is
    // taken back to back, and the gate reads the median pair.
    let mut total_events = 0;
    let mut walls = Vec::with_capacity(PAIRS);
    let mut untraced_rates = Vec::with_capacity(PAIRS);
    let mut traced_rates = Vec::with_capacity(PAIRS);
    let mut pair_ratios = Vec::with_capacity(PAIRS);
    let mut latencies = Histogram::default();
    let mut traced_latencies = Histogram::default();
    let mut server_latency = Histogram::default();
    let mut phase_ns = [0u64; 5];
    for pair in 0..PAIRS {
        let traced_first = !pair.is_multiple_of(2);
        let mut rates = [0f64; 2];
        for traced in [traced_first, !traced_first] {
            // In-process server unless an external address was given:
            // open auth, no journal directory, no scrape endpoint — the
            // socket and the placement path are what's under test.
            let server = args
                .addr
                .is_none()
                .then(|| DbpServer::start(ServerConfig::default()).expect("server starts"));
            let addr = match &server {
                Some(server) => server.local_addr().to_string(),
                None => args.addr.clone().expect("an external address"),
            };
            let prefix = pass_prefix(pair, traced);
            let (events, wall, sampled) = run_pass(&args, &addr, &prefix, traced);
            if let Some(server) = server {
                if traced {
                    read_server_side(&server, &args, &prefix, &mut server_latency, &mut phase_ns);
                }
                server.stop();
            }
            let rate = events as f64 / wall;
            rates[traced as usize] = rate;
            if traced {
                traced_rates.push(rate);
                traced_latencies.merge(&sampled);
            } else {
                total_events = events;
                walls.push(wall);
                untraced_rates.push(rate);
                latencies.merge(&sampled);
            }
        }
        pair_ratios.push(rates[1] / rates[0]);
        eprintln!(
            "loadgen: pair {pair} ({} first): untraced {:.0} events/sec, traced {:.0} \
             events/sec, ratio {:.3}",
            if traced_first { "traced" } else { "untraced" },
            rates[0],
            rates[1],
            rates[1] / rates[0]
        );
    }
    let wall = median(&walls);
    let events_per_sec = median(&untraced_rates);
    let traced_events_per_sec = median(&traced_rates);
    let traced_ratio = median(&pair_ratios);
    eprintln!(
        "loadgen: medians over {} pairs of {total_events}-event passes: untraced \
         {events_per_sec:.0} events/sec, traced {traced_events_per_sec:.0} events/sec, ratio \
         {traced_ratio:.3}; placement latency p50 {:.1}us p99 {:.1}us ({} samples), traced \
         client latency p50 {:.1}us p99 {:.1}us",
        PAIRS,
        quantile_or_zero(&latencies, 0.50),
        quantile_or_zero(&latencies, 0.99),
        latencies.count(),
        quantile_or_zero(&traced_latencies, 0.50),
        quantile_or_zero(&traced_latencies, 0.99),
    );

    // Server-side view of the traced passes: per-tenant request
    // latency histograms and phase counters under the `tenant_lgt*_`
    // prefixes, read off each traced pass's server.
    if args.addr.is_none() {
        let spent: u64 = phase_ns.iter().sum();
        let share = |ns: u64| {
            if spent == 0 {
                0.0
            } else {
                ns as f64 / spent as f64
            }
        };
        eprintln!(
            "loadgen: server-side p50 {:.1}us p99 {:.1}us over {} requests; phase shares \
             decode {:.3} quota {:.3} apply {:.3} journal {:.3} encode {:.3}",
            quantile_or_zero(&server_latency, 0.50),
            quantile_or_zero(&server_latency, 0.99),
            server_latency.count(),
            share(phase_ns[0]),
            share(phase_ns[1]),
            share(phase_ns[2]),
            share(phase_ns[3]),
            share(phase_ns[4]),
        );
    } else {
        eprintln!("loadgen: external server (--addr); skipping server-side registry readout");
    }

    let journal_replay_events_per_sec = journal_replay_rate(&args);
    eprintln!(
        "loadgen: journal replay (Tenant::recover_all) of {} events -> \
         {journal_replay_events_per_sec:.0} events/sec",
        args.events_per_tenant
    );

    let (restart_ms, replay_ms) = checkpoint_restart_ms();
    let restart_ratio = replay_ms / restart_ms;
    eprintln!(
        "loadgen: restart of a {RESTART_EVENTS}-event journaled tenant: from its checkpoint \
         {restart_ms:.1} ms, full replay {replay_ms:.1} ms, ratio {restart_ratio:.2}"
    );

    let (finish_fast_ms, finish_generic_ms, finish_frame_len) = finish_frame_ms(&args);
    let finish_ratio = finish_generic_ms / finish_fast_ms;
    eprintln!(
        "loadgen: one wave tenant's finish frame ({finish_frame_len} bytes): fast writer \
         {finish_fast_ms:.2} ms, generic codec {finish_generic_ms:.2} ms, ratio {finish_ratio:.1}"
    );

    if let Some(out) = &args.out {
        if let Some(dir) = std::path::Path::new(out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        let spent: u64 = phase_ns.iter().sum::<u64>().max(1);
        let pair_ratios = pair_ratios
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        let json = format!(
            "{{\n  \"experiment\": \"server\",\n  \"threads\": {},\n  \"tenants\": {},\n  \
             \"events_per_tenant\": {},\n  \"batch\": {},\n  \"pairs\": {},\n  \
             \"total_events\": {},\n  \"wall_seconds\": {:.3},\n  \"latency_samples\": {},\n  \
             \"metrics\": {{\n    \
             \"server_events_per_sec\": {:.0},\n    \"p50_placement_latency_us\": {:.2},\n    \
             \"p99_placement_latency_us\": {:.2},\n    \"traced_events_per_sec\": {:.0},\n    \
             \"traced_vs_untraced_ratio\": {:.4},\n    \
             \"traced_vs_untraced_pair_ratios\": [{}],\n    \"p50_client_latency_us\": {:.2},\n    \
             \"p99_client_latency_us\": {:.2},\n    \"p50_server_latency_us\": {:.2},\n    \
             \"p99_server_latency_us\": {:.2},\n    \"phase_share_decode\": {:.4},\n    \
             \"phase_share_quota\": {:.4},\n    \"phase_share_apply\": {:.4},\n    \
             \"phase_share_journal\": {:.4},\n    \"phase_share_encode\": {:.4},\n    \
             \"journal_replay_events_per_sec\": {:.0},\n    \
             \"checkpoint_restart_ms\": {:.2},\n    \"checkpoint_replay_ms\": {:.2},\n    \
             \"checkpoint_restart_vs_replay_ratio\": {:.3},\n    \
             \"finish_frame_fast_ms\": {:.3},\n    \"finish_frame_generic_ms\": {:.3},\n    \
             \"finish_fast_vs_generic_ratio\": {:.2}\n  }}\n}}\n",
            args.threads,
            args.tenants,
            args.events_per_tenant,
            args.batch,
            PAIRS,
            total_events,
            wall,
            latencies.count(),
            events_per_sec,
            quantile_or_zero(&latencies, 0.50),
            quantile_or_zero(&latencies, 0.99),
            traced_events_per_sec,
            traced_ratio,
            pair_ratios,
            quantile_or_zero(&traced_latencies, 0.50),
            quantile_or_zero(&traced_latencies, 0.99),
            quantile_or_zero(&server_latency, 0.50),
            quantile_or_zero(&server_latency, 0.99),
            phase_ns[0] as f64 / spent as f64,
            phase_ns[1] as f64 / spent as f64,
            phase_ns[2] as f64 / spent as f64,
            phase_ns[3] as f64 / spent as f64,
            phase_ns[4] as f64 / spent as f64,
            journal_replay_events_per_sec,
            restart_ms,
            replay_ms,
            restart_ratio,
            finish_fast_ms,
            finish_generic_ms,
            finish_ratio,
        );
        let mut file = std::fs::File::create(out).expect("create output file");
        file.write_all(json.as_bytes()).expect("write snapshot");
        eprintln!("loadgen: wrote {out}");
    }
}
