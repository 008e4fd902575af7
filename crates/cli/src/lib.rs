#![warn(missing_docs)]

//! `mindbp` — the command-line face of the workspace.
//!
//! ```text
//! mindbp generate --family random --n 100 --mu 4 --seed 7 --out trace.json
//! mindbp pack     --trace trace.json --algo firstfit --billing hourly
//! mindbp pack     --trace trace.json --events run.jsonl --metrics run.json
//! mindbp stats    --trace run.jsonl
//! mindbp compare  --trace trace.json
//! mindbp certify  --trace trace.json
//! mindbp opt      --trace trace.json
//! mindbp render   --trace trace.json --algo firstfit
//! ```
//!
//! The library entry point [`run`] takes the argument vector and
//! returns the rendered output (or a typed error), so the whole CLI
//! is unit-testable without spawning processes; `main.rs` is a thin
//! printer. [`run_to`] additionally takes a *progress* writer —
//! live report lines, skip/reject notices, and watchdog alerts go
//! there (the binary wires it to stderr), while final summaries
//! stay on stdout so pipelines stay clean.

use dbp_analysis::{certify_first_fit, measure_ratio, TheoremChain};
use dbp_cloudsim::{simulate, BillingModel};
use dbp_core::{
    Backend, BestFit, CompiledInstance, DepartureAlignedFit, FanOut, FirstFit, HybridFirstFit,
    Instance, LastFit, NextFit, PackingAlgorithm, Runner, TickPolicy, WorstFit,
};
use dbp_numeric::{rat, Rational};
use dbp_obs::{
    chrome_trace, chrome_trace_with_spans, parse_jsonl, set_ratio_gauge, telemetry_registry,
    EngineMetrics, MetricsRegistry, MetricsServer, Profiler, StepSeries, TraceRecorder, Watchdog,
};
use dbp_workloads::adversarial::{
    any_fit_ladder, best_fit_scatter, next_fit_pairs, universal_mu_pairs,
};
use dbp_workloads::{load_instance, save_instance, GamingConfig, RandomWorkload, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `--key value` options of one command.
struct Opts {
    command: String,
    map: BTreeMap<String, String>,
}

impl Opts {
    fn parse(command: &str, args: &[String]) -> Result<Opts, CliError> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(err(format!("expected --option, got `{key}`")));
            };
            let value = it
                .next()
                .ok_or_else(|| err(format!("--{name} needs a value")))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts {
            command: command.to_string(),
            map,
        })
    }

    /// Refuses any option not in `names`, the options the command
    /// takes, so a misspelt or retired option fails instead of being
    /// ignored.
    fn only(&self, names: &[&str]) -> Result<(), CliError> {
        match self.map.keys().find(|key| !names.contains(&key.as_str())) {
            Some(key) => Err(err(format!(
                "`{}` takes no option --{key} (it takes --{})",
                self.command,
                names.join(", --")
            ))),
            None => Ok(()),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required --{name}")))
    }

    fn u32_or(&self, name: &str, default: u32) -> Result<u32, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: `{v}` is not an integer"))),
        }
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: `{v}` is not an integer"))),
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
mindbp — MinUsageTime Dynamic Bin Packing toolkit

USAGE:
  mindbp <command> [--option value ...]

COMMANDS:
  generate  create a workload trace
            --family random|gaming|nextfit|universal|ladder|scatter
            --out FILE [--n N] [--mu M] [--seed S] [--k K]
  pack      dispatch a trace with one algorithm
            --trace FILE [--algo NAME] [--billing hourly|minute|continuous]
            [--events FILE]   write a JSONL engine-event trace
            [--metrics FILE]  write a metrics-registry JSON snapshot
            [--chrome FILE]   write a Chrome trace-event file (Perfetto)
  stats     summarize a JSONL event trace written by `pack --events`
            --trace FILE [--max-rows N]
  compare   dispatch a trace with every algorithm, ranked by cost
            --trace FILE [--billing ...]
  certify   run the IPDPS'16 §IV–§VII certification under First Fit
            --trace FILE
  chain     print the Theorem 1 inequality chain, numerically
            instantiated on the trace
            --trace FILE
  adaptive  play the keep-smallest adversary game against an algorithm
            --algo NAME [--k K] [--mu M]
  opt       compute the exact repacking adversary OPT_total via the
            incremental warm-started branch-and-bound sweep
            --trace FILE [--max-exact N]  exact-solve cap (default 200)
            [--budget N]  search-node budget per interval
                          (default 200000; exhaustion → bracket)
  tick      compile a trace onto its integer tick grid and replay it
            on the integer engine (bit-identical to the exact engine,
            Rational fallback when the grid overflows)
            --trace FILE [--algo firstfit|bestfit|worstfit]
            [--verify true|false]
  profile   replay a trace under the in-engine profiler: phase-share
            table (where the cycles go), per-arrival scan/descent/gcd
            work, flamegraph and Chrome exports
            --trace FILE [--algo NAME] [--backend auto|exact|tick]
            [--burst N]       profile a built-in equal-tick burst
                              workload instead of a trace (32 waves
                              of N simultaneous arrivals, waves
                              overlapping so departure and arrival
                              bursts share ticks; --trace not needed)
            [--sample N]      clock-time every N-th event (default 1)
            [--folded FILE]   write inferno folded stacks
                              (flamegraph.pl / inferno-flamegraph)
            [--chrome FILE]   write a Chrome trace with profiler spans
                              (attaches a recorder: exact engine)
            [--metrics FILE]  write the profile metrics registry JSON
  stream    drive a live streaming session from JSONL events
            ({\"arrive\":{\"id\":..,\"size\":..,\"time\":..}} /
             {\"depart\":{\"id\":..,\"time\":..}}, one per line)
            [--input FILE]   read events from FILE (default: stdin)
            [--algo NAME] [--backend auto|exact|tick] [--grid T,S]
            [--strict true|false]  abort vs skip bad lines (default skip)
            [--report-every N]     live metrics every N events (stderr)
            [--checkpoint FILE]    save a resumable snapshot if the
                                   stream ends with items still active
            [--resume FILE]        continue from a saved snapshot
            [--watchdog R|off]     alert when usage/max(vol,span)
                                   exceeds R (a/b or integer; default
                                   auto: estimated µ + 4, Theorem 1)
            [--prom-out FILE]      write a final OpenMetrics page
            [--prom-listen ADDR]   serve live OpenMetrics over HTTP
                                   (e.g. 127.0.0.1:9184) while the
                                   stream runs
            [--prom-linger-ms N]   keep the endpoint up N ms after
                                   the stream ends (default 0)
  serve     run the multi-tenant allocation daemon (dbp-server):
            length-prefixed JSONL frames, synchronous placement,
            journal-backed crash recovery, OpenMetrics exposition
            [--listen ADDR]      wire address (default 127.0.0.1:9500)
            [--metrics ADDR]     serve /metrics on ADDR (off by default)
            [--journal-dir DIR]  journal every tenant for crash
                                 recovery; restart resumes verbatim
            [--token SECRET]     require one shared auth token
            [--max-bins N] [--max-items N] [--max-eps N]
                                 per-tenant quotas (default unlimited)
            [--slow-ms N]        record placements slower than N ms in
                                 the slow-request ring (0 = all)
            [--trace-out FILE]   dump the slow-request ring on shutdown
                                 as JSONL at FILE plus a Chrome trace
                                 sibling (.chrome.json; implies the ring)
            stops on a wire `shutdown` frame
  render    ASCII timeline of a packing
            --trace FILE [--algo NAME] [--width W]
  help      this text

ALGORITHMS: firstfit bestfit worstfit lastfit nextfit hybrid harmonic
            aligned (clairvoyant — pack/render only)
            (firstfit-fast bestfit-fast worstfit-fast: old names of
            firstfit bestfit worstfit)
";

fn make_algo_for(name: &str, instance: &Instance) -> Result<Box<dyn PackingAlgorithm>, CliError> {
    if matches!(name, "aligned" | "clairvoyant") {
        return Ok(Box::new(DepartureAlignedFit::new(instance)));
    }
    make_algo(name)
}

fn make_algo(name: &str) -> Result<Box<dyn PackingAlgorithm>, CliError> {
    Ok(match name {
        "firstfit" | "ff" | "firstfit-fast" | "fff" => Box::new(FirstFit::new()),
        "bestfit" | "bf" | "bestfit-fast" | "bff" => Box::new(BestFit::new()),
        "worstfit" | "wf" | "worstfit-fast" | "wff" => Box::new(WorstFit::new()),
        "lastfit" | "lf" => Box::new(LastFit::new()),
        "nextfit" | "nf" => Box::new(NextFit::new()),
        "hybrid" | "hff" => Box::new(HybridFirstFit::classic()),
        "harmonic" => Box::new(HybridFirstFit::harmonic(4)),
        other => return Err(err(format!("unknown algorithm `{other}`"))),
    })
}

fn make_billing(name: &str) -> Result<BillingModel, CliError> {
    Ok(match name {
        "continuous" => BillingModel::Continuous,
        "minute" => BillingModel::per_minute(),
        "hourly" => BillingModel::hourly(),
        other => return Err(err(format!("unknown billing model `{other}`"))),
    })
}

fn load(opts: &Opts) -> Result<(Trace, Instance), CliError> {
    let path = opts.required("trace")?;
    load_instance(Path::new(path)).map_err(|e| err(format!("cannot load `{path}`: {e}")))
}

/// Executes an argument vector (without the program name), returning
/// the output text. Progress lines are discarded; use [`run_to`] to
/// capture them.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_to(args, &mut std::io::sink())
}

/// [`run`] with an explicit progress writer. Live report lines,
/// per-line skip/reject notices, and watchdog alerts are written to
/// `progress` as they happen; the returned string holds the final
/// summary. The `mindbp` binary passes stderr, so `--report-every`
/// output never corrupts piped stdout.
pub fn run_to(args: &[String], progress: &mut dyn std::io::Write) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(USAGE.to_string());
    };
    let opts = Opts::parse(command, &args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "generate" => cmd_generate(&opts),
        "pack" => cmd_pack(&opts),
        "stats" => cmd_stats(&opts),
        "compare" => cmd_compare(&opts),
        "certify" => cmd_certify(&opts),
        "chain" => cmd_chain(&opts),
        "adaptive" => cmd_adaptive(&opts),
        "opt" => cmd_opt(&opts),
        "tick" => cmd_tick(&opts),
        "profile" => cmd_profile(&opts),
        "stream" => cmd_stream(&opts, progress),
        "serve" => cmd_serve(&opts, progress),
        "render" => cmd_render(&opts),
        other => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn cmd_generate(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["family", "out", "n", "mu", "k", "seed"])?;
    let family = opts.required("family")?;
    let out = opts.required("out")?;
    let n = opts.u32_or("n", 100)?;
    let mu = opts.u32_or("mu", 4)?;
    let k = opts.u32_or("k", 8)?;
    let seed = opts.u64_or("seed", 0)?;

    let (instance, description) = match family {
        "random" => (
            RandomWorkload::with_mu(n as usize, Rational::from_int(mu as i128), seed).generate(),
            format!("random workload n={n} µ≤{mu} seed={seed}"),
        ),
        "gaming" => (
            GamingConfig {
                seed,
                peak_sessions_per_hour: n.max(1),
                ..Default::default()
            }
            .generate()
            .instance,
            format!("synthetic cloud-gaming day, peak {n}/h, seed={seed}"),
        ),
        "nextfit" => (
            next_fit_pairs(n.max(3), mu).0,
            format!("§VIII Next Fit pair gadget n={n} µ={mu}"),
        ),
        "universal" => (
            universal_mu_pairs(k, mu, k.max(4)).0,
            format!("universal µ pair family k={k} µ={mu}"),
        ),
        "ladder" => (
            any_fit_ladder(k.max(2), mu).0,
            format!("Any-Fit gap-ladder n={k} µ={mu}"),
        ),
        "scatter" => (
            best_fit_scatter(k.max(2), mu.max(2)).0,
            format!("Best Fit scatter gadget k={k} µ={mu}"),
        ),
        other => return Err(err(format!("unknown family `{other}`"))),
    };

    let trace = Trace::from_instance(family, &description, &instance)
        .with_meta("seed", seed)
        .with_meta("family", family);
    save_instance(Path::new(out), &trace).map_err(|e| err(format!("cannot write `{out}`: {e}")))?;
    Ok(format!(
        "wrote {} ({} items, µ = {}) to {out}\n",
        family,
        instance.len(),
        instance
            .mu()
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".into()),
    ))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| err(format!("cannot write `{path}`: {e}")))
}

fn cmd_pack(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "algo", "billing", "events", "metrics", "chrome"])?;
    let (_, instance) = load(opts)?;
    let mut algo = make_algo_for(opts.get("algo").unwrap_or("firstfit"), &instance)?;
    let billing = make_billing(opts.get("billing").unwrap_or("continuous"))?;

    // `--events`/`--metrics`/`--chrome` attach observers to the run;
    // without them the unobserved (no-op observer) path is used.
    let events_out = opts.get("events");
    let metrics_out = opts.get("metrics");
    let chrome_out = opts.get("chrome");
    let observing = events_out.is_some() || metrics_out.is_some() || chrome_out.is_some();

    let mut recorder = TraceRecorder::new();
    let mut metrics = EngineMetrics::new();
    let mut fan = FanOut::new(vec![&mut recorder, &mut metrics]);
    let mut sim = simulate(&instance).billing(billing);
    if observing {
        sim = sim.observer(&mut fan);
    }
    let report = sim
        .run(algo.as_mut())
        .map_err(|e| err(format!("packing failed: {e}")))?;

    let mut out = String::new();
    out.push_str(&format!(
        "{}: {} jobs → {} servers (peak {}), usage {}, billed {} [{}]\n",
        report.algorithm,
        report.jobs,
        report.servers_used,
        report.peak_servers,
        report.usage_time,
        report.billed_time,
        report.billing,
    ));
    if let Some(u) = report.utilization {
        out.push_str(&format!("utilization: {:.3}\n", u.to_f64()));
    }

    if let Some(path) = events_out {
        write_file(path, &recorder.to_jsonl())?;
        out.push_str(&format!(
            "events: {} trace events → {path}\n",
            recorder.events().len()
        ));
    }
    if let Some(path) = metrics_out {
        write_file(path, &metrics.registry().to_json_pretty())?;
        out.push_str(&format!("metrics: registry snapshot → {path}\n"));
    }
    if let Some(path) = chrome_out {
        let doc = serde_json::to_string(&chrome_trace(recorder.events()))
            .map_err(|e| err(format!("chrome export failed: {e}")))?;
        write_file(path, &doc)?;
        out.push_str(&format!("chrome: trace-event file → {path}\n"));
    }
    Ok(out)
}

fn cmd_stats(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "max-rows"])?;
    let path = opts.required("trace")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
    let events = parse_jsonl(&text).map_err(|e| err(format!("`{path}`: {e}")))?;
    if events.is_empty() {
        return Ok("empty trace: no events\n".into());
    }
    // StepSeries integrates over time and requires non-decreasing
    // timestamps; reject a reordered/tampered log up front rather
    // than panicking inside the integrator.
    let mut last: Option<Rational> = None;
    for (i, ev) in events.iter().enumerate() {
        if let Some(t) = ev.time() {
            if last.is_some_and(|l| t < l) {
                return Err(err(format!(
                    "`{path}`: corrupt trace — time goes backwards at event {}",
                    i + 1
                )));
            }
            last = Some(t);
        }
    }

    let mut out = String::new();
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    out.push_str(&format!(
        "{path}: {} events ({} arrivals, {} placements, {} departures, {} bins)\n",
        events.len(),
        count("arrival"),
        count("placement"),
        count("departure"),
        count("bin_opened"),
    ));

    match dbp_obs::replay(&events) {
        Ok(s) => out.push_str(&format!(
            "replay: OK — usage {}, peak {} open, {} bins opened\n",
            s.total_usage, s.max_open_bins, s.bins_opened,
        )),
        Err(e) => out.push_str(&format!("replay: FAILED — {e}\n")),
    }

    let series = StepSeries::from_events(&events);
    if let Some(s) = series.summary() {
        out.push_str(&format!(
            "span {}, avg open {}, peak level {}",
            s.span,
            s.avg_open_bins
                .map(|a| format!("{:.3}", a.to_f64()))
                .unwrap_or_else(|| "-".into()),
            s.peak_total_level,
        ));
        if let Some(u) = s.utilization {
            out.push_str(&format!(", utilization {:.3}", u.to_f64()));
        }
        out.push('\n');
    }

    // Step time-series table, capped at --max-rows samples.
    let max_rows = opts.u32_or("max-rows", 24)? as usize;
    let points = series.points();
    out.push_str(&format!(
        "\n{:>12} {:>6} {:>12} {:>8}\n",
        "t", "open", "level", "util"
    ));
    let step = points.len().div_ceil(max_rows.max(1));
    for p in points.iter().step_by(step.max(1)) {
        let util = if p.open_bins == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", p.total_level.to_f64() / p.open_bins as f64)
        };
        out.push_str(&format!(
            "{:>12} {:>6} {:>12} {:>8}\n",
            p.t.to_string(),
            p.open_bins,
            p.total_level.to_string(),
            util,
        ));
    }
    if step > 1 {
        out.push_str(&format!(
            "({} of {} samples shown; raise --max-rows for more)\n",
            points.iter().step_by(step).count(),
            points.len(),
        ));
    }
    Ok(out)
}

fn cmd_compare(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "billing"])?;
    let (_, instance) = load(opts)?;
    let billing = make_billing(opts.get("billing").unwrap_or("continuous"))?;
    let names = [
        "firstfit", "bestfit", "worstfit", "lastfit", "nextfit", "hybrid",
    ];
    let mut rows: Vec<(String, Rational, Rational, usize)> = Vec::new();
    for name in names {
        let mut algo = make_algo(name)?;
        let rep = simulate(&instance)
            .billing(billing)
            .run(algo.as_mut())
            .map_err(|e| err(format!("{name} failed: {e}")))?;
        rows.push((
            rep.algorithm.clone(),
            rep.billed_time,
            rep.usage_time,
            rep.servers_used,
        ));
    }
    rows.sort_by_key(|a| a.1);
    let mut out = format!(
        "{:<22} {:>12} {:>12} {:>8}\n",
        "algorithm", "billed", "usage", "servers"
    );
    for (name, billed, usage, servers) in rows {
        out.push_str(&format!(
            "{name:<22} {:>12} {:>12} {servers:>8}\n",
            billed.to_string(),
            usage.to_string(),
        ));
    }
    Ok(out)
}

fn cmd_certify(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace"])?;
    let (_, instance) = load(opts)?;
    if instance.is_empty() {
        return Ok("empty instance: nothing to certify\n".into());
    }
    let report = certify_first_fit(&instance);
    let mut out = report.to_string();
    out.push_str(if report.all_passed() {
        "\nall certificates hold.\n"
    } else {
        "\nCERTIFICATE FAILURES — see above.\n"
    });
    Ok(out)
}

fn cmd_chain(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace"])?;
    let (_, instance) = load(opts)?;
    if instance.is_empty() {
        return Ok("empty instance: nothing to evaluate\n".into());
    }
    let chain = TheoremChain::compute(&instance);
    let mut out = chain.to_string();
    out.push_str(if chain.holds() {
        "every step holds.\n"
    } else {
        "STEP FAILURES — see above.\n"
    });
    Ok(out)
}

fn cmd_adaptive(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["algo", "k", "mu"])?;
    let name = opts.get("algo").unwrap_or("firstfit");
    let k = opts.u32_or("k", 10)?;
    let mu = opts.u32_or("mu", 6)?;
    let mut algo = make_algo(name)?;
    let mut adversary = dbp_workloads::adaptive::KeepSmallestAdversary::new(k, mu);
    let result = dbp_workloads::adaptive::play(&mut adversary, algo.as_mut(), 1_000_000)
        .map_err(|e| err(format!("game failed: {e}")))?;
    let rerun = Runner::new(&result.instance)
        .run(algo.as_mut())
        .map_err(|e| err(format!("replay failed: {e}")))?;
    let rep = measure_ratio(&result.instance, &rerun);
    let mut out = format!(
        "adversary keep-smallest (k = {k}, µ = {mu}) vs {}:\n",
        rerun.algorithm()
    );
    out.push_str(&format!(
        "  bins opened: {}, cost: {}\n",
        result.bins_opened, result.algorithm_cost
    ));
    match rep.exact_ratio().or(rep.ratio_upper) {
        Some(r) => out.push_str(&format!(
            "  ratio vs exact OPT: {} ≈ {:.3}\n",
            r,
            r.to_f64()
        )),
        None => out.push_str("  (adversary cost out of exact reach)\n"),
    }
    Ok(out)
}

fn cmd_opt(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "max-exact", "budget"])?;
    let (_, instance) = load(opts)?;
    let config = dbp_analysis::optimal::OptConfig {
        max_exact_items: opts.u32_or("max-exact", 200)? as usize,
        node_budget: opts.u64_or("budget", 200_000)?,
    };
    let solver = dbp_analysis::ExactBinPacking::new();
    let profile = dbp_analysis::optimal::opt_profile(&instance, &solver, config);
    let opt = {
        use dbp_numeric::Rational;
        let mut lower = Rational::ZERO;
        let mut upper = Rational::ZERO;
        for seg in &profile.segments {
            let len = seg.window.len();
            lower += Rational::from_int(seg.lower as i128) * len;
            upper += Rational::from_int(seg.upper as i128) * len;
        }
        dbp_analysis::OptTotal { lower, upper }
    };
    let ff = Runner::new(&instance)
        .run(&mut FirstFit::new())
        .map_err(|e| err(format!("packing failed: {e}")))?;
    let rep = measure_ratio(&instance, &ff);
    let mut out = String::new();
    match opt.exact() {
        Some(v) => out.push_str(&format!("OPT_total = {v} (exact)\n")),
        None => out.push_str(&format!(
            "OPT_total ∈ [{}, {}] (bracket)\n",
            opt.lower, opt.upper
        )),
    }
    out.push_str(&format!(
        "intervals = {} ({} exact, peak OPT ∈ [{}, {}], memo entries: {})\n",
        profile.segments.len(),
        profile.segments.iter().filter(|s| s.is_exact()).count(),
        profile.peak_lower(),
        profile.peak_upper(),
        solver.memo_len(),
    ));
    out.push_str(&format!("FirstFit  = {}\n", ff.total_usage()));
    if let Some(r) = rep.exact_ratio() {
        out.push_str(&format!(
            "ratio     = {} ≤ µ+4 = {}\n",
            r,
            rep.theorem1_bound()
                .map(|b| b.to_string())
                .unwrap_or_default()
        ));
    }
    Ok(out)
}

fn cmd_tick(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "algo", "verify"])?;
    let (_, instance) = load(opts)?;
    let name = opts.get("algo").unwrap_or("firstfit");
    let policy = match name {
        "firstfit" | "ff" => TickPolicy::FirstFit,
        "bestfit" | "bf" => TickPolicy::BestFit,
        "worstfit" | "wf" => TickPolicy::WorstFit,
        other => {
            return Err(err(format!(
                "the tick engine supports firstfit|bestfit|worstfit, got `{other}`"
            )))
        }
    };
    let verify = opts.get("verify").unwrap_or("true") == "true";

    let mut out = String::new();
    let outcome = match CompiledInstance::compile(&instance) {
        Ok(compiled) => {
            out.push_str(&format!(
                "compiled: {} items → {} events on the tick grid \
                 (origin {}, time ×{}, size ×{})\n",
                compiled.items().len(),
                compiled.schedule().len(),
                compiled.origin(),
                compiled.time_scale(),
                compiled.size_scale(),
            ));
            let outcome = compiled
                .run(policy)
                .map_err(|e| err(format!("tick replay failed: {e}")))?;
            if verify {
                // Replay the same stream on the exact engine and
                // insist on bit-identical books.
                let mut linear: Box<dyn PackingAlgorithm> = match policy {
                    TickPolicy::FirstFit => Box::new(FirstFit::new()),
                    TickPolicy::BestFit => Box::new(BestFit::new()),
                    TickPolicy::WorstFit => Box::new(WorstFit::new()),
                };
                let exact = Runner::new(&instance)
                    .backend(Backend::Exact)
                    .run(linear.as_mut())
                    .map_err(|e| err(format!("verification replay failed: {e}")))?;
                if outcome == exact {
                    out.push_str("verify: OK — bit-identical to the exact Rational engine\n");
                } else {
                    return Err(err(
                        "verify: MISMATCH — tick outcome diverged from the exact engine"
                            .to_string(),
                    ));
                }
            }
            outcome
        }
        Err(e) => {
            out.push_str(&format!(
                "compile: {e} — falling back to the exact Rational engine\n"
            ));
            let mut linear: Box<dyn PackingAlgorithm> = match policy {
                TickPolicy::FirstFit => Box::new(FirstFit::new()),
                TickPolicy::BestFit => Box::new(BestFit::new()),
                TickPolicy::WorstFit => Box::new(WorstFit::new()),
            };
            Runner::new(&instance)
                .run(linear.as_mut())
                .map_err(|e| err(format!("packing failed: {e}")))?
        }
    };
    out.push_str(&format!(
        "{}: {} items → {} bins (peak {} open), usage {}\n",
        outcome.algorithm(),
        instance.len(),
        outcome.bins_opened(),
        outcome.max_open_bins(),
        outcome.total_usage(),
    ));
    Ok(out)
}

/// Synthetic workload for `profile --burst N`: 32 waves of `n`
/// arrivals sharing one integer instant, every wave departing —
/// again simultaneously — three instants later, so wave `w + 3`'s
/// arrival burst lands on the same tick as wave `w`'s departure
/// burst. This is exactly the shape the tick engine's equal-tick
/// burst batching targets, with the staircase size mix (4 of 5 items
/// above half capacity) forcing bin churn inside each burst.
fn burst_workload(n: usize) -> Result<Instance, CliError> {
    const WAVES: i128 = 32;
    let mut b = Instance::builder();
    for wave in 0..WAVES {
        for j in 0..n as i128 {
            let size = if j % 5 == 0 {
                rat(11 + (j * 13) % 23, 100)
            } else {
                rat(51 + (j * 7) % 49, 100)
            };
            b = b.item(size, rat(wave, 1), rat(wave + 3, 1));
        }
    }
    b.build()
        .map_err(|e| err(format!("burst workload invalid: {e}")))
}

fn cmd_profile(opts: &Opts) -> Result<String, CliError> {
    opts.only(&[
        "trace", "burst", "algo", "backend", "sample", "folded", "chrome", "metrics",
    ])?;
    let burst = opts.u64_or("burst", 0)?;
    let (burst_note, instance) = if burst > 0 {
        let inst = burst_workload(burst as usize)?;
        let note = format!("workload: synthetic equal-tick bursts (32 waves x {burst} arrivals)\n");
        (note, inst)
    } else {
        (String::new(), load(opts)?.1)
    };
    let name = opts.get("algo").unwrap_or("firstfit");
    let mut algo = make_algo_for(name, &instance)?;
    let backend = match opts.get("backend").unwrap_or("auto") {
        "auto" => Backend::Auto,
        "exact" => Backend::Exact,
        "tick" => Backend::Tick,
        other => return Err(err(format!("unknown backend `{other}`"))),
    };
    let sample = opts.u64_or("sample", 1)?;
    let folded_out = opts.get("folded");
    let chrome_out = opts.get("chrome");
    let metrics_out = opts.get("metrics");

    let mut prof = Profiler::new().with_sampling(sample);
    let mut recorder = TraceRecorder::new();
    let mut runner = Runner::new(&instance).backend(backend).probe(&mut prof);
    // The Chrome export wants the bin tracks alongside the profiler
    // spans, and recording those takes an observer — which forces
    // the exact engine (and is rejected by --backend tick).
    if chrome_out.is_some() {
        runner = runner.observer(&mut recorder);
    }
    let outcome = runner
        .run(algo.as_mut())
        .map_err(|e| err(format!("profiled run failed: {e}")))?;

    let mut out = burst_note;
    out.push_str(&format!(
        "{}: {} items → {} bins (peak {} open), usage {}\n",
        outcome.algorithm(),
        instance.len(),
        outcome.bins_opened(),
        outcome.max_open_bins(),
        outcome.total_usage(),
    ));
    out.push_str(&prof.report());

    if let Some(path) = folded_out {
        write_file(path, &prof.folded())?;
        out.push_str(&format!("folded: flamegraph stacks → {path}\n"));
    }
    if let Some(path) = chrome_out {
        let doc = chrome_trace_with_spans(recorder.events(), prof.chrome_events());
        let text =
            serde_json::to_string(&doc).map_err(|e| err(format!("chrome export failed: {e}")))?;
        write_file(path, &text)?;
        out.push_str(&format!("chrome: trace with profiler spans → {path}\n"));
    }
    if let Some(path) = metrics_out {
        write_file(path, &prof.to_registry().to_json_pretty())?;
        out.push_str(&format!("metrics: profile registry → {path}\n"));
    }
    Ok(out)
}

/// Parses one JSONL line into a stream event via the shared wire
/// schema (`dbp-proto`): versioned `{"v":1,...}` lines and legacy
/// untagged ones both parse. Returns `None` for blank lines and
/// comments.
fn parse_stream_line(line: &str) -> Option<Result<StreamCliEvent, String>> {
    dbp_proto::parse_event_line(line)
}

type StreamCliEvent = dbp_core::session::Event;

/// Parses `a/b` or a bare integer into an exact [`Rational`].
fn parse_rational(spec: &str) -> Result<Rational, CliError> {
    let (num, den) = match spec.split_once('/') {
        Some((n, d)) => (n, d),
        None => (spec, "1"),
    };
    let n: i128 = num
        .trim()
        .parse()
        .map_err(|_| err(format!("`{spec}` is not a rational (a/b or integer)")))?;
    let d: i128 = den
        .trim()
        .parse()
        .ok()
        .filter(|&d| d > 0)
        .ok_or_else(|| err(format!("`{spec}` needs a positive denominator")))?;
    Ok(Rational::new(n, d))
}

/// The stream command's telemetry fan-out: an optional live scrape
/// endpoint, an optional final OpenMetrics file, and a lower-bound
/// watchdog. All three feed off the session's stream telemetry.
struct StreamTelemetry {
    watchdog: Option<Watchdog>,
    server: Option<MetricsServer>,
    prom_out: Option<String>,
    linger_ms: u64,
}

impl StreamTelemetry {
    fn from_opts(opts: &Opts, progress: &mut dyn std::io::Write) -> Result<Self, CliError> {
        let watchdog = match opts.get("watchdog") {
            None => Some(Watchdog::new()),
            Some("off") => None,
            Some(spec) => Some(Watchdog::with_threshold(
                parse_rational(spec).map_err(|e| err(format!("--watchdog: {e}")))?,
            )),
        };
        let server = match opts.get("prom-listen") {
            None => None,
            Some(addr) => {
                let server = MetricsServer::start(addr)
                    .map_err(|e| err(format!("cannot serve metrics on `{addr}`: {e}")))?;
                let _ = writeln!(
                    progress,
                    "metrics: serving OpenMetrics on http://{}/metrics",
                    server.local_addr()
                );
                Some(server)
            }
        };
        Ok(StreamTelemetry {
            watchdog,
            server,
            prom_out: opts.get("prom-out").map(str::to_string),
            linger_ms: opts.u64_or("prom-linger-ms", 0)?,
        })
    }

    /// Whether per-event metric checks are worth computing at all:
    /// only a watchdog reads them. The scrape endpoint gets its own
    /// metrics every 256 lines and at report lines.
    fn live(&self) -> bool {
        self.watchdog.is_some()
    }

    /// Whether a scrape endpoint is up (publishing has a consumer).
    fn serving(&self) -> bool {
        self.server.is_some()
    }

    /// Runs the watchdog against the current stream metrics, writing
    /// any alert to the progress stream as it fires.
    fn watch(
        &mut self,
        metrics: &dbp_core::session::SessionMetrics,
        progress: &mut dyn std::io::Write,
    ) {
        if let Some(dog) = &mut self.watchdog {
            if let Some(alert) = dog.check(metrics) {
                let _ = writeln!(progress, "watchdog: {alert}");
            }
        }
    }

    /// Pushes a fresh registry to the scrape endpoint, ratio gauge
    /// included.
    fn publish(&self, mut registry: MetricsRegistry) {
        if let Some(server) = &self.server {
            set_ratio_gauge(&mut registry);
            *server.registry().lock().unwrap_or_else(|e| e.into_inner()) = registry;
        }
    }

    /// Final exposition: write `--prom-out`, publish the last page,
    /// linger for late scrapes, then shut the endpoint down.
    fn finish(mut self, mut registry: MetricsRegistry, out: &mut String) -> Result<(), CliError> {
        set_ratio_gauge(&mut registry);
        if let Some(path) = &self.prom_out {
            std::fs::write(path, registry.to_openmetrics())
                .map_err(|e| err(format!("cannot write `{path}`: {e}")))?;
            out.push_str(&format!("metrics: OpenMetrics page → {path}\n"));
        }
        if let Some(server) = self.server.take() {
            *server.registry().lock().unwrap_or_else(|e| e.into_inner()) = registry;
            out.push_str(&format!(
                "metrics: served on http://{}/metrics\n",
                server.local_addr()
            ));
            if self.linger_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.linger_ms));
            }
            server.stop();
        }
        Ok(())
    }
}

fn cmd_stream(opts: &Opts, progress: &mut dyn std::io::Write) -> Result<String, CliError> {
    use dbp_core::session::{Backend, Session, SessionSnapshot, TickGrid};

    opts.only(&[
        "input",
        "algo",
        "backend",
        "grid",
        "strict",
        "report-every",
        "checkpoint",
        "resume",
        "watchdog",
        "prom-out",
        "prom-listen",
        "prom-linger-ms",
    ])?;
    let strict = opts.get("strict").unwrap_or("false") == "true";
    let report_every = opts.u64_or("report-every", 0)? as usize;
    let algo_name = opts.get("algo").unwrap_or("firstfit");
    let backend = match opts.get("backend").unwrap_or("auto") {
        "auto" => Backend::Auto,
        "exact" => Backend::Exact,
        "tick" => Backend::Tick,
        other => return Err(err(format!("unknown backend `{other}` (auto|exact|tick)"))),
    };
    let grid = match opts.get("grid") {
        None => None,
        Some(spec) => {
            let (t, s) = spec
                .split_once(',')
                .ok_or_else(|| err(format!("--grid expects `T,S`, got `{spec}`")))?;
            let parse = |v: &str, what: &str| {
                v.trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err(format!("--grid {what} scale `{v}` is not a positive u32")))
            };
            Some(TickGrid::new(parse(t, "time")?, parse(s, "size")?))
        }
    };

    // Events come from --input FILE, or stdin when absent.
    let text = match opts.get("input") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?
        }
        None => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| err(format!("cannot read stdin: {e}")))?;
            buf
        }
    };

    let mut out = String::new();
    let mut skipped = 0usize;
    let mut telemetry = StreamTelemetry::from_opts(opts, progress)?;

    let checkpoint = opts.get("checkpoint");
    let mut session = match opts.get("resume") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read checkpoint `{path}`: {e}")))?;
            let snapshot: SessionSnapshot = dbp_proto::checkpoint_from_json(&text)
                .map_err(|e| err(format!("bad checkpoint `{path}`: {e}")))?;
            let session = Session::resume(&snapshot)
                .map_err(|e| err(format!("cannot resume `{path}`: {e}")))?;
            out.push_str(&format!(
                "resumed {} at {} ({} events)\n",
                session.algorithm(),
                session
                    .now()
                    .map_or_else(|| "start".to_string(), |t| t.to_string()),
                snapshot.events.len()
            ));
            session
        }
        None => {
            let mut builder = Session::builder(make_algo(algo_name)?)
                .backend(backend)
                .telemetry();
            if let Some(g) = grid {
                builder = builder.grid(g);
            }
            // Only `--checkpoint` reads the session's log.
            if checkpoint.is_none() {
                builder = builder.without_checkpoints();
            }
            builder
                .build()
                .map_err(|e| err(format!("cannot build session: {e}")))?
        }
    };

    let mut ingested = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let Some(parsed) = parse_stream_line(line) else {
            continue;
        };
        let event = match parsed {
            Ok(event) => event,
            Err(e) if strict => return Err(err(format!("line {}: bad event: {e}", lineno + 1))),
            Err(e) => {
                let _ = writeln!(progress, "line {}: skipped bad event: {e}", lineno + 1);
                skipped += 1;
                continue;
            }
        };
        if let Err(e) = session.apply(&event) {
            if strict {
                return Err(err(format!("line {}: rejected event: {e}", lineno + 1)));
            }
            let _ = writeln!(
                progress,
                "line {}: rejected event: {e} — skipped",
                lineno + 1
            );
            skipped += 1;
            continue;
        }
        ingested += 1;
        if telemetry.live() {
            telemetry.watch(&session.metrics(), progress);
        }
        let report_due = report_every > 0 && ingested.is_multiple_of(report_every);
        if report_due {
            let m = session.metrics();
            let _ = writeln!(
                progress,
                "events {}: {} open bins, {} active items, load {}, usage {}",
                m.events, m.open_bins, m.active_items, m.load, m.usage_time
            );
        }
        if telemetry.serving() && (report_due || ingested.is_multiple_of(256)) {
            telemetry.publish(telemetry_registry(&session.metrics()));
        }
    }

    let m = session.metrics();
    let registry = telemetry_registry(&m);
    if m.active_items > 0 {
        out.push_str(&format!(
            "stream ended with {} items still active ({} open bins, usage {} so far)\n",
            m.active_items, m.open_bins, m.usage_time
        ));
        if let Some(path) = checkpoint {
            let snapshot = session
                .snapshot()
                .map_err(|e| err(format!("cannot checkpoint: {e}")))?;
            let json = dbp_proto::checkpoint_to_json(&snapshot);
            std::fs::write(path, json).map_err(|e| err(format!("cannot write `{path}`: {e}")))?;
            out.push_str(&format!("checkpoint written to {path}\n"));
        } else {
            out.push_str("pass --checkpoint FILE to save and resume later\n");
        }
    } else {
        let tick = session.tick_active();
        let outcome = session
            .finish()
            .map_err(|e| err(format!("finish failed: {e}")))?;
        out.push_str(&format!(
            "{}: {} events → {} bins (peak {} open), usage {}{}\n",
            outcome.algorithm(),
            m.events,
            outcome.bins_opened(),
            outcome.max_open_bins(),
            outcome.total_usage(),
            if tick { " [tick engine]" } else { "" }
        ));
        if checkpoint.is_some() {
            out.push_str("stream complete — no checkpoint needed\n");
        }
    }
    if skipped > 0 {
        out.push_str(&format!("skipped {skipped} events\n"));
    }
    telemetry.finish(registry, &mut out)?;
    Ok(out)
}

/// `mindbp serve` — run the multi-tenant allocation daemon in the
/// foreground until a wire `shutdown` frame stops it.
fn cmd_serve(opts: &Opts, progress: &mut dyn std::io::Write) -> Result<String, CliError> {
    opts.only(&[
        "listen",
        "metrics",
        "token",
        "max-bins",
        "max-items",
        "max-eps",
        "journal-dir",
        "slow-ms",
        "trace-out",
    ])?;
    use dbp_server::{DbpServer, Quotas, ServerConfig, TokenPolicy};

    let config = ServerConfig {
        listen: opts.get("listen").unwrap_or("127.0.0.1:9500").to_string(),
        metrics: opts.get("metrics").map(str::to_string),
        auth: match opts.get("token") {
            Some(secret) => TokenPolicy::Shared(secret.to_string()),
            None => TokenPolicy::Open,
        },
        quotas: {
            let quota = |name| opts.get(name).map(|_| opts.u64_or(name, 0)).transpose();
            Quotas {
                max_open_bins: quota("max-bins")?,
                max_active_items: quota("max-items")?,
                max_events_per_sec: quota("max-eps")?,
            }
        },
        journal_dir: opts.get("journal-dir").map(std::path::PathBuf::from),
        slow_ms: opts
            .get("slow-ms")
            .map(|_| opts.u64_or("slow-ms", 0))
            .transpose()?,
        trace_out: opts.get("trace-out").map(std::path::PathBuf::from),
    };
    let durable = config.journal_dir.is_some();
    let trace_out = config.trace_out.clone();

    let server = DbpServer::start(config).map_err(|e| err(format!("cannot start daemon: {e}")))?;
    let _ = writeln!(progress, "serving on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        let _ = writeln!(progress, "metrics on http://{addr}/metrics");
    }
    if durable {
        let _ = writeln!(
            progress,
            "journaling tenants; restart resumes them verbatim"
        );
    }
    if let Some(path) = &trace_out {
        let _ = writeln!(
            progress,
            "tracing slow requests; shutdown dumps {} and {}",
            path.display(),
            path.with_extension("chrome.json").display()
        );
    }
    server.wait();
    Ok("daemon stopped by wire shutdown\n".to_string())
}

fn cmd_render(opts: &Opts) -> Result<String, CliError> {
    opts.only(&["trace", "width", "algo"])?;
    let (_, instance) = load(opts)?;
    let width = opts.u32_or("width", 72)? as usize;
    let mut algo = make_algo_for(opts.get("algo").unwrap_or("firstfit"), &instance)?;
    let outcome = Runner::new(&instance)
        .run(algo.as_mut())
        .map_err(|e| err(format!("packing failed: {e}")))?;
    let mut out = String::new();
    out.push_str(&dbp_viz::timeline(&instance, width));
    out.push('\n');
    out.push_str(&dbp_viz::usage(&instance, &outcome, width));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mindbp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.0.contains("unknown command"));
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn option_parsing_errors() {
        assert!(run(&args(&["pack", "positional"])).is_err());
        assert!(run(&args(&["pack", "--trace"])).is_err());
        assert!(run(&args(&["generate", "--family", "random"])).is_err()); // no --out
    }

    #[test]
    fn generate_pack_certify_opt_render_pipeline() {
        let path = tmp("pipeline.json");
        let out = run(&args(&[
            "generate", "--family", "random", "--n", "24", "--mu", "3", "--seed", "5", "--out",
            &path,
        ]))
        .unwrap();
        assert!(out.contains("wrote random"));

        let packed = run(&args(&["pack", "--trace", &path, "--algo", "ff"])).unwrap();
        assert!(packed.contains("FirstFit"));
        assert!(packed.contains("servers"));

        let compared = run(&args(&["compare", "--trace", &path])).unwrap();
        assert!(compared.contains("NextFit"));
        assert!(compared.contains("HybridFirstFit"));

        let cert = run(&args(&["certify", "--trace", &path])).unwrap();
        assert!(cert.contains("all certificates hold"), "{cert}");

        let opt = run(&args(&["opt", "--trace", &path])).unwrap();
        assert!(opt.contains("OPT_total"));
        assert!(opt.contains("ratio"));

        let render = run(&args(&["render", "--trace", &path, "--width", "60"])).unwrap();
        assert!(render.contains("span"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gadget_families_generate() {
        for family in ["nextfit", "universal", "ladder", "scatter", "gaming"] {
            let path = tmp(&format!("{family}.json"));
            let out = run(&args(&[
                "generate", "--family", family, "--mu", "3", "--k", "4", "--n", "6", "--out", &path,
            ]))
            .unwrap();
            assert!(out.contains(family), "{out}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn bad_algo_and_billing_are_reported() {
        let path = tmp("bad.json");
        run(&args(&[
            "generate", "--family", "random", "--n", "4", "--out", &path,
        ]))
        .unwrap();
        assert!(run(&args(&["pack", "--trace", &path, "--algo", "nope"]))
            .unwrap_err()
            .0
            .contains("unknown algorithm"));
        assert!(run(&args(&["pack", "--trace", &path, "--billing", "nope"]))
            .unwrap_err()
            .0
            .contains("unknown billing"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clairvoyant_and_harmonic_algos_work() {
        let path = tmp("cv.json");
        run(&args(&[
            "generate",
            "--family",
            "universal",
            "--k",
            "6",
            "--mu",
            "4",
            "--out",
            &path,
        ]))
        .unwrap();
        let aligned = run(&args(&["pack", "--trace", &path, "--algo", "aligned"])).unwrap();
        assert!(aligned.contains("DepartureAlignedFit"));
        let harmonic = run(&args(&["pack", "--trace", &path, "--algo", "harmonic"])).unwrap();
        assert!(harmonic.contains("HybridFirstFit"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chain_and_adaptive_commands_work() {
        let path = tmp("chain.json");
        run(&args(&[
            "generate", "--family", "random", "--n", "16", "--mu", "3", "--seed", "2", "--out",
            &path,
        ]))
        .unwrap();
        let chain = run(&args(&["chain", "--trace", &path])).unwrap();
        assert!(chain.contains("Theorem 1 chain"), "{chain}");
        assert!(chain.contains("every step holds"), "{chain}");
        std::fs::remove_file(&path).unwrap();

        let game = run(&args(&[
            "adaptive", "--algo", "bestfit", "--k", "6", "--mu", "4",
        ]))
        .unwrap();
        assert!(game.contains("keep-smallest"), "{game}");
        assert!(game.contains("cost: 24"), "{game}"); // kµ = 24
    }

    #[test]
    fn pack_emits_observability_files_and_stats_reads_them() {
        let path = tmp("obs-in.json");
        let events = tmp("obs-events.jsonl");
        let metrics = tmp("obs-metrics.json");
        let chrome = tmp("obs-chrome.json");
        run(&args(&[
            "generate", "--family", "random", "--n", "20", "--mu", "3", "--seed", "9", "--out",
            &path,
        ]))
        .unwrap();
        let packed = run(&args(&[
            "pack",
            "--trace",
            &path,
            "--algo",
            "firstfit",
            "--events",
            &events,
            "--metrics",
            &metrics,
            "--chrome",
            &chrome,
        ]))
        .unwrap();
        assert!(packed.contains("trace events"), "{packed}");
        assert!(packed.contains("registry snapshot"), "{packed}");
        assert!(packed.contains("trace-event file"), "{packed}");

        // The emitted event log replays cleanly and carries the run.
        let text = std::fs::read_to_string(&events).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert!(dbp_obs::replay(&parsed).is_ok());

        // The metrics snapshot is valid JSON with the core counters.
        let snap = serde_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let counters = snap.get("counters").unwrap();
        assert_eq!(counters.get("arrivals").unwrap().as_int(), Some(20));

        // The chrome export is valid JSON with a traceEvents array.
        let doc = serde_json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_array().is_some());

        // `stats` summarizes the event log.
        let stats = run(&args(&["stats", "--trace", &events])).unwrap();
        assert!(stats.contains("20 arrivals"), "{stats}");
        assert!(stats.contains("replay: OK"), "{stats}");
        assert!(stats.contains("utilization"), "{stats}");

        for f in [&path, &events, &metrics, &chrome] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn tick_command_compiles_verifies_and_falls_back() {
        let path = tmp("tick.json");
        run(&args(&[
            "generate", "--family", "random", "--n", "30", "--mu", "4", "--seed", "11", "--out",
            &path,
        ]))
        .unwrap();
        // Compiled replay, verified bit-identical against the exact
        // engine, for every supported policy.
        for algo in ["firstfit", "bestfit", "worstfit"] {
            let out = run(&args(&["tick", "--trace", &path, "--algo", algo])).unwrap();
            assert!(out.contains("compiled:"), "{out}");
            assert!(out.contains("verify: OK"), "{out}");
            assert!(out.contains("usage"), "{out}");
        }
        // --verify false skips the exact replay.
        let quick = run(&args(&["tick", "--trace", &path, "--verify", "false"])).unwrap();
        assert!(!quick.contains("verify:"), "{quick}");
        // Unsupported algorithms are rejected up front.
        let e = run(&args(&["tick", "--trace", &path, "--algo", "nextfit"])).unwrap_err();
        assert!(e.0.contains("tick engine supports"), "{e}");
        std::fs::remove_file(&path).unwrap();

        // A trace whose denominator LCM blows the grid falls back to
        // the Rational engine, transparently.
        let coprime = Instance::builder()
            .item(
                Rational::new(1, 2),
                Rational::new(1, 99991),
                Rational::new(1, 99991) + Rational::new(1, 99989),
            )
            .build()
            .unwrap();
        let trace = Trace::from_instance("custom", "coprime prime denominators", &coprime);
        let wide = tmp("tick-wide.json");
        save_instance(Path::new(&wide), &trace).unwrap();
        let out = run(&args(&["tick", "--trace", &wide])).unwrap();
        assert!(out.contains("falling back"), "{out}");
        assert!(out.contains("FirstFit"), "{out}");
        std::fs::remove_file(&wide).unwrap();
    }

    #[test]
    fn profile_burst_generates_its_own_workload() {
        // No --trace: --burst synthesizes 32 waves × 6 arrivals whose
        // departure and arrival bursts share ticks. The retired
        // `firstfit-fast` spelling still parses, as First Fit.
        let out = run(&args(&[
            "profile",
            "--burst",
            "6",
            "--algo",
            "firstfit-fast",
        ]))
        .unwrap();
        assert!(
            out.contains("FirstFit") && !out.contains("FirstFitFast"),
            "{out}"
        );
        assert!(out.contains("equal-tick bursts"), "{out}");
        assert!(out.contains("192 items"), "{out}");
        assert!(out.contains("profile: 384 events"), "{out}");
        assert!(out.contains("fit_scan"), "{out}");
        // Without --burst the trace is still required.
        let e = run(&args(&["profile", "--algo", "firstfit"])).unwrap_err();
        assert!(e.0.contains("--trace"), "{e}");
    }

    #[test]
    fn profile_command_reports_shares_and_writes_exports() {
        let path = tmp("profile.json");
        run(&args(&[
            "generate", "--family", "random", "--n", "40", "--mu", "4", "--seed", "3", "--out",
            &path,
        ]))
        .unwrap();
        let folded = tmp("profile.folded");
        let chrome = tmp("profile-chrome.json");
        let metrics = tmp("profile-metrics.json");
        let out = run(&args(&[
            "profile",
            "--trace",
            &path,
            "--algo",
            "firstfit",
            "--folded",
            &folded,
            "--chrome",
            &chrome,
            "--metrics",
            &metrics,
        ]))
        .unwrap();
        assert!(out.contains("FirstFit"), "{out}");
        assert!(out.contains("profile: 80 events"), "{out}");
        assert!(out.contains("fit_scan"), "{out}");
        assert!(out.contains("departure_drain"), "{out}");
        // The folded file is `stack weight` lines rooted at "engine".
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(stacks.lines().all(|l| l.starts_with("engine;")), "{stacks}");
        assert!(stacks
            .lines()
            .all(|l| l.rsplit(' ').next().unwrap().parse::<u64>().is_ok()));
        // The chrome doc holds both bin tracks (pid 1) and profiler
        // spans (pid 2).
        let doc = serde_json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let pid = |p: i128| {
            events
                .iter()
                .filter(|e| e.get("pid").and_then(serde_json::Value::as_int) == Some(p))
                .count()
        };
        assert!(pid(1) > 0 && pid(2) > 0);
        // The metrics registry carries the profile families.
        let reg = std::fs::read_to_string(&metrics).unwrap();
        assert!(reg.contains("profile_fit_scan_self_ns"), "{reg}");
        // The chrome export's recorder keeps the run on the exact
        // engine, where First Fit scans the open bins linearly.
        assert!(reg.contains("probe_bins_scanned"), "{reg}");

        // Sampling and strict backends work; tick + --chrome is the
        // observer conflict the runner reports.
        let sampled = run(&args(&[
            "profile",
            "--trace",
            &path,
            "--backend",
            "tick",
            "--sample",
            "4",
        ]))
        .unwrap();
        assert!(sampled.contains("20 sampled"), "{sampled}");
        let e = run(&args(&[
            "profile",
            "--trace",
            &path,
            "--backend",
            "tick",
            "--chrome",
            &chrome,
        ]))
        .unwrap_err();
        assert!(e.0.contains("exact engine"), "{e}");
        for f in [&path, &folded, &chrome, &metrics] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn stats_rejects_garbage_and_handles_empty() {
        let bad = tmp("stats-bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(run(&args(&["stats", "--trace", &bad])).is_err());
        // Reordered timestamps must be rejected, not panic the
        // series integrator.
        std::fs::write(
            &bad,
            concat!(
                "{\"BinOpened\":{\"t\":{\"num\":5,\"den\":1},\"bin\":0}}\n",
                "{\"BinOpened\":{\"t\":{\"num\":1,\"den\":1},\"bin\":1}}\n",
            ),
        )
        .unwrap();
        let e = run(&args(&["stats", "--trace", &bad])).unwrap_err();
        assert!(e.0.contains("time goes backwards"), "{e}");
        std::fs::write(&bad, "\n\n").unwrap();
        let out = run(&args(&["stats", "--trace", &bad])).unwrap();
        assert!(out.contains("empty trace"), "{out}");
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn hourly_billing_increases_cost() {
        let path = tmp("billing.json");
        run(&args(&[
            "generate", "--family", "gaming", "--n", "10", "--seed", "3", "--out", &path,
        ]))
        .unwrap();
        let cont = run(&args(&[
            "pack",
            "--trace",
            &path,
            "--billing",
            "continuous",
        ]))
        .unwrap();
        let hourly = run(&args(&["pack", "--trace", &path, "--billing", "hourly"])).unwrap();
        assert!(cont.contains("billed"));
        assert!(hourly.contains("quantized"));
        std::fs::remove_file(&path).unwrap();
    }

    /// A well-formed four-event JSONL stream: two items into one bin.
    const STREAM_JSONL: &str = r#"
{"arrive": {"id": 0, "size": {"num": 1, "den": 2}, "time": {"num": 0, "den": 1}}}
{"arrive": {"id": 1, "size": {"num": 1, "den": 3}, "time": {"num": 1, "den": 1}}}
{"depart": {"id": 0, "time": {"num": 2, "den": 1}}}
{"depart": {"id": 1, "time": {"num": 3, "den": 1}}}
"#;

    /// Runs with a captured progress stream; returns (result, progress).
    fn run_capturing(a: &[&str]) -> (Result<String, CliError>, String) {
        let mut buf = Vec::new();
        let result = run_to(&args(a), &mut buf);
        (result, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn stream_command_runs_a_full_session() {
        let path = tmp("stream.jsonl");
        std::fs::write(&path, STREAM_JSONL).unwrap();
        let (out, progress) = run_capturing(&["stream", "--input", &path, "--report-every", "2"]);
        let out = out.unwrap();
        assert!(out.contains("FirstFit"), "{out}");
        assert!(out.contains("1 bins"), "{out}");
        assert!(out.contains("usage 3"), "{out}");
        // Live metrics lines ride the progress stream, not stdout.
        assert!(progress.contains("events 2:"), "{progress}");
        assert!(!out.contains("events 2:"), "{out}");

        // With a declared grid the integer engine takes the stream.
        let ticked = run(&args(&["stream", "--input", &path, "--grid", "1,6"])).unwrap();
        assert!(ticked.contains("[tick engine]"), "{ticked}");
        assert!(ticked.contains("usage 3"), "{ticked}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_malformed_lines_skip_or_abort() {
        let path = tmp("stream-bad.jsonl");
        std::fs::write(
            &path,
            "{\"arrive\": {\"id\": 0, \"size\": {\"num\": 1, \"den\": 2}, \"time\": {\"num\": 0, \"den\": 1}}}\n\
             this is not json\n\
             {\"depart\": {\"id\": 0, \"time\": {\"num\": 1, \"den\": 1}}}\n",
        )
        .unwrap();
        // Default: skip with a line-numbered note, still finish. The
        // note goes to progress; the summary count stays on stdout.
        let (out, progress) = run_capturing(&["stream", "--input", &path]);
        let out = out.unwrap();
        assert!(progress.contains("line 2: skipped bad event"), "{progress}");
        assert!(out.contains("skipped 1 events"), "{out}");
        assert!(out.contains("usage 1"), "{out}");
        // Strict: abort with the line number, as an error not a panic.
        let e = run(&args(&["stream", "--input", &path, "--strict", "true"])).unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_rejected_events_are_line_numbered() {
        let path = tmp("stream-reject.jsonl");
        std::fs::write(
            &path,
            "{\"arrive\": {\"id\": 0, \"size\": {\"num\": 1, \"den\": 2}, \"time\": {\"num\": 5, \"den\": 1}}}\n\
             {\"arrive\": {\"id\": 1, \"size\": {\"num\": 1, \"den\": 2}, \"time\": {\"num\": 3, \"den\": 1}}}\n\
             {\"depart\": {\"id\": 0, \"time\": {\"num\": 9, \"den\": 1}}}\n",
        )
        .unwrap();
        let (out, progress) = run_capturing(&["stream", "--input", &path]);
        let out = out.unwrap();
        assert!(progress.contains("line 2: rejected event"), "{progress}");
        assert!(out.contains("usage 4"), "{out}");
        let e = run(&args(&["stream", "--input", &path, "--strict", "true"])).unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        // The note names the session's reason: id 3 never arrived.
        let unknown = "{\"depart\": {\"id\": 3, \"time\": {\"num\": 4, \"den\": 1}}}\n";
        std::fs::write(&path, format!("{STREAM_JSONL}{unknown}")).unwrap();
        let (out, progress) = run_capturing(&["stream", "--input", &path]);
        let rejection = "line 6: rejected event: departure of unknown item r3";
        assert!(
            progress.contains(&format!("{rejection} — skipped")),
            "{progress}"
        );
        assert!(out.unwrap().contains("usage 3"));
        let e = run(&args(&["stream", "--input", &path, "--strict", "true"])).unwrap_err();
        assert_eq!(e.0, rejection);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_prom_out_writes_an_openmetrics_page() {
        let path = tmp("stream-prom.jsonl");
        let page = tmp("stream-prom.txt");
        std::fs::write(&path, STREAM_JSONL).unwrap();
        let out = run(&args(&["stream", "--input", &path, "--prom-out", &page])).unwrap();
        assert!(out.contains("OpenMetrics page"), "{out}");
        let text = std::fs::read_to_string(&page).unwrap();
        assert!(text.contains("dbp_events_total 4"), "{text}");
        // usage 3 over lower bound max(vol 5/3, span 3) = 3 → ratio 1.
        assert!(text.contains("dbp_ratio_upper_estimate 1\n"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        for f in [&path, &page] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn stream_watchdog_alerts_ride_the_progress_stream() {
        let path = tmp("stream-dog.jsonl");
        std::fs::write(&path, STREAM_JSONL).unwrap();
        // The session's live ratio reaches 1; a threshold of 1/2
        // must trip the watchdog exactly once (edge-triggered).
        let (out, progress) = run_capturing(&["stream", "--input", &path, "--watchdog", "1/2"]);
        let out = out.unwrap();
        assert!(progress.contains("watchdog:"), "{progress}");
        assert_eq!(progress.matches("watchdog:").count(), 1, "{progress}");
        assert!(!out.contains("watchdog:"), "{out}");
        // `--watchdog off` silences it; garbage is rejected up front.
        let (_, quiet) = run_capturing(&["stream", "--input", &path, "--watchdog", "off"]);
        assert!(!quiet.contains("watchdog:"), "{quiet}");
        let e = run(&args(&["stream", "--input", &path, "--watchdog", "fast"])).unwrap_err();
        assert!(e.0.contains("--watchdog"), "{e}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A `Write` that appends to a shared buffer, so a test can watch
    /// another thread's progress stream live.
    #[derive(Clone)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_prom_listen_serves_scrapes_while_lingering() {
        use std::io::{Read as _, Write as _};

        let path = tmp("stream-listen.jsonl");
        std::fs::write(&path, STREAM_JSONL).unwrap();
        let shared = SharedBuf(Default::default());
        let progress = shared.clone();
        let cli_args = args(&[
            "stream",
            "--input",
            &path,
            "--prom-listen",
            "127.0.0.1:0",
            "--prom-linger-ms",
            "4000",
        ]);
        let worker = std::thread::spawn(move || {
            let mut progress = progress;
            run_to(&cli_args, &mut progress)
        });

        // The progress stream announces the bound address up front.
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
                if let Some(rest) = text.split("http://").nth(1) {
                    break rest.split("/metrics").next().unwrap().to_string();
                }
                assert!(std::time::Instant::now() < deadline, "no address: {text}");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };

        // Scrape during the linger window, retrying until the final
        // registry (published at stream end) is visible.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let response = loop {
            let mut stream = std::net::TcpStream::connect(&addr).unwrap();
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            if response.contains("dbp_ratio_upper_estimate") {
                break response;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stale page: {response}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert!(
            response.contains(dbp_obs::OPENMETRICS_CONTENT_TYPE),
            "{response}"
        );
        assert!(response.contains("dbp_events_total 4"), "{response}");
        assert!(
            response.contains("dbp_ratio_upper_estimate 1"),
            "{response}"
        );
        assert!(response.trim_end().ends_with("# EOF"), "{response}");

        let out = worker.join().unwrap().unwrap();
        assert!(out.contains("metrics: served on"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_checkpoint_resume_round_trip() {
        let first = tmp("stream-ckpt-1.jsonl");
        let rest = tmp("stream-ckpt-2.jsonl");
        let ckpt = tmp("stream.ckpt");
        std::fs::write(
            &first,
            "{\"arrive\": {\"id\": 0, \"size\": {\"num\": 1, \"den\": 2}, \"time\": {\"num\": 0, \"den\": 1}}}\n\
             {\"arrive\": {\"id\": 1, \"size\": {\"num\": 1, \"den\": 3}, \"time\": {\"num\": 1, \"den\": 1}}}\n",
        )
        .unwrap();
        std::fs::write(
            &rest,
            "{\"depart\": {\"id\": 0, \"time\": {\"num\": 2, \"den\": 1}}}\n\
             {\"depart\": {\"id\": 1, \"time\": {\"num\": 3, \"den\": 1}}}\n",
        )
        .unwrap();
        let out = run(&args(&["stream", "--input", &first, "--checkpoint", &ckpt])).unwrap();
        assert!(out.contains("2 items still active"), "{out}");
        assert!(out.contains("checkpoint written"), "{out}");
        let out = run(&args(&["stream", "--input", &rest, "--resume", &ckpt])).unwrap();
        assert!(out.contains("resumed FirstFit"), "{out}");
        assert!(out.contains("usage 3"), "{out}");
        for p in [&first, &rest, &ckpt] {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// Every command refuses an option it does not take, naming the
    /// option and the command, before it reads any input: a retired
    /// option (`--shards`) or a misspelt one (`--grdi` for `--grid`)
    /// fails rather than running without it.
    #[test]
    fn commands_refuse_options_they_do_not_take() {
        for (argv, option) in [
            (
                &["stream", "--input", "missing.jsonl", "--shards", "2"][..],
                "--shards",
            ),
            (
                &["stream", "--input", "missing.jsonl", "--grdi", "1,6"][..],
                "--grdi",
            ),
            (
                &[
                    "generate", "--family", "random", "--out", "x.json", "--bogus", "3",
                ][..],
                "--bogus",
            ),
            (
                &["pack", "--trace", "missing.json", "--grid", "1,6"][..],
                "--grid",
            ),
        ] {
            let e = run(&args(argv)).unwrap_err();
            let command = format!("`{}`", argv[0]);
            assert!(
                e.0.contains(option) && e.0.contains(&command),
                "{argv:?}: {e}"
            );
        }
    }
}
