//! Compares committed `BENCH_*.json` snapshots against fresh runs and
//! fails (exit 1) on a throughput regression.
//!
//! Usage: `perf_check <baseline.json> <fresh.json> [more pairs …]
//!         [--tolerance 0.70]`
//!
//! Files are consumed in baseline/fresh pairs; each pair is gated on
//! the metrics its experiment declares:
//!
//! * `engine_throughput` — `events_per_sec` (the parallel replay
//!   headline) and `compiled_events_per_sec` (the single-threaded
//!   tick-engine replay rate);
//! * `stream` — `stream_events_per_sec` (one-event-at-a-time
//!   sessions), plus an **absolute** floor: the fresh snapshot's
//!   `stream_vs_batch_ratio` must reach the tolerance, i.e. streaming
//!   sessions keep ≥70% of the batch tick rate *measured in the same
//!   run* — a machine-independent contract, not a baseline diff —
//!   and a fixed same-run floor: `checkpointed_vs_plain_session_ratio`
//!   (one long-lived tick session ingesting a 1M-event stream with its
//!   checkpoint log against the same session without it) must reach
//!   0.80;
//! * `obs_overhead` — absolute same-run floors only: the fresh
//!   snapshot's `observed_vs_unobserved_ratio` (a ring-buffered
//!   `TelemetrySink` on the engine's observer hooks — the sense of
//!   `arrive_observed`) must reach 0.85, and its
//!   `full_stack_vs_unobserved_ratio` (sink **plus** the session's
//!   exact `vol`/`span` stream accounting) must reach 0.70. Both
//!   floors are fixed, independent of `--tolerance`;
//! * `profile` — absolute same-run floors only, same shape: the
//!   fresh snapshot's `detached_vs_unobserved_ratio` (an inert probe
//!   on the session's `&mut dyn` phase hook) must reach 0.95 — the
//!   hook is supposed to be free when nobody listens — and its
//!   `attached_vs_unobserved_ratio` (a live `Profiler` timing every
//!   phase and histogramming every probe) must reach 0.70;
//! * `fit_scaling` — `series[target_bins=10000].auto_events_per_sec`
//!   (the `Backend::Auto` First Fit replay with ~8,000 bins open, so
//!   the tick engine's `FitTree` mode: per-event index upkeep creeping
//!   back into that path shows here), plus one absolute same-run
//!   floor: the fresh snapshot's `chunked_vs_scalar_scan_ratio` (the
//!   8-lane chunked First Fit gap sweep against its per-slot scalar
//!   reference on a full-depth `B = 100` scan, measured back-to-back)
//!   must reach 1.0 — the vectorized kernel must never lose to the
//!   loop it replaced;
//! * `server` — `server_events_per_sec` (aggregate wire-protocol
//!   placement throughput across the loadgen's client threads and
//!   tenants; the recorded p50/p99 placement latencies ride along
//!   uncompared — latency floors are machine noise on shared CI) and
//!   `journal_replay_events_per_sec` (a durable restart: one tenant's
//!   journal streamed straight into its tenant by
//!   `Tenant::recover_all`, the path `DbpServer::start` runs; journal
//!   lines decoded through the generic `Value` codec instead of the
//!   strict fast parser show here),
//!   plus an **absolute** same-run floor: the fresh snapshot's
//!   `traced_vs_untraced_ratio` (loadgen's traced pass — per-frame
//!   request ids, echo verification, request-span recording — against
//!   its untraced pass, back to back in the same run) must reach
//!   0.90: request tracing may cost at most 10% of serving
//!   throughput. Its `finish_fast_vs_generic_ratio` (one wave tenant's
//!   finish frame encoded by the generic `Value` codec over the same
//!   frame from the canonical fast writer, interleaved best-of rounds)
//!   must reach 6 whenever the baseline records the metric: a finish
//!   frame routed back through a `Value` tree reads near 1. Its
//!   `checkpoint_restart_vs_replay_ratio` (a journaled tenant's full
//!   replay time over its restart from the engine-state checkpoint,
//!   interleaved best-of rounds) must reach 3 whenever the baseline
//!   records it: a restart that ignores its checkpoint reads near 1;
//! * `tick_compile` — **absolute** same-run floors only: the fresh
//!   snapshot's `shuffled_vs_ordered_ids_ratio` (one flash crowd
//!   replayed as generated against the same crowd renumbered in
//!   arrival order, interleaved best-of rounds) must reach 0.85.
//!   Compiled replays run in arrival rank whatever the instance's
//!   numbering; tables read in id order again show up as a ratio near
//!   0.66. Its `compile_vs_replay_ratio` (one First Fit replay's time
//!   over one compile's, on the same crowd, interleaved best-of
//!   rounds) must reach 2.4 whenever the baseline records the metric.
//!   A compile that sorts its schedule by comparison and folds every
//!   denominator through a checked `i128` LCM reads near 1.5;
//! * `opt_solver` — `intervals_per_sec` (the incremental
//!   branch-and-bound adversary's interval-solve rate) against the
//!   baseline, plus an **absolute** same-run floor: the fresh
//!   snapshot's `speedup_vs_seed` (the same profiles re-solved
//!   through the seed per-interval `Rational` pipeline, measured in
//!   the same run) must reach 10× — the incremental kernel must stay
//!   an order of magnitude ahead of the solver it replaced.
//!
//! A metric missing from the *baseline* is skipped with a warning —
//! older baselines predate newer metrics — while a metric missing
//! from the *fresh* snapshot is a hard failure: the benchmark stopped
//! reporting something it is supposed to gate.
//!
//! The tolerance is the fraction of the baseline (or of the batch
//! rate, for the ratio gate) the fresh run must reach — 0.70 means
//! "no more than a 30% shortfall". CI runners are noisy, so the gate
//! is deliberately loose: it exists to catch order-of-magnitude slips
//! (an accidental `O(B)` scan back in the hot path), not 5% jitter.

use serde::Value;
use std::process::ExitCode;

/// Fixed same-run floor for `checkpointed_vs_plain_session_ratio`:
/// a long-lived tick session's checkpoint log (one 12-byte record per
/// on-grid event) may cost at most 20% of its ingest rate. On a 2-core
/// VM the 12-byte log read 0.82–0.96 and a log of full 80-byte events
/// 0.66–0.77.
const CHECKPOINT_LOG_FLOOR: f64 = 0.80;

/// Fixed same-run floor for `observed_vs_unobserved_ratio`: an
/// attached trace sink may cost at most 15% of streaming throughput.
const OBS_OVERHEAD_FLOOR: f64 = 0.85;

/// Fixed same-run floor for `full_stack_vs_unobserved_ratio`: the
/// sink plus exact `vol`/`span` session accounting may cost at most
/// 30% — the exact-arithmetic lower-bound watchdog is pricier than
/// pure observation, and gated separately so neither hides in the
/// other.
const OBS_FULL_STACK_FLOOR: f64 = 0.70;

/// Fixed same-run floor for `detached_vs_unobserved_ratio`: with no
/// live listener, the engines' phase hooks must be free — an inert
/// probe behind the session's `&mut dyn` dispatch may cost at most
/// 5% against the bare replay.
const PROFILE_DETACHED_FLOOR: f64 = 0.95;

/// Fixed same-run floor for `attached_vs_unobserved_ratio`: a live
/// `Profiler` — monotonic-clock spans around every phase, probe
/// histograms on every event — may cost at most 30% of the exact
/// engine's replay rate.
const PROFILE_ATTACHED_FLOOR: f64 = 0.70;

/// Fixed same-run floor for `chunked_vs_scalar_scan_ratio`: the
/// chunked (autovectorizing) First Fit gap sweep must at least match
/// its scalar reference on a full-depth scan — anything below parity
/// means the vectorized kernel stopped vectorizing.
const SCAN_CHUNKED_FLOOR: f64 = 1.0;

/// Fixed same-run floor for `speedup_vs_seed`: the incremental
/// warm-started branch-and-bound adversary must solve event-interval
/// profiles at least 10× faster than the seed per-interval `Rational`
/// pipeline re-measured in the same run.
const OPT_SOLVER_SPEEDUP_FLOOR: f64 = 10.0;

/// Fixed same-run floor for `traced_vs_untraced_ratio`: loadgen's
/// traced pass (per-frame request ids, echo verification, span
/// recording on every placement) may cost at most 10% of the untraced
/// pass's throughput, measured back to back in the same run.
const SERVER_TRACED_FLOOR: f64 = 0.90;

/// Fixed same-run floor for `shuffled_vs_ordered_ids_ratio`: a
/// compiled replay of an instance numbered independently of arrival
/// must keep at least 85% of the rate of the same instance numbered
/// in arrival order.
const TICK_ID_ORDER_FLOOR: f64 = 0.85;

/// Fixed same-run floor for `compile_vs_replay_ratio`: compiling the
/// id-order arm's 60k-item flash crowd must cost at most
/// 1/2.4 of one First Fit replay of it. Eight runs on a 2-core VM
/// read 2.40–2.96; a compile that sorted its schedule by comparison
/// and folded every denominator through `checked_lcm` read 1.36–1.74.
const TICK_COMPILE_FLOOR: f64 = 2.4;

/// Fixed same-run floor for `finish_fast_vs_generic_ratio`: the
/// canonical fast writer must encode a wave tenant's finish frame at
/// least 6× faster than the generic `Value` codec. Nine loadgen runs
/// on a 2-core VM read 6.10–8.85; a finish frame written through a
/// `Value` tree reads about 1.
const SERVER_FINISH_FRAME_FLOOR: f64 = 6.0;

/// Fixed same-run floor for `checkpoint_restart_vs_replay_ratio`: a
/// 300,000-event journaled tenant must restart from its engine-state
/// checkpoint and journal tail at least 3× faster than by replaying
/// its whole journal. Sixteen loadgen runs on a 2-core VM read
/// 3.82–4.93 (median 4.1); a restart that ignores the checkpoint
/// reads about 1.
const SERVER_CHECKPOINT_RESTART_FLOOR: f64 = 3.0;

/// Baseline-relative throughput metrics gated per experiment, named
/// as [`metric`] paths.
fn gated_metrics(experiment: &str) -> &'static [&'static str] {
    match experiment {
        "engine_throughput" => &["events_per_sec", "compiled_events_per_sec"],
        "stream" => &["stream_events_per_sec"],
        "server" => &["server_events_per_sec", "journal_replay_events_per_sec"],
        "opt_solver" => &["intervals_per_sec"],
        "fit_scaling" => &["series[target_bins=10000].auto_events_per_sec"],
        "obs_overhead" | "profile" => &[],
        _ => &[],
    }
}

/// Same-run absolute ratio floors gated per experiment, independent
/// of `--tolerance` and of the baseline snapshot.
fn same_run_floors(experiment: &str) -> &'static [(&'static str, f64)] {
    match experiment {
        "stream" => &[("checkpointed_vs_plain_session_ratio", CHECKPOINT_LOG_FLOOR)],
        "obs_overhead" => &[
            ("observed_vs_unobserved_ratio", OBS_OVERHEAD_FLOOR),
            ("full_stack_vs_unobserved_ratio", OBS_FULL_STACK_FLOOR),
        ],
        "profile" => &[
            ("detached_vs_unobserved_ratio", PROFILE_DETACHED_FLOOR),
            ("attached_vs_unobserved_ratio", PROFILE_ATTACHED_FLOOR),
        ],
        "fit_scaling" => &[("chunked_vs_scalar_scan_ratio", SCAN_CHUNKED_FLOOR)],
        "opt_solver" => &[("speedup_vs_seed", OPT_SOLVER_SPEEDUP_FLOOR)],
        "server" => &[("traced_vs_untraced_ratio", SERVER_TRACED_FLOOR)],
        "tick_compile" => &[("shuffled_vs_ordered_ids_ratio", TICK_ID_ORDER_FLOOR)],
        _ => &[],
    }
}

/// Same-run floors added to an arm after its first baselines. Each
/// gates only against a baseline that records its metric, as the
/// baseline-relative metrics do, so an older baseline file keeps
/// checking what it checked.
fn later_same_run_floors(experiment: &str) -> &'static [(&'static str, f64)] {
    match experiment {
        "tick_compile" => &[("compile_vs_replay_ratio", TICK_COMPILE_FLOOR)],
        "server" => &[
            ("finish_fast_vs_generic_ratio", SERVER_FINISH_FRAME_FLOOR),
            (
                "checkpoint_restart_vs_replay_ratio",
                SERVER_CHECKPOINT_RESTART_FLOOR,
            ),
        ],
        _ => &[],
    }
}

struct Snapshot {
    experiment: String,
    metrics: Value,
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = serde_json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let experiment = json
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path} has no experiment name"))?
        .to_string();
    let metrics = json
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{path} has no metrics object"))?;
    Ok(Snapshot {
        experiment,
        metrics,
    })
}

/// Looks up a numeric metric: a top-level `name`, or
/// `array[field=value].name` for the row of a series whose `field`
/// equals `value`.
fn metric(metrics: &Value, path: &str) -> Option<f64> {
    let Some((array, rest)) = path.split_once('[') else {
        return metrics.get(path).and_then(Value::as_f64);
    };
    let (selector, name) = rest.split_once("].")?;
    let (field, value) = selector.split_once('=')?;
    let value: f64 = value.parse().ok()?;
    metrics
        .get(array)?
        .as_array()?
        .iter()
        .find(|row| row.get(field).and_then(Value::as_f64) == Some(value))?
        .get(name)
        .and_then(Value::as_f64)
}

/// Gates one baseline/fresh pair. Returns `(gated, failed)`: how many
/// checks ran and whether any failed.
fn check_pair(base: &Snapshot, fresh: &Snapshot, tolerance: f64) -> (usize, bool) {
    let mut gated = 0usize;
    let mut failed = false;
    if base.experiment != fresh.experiment {
        eprintln!(
            "perf_check: experiment mismatch — baseline `{}`, fresh `{}`",
            base.experiment, fresh.experiment
        );
        return (0, true);
    }
    for &name in gated_metrics(&base.experiment) {
        let Some(base_eps) = metric(&base.metrics, name) else {
            println!("perf_check: baseline has no metrics.{name} — skipping (older baseline?)");
            continue;
        };
        let Some(fresh_eps) = metric(&fresh.metrics, name) else {
            eprintln!("perf_check: fresh snapshot dropped metrics.{name} — failing");
            failed = true;
            continue;
        };
        gated += 1;
        let floor = base_eps * tolerance;
        let pct = 100.0 * fresh_eps / base_eps;
        println!(
            "{name}: baseline {base_eps:.0} ev/s, fresh {fresh_eps:.0} ev/s, \
             floor {floor:.0} ev/s (tolerance {tolerance:.2})"
        );
        if fresh_eps < floor {
            eprintln!(
                "perf_check: REGRESSION — {name} is {pct:.1}% of baseline (floor {:.0}%)",
                100.0 * tolerance
            );
            failed = true;
        } else {
            println!("perf_check: {name} OK ({pct:.1}% of baseline)");
        }
    }
    // Same-run absolute gate: streaming sessions must keep pace with
    // the batch engine regardless of what machine the baseline saw.
    if fresh.experiment == "stream" {
        match metric(&fresh.metrics, "stream_vs_batch_ratio") {
            Some(ratio) => {
                gated += 1;
                println!("stream_vs_batch_ratio: {ratio:.3} (floor {tolerance:.2}, same-run)");
                if ratio < tolerance {
                    eprintln!(
                        "perf_check: REGRESSION — streaming sessions at {:.1}% of the \
                         batch tick rate (floor {:.0}%)",
                        100.0 * ratio,
                        100.0 * tolerance
                    );
                    failed = true;
                } else {
                    println!("perf_check: stream_vs_batch_ratio OK");
                }
            }
            None => {
                eprintln!("perf_check: stream snapshot has no stream_vs_batch_ratio — failing");
                failed = true;
            }
        }
    }
    // Same-run absolute gates: observation and profiling must stay
    // cheap. The floors are fixed, independent of the baseline
    // tolerance.
    let later = later_same_run_floors(&fresh.experiment)
        .iter()
        .filter(|&&(name, _)| {
            let recorded = metric(&base.metrics, name).is_some();
            if !recorded {
                println!("perf_check: baseline has no metrics.{name} — skipping (older baseline?)");
            }
            recorded
        });
    for &(name, floor) in same_run_floors(&fresh.experiment).iter().chain(later) {
        match metric(&fresh.metrics, name) {
            Some(ratio) => {
                gated += 1;
                println!("{name}: {ratio:.3} (floor {floor:.2}, same-run)");
                if ratio < floor {
                    eprintln!(
                        "perf_check: REGRESSION — {name} at {:.1}% of its same-run \
                         reference rate (floor {:.0}%)",
                        100.0 * ratio,
                        100.0 * floor
                    );
                    failed = true;
                } else {
                    println!("perf_check: {name} OK");
                }
            }
            None => {
                eprintln!(
                    "perf_check: {} snapshot has no {name} — failing",
                    fresh.experiment
                );
                failed = true;
            }
        }
    }
    (gated, failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.70f64;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            match it.next().and_then(|t| t.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            files.push(a.clone());
        }
    }
    if files.is_empty() || files.len() % 2 != 0 {
        eprintln!(
            "usage: perf_check <baseline.json> <fresh.json> [more pairs …] [--tolerance 0.70]"
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut gated = 0usize;
    for pair in files.chunks(2) {
        let (base, fresh) = match (load(&pair[0]), load(&pair[1])) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for err in [b.err(), f.err()].into_iter().flatten() {
                    eprintln!("perf_check: {err}");
                }
                failed = true;
                continue;
            }
        };
        println!("== {} ==", base.experiment);
        let (pair_gated, pair_failed) = check_pair(&base, &fresh, tolerance);
        gated += pair_gated;
        failed |= pair_failed;
    }
    if gated == 0 && !failed {
        eprintln!("perf_check: no gated metric present in any baseline — nothing was checked");
        return ExitCode::FAILURE;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_scaling(tree_eps: f64, scan_ratio: f64) -> Snapshot {
        let row = |bins: i128, eps: f64| {
            Value::Object(vec![
                ("target_bins".into(), Value::Int(bins)),
                ("auto_events_per_sec".into(), Value::Float(eps)),
            ])
        };
        Snapshot {
            experiment: "fit_scaling".into(),
            metrics: Value::Object(vec![
                (
                    "chunked_vs_scalar_scan_ratio".into(),
                    Value::Float(scan_ratio),
                ),
                (
                    "series".into(),
                    Value::Array(vec![row(100, 9e6), row(10_000, tree_eps)]),
                ),
            ]),
        }
    }

    #[test]
    fn series_paths_select_the_matching_row() {
        let snap = fit_scaling(3e6, 2.0);
        let path = "series[target_bins=10000].auto_events_per_sec";
        assert_eq!(metric(&snap.metrics, path), Some(3e6));
        assert_eq!(
            metric(&snap.metrics, "series[target_bins=100].auto_events_per_sec"),
            Some(9e6)
        );
        assert_eq!(
            metric(&snap.metrics, "series[target_bins=7].auto_events_per_sec"),
            None
        );
        assert_eq!(
            metric(&snap.metrics, "chunked_vs_scalar_scan_ratio"),
            Some(2.0)
        );
    }

    fn server(events_per_sec: f64, replay_events_per_sec: f64) -> Snapshot {
        Snapshot {
            experiment: "server".into(),
            metrics: Value::Object(vec![
                ("server_events_per_sec".into(), Value::Float(events_per_sec)),
                (
                    "journal_replay_events_per_sec".into(),
                    Value::Float(replay_events_per_sec),
                ),
                ("traced_vs_untraced_ratio".into(), Value::Float(0.95)),
            ]),
        }
    }

    #[test]
    fn journal_replay_rate_is_gated_against_the_baseline() {
        let base = server(2.5e6, 4e6);
        assert_eq!(check_pair(&base, &server(2.5e6, 3e6), 0.70), (3, false));
        // Replay back on the generic line codec: several-fold slower.
        assert_eq!(check_pair(&base, &server(2.5e6, 1e6), 0.70), (3, true));
        // Baselines recorded before the metric existed skip it.
        let mut old = server(2.5e6, 0.0);
        old.metrics = Value::Object(vec![("server_events_per_sec".into(), Value::Float(2.5e6))]);
        assert_eq!(check_pair(&old, &server(2.5e6, 1e6), 0.70), (2, false));
    }

    #[test]
    fn finish_frame_ratio_is_a_same_run_floor_once_the_baseline_records_it() {
        let with_ratio = |finish: Option<f64>| {
            let mut snap = server(2.5e6, 4e6);
            if let (Some(r), Value::Object(metrics)) = (finish, &mut snap.metrics) {
                metrics.push(("finish_fast_vs_generic_ratio".into(), Value::Float(r)));
            }
            snap
        };
        let base = with_ratio(Some(SERVER_FINISH_FRAME_FLOOR + 2.0));
        let above = with_ratio(Some(SERVER_FINISH_FRAME_FLOOR + 0.5));
        assert_eq!(check_pair(&base, &above, 0.70), (4, false));
        // The finish frame through a `Value` tree again: about 1. The
        // floor ignores --tolerance, and a fresh run without the metric
        // fails.
        assert_eq!(check_pair(&base, &with_ratio(Some(1.0)), 0.70), (4, true));
        assert_eq!(check_pair(&base, &with_ratio(Some(1.0)), 0.10), (4, true));
        assert!(check_pair(&base, &with_ratio(None), 0.70).1);
        // A baseline from before the metric leaves it ungated.
        let old = with_ratio(None);
        assert_eq!(check_pair(&old, &with_ratio(Some(1.0)), 0.70), (3, false));
    }

    fn tick_compile(ratio: Option<f64>) -> Snapshot {
        let mut metrics = vec![("series".into(), Value::Array(Vec::new()))];
        if let Some(r) = ratio {
            metrics.push(("shuffled_vs_ordered_ids_ratio".into(), Value::Float(r)));
        }
        Snapshot {
            experiment: "tick_compile".into(),
            metrics: Value::Object(metrics),
        }
    }

    #[test]
    fn id_order_ratio_is_a_same_run_floor() {
        let base = tick_compile(None);
        assert_eq!(
            check_pair(&base, &tick_compile(Some(1.01)), 0.70),
            (1, false)
        );
        // Tables read in instance-id order again: the old 0.66.
        assert_eq!(
            check_pair(&base, &tick_compile(Some(0.66)), 0.70),
            (1, true)
        );
        // The floor ignores --tolerance, and a snapshot without the
        // arm fails outright.
        assert_eq!(
            check_pair(&base, &tick_compile(Some(0.80)), 0.10),
            (1, true)
        );
        assert!(check_pair(&base, &tick_compile(None), 0.70).1);
    }

    #[test]
    fn compile_ratio_is_a_same_run_floor_once_the_baseline_records_it() {
        let with_ratio = |compile: Option<f64>| {
            let mut snap = tick_compile(Some(1.0));
            if let (Some(r), Value::Object(metrics)) = (compile, &mut snap.metrics) {
                metrics.push(("compile_vs_replay_ratio".into(), Value::Float(r)));
            }
            snap
        };
        let base = with_ratio(Some(TICK_COMPILE_FLOOR + 0.5));
        let above = with_ratio(Some(TICK_COMPILE_FLOOR + 0.1));
        assert_eq!(check_pair(&base, &above, 0.70), (2, false));
        // A comparison-sorted schedule again: about 1.5. The floor
        // ignores --tolerance, and a fresh run without the metric fails.
        assert_eq!(check_pair(&base, &with_ratio(Some(1.5)), 0.70), (2, true));
        assert_eq!(check_pair(&base, &with_ratio(Some(1.5)), 0.10), (2, true));
        assert!(check_pair(&base, &with_ratio(None), 0.70).1);
        // A baseline from before the metric leaves it ungated.
        let old = with_ratio(None);
        assert_eq!(check_pair(&old, &with_ratio(Some(1.5)), 0.70), (1, false));
    }

    fn stream(checkpoint_ratio: Option<f64>) -> Snapshot {
        let mut metrics = vec![
            ("stream_events_per_sec".into(), Value::Float(7e6)),
            ("stream_vs_batch_ratio".into(), Value::Float(0.75)),
        ];
        if let Some(r) = checkpoint_ratio {
            metrics.push((
                "checkpointed_vs_plain_session_ratio".into(),
                Value::Float(r),
            ));
        }
        Snapshot {
            experiment: "stream".into(),
            metrics: Value::Object(metrics),
        }
    }

    #[test]
    fn checkpoint_log_ratio_is_a_same_run_floor() {
        // Baselines recorded before the arm existed still gate it.
        let base = stream(None);
        assert_eq!(check_pair(&base, &stream(Some(0.84)), 0.70), (3, false));
        // A log of full 80-byte events reads ~0.72.
        assert_eq!(check_pair(&base, &stream(Some(0.72)), 0.70), (3, true));
        assert!(check_pair(&base, &stream(None), 0.70).1);
    }

    #[test]
    fn tree_mode_throughput_is_gated_against_the_baseline() {
        let base = fit_scaling(3e6, 2.0);
        assert_eq!(
            check_pair(&base, &fit_scaling(2.2e6, 2.0), 0.70),
            (2, false)
        );
        assert_eq!(check_pair(&base, &fit_scaling(2.0e6, 2.0), 0.70), (2, true));
        // A fresh snapshot without the B=10000 row fails outright.
        let mut fresh = fit_scaling(3e6, 2.0);
        fresh.metrics = Value::Object(vec![(
            "chunked_vs_scalar_scan_ratio".into(),
            Value::Float(2.0),
        )]);
        assert!(check_pair(&base, &fresh, 0.70).1);
    }
}
