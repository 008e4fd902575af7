//! Result output: the one-line JSON result, result files with their
//! environment, the printed tables, `compare` and `baseline`.

use crate::run::RunResult;
use crate::spec::Spec;
use crate::stats::Summary;
use serde::Value;
use std::time::{SystemTime, UNIX_EPOCH};

/// The committed seed baseline (see `baseline`).
pub const BASELINE_JSON: &str = include_str!("../baseline.json");

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn unit(name: &str) -> &str {
    Spec::get().metric(name).map_or("", |m| m.unit.as_str())
}

/// The last stdout line of a run: exactly `correct`, `attempted`,
/// `failed` and `metrics` (`{name: {value, unit}}`).
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, s)| {
            let entry = obj(vec![
                ("value", Value::Float(s.median)),
                ("unit", Value::Str(unit(name).to_string())),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Int(r.tally.attempted as i128)),
        ("failed", Value::Int(r.tally.failed as i128)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("results serialize")
}

/// One run as a result-file entry (medians with quartiles, checks,
/// window size and notes).
pub fn run_value(r: &RunResult) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, s)| {
            let entry = obj(vec![
                ("value", Value::Float(s.median)),
                ("unit", Value::Str(unit(name).to_string())),
                ("q1", Value::Float(s.q1)),
                ("q3", Value::Float(s.q3)),
                ("n", Value::Int(s.n as i128)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(r.workload.to_string())),
        ("traced", Value::Bool(r.traced)),
        ("seed", Value::Int(r.seed as i128)),
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Int(r.tally.attempted as i128)),
        ("failed", Value::Int(r.tally.failed as i128)),
        ("mismatches", Value::Int(r.tally.mismatches as i128)),
        ("windows", Value::Int(r.windows as i128)),
        ("events_per_window", Value::Int(r.events_per_window as i128)),
        ("metrics", Value::Object(metrics)),
        (
            "notes",
            Value::Array(r.notes.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// `available_parallelism` the committed baseline was measured with.
pub fn baseline_nproc() -> Option<i128> {
    serde_json::parse(BASELINE_JSON)
        .ok()?
        .get("env")?
        .get("available_parallelism")?
        .as_int()
}

/// The environment a result was measured in.
pub fn environment(seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Some(base) = baseline_nproc().filter(|&b| b != nproc as i128) {
        eprintln!(
            "warning: available_parallelism is {nproc}, the baseline was measured with {base}; \
             numbers are not comparable to it"
        );
    }
    // Only the working directory's own repository: outside one, git
    // would otherwise search the parent directories.
    let head = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obj(vec![
        ("available_parallelism", Value::Int(nproc as i128)),
        ("git_head", Value::Str(head)),
        ("seed", Value::Int(seed as i128)),
        ("seconds", Value::Float(seconds)),
        ("date", Value::Str(utc_date(unix))),
    ])
}

/// A result file: environment plus every run.
pub fn result_file(env: Value, runs: Vec<Value>) -> Value {
    obj(vec![("env", env), ("runs", Value::Array(runs))])
}

/// Seconds since the epoch as an ISO-8601 UTC timestamp.
pub fn utc_date(unix: u64) -> String {
    // Civil-from-days (proleptic Gregorian), H. Hinnant's algorithm.
    let z = (unix / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + (month <= 2) as i64;
    let secs = unix % 86_400;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

/// The printed table of one run (standard error).
pub fn print(r: &RunResult) {
    eprintln!(
        "== {} ({}, seed {}): {} windows of {} events; {} ({} frames, {} failed, {} mismatched)",
        r.workload,
        if r.traced { "per-layer" } else { "end-to-end" },
        r.seed,
        r.windows,
        r.events_per_window,
        if r.correct() { "correct" } else { "INCORRECT" },
        r.tally.attempted,
        r.tally.failed,
        r.tally.mismatches
    );
    for (name, s) in &r.metrics {
        eprintln!(
            "  {name:<36} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}",
            s.median,
            unit(name),
            s.q1,
            s.q3,
            s.n
        );
    }
    for note in &r.notes {
        eprintln!("  {note}");
    }
}

/// Run entries of a result file, keyed by workload and mode.
fn runs(file: &Value) -> Vec<(String, bool, &Value)> {
    file.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            Some((
                run.get("workload")?.as_str()?.to_string(),
                run.get("traced")? == &Value::Bool(true),
                run,
            ))
        })
        .collect()
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares result file `b` against `a`: both medians, the change, the
/// bound and a verdict per metric and workload. `false` when any
/// end-to-end metric got worse by more than its bound.
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, bool) {
    let spec = Spec::get();
    let mut lines = vec![format!(
        "{:<14} {:<36} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    )];
    let mut ok = true;
    for (workload, traced, run_b) in runs(b) {
        let Some((_, _, run_a)) = runs(a)
            .into_iter()
            .find(|(w, t, _)| *w == workload && *t == traced)
        else {
            continue;
        };
        for m in spec.reported(traced) {
            let (Some(va), Some(vb)) = (metric_value(run_a, &m.name), metric_value(run_b, &m.name))
            else {
                continue;
            };
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse = if m.higher_is_better { -change } else { change };
            let verdict = match m.bound {
                None => "info",
                Some(bound) if worse > bound => {
                    ok = false;
                    "WORSE"
                }
                Some(bound) if -worse > bound => "better",
                Some(_) => "ok",
            };
            lines.push(format!(
                "{workload:<14} {:<36} {va:>14.4} {vb:>14.4} {:>+7.2}% {:>6}  {verdict}",
                m.name,
                change * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            ));
        }
    }
    (lines, ok)
}

/// Folds several result files (the seed baseline's runs) into one: per
/// workload and metric, the median of the runs' values with their
/// quartiles, extremes and `range` = (max − min) / median, and each
/// workload's window size.
pub fn baseline(files: &[Value]) -> Result<Value, String> {
    let first = files.first().ok_or("no result files")?;
    let mut out = Vec::new();
    for (workload, traced, first_run) in runs(first) {
        let mut metrics = Vec::new();
        for m in Spec::get().reported(traced) {
            let values: Vec<f64> = files
                .iter()
                .filter_map(|f| {
                    runs(f)
                        .into_iter()
                        .find(|(w, t, _)| *w == workload && *t == traced)
                        .and_then(|(_, _, run)| metric_value(run, &m.name))
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let entry = obj(vec![
                ("value", Value::Float(s.median)),
                ("unit", Value::Str(m.unit.clone())),
                ("q1", Value::Float(s.q1)),
                ("q3", Value::Float(s.q3)),
                ("n", Value::Int(s.n as i128)),
                ("min", Value::Float(min)),
                ("max", Value::Float(max)),
                ("range", Value::Float((max - min) / s.median.abs())),
            ]);
            metrics.push((m.name.clone(), entry));
        }
        let events_per_window = first_run
            .get("events_per_window")
            .cloned()
            .unwrap_or(Value::Null);
        out.push(obj(vec![
            ("workload", Value::Str(workload)),
            ("traced", Value::Bool(traced)),
            ("events_per_window", events_per_window),
            ("metrics", Value::Object(metrics)),
        ]));
    }
    let seeds: Vec<Value> = files
        .iter()
        .filter_map(|f| f.get("env")?.get("seed").cloned())
        .collect();
    let mut env = first.get("env").cloned().unwrap_or(Value::Null);
    if let Value::Object(fields) = &mut env {
        fields.retain(|(k, _)| k != "seed");
        fields.push(("seeds".to_string(), Value::Array(seeds)));
    }
    Ok(obj(vec![("env", env), ("runs", Value::Array(out))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(events_per_s: f64, p50: f64, usage: f64) -> Value {
        let metric = |v: f64| obj(vec![("value", Value::Float(v))]);
        obj(vec![(
            "runs",
            Value::Array(vec![obj(vec![
                ("workload", Value::Str("serve-single".into())),
                ("traced", Value::Bool(false)),
                (
                    "metrics",
                    obj(vec![
                        ("events_per_s", metric(events_per_s)),
                        ("latency_p50_us", metric(p50)),
                        ("usage_over_lb", metric(usage)),
                    ]),
                ),
            ])]),
        )])
    }

    fn verdict(lines: &[String], metric: &str) -> String {
        let line = lines.iter().find(|l| l.contains(metric)).unwrap();
        line.split_whitespace().last().unwrap().to_string()
    }

    #[test]
    fn compare_verdicts_follow_direction_and_bound() {
        let bound = |name| Spec::get().metric(name).unwrap().bound.unwrap();
        let (eps, p50) = (bound("events_per_s"), bound("latency_p50_us"));
        let a = file(100_000.0, 50.0, 1.2);
        // Throughput down by half its bound, p50 down by more than its
        // bound (an improvement), usage unchanged.
        let b = file(100_000.0 * (1.0 - eps / 2.0), 50.0 * (1.0 - 1.5 * p50), 1.2);
        let (lines, ok) = compare(&a, &b);
        assert!(ok);
        assert_eq!(verdict(&lines, "events_per_s"), "ok");
        assert_eq!(verdict(&lines, "latency_p50_us"), "better");
        assert_eq!(verdict(&lines, "usage_over_lb"), "ok");
        // Throughput down by more than its bound: the command fails.
        let (lines, ok) = compare(&a, &file(100_000.0 * (1.0 - 1.5 * eps), 50.0, 1.2));
        assert!(!ok);
        assert_eq!(verdict(&lines, "events_per_s"), "WORSE");
        // A lower-is-better metric rising past its bound fails too.
        let (lines, ok) = compare(&a, &file(100_000.0, 50.0 * (1.0 + 1.5 * p50), 1.2));
        assert!(!ok);
        assert_eq!(verdict(&lines, "latency_p50_us"), "WORSE");
        let (_, ok) = compare(&a, &file(100_000.0, 50.0, 1.2 * 1.05));
        assert!(!ok, "usage_over_lb is gated tightly");
        // A run missing from A is skipped, not failed.
        let (lines, ok) = compare(&obj(vec![("runs", Value::Array(vec![]))]), &a);
        assert!(ok);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn baseline_takes_medians_and_ranges_across_files() {
        let files = [
            file(90.0, 50.0, 1.2),
            file(100.0, 40.0, 1.2),
            file(110.0, 45.0, 1.2),
        ];
        let b = baseline(&files).unwrap();
        let run = &runs(&b)[0].2;
        assert_eq!(metric_value(run, "events_per_s"), Some(100.0));
        let range = run
            .get("metrics")
            .and_then(|m| m.get("events_per_s"))
            .and_then(|m| m.get("range"))
            .and_then(Value::as_f64);
        assert_eq!(range, Some(0.2));
        assert_eq!(metric_value(run, "latency_p50_us"), Some(45.0));
    }

    #[test]
    fn dates_render_in_utc() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_790_000_000), "2026-09-21T14:13:20Z");
    }
}
