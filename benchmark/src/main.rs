//! `benchmark` — run the repository benchmark.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//!     every workload, untraced then traced (or the one mode asked for),
//!     each in its own process; writes DIR/result.json
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//!     one workload; the last stdout line is its JSON result
//! benchmark compare A.json B.json
//!     per metric and workload: both medians, change, bound, verdict
//! benchmark baseline R1.json R2.json ...
//!     folds result files into one (medians, quartiles, ranges)
//! benchmark daemon --listen ADDR [--journal-dir DIR]
//!     the daemon child the served workloads start
//! ```
//!
//! Exits non-zero when any frame fails, any outcome differs from the
//! reference, or (for `compare`) any end-to-end metric got worse by
//! more than its bound.

use dbp_benchmark::run::{self, Plan};
use dbp_benchmark::spec::Spec;
use dbp_benchmark::workload::{self, Inputs, WORKLOADS};
use dbp_benchmark::{cpus, daemon, report};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn main() {
    let code = match command(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// `--flag value` pairs after the subcommand.
fn options(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    if args.len() % 2 != 0 {
        return Err(format!("expected `--flag value` pairs, got {args:?}"));
    }
    args.chunks(2)
        .map(|pair| {
            let flag = pair[0].trim_start_matches("--");
            if !pair[0].starts_with("--") || !known.contains(&flag) {
                return Err(format!("unknown option `{}`", pair[0]));
            }
            Ok((flag.to_string(), pair[1].clone()))
        })
        .collect()
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for --{flag}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn command(args: Vec<String>) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("daemon") => {
            let mut listen = "127.0.0.1:0".to_string();
            let mut journal_dir = None;
            for (flag, value) in options(&args[1..], &["listen", "journal-dir"])? {
                match flag.as_str() {
                    "listen" => listen = value,
                    _ => journal_dir = Some(PathBuf::from(value)),
                }
            }
            daemon::serve(listen, journal_dir)?;
            Ok(0)
        }
        Some("compare") => {
            let [_, a, b] = &args[..] else {
                return Err("usage: benchmark compare A.json B.json".to_string());
            };
            let (lines, ok) = report::compare(&read_json(a)?, &read_json(b)?);
            for line in lines {
                println!("{line}");
            }
            Ok(if ok { 0 } else { 1 })
        }
        Some("baseline") => {
            let files = args[1..]
                .iter()
                .map(|path| read_json(path))
                .collect::<Result<Vec<_>, _>>()?;
            let folded = report::baseline(&files)?;
            println!(
                "{}",
                serde_json::to_string_pretty(&folded).map_err(|e| e.to_string())?
            );
            Ok(0)
        }
        _ => bench(&args),
    }
}

fn bench(args: &[String]) -> Result<i32, String> {
    let spec = Spec::get();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec.run_seconds as f64;
    let mut trace = None;
    let mut out = PathBuf::from("target/benchmark");
    for (flag, value) in options(args, &["workload", "seed", "seconds", "trace", "out"])? {
        match flag.as_str() {
            "workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "seed" => seed = parse(&flag, &value)?,
            "seconds" => seconds = parse(&flag, &value)?,
            "trace" => trace = Some(parse::<u8>(&flag, &value)? == 1),
            _ => out = PathBuf::from(value),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let env = report::environment(seed, seconds);
    let plan = |w, traced| {
        let mut plan = Plan::new(w, seed, seconds, traced, exe.clone());
        plan.out_dir = out.clone();
        plan
    };
    let write = |name: &str, runs: Vec<Value>| {
        let text = serde_json::to_string_pretty(&report::result_file(env.clone(), runs))
            .map_err(|e| e.to_string())?;
        let path = out.join(name);
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    let run_file = |name: &str, traced: bool| {
        format!(
            "{name}.{}.result.json",
            if traced { "traced" } else { "untraced" }
        )
    };

    if let Some(w) = workload {
        // One workload, one mode: the shape an external harness calls.
        // The daemons it starts inherit the CPU.
        cpus::pin_to_one()?;
        let traced = trace.unwrap_or(false);
        let inputs = Inputs::build(w, seed);
        let result = run::run(&plan(w, traced), &inputs)?;
        report::print(&result);
        write(&run_file(w.name, traced), vec![report::run_value(&result)])?;
        println!("{}", report::result_line(&result));
        return Ok(if result.correct() { 0 } else { 1 });
    }

    // Every workload and mode in a fresh process, exactly as a harness
    // runs them, so no heap high-water mark or cache state carries over
    // from one workload to the next.
    let modes: Vec<bool> = trace.map_or(vec![false, true], |t| vec![t]);
    let mut runs = Vec::new();
    let mut correct = true;
    for w in &WORKLOADS {
        for &traced in &modes {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            correct &= status.success();
            let file = read_json(&out.join(run_file(w.name, traced)).to_string_lossy())?;
            runs.extend(
                file.get("runs")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
    }
    write("result.json", runs)?;
    eprintln!("wrote {}", out.join("result.json").display());
    Ok(if correct { 0 } else { 1 })
}
