//! `xmlrel-benchmark`: runs workloads, one process each, and reports.
//!
//! ```text
//! xmlrel-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--traced] [--repeat N] [--out DIR]
//! ```
//!
//! With `--workload` it runs that workload once and its last line of
//! output is the workload's JSON result. Without, it runs all four and
//! ends with a summary; `--traced` makes those the traced runs, and
//! `--repeat N` runs the timed and the traced set N times over and
//! fails unless consecutive sets agree. `--run-s` is `--seconds`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use xmlrel_benchmark::report::{Outcome, END_TO_END, EXACT};
use xmlrel_benchmark::runner::{self, Config};
use xmlrel_benchmark::workload::WORKLOADS;

/// Length of the measured phase when `--seconds` is not given; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out_dir: PathBuf,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
        child: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--run-s" => {
                args.seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(format!("{flag} must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xmlrel-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xmlrel-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process and print its report and result line.
fn child(args: &Args) -> Result<bool, String> {
    // The runner holds the other end of stdin and never writes to it: end
    // of file means the runner is gone (killed on a timeout, say), and a
    // workload left running alone would disturb whatever is measured next.
    std::thread::spawn(|| {
        let mut byte = [0u8; 1];
        while matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    let outcome = runner::run(&Config {
        workload: args.workload.clone().ok_or("--child needs --workload")?,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    })?;
    print!("{}", outcome.text);
    println!("{}", outcome.json_line());
    Ok(outcome.correct)
}

/// Run `workload` in a process of its own, so the metrics registry and
/// the peak resident set are that workload's alone. Its output is passed
/// through; its stderr (the server's access log, mostly) goes to a file.
fn spawn(args: &Args, workload: &str, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let stderr_path = args.out_dir.join(format!("{workload}.stderr"));
    let stderr = std::fs::File::create(&stderr_path)
        .map_err(|e| format!("creating {}: {e}", stderr_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut process = Command::new(exe)
        .arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("starting the {workload} process: {e}"))?;
    let mut last = String::new();
    if let Some(stdout) = process.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            last = line.map_err(|e| format!("reading the {workload} process: {e}"))?;
            println!("{last}");
        }
    }
    let status = process
        .wait()
        .map_err(|e| format!("waiting for the {workload} process: {e}"))?;
    let outcome = Outcome::parse_line(&last);
    match outcome {
        Some(outcome) if status.success() || !outcome.correct => Ok(outcome),
        _ => Err(format!(
            "the {workload} process ended with {status} and no result; its stderr ends:\n{}",
            tail(&stderr_path, 20)
        )),
    }
}

fn tail(path: &Path, lines: usize) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let all: Vec<&str> = text.lines().collect();
    all[all.len().saturating_sub(lines)..].join("\n")
}

/// One set of runs: (workload, traced, outcome).
type Set = Vec<(String, bool, Outcome)>;

fn parent(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // A repeat compares end-to-end metrics (timed) and exact counts
    // (traced), so it needs both kinds of run.
    let kinds: &[bool] = if args.repeat > 1 {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    let single = workloads.len() == 1 && kinds.len() == 1;
    if !single {
        println!(
            "xmlrel-benchmark: seed={} run_s={} cores={} rustc={:?} commit={}",
            args.seed,
            args.seconds,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        );
    }
    let mut sets: Vec<Set> = Vec::new();
    for _ in 0..args.repeat {
        let mut set = Set::new();
        for &trace in kinds {
            for workload in &workloads {
                set.push((workload.to_string(), trace, spawn(args, workload, trace)?));
            }
        }
        sets.push(set);
    }
    let mut ok = sets
        .iter()
        .flatten()
        .all(|(_, _, outcome)| outcome.correct && outcome.failed == 0);
    if single {
        // The workload's result line stays the last line of output.
        return Ok(ok);
    }
    for pair in sets.windows(2) {
        ok &= compare(&pair[0], &pair[1]);
    }
    println!("{}", summary(args, &sets, ok));
    Ok(ok)
}

/// Print how two sets of runs of the same build differ; false when an
/// end-to-end metric differs by more than its bound or an exact count
/// differs at all.
fn compare(first: &Set, second: &Set) -> bool {
    println!("== self-consistency: two sets of runs of the same build");
    let mut ok = true;
    for ((workload, trace, a), (_, _, b)) in first.iter().zip(second) {
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let bound = END_TO_END.iter().find(|(n, _, _)| *n == ma.name);
            // The writer's commits land between reads as the scheduler
            // has it, so serve-mixed counts do not repeat.
            let exact = EXACT.contains(&ma.name.as_str()) && workload != "serve-mixed";
            let verdict = if let Some((_, _, bound)) = bound {
                let diff = (ma.value - mb.value).abs() / ma.value.abs().max(f64::MIN_POSITIVE);
                let within = diff <= *bound;
                ok &= within;
                format!(
                    "differs by {:.2}% (bound {:.0}%): {}",
                    100.0 * diff,
                    100.0 * bound,
                    if within { "ok" } else { "EXCEEDS ITS BOUND" }
                )
            } else if exact {
                let same = ma.value == mb.value;
                ok &= same;
                (if same {
                    "exact: ok"
                } else {
                    "MUST REPEAT EXACTLY"
                })
                .to_string()
            } else {
                continue;
            };
            println!(
                "  {workload:<15} trace={} {:<28} {:>16.4} {:>16.4}  {verdict}",
                u8::from(*trace),
                ma.name,
                ma.value,
                mb.value
            );
        }
    }
    ok
}

/// The closing summary: every end-to-end metric of every workload of the
/// last set, as JSON. This program measures; it never claims a gain.
fn summary(args: &Args, sets: &[Set], ok: bool) -> String {
    let mut rows = Vec::new();
    for (workload, trace, outcome) in sets.last().into_iter().flatten() {
        let metrics: Vec<String> = outcome
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.value))
            .collect();
        rows.push(format!(
            "    {{\"workload\": \"{workload}\", \"trace\": {}, \"failed_ops\": {}, \"attempted_ops\": {}, {}}}",
            u8::from(*trace),
            outcome.failed,
            outcome.attempted,
            metrics.join(", ")
        ));
    }
    format!(
        "{{\n  \"seed\": {}, \"run_s\": {}, \"sets\": {}, \"ok\": {ok},\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}",
        args.seed,
        args.seconds,
        sets.len(),
        rows.join(",\n")
    )
}
