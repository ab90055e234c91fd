//! Whole-workload checks: every workload, run as the driver runs it,
//! reports every metric `BENCHMARK.json` names and fails no op; op lists
//! follow the seed; a wrong reference answer is counted as a failure.

use std::process::Command;

use xmlrel_benchmark::report::{Outcome, END_TO_END, PER_LAYER};
use xmlrel_benchmark::runner::{plain_pass, Tally};
use xmlrel_benchmark::workload::{World, WORKLOADS};

/// Run the benchmark program for one workload with a one-second measured
/// phase; returns its whole output.
fn run_program(workload: &str, trace: bool) -> String {
    let out_dir = std::env::temp_dir().join(format!(
        "xmlrel-benchmark-test-{}-{workload}-{trace}",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_xmlrel-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--run-s", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark program starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    if trace {
        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        let json = std::fs::read_to_string(&trace_file).expect("the traced run writes its spans");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"bench.op#"));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    stdout
}

/// The result line names exactly `expected`, each with its unit.
fn assert_result(stdout: &str, expected: &[(&str, &str)]) -> Outcome {
    let line = stdout.lines().last().expect("a result line");
    let outcome = Outcome::parse_line(line).unwrap_or_else(|| panic!("not a result line: {line}"));
    assert!(outcome.correct, "{stdout}");
    assert_eq!(outcome.failed, 0, "{stdout}");
    assert!(outcome.attempted >= 1);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, wanted);
    for (name, unit) in expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": "))
                && line.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} lacks its unit {unit}: {line}"
        );
    }
    outcome
}

fn timed(workload: &str) {
    let stdout = run_program(workload, false);
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect();
    let outcome = assert_result(&stdout, &expected);
    for m in &outcome.metrics {
        assert!(m.value > 0.0, "{} is {}", m.name, m.value);
    }
    for printed in [
        "failed_ops/attempted_ops  0/",
        "latency_p50_us",
        "latency_p99_us",
        "peak_rss_mb",
    ] {
        assert!(stdout.contains(printed), "{printed} missing:\n{stdout}");
    }
}

fn traced(workload: &str, nonzero: &[&str]) {
    let stdout = run_program(workload, true);
    let outcome = assert_result(&stdout, &PER_LAYER);
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("{name} not reported"))
    };
    for name in nonzero {
        assert!(value(name) > 0.0, "{workload}: {name} is {}", value(name));
    }
    assert_eq!(value("trace_dropped"), 0.0);
    assert!(value("span_cover_share") >= 0.9, "{stdout}");
}

#[test]
fn fragment_read_timed() {
    timed("fragment-read");
}

#[test]
fn value_read_timed() {
    timed("value-read");
}

#[test]
fn load_roundtrip_timed() {
    timed("load-roundtrip");
}

#[test]
fn serve_mixed_timed() {
    timed("serve-mixed");
}

#[test]
fn fragment_read_traced_is_publishing() {
    traced(
        "fragment-read",
        &[
            "xq_parse_us",
            "translate_us",
            "execute_us",
            "publish_us",
            "statements_per_request",
            "plan_us",
        ],
    );
}

#[test]
fn value_read_traced_bypasses_publishing() {
    let stdout = run_program("value-read", true);
    let outcome = assert_result(&stdout, &PER_LAYER);
    let share = outcome
        .metrics
        .iter()
        .find(|m| m.name == "publish_share")
        .unwrap();
    assert!(
        share.value <= 0.1,
        "publish share {} on value-read",
        share.value
    );
}

#[test]
fn load_roundtrip_traced_times_the_write_side() {
    traced(
        "load-roundtrip",
        &[
            "xml_parse_us",
            "shred_us",
            "load_mb_s",
            "stored_bytes_per_user_byte",
            "btree_splits_per_doc",
            "wal_bytes_per_user_byte",
            "checkpoint_us",
            "reconstruct_us",
            "remove_us",
        ],
    );
}

#[test]
fn serve_mixed_traced_crosses_the_http_layer() {
    traced(
        "serve-mixed",
        &["http_overhead_us", "write_p50_us", "snapshot_us"],
    );
}

#[test]
fn unknown_workload_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_xmlrel-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

#[test]
fn the_op_list_follows_the_seed() {
    for workload in ["load-roundtrip", "serve-mixed"] {
        let hash = |seed| {
            let world = World::build(workload, seed, None).unwrap();
            let hash = world.op_list_hash();
            world.finish();
            hash
        };
        assert_eq!(hash(11), hash(11), "{workload}");
        assert_ne!(hash(11), hash(12), "{workload}");
    }
    assert_eq!(WORKLOADS.len(), 4);
}

#[test]
fn a_wrong_reference_is_a_failed_op() {
    let mut world = World::build("load-roundtrip", 5, None).unwrap();
    let reconstruct = world
        .ops
        .iter()
        .position(|op| op.reference.items == 1)
        .expect("a reconstruct op");
    world.ops[reconstruct].reference.hash ^= 1;
    let mut tally = Tally::default();
    let (ok, _) = plain_pass(&mut world, &mut 0, &mut tally, None, &mut 0).unwrap();
    assert_eq!(tally.attempted, world.ops.len() as u64);
    assert_eq!(tally.failed, 1);
    assert_eq!(ok, tally.attempted - 1);
    assert!(
        tally.reasons[0].contains("reconstruct"),
        "{:?}",
        tally.reasons
    );
}
