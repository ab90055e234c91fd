//! Metric names, units and bounds, and the one-line JSON result a
//! workload process ends its output with.

use crate::layers::json_quote;

/// The gated metrics: name, unit, and the share of the parent's median by
/// which the metric may get worse. `BENCHMARK.json` records the same.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("throughput_ops_s", "ops/s", 0.10),
    ("latency_geomean_us", "us", 0.10),
    ("setup_s", "s", 0.20),
];

/// The per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("xml_parse_us", "us"),
    ("shred_us", "us"),
    ("load_mb_s", "MB/s"),
    ("stored_bytes_per_user_byte", "B/B"),
    ("btree_splits_per_doc", "count"),
    ("wal_bytes_per_user_byte", "B/B"),
    ("checkpoint_us", "us"),
    ("reconstruct_us", "us"),
    ("remove_us", "us"),
    ("xq_parse_us", "us"),
    ("translate_us", "us"),
    ("execute_us", "us"),
    ("publish_us", "us"),
    ("publish_us_per_item", "us"),
    ("publish_share", "ratio"),
    ("snapshot_us", "us"),
    ("lock_wait_us_per_request", "us"),
    ("epoch_lag_max", "count"),
    ("write_p50_us", "us"),
    ("http_overhead_us", "us"),
    ("shed_share", "ratio"),
    ("plan_us", "us"),
    ("statements_per_request", "count"),
    ("rows_examined_per_item", "count"),
    ("span_cover_share", "ratio"),
    ("trace_overhead_pct", "%"),
    ("trace_dropped", "count"),
];

/// Counts that must repeat exactly between two runs of one build with one
/// seed, on the single-client workloads.
pub const EXACT: [&str; 5] = [
    "stored_bytes_per_user_byte",
    "wal_bytes_per_user_byte",
    "btree_splits_per_doc",
    "statements_per_request",
    "rows_examined_per_item",
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }

    /// The metric's unit, from the tables above.
    pub fn unit(&self) -> &'static str {
        END_TO_END
            .iter()
            .map(|(n, u, _)| (*n, *u))
            .chain(PER_LAYER)
            .find(|(n, _)| *n == self.name)
            .map_or("", |(_, u)| u)
    }
}

/// What running one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output was checked and correct, nothing was dropped.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub text: String,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_quote(&m.name),
                    m.value,
                    json_quote(m.unit())
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a result line back (the runner reads its workload processes'
    /// last lines). Only what [`json_line`](Outcome::json_line) writes is
    /// understood.
    pub fn parse_line(line: &str) -> Option<Outcome> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let mut metrics = Vec::new();
        let mut rest = &line[line.find("\"metrics\": {")? + 12..];
        while let Some(open) = rest.find(": {\"value\": ") {
            let name = rest[..open]
                .trim_start_matches([',', ' '])
                .trim_matches('"');
            let after = &rest[open + 12..];
            let value = after[..after.find(',')?].parse().ok()?;
            metrics.push(Metric::new(name, value));
            rest = &after[after.find('}')? + 1..];
        }
        Some(Outcome {
            correct,
            attempted,
            failed,
            metrics,
            text: String::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 168,
            failed: 0,
            metrics: vec![
                Metric::new("throughput_ops_s", 9.712345678),
                Metric::new("setup_s", 2.5e-3),
                Metric::new("trace_overhead_pct", -1.25),
            ],
            text: String::new(),
        };
        let line = outcome.json_line();
        assert!(!line.contains('\n'));
        assert!(
            line.contains("\"throughput_ops_s\": {\"value\": 9.712345678, \"unit\": \"ops/s\"}")
        );
        assert_eq!(Outcome::parse_line(&line), Some(outcome));
        assert_eq!(Outcome::parse_line("cargo: error"), None);
    }

    /// `BENCHMARK.json` and the tables here must name the same metrics,
    /// units and bounds: the driver reads the file, the program the tables.
    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit, bound) in END_TO_END {
            let better = if name == "throughput_ops_s" {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "missing {entry}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::WORKLOADS.len()
        );
        for workload in crate::workload::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
    }
}
