//! `planlint`: the workspace's plan-quality gate.
//!
//! Builds every mapping scheme over the seeded benchmark corpora, compiles
//! the experiment workload (E3 child chains, E4 descendants, E5 value
//! predicates, E6 join counts, E11 structural joins), and checks the
//! physical plan the optimizer chose for each query against:
//!
//! - the scheme's declared access-path contract
//!   (`xmlrel_core::contract`), and
//! - the generic anti-pattern analyzer (`reldb::plan::analyze`).
//!
//! Usage:
//!   planlint [--json] [--out PATH] [--verbose]
//!
//! Exits 1 when any finding is reported, mirroring `xmlrel-lint`. `--out`
//! always writes the JSON report so CI can upload it even on failure.

use std::process::ExitCode;

use xmlgen::auction::{generate as gen_auction, AuctionConfig, AUCTION_DTD};
use xmlgen::dblp::{generate as gen_dblp, DblpConfig, DBLP_DTD};
use xmlgen::queries::{WorkloadQuery, AUCTION_QUERIES, DBLP_QUERIES};
use xmlrel_core::{PlanReport, Scheme, XmlStore};
use xmlrel_obs::trace::json_quote;

/// The experiment slices the golden-plan gate pins (ISSUE: E3/E4/E5/E6/E11).
const EXPERIMENTS: &[(&str, &str, &[&str])] = &[
    ("E3", "auction", &["Q1", "Q3", "Q10"]),
    ("E4", "auction", &["Q4", "Q5", "Q6"]),
    ("E5", "auction", &["Q2", "Q8"]),
    ("E6", "dblp", &["D1", "D2", "D3", "D4"]),
    ("E11", "auction", &["Q5"]),
];

/// One finding, flattened for the report.
struct Finding {
    experiment: &'static str,
    scheme: &'static str,
    query_id: &'static str,
    query: &'static str,
    rule: String,
    node: String,
    message: String,
}

fn main() -> ExitCode {
    let mut json = false;
    let mut verbose = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--verbose" | "-v" => verbose = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("planlint: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: planlint [--json] [--out PATH] [--verbose]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("planlint: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    match run(json, verbose, out_path.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("planlint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(json: bool, verbose: bool, out_path: Option<&str>) -> Result<bool, String> {
    let (findings, checked) = check_workload(verbose)?;

    let report = to_json(&findings, checked);
    if let Some(path) = out_path {
        std::fs::write(path, &report).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if json {
        println!("{report}");
    } else {
        for f in &findings {
            println!(
                "{}/{} [{}] {}: at {}: {}",
                f.experiment, f.query_id, f.scheme, f.rule, f.node, f.message
            );
        }
        if findings.is_empty() {
            eprintln!("planlint: {checked} plans clean");
        } else {
            eprintln!(
                "planlint: {} finding(s) across {checked} plans",
                findings.len()
            );
        }
    }
    Ok(findings.is_empty())
}

/// Build the corpora, verify every workload plan under every scheme.
fn check_workload(verbose: bool) -> Result<(Vec<Finding>, usize), String> {
    // Small but non-trivial corpora: enough rows that the optimizer's
    // choices are driven by real statistics, small enough that the gate
    // stays fast. Both generators are seeded, so plans are reproducible.
    let auction = gen_auction(&AuctionConfig::at_scale(0.3));
    let dblp = gen_dblp(&DblpConfig::default());

    let mut findings = Vec::new();
    let mut checked = 0usize;
    for (corpus, dtd, doc) in [
        ("auction", AUCTION_DTD, &auction),
        ("dblp", DBLP_DTD, &dblp),
    ] {
        let mut schemes: Vec<(&'static str, Scheme)> = all_schemes(dtd)?
            .into_iter()
            .map(|s| (s.name(), s))
            .collect();
        // Edge, binary, and interval grow a value index under experiment
        // E5's knob; gate those variants too, so the "string-equality goes
        // through the value index" promise is checked where it applies.
        schemes.push((
            "edge+valueindex",
            Scheme::Edge(shredder::EdgeScheme {
                with_value_index: true,
            }),
        ));
        let mut binary = shredder::BinaryScheme::new();
        binary.with_value_index = true;
        schemes.push(("binary+valueindex", Scheme::Binary(binary)));
        schemes.push((
            "interval+valueindex",
            Scheme::Interval(shredder::IntervalScheme {
                with_value_index: true,
            }),
        ));
        for (name, scheme) in schemes {
            let mut store = XmlStore::builder(scheme)
                .open()
                .map_err(|e| format!("{name}: install: {e}"))?;
            store
                .load_document(corpus, doc)
                .map_err(|e| format!("{name}: load {corpus}: {e}"))?;
            for (experiment, query_id, query) in corpus_queries(corpus) {
                let report = match store.request(query.text).report() {
                    Ok(r) => r,
                    Err(e) => {
                        findings.push(Finding {
                            experiment,
                            scheme: name,
                            query_id,
                            query: query.text,
                            rule: "translate-error".into(),
                            node: "query".into(),
                            message: e.to_string(),
                        });
                        continue;
                    }
                };
                checked += 1;
                if verbose {
                    eprintln!(
                        "# {experiment}/{query_id} [{name}] cost={:.0}\n{}",
                        report.total_cost, report.explain
                    );
                }
                absorb(
                    &mut findings,
                    experiment,
                    name,
                    query_id,
                    query.text,
                    &report,
                );
            }
        }
    }
    Ok((findings, checked))
}

/// The (experiment, id, query) triples run against one corpus.
fn corpus_queries(corpus: &str) -> Vec<(&'static str, &'static str, &'static WorkloadQuery)> {
    let pool: &[WorkloadQuery] = if corpus == "dblp" {
        DBLP_QUERIES
    } else {
        AUCTION_QUERIES
    };
    let mut out = Vec::new();
    for (experiment, exp_corpus, ids) in EXPERIMENTS {
        if *exp_corpus != corpus {
            continue;
        }
        for id in *ids {
            if let Some(q) = pool.iter().find(|q| q.id == *id) {
                out.push((*experiment, *id, q));
            }
        }
    }
    out
}

fn absorb(
    findings: &mut Vec<Finding>,
    experiment: &'static str,
    scheme: &'static str,
    query_id: &'static str,
    query: &'static str,
    report: &PlanReport,
) {
    for d in &report.diagnostics {
        findings.push(Finding {
            experiment,
            scheme,
            query_id,
            query,
            rule: d.rule.to_string(),
            node: d.node.clone(),
            message: d.message.clone(),
        });
    }
}

/// All six schemes, matching the workspace façade's `all_schemes`.
fn all_schemes(dtd: &str) -> Result<Vec<Scheme>, String> {
    Ok(vec![
        Scheme::Edge(shredder::EdgeScheme::new()),
        Scheme::Binary(shredder::BinaryScheme::new()),
        Scheme::Universal(shredder::UniversalScheme::new()),
        Scheme::Interval(shredder::IntervalScheme::new()),
        Scheme::Dewey(shredder::DeweyScheme::new()),
        Scheme::Inline(
            shredder::InlineScheme::from_dtd_text(dtd).map_err(|e| format!("inline: {e}"))?,
        ),
    ])
}

/// Hand-rolled JSON (the workspace is offline; no serde).
fn to_json(findings: &[Finding], checked: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"plans_checked\": {checked},\n"));
    s.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    s.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"experiment\": {}, ", json_quote(f.experiment)));
        s.push_str(&format!("\"scheme\": {}, ", json_quote(f.scheme)));
        s.push_str(&format!("\"query_id\": {}, ", json_quote(f.query_id)));
        s.push_str(&format!("\"query\": {}, ", json_quote(f.query)));
        s.push_str(&format!("\"rule\": {}, ", json_quote(&f.rule)));
        s.push_str(&format!("\"node\": {}, ", json_quote(&f.node)));
        s.push_str(&format!("\"message\": {}", json_quote(&f.message)));
        s.push('}');
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}
