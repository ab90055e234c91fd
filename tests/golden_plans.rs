//! Golden-plan regression gate.
//!
//! For every query of experiments E3 (child chains), E4 (descendants),
//! E5 (value predicates), E6 (join counts), and E11 (structural joins),
//! under every mapping scheme — plus the value-index variants of edge,
//! binary and interval that experiment E5's knob builds — the physical
//! plan the optimizer chooses, its cost breakdown, and the plan checks'
//! findings are pinned as a snapshot in `tests/golden_plans/`. Any change
//! to index selection, join ordering, or the cost model shows up here as a
//! readable plan + cost diff before a single benchmark runs, and every
//! snapshot pins `diagnostics: none`: a plan that breaks its scheme's
//! access-path contract (`xmlrel_core::contract`) or trips the generic
//! anti-pattern analyzer (`reldb::plan::analyze`) fails here too.
//!
//! To accept a deliberate planner change, regenerate the corpus:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_plans
//! ```
//!
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use xmlrel::xmlgen::auction::{generate as gen_auction, AuctionConfig, AUCTION_DTD};
use xmlrel::xmlgen::dblp::{generate as gen_dblp, DblpConfig, DBLP_DTD};
use xmlrel::xmlgen::queries::{WorkloadQuery, AUCTION_QUERIES, DBLP_QUERIES};
use xmlrel::{all_schemes, StoreBuilder, XmlStore};

/// The pinned experiment slices.
const EXPERIMENTS: &[(&str, &str, &[&str])] = &[
    ("E3", "auction", &["Q1", "Q3", "Q10"]),
    ("E4", "auction", &["Q4", "Q5", "Q6"]),
    ("E5", "auction", &["Q2", "Q8"]),
    ("E6", "dblp", &["D1", "D2", "D3", "D4"]),
    ("E11", "auction", &["Q5"]),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_plans")
}

/// The seeded corpora every snapshot is computed against. Fixed scale and
/// seeds make row counts — and therefore plans and costs — reproducible.
fn corpus(name: &str) -> xmlrel::xmlpar::Document {
    match name {
        "auction" => gen_auction(&AuctionConfig::at_scale(0.3)),
        _ => gen_dblp(&DblpConfig::default()),
    }
}

fn workload(corpus: &str) -> Vec<(&'static str, &'static WorkloadQuery)> {
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
                out.push((*experiment, q));
            }
        }
    }
    out
}

/// Every scheme, plus `<scheme>+valueindex` for the three schemes that grow
/// a value index: there, string equality must probe that index.
fn store_variants(dtd: &str) -> Vec<(String, StoreBuilder)> {
    let mut out = Vec::new();
    for scheme in all_schemes(dtd).expect("schemes") {
        let name = scheme.name();
        if matches!(name, "edge" | "binary" | "interval") {
            out.push((
                format!("{name}+valueindex"),
                XmlStore::builder(scheme.clone()).value_index(true),
            ));
        }
        out.push((name.to_string(), XmlStore::builder(scheme)));
    }
    out
}

/// Normalized snapshot of one query's verified plan.
fn snapshot(store: &XmlStore, q: &WorkloadQuery) -> String {
    let report = store
        .request(q.text)
        .report()
        .unwrap_or_else(|e| panic!("{}: verify_plan: {e}", q.id));
    let mut s = String::new();
    let _ = writeln!(s, "query: {}", q.text);
    let _ = writeln!(s, "-- plan --");
    s.push_str(report.explain.trim_end());
    s.push('\n');
    let _ = writeln!(s, "-- cost --");
    s.push_str(report.cost.trim_end());
    s.push('\n');
    let _ = writeln!(s, "-- diagnostics --");
    if report.diagnostics.is_empty() {
        let _ = writeln!(s, "none");
    } else {
        for d in &report.diagnostics {
            let _ = writeln!(s, "{d}");
        }
    }
    s
}

/// A readable two-block diff: the first differing line is marked, and the
/// cost totals are surfaced up front so regressions read at a glance.
fn render_diff(name: &str, expected: &str, actual: &str) -> String {
    let total = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("total cost="))
            .unwrap_or("total cost=?")
            .to_string()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden plan mismatch: {name} (expected {}, got {})",
        total(expected),
        total(actual)
    );
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(0);
    let _ = writeln!(out, "  first differing line: {}", first_diff + 1);
    let _ = writeln!(out, "--- expected ({name})");
    for l in expected.lines() {
        let _ = writeln!(out, "  {l}");
    }
    let _ = writeln!(out, "+++ actual ({name})");
    for l in actual.lines() {
        let _ = writeln!(out, "  {l}");
    }
    out
}

#[test]
fn plans_match_golden() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }

    let mut mismatches = Vec::new();
    let mut seen = 0usize;
    for corpus_name in ["auction", "dblp"] {
        let doc = corpus(corpus_name);
        let dtd = if corpus_name == "dblp" {
            DBLP_DTD
        } else {
            AUCTION_DTD
        };
        for (scheme_name, builder) in store_variants(dtd) {
            let mut store = builder.open().expect("install");
            store.load_document(corpus_name, &doc).expect("load");
            for (experiment, q) in workload(corpus_name) {
                seen += 1;
                let name = format!("{experiment}_{}_{scheme_name}", q.id);
                let actual = snapshot(&store, q);
                let path = dir.join(format!("{name}.txt"));
                if update {
                    std::fs::write(&path, &actual).expect("write golden");
                    continue;
                }
                let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    panic!("{name}: missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1")
                });
                if expected != actual {
                    mismatches.push(render_diff(&name, &expected, &actual));
                }
            }
        }
    }
    assert!(seen >= 117, "workload shrank: only {seen} plans checked");
    assert!(
        mismatches.is_empty(),
        "{} golden plan(s) changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The gate must actually trip when the optimizer regresses: disabling
/// join reordering changes the chosen plan for the E5 point query, and the
/// snapshot comparison reports a readable cost diff.
#[test]
fn gate_detects_disabled_join_reordering() {
    let doc = corpus("auction");
    let scheme = all_schemes(AUCTION_DTD)
        .expect("schemes")
        .into_iter()
        .find(|s| s.name() == "edge")
        .expect("edge scheme");
    let mut store = XmlStore::builder(scheme).open().expect("install");
    store.load_document("auction", &doc).expect("load");
    store.with_db_mut(|db| db.optimizer.join_reorder = false);

    let q = AUCTION_QUERIES
        .iter()
        .find(|q| q.id == "Q2")
        .expect("Q2 in workload");
    let actual = snapshot(&store, q);
    let golden = std::fs::read_to_string(golden_dir().join("E5_Q2_edge.txt"))
        .expect("golden E5_Q2_edge.txt (run UPDATE_GOLDEN=1 first)");
    assert_ne!(
        golden, actual,
        "disabling join reordering should change the Q2 plan"
    );
    let diff = render_diff("E5_Q2_edge", &golden, &actual);
    assert!(
        diff.contains("total cost="),
        "diff must surface cost totals:\n{diff}"
    );
    assert!(
        diff.contains("expected") && diff.contains("actual"),
        "diff must show both plans:\n{diff}"
    );
}
