//! `EXPLAIN ANALYZE` regression gate.
//!
//! Two observability invariants are pinned here:
//!
//! 1. **Golden snapshots** — for one E3 (child-chain) query under every
//!    mapping scheme, the full estimated-vs-actual operator tree (plan
//!    text plus the profiled actuals: rows, probes, comparisons, buffered
//!    bytes, per-operator q-error) is stored under
//!    `tests/explain_analyze/`. Wall times are excluded
//!    (`ExecProfile::render(false)`) so the snapshot is deterministic.
//!    A cardinality-estimation or executor-accounting change shows up as
//!    a readable text diff. Regenerate deliberate changes with:
//!
//!    ```text
//!    UPDATE_GOLDEN=1 cargo test --test explain_analyze
//!    ```
//!
//! 2. **A q-error bound** — for every E3 workload query under every
//!    scheme, the worst per-operator q-error (max(est/act, act/est)) must
//!    stay finite and under a generous ceiling. This is the paper's
//!    point-query slice, where the estimator has real statistics to work
//!    with; an estimate three orders of magnitude off means the stats
//!    pipeline broke, not that the workload got harder.

use std::fmt::Write as _;
use std::path::PathBuf;

use xmlrel::xmlgen::auction::{generate as gen_auction, AuctionConfig, AUCTION_DTD};
use xmlrel::xmlgen::queries::{WorkloadQuery, AUCTION_QUERIES};
use xmlrel::{all_schemes, Explain, XmlStore};

/// E3 workload slice: simple child-path queries (same ids golden_plans pins).
const E3_IDS: &[&str] = &["Q1", "Q3", "Q10"];

/// The query each golden snapshot is taken for.
const SNAPSHOT_ID: &str = "Q1";

/// E3 estimates must stay within this factor of the truth on the seeded
/// corpus (observed worst case is ~146x on the universal scheme, whose
/// single-table stats are the coarsest).
const Q_ERROR_CEILING: f64 = 256.0;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/explain_analyze")
}

fn e3_queries() -> Vec<&'static WorkloadQuery> {
    E3_IDS
        .iter()
        .filter_map(|id| AUCTION_QUERIES.iter().find(|q| q.id == *id))
        .collect()
}

/// Stores for every scheme, loaded with the same seeded auction corpus
/// the golden-plan gate uses.
fn stores() -> Vec<(String, XmlStore)> {
    let doc = gen_auction(&AuctionConfig::at_scale(0.3));
    all_schemes(AUCTION_DTD)
        .expect("schemes")
        .into_iter()
        .map(|scheme| {
            let name = scheme.name().to_string();
            let mut store = XmlStore::builder(scheme).open().expect("install");
            store.load_document("auction", &doc).expect("load");
            (name, store)
        })
        .collect()
}

/// Normalized snapshot: estimated plan, then profiled actuals without
/// wall time.
fn snapshot(store: &XmlStore, q: &WorkloadQuery) -> String {
    let out = store
        .request(q.text)
        .explain(Explain::Analyze)
        .run()
        .unwrap_or_else(|e| panic!("{}: analyze: {e}", q.id));
    let plan = out.plan.as_ref().expect("analyze carries a plan");
    let profile = out.profile.as_ref().expect("analyze carries a profile");
    let mut s = String::new();
    let _ = writeln!(s, "query: {}", q.text);
    let _ = writeln!(s, "items: {}", out.len());
    let _ = writeln!(s, "-- estimated --");
    s.push_str(plan.explain.trim_end());
    s.push('\n');
    let _ = writeln!(s, "-- actual --");
    s.push_str(profile.render(false).trim_end());
    s.push('\n');
    s
}

#[test]
fn explain_analyze_matches_golden() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let q = e3_queries()
        .into_iter()
        .find(|q| q.id == SNAPSHOT_ID)
        .expect("snapshot query in workload");

    let mut mismatches = Vec::new();
    for (scheme_name, store) in stores() {
        let actual = snapshot(&store, q);
        assert!(
            actual.contains("est=") && actual.contains("act="),
            "{scheme_name}: analyze output must pair estimates with \
             actuals:\n{actual}"
        );
        assert!(
            actual.contains("q-error:"),
            "{scheme_name}: analyze output must end with a q-error \
             summary:\n{actual}"
        );
        let path = dir.join(format!("analyze_{SNAPSHOT_ID}_{scheme_name}.txt"));
        if update {
            std::fs::write(&path, &actual).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
        if expected != actual {
            mismatches.push(format!(
                "{scheme_name}:\n--- expected\n{expected}\n+++ actual\n{actual}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} EXPLAIN ANALYZE snapshot(s) changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn e3_q_error_stays_bounded() {
    let mut worst: (f64, String) = (0.0, String::new());
    for (scheme_name, store) in stores() {
        for q in e3_queries() {
            let out = store
                .request(q.text)
                .explain(Explain::Analyze)
                .run()
                .unwrap_or_else(|e| panic!("{}/{}: analyze: {e}", scheme_name, q.id));
            let roll = out
                .profile
                .as_ref()
                .expect("analyze carries a profile")
                .rollup();
            let label = format!("{}/{}", scheme_name, q.id);
            assert!(
                roll.max_q_error.is_finite() && roll.max_q_error >= 1.0,
                "{label}: degenerate q-error {}",
                roll.max_q_error
            );
            assert!(
                roll.max_q_error <= Q_ERROR_CEILING,
                "{label}: worst operator estimate is {:.1}x off \
                 (ceiling {Q_ERROR_CEILING}); the stats pipeline regressed",
                roll.max_q_error
            );
            if roll.max_q_error > worst.0 {
                worst = (roll.max_q_error, label);
            }
        }
    }
    // The bound must stay meaningful: if estimates were exact everywhere
    // the ceiling would be dead weight, and if this starts failing the
    // ceiling was set too tight — either way, surface the observed worst.
    println!("worst E3 q-error: {:.2} ({})", worst.0, worst.1);
}
