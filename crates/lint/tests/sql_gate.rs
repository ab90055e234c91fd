//! Integration tests for the `--sql` gate.
//!
//! Three layers, mirroring `conc_gate.rs`:
//! 1. **Real workspace**: parse the actual source tree, run all three SQL
//!    analyses against the committed `SQL_ALLOWLIST.txt`, and assert the
//!    gate is clean — and that the corpus is actually seen (non-trivial
//!    statement and function counts, the six backends' tables cataloged).
//! 2. **Gate teeth**: injected defects — a raw interpolation flow, a
//!    typo'd column, a malformed constant fragment — must each fail with
//!    a diagnostic naming the site (and, for flows, the full source→sink
//!    chain with file:line at both ends).
//! 3. **Report schema**: `target/sqllint.json` must round-trip through
//!    an independent JSON parser (`support/json.rs`), so CI artifacts
//!    stay machine-readable.

#[path = "support/json.rs"]
mod json;

use json::Json;
use lint::conc::{Allowlist, Workspace};
use lint::sqlflow::{self, SqlReport};
use std::path::PathBuf;

/// The workspace root, from this crate's manifest dir (crates/lint).
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

fn real_report() -> SqlReport {
    let root = workspace_root();
    let roots = vec![root.join("src"), root.join("crates")];
    let ws = Workspace::load(&roots).expect("parse workspace");
    let allow = Allowlist::load(&root.join("SQL_ALLOWLIST.txt"));
    sqlflow::analyze(&ws, &allow)
}

// ---- real workspace --------------------------------------------------------

#[test]
fn workspace_sql_gate_is_clean() {
    let report = real_report();
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "sql gate must be clean on the committed tree:\n{}",
        failures.join("\n")
    );
}

#[test]
fn workspace_sql_corpus_is_actually_seen() {
    // If these go to zero the scanner broke, not the code: the six
    // backends' translation layer is full of SQL.
    let report = real_report();
    assert!(
        report.stats.fns_scanned >= 100,
        "taint pass saw only {} fn(s)",
        report.stats.fns_scanned
    );
    assert!(
        report.stats.literals_checked >= 40,
        "const-SQL pass parsed only {} literal(s)",
        report.stats.literals_checked
    );
    // The closed-catalog schemes (edge, interval, dewey, binary text,
    // inline text, universal meta) all have literal DDL.
    assert!(
        report.stats.tables_cataloged >= 6,
        "only {} table(s) cataloged",
        report.stats.tables_cataloged
    );
}

#[test]
fn workspace_allowlist_entries_are_all_live() {
    // Redundant with failures() but pins the shrink-only contract from
    // the allowlist side: every committed entry matches a live finding.
    let report = real_report();
    assert!(
        report.stale_allowlist.is_empty(),
        "stale SQL_ALLOWLIST entries: {:?}",
        report.stale_allowlist
    );
}

// ---- gate teeth ------------------------------------------------------------

/// A fixture file in the taint pass's scope plus DDL for the tables it
/// mentions (so the ident pass has a catalog to check against).
fn fixture(src: &str) -> SqlReport {
    let ws = Workspace::from_sources(&[("crates/core/src/compile/fix.rs", src)]);
    sqlflow::analyze(&ws, &Allowlist::default())
}

#[test]
fn injected_raw_interpolation_fails_with_full_chain() {
    let report = fixture(
        r#"fn setup(db: &Db) { db.execute("CREATE TABLE edge (doc INT, label TEXT)"); }
        fn find(db: &Db, label: &str) {
            let mut sql = String::from("SELECT doc FROM edge WHERE label = '");
            sql.push_str(label);
            sql.push('\'');
            db.query(&sql);
        }"#,
    );
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    // The diagnostic names the sink site, the full chain with file:line
    // at both ends, and the remediation.
    assert!(f.contains("sql-flow"), "{f}");
    assert!(
        f.contains("crates/core/src/compile/fix.rs:2"),
        "source end must carry file:line: {f}"
    );
    assert!(
        f.contains("crates/core/src/compile/fix.rs:6"),
        "sink end must carry file:line: {f}"
    );
    assert!(f.contains("carries untrusted text"), "{f}");
    assert!(f.contains("`label"), "{f}");
    assert!(f.contains("flows into `sql`"), "{f}");
    assert!(f.contains("sql_lit/sql_ident"), "{f}");
    assert!(f.contains("SQL_ALLOWLIST.txt"), "{f}");
}

#[test]
fn injected_typod_column_fails_naming_table_and_column() {
    let report = fixture(
        r#"fn f(db: &Db, doc: i64) {
            db.execute("CREATE TABLE inode (doc INT, pre INT, size INT, level INT)");
            db.query(&format!("SELECT pre, sizee FROM inode WHERE doc = {doc}"));
        }"#,
    );
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert!(f.contains("sql-ident"), "{f}");
    assert!(f.contains("`sizee` is not a column of `inode`"), "{f}");
    assert!(f.contains("crates/core/src/compile/fix.rs:3"), "{f}");
}

#[test]
fn injected_malformed_constant_fragment_fails_with_parser_error() {
    let report = fixture(
        r#"fn f(db: &Db) {
            db.query("SELECT pre FORM inode LIMIT 1");
        }"#,
    );
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert!(f.contains("sql-parse"), "{f}");
    assert!(f.contains("crates/core/src/compile/fix.rs:2"), "{f}");
    assert!(f.contains("folded: SELECT pre FORM inode"), "{f}");
}

#[test]
fn seam_routed_version_of_each_fixture_is_clean() {
    let report = fixture(
        r#"fn setup(db: &Db) { db.execute("CREATE TABLE edge (doc INT, label TEXT)"); }
        fn find(db: &Db, label: &str) {
            db.query(&format!("SELECT doc FROM edge WHERE label = {}", sql_lit(label)));
        }"#,
    );
    assert!(report.failures().is_empty(), "{:?}", report.failures());
}

#[test]
fn unallowlisted_flow_fails_but_allowlisted_passes_and_stale_fails() {
    let src = r#"fn f(db: &Db, name: &str) {
        db.execute("CREATE TABLE t (name TEXT)");
        db.query(&format!("SELECT name FROM t WHERE name = '{name}'"));
    }"#;
    let ws = Workspace::from_sources(&[("crates/core/src/compile/fix.rs", src)]);
    let bare = sqlflow::analyze(&ws, &Allowlist::default());
    assert_eq!(bare.failures().len(), 1);
    let key = bare.flows[0].key();

    let allow = Allowlist::parse(&format!("flow {key} known-safe, tracked in ROADMAP item 4"));
    let allowed = sqlflow::analyze(&ws, &allow);
    assert!(allowed.failures().is_empty(), "{:?}", allowed.failures());

    // Once the flow is routed through the seam, the entry goes stale and
    // itself fails the gate (shrink-only, same contract as conc).
    let paid = Workspace::from_sources(&[(
        "crates/core/src/compile/fix.rs",
        r#"fn f(db: &Db, name: &str) {
            db.execute("CREATE TABLE t (name TEXT)");
            db.query(&format!("SELECT name FROM t WHERE name = {}", sql_lit(name)));
        }"#,
    )]);
    let stale = sqlflow::analyze(&paid, &allow);
    let failures = stale.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("stale allowlist entry"),
        "{failures:?}"
    );
    assert!(failures[0].contains("may only shrink"), "{failures:?}");
}

// ---- report schema round-trips ---------------------------------------------

#[test]
fn sqllint_report_roundtrips_through_json_parser() {
    let report = real_report();
    let parsed = json::parse(&report.to_json()).expect("report must parse as JSON");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("sqllint/v1")
    );
    let flows = parsed.get("flows").and_then(Json::as_arr).expect("flows");
    assert_eq!(flows.len(), report.flows.len());
    for (node, f) in flows.iter().zip(&report.flows) {
        assert_eq!(
            node.get("file").and_then(Json::as_str),
            Some(f.file.as_str())
        );
        assert_eq!(
            node.get("fn").and_then(Json::as_str),
            Some(f.fn_name.as_str())
        );
        assert_eq!(
            node.get("sink_line").and_then(Json::as_u64),
            Some(u64::from(f.sink_line))
        );
        let chain = node.get("chain").and_then(Json::as_arr).expect("chain");
        assert_eq!(chain.len(), f.chain.len());
    }
    let idents = parsed.get("idents").and_then(Json::as_arr).expect("idents");
    assert_eq!(idents.len(), report.ident_findings.len());
    let stats = parsed.get("stats").expect("stats");
    assert_eq!(
        stats.get("fns_scanned").and_then(Json::as_u64),
        Some(report.stats.fns_scanned as u64)
    );
    assert!(parsed.get("ok").is_some());
}

#[test]
fn sqllint_report_with_findings_roundtrips_too() {
    // Chains contain backquotes and arrows; make sure escaping holds up
    // when the report is non-empty.
    let report = fixture(
        r#"fn f(db: &Db, name: &str) {
            db.query(&format!("SELECT x FROM nosuch WHERE n = '{name}'"));
            db.query("SELECT pre FORM t LIMIT 1");
        }"#,
    );
    assert!(!report.flows.is_empty());
    assert!(!report.const_findings.is_empty());
    let parsed = json::parse(&report.to_json()).expect("parse");
    assert_eq!(
        parsed
            .get("flows")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(report.flows.len())
    );
    assert_eq!(
        parsed
            .get("const_sql")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(report.const_findings.len())
    );
}
