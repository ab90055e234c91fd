//! Integration tests for the `--conc` gate.
//!
//! Three layers:
//! 1. **Real workspace**: parse the actual source tree, run all three
//!    analyses, and assert the committed state — zero unallowlisted
//!    Send/Sync chains, zero stale allowlist entries, zero lock cycles,
//!    zero atomics findings, and no `SharedFiles` debt (the entry this PR
//!    paid off must not come back).
//! 2. **Gate teeth**: injected defects — an `Rc` field on a handle type, a
//!    lock inversion, a load…store RMW, mixed orderings — must each fail
//!    with a diagnostic naming the offending path/site.
//! 3. **Report schema**: the lint and conclint JSON reports must round-trip
//!    through an independent JSON parser (`support/json.rs`), so CI
//!    artifacts stay machine-readable.

#[path = "support/json.rs"]
mod json;

use json::Json;
use lint::conc::{self, Allowlist, Workspace};
use std::path::PathBuf;

/// The workspace root, from this crate's manifest dir (crates/lint).
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

fn real_report() -> conc::ConcReport {
    let root = workspace_root();
    let roots = vec![root.join("src"), root.join("crates")];
    let ws = Workspace::load(&roots).expect("parse workspace");
    let allow = Allowlist::load(&root.join("CONC_ALLOWLIST.txt"));
    conc::analyze(&ws, &allow)
}

// ---- real workspace --------------------------------------------------------

#[test]
fn workspace_gate_is_clean() {
    let report = real_report();
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "conc gate must be clean on the committed tree:\n{}",
        failures.join("\n")
    );
    for r in &report.roots {
        assert!(!r.missing, "audited root {} disappeared", r.root);
    }
}

#[test]
fn workspace_has_no_lock_cycles_and_no_atomics_findings() {
    let report = real_report();
    assert!(report.locks.cycles.is_empty());
    assert!(report.atomics.findings.is_empty());
    // The locking and atomics the repo already has must be visible to the
    // analyses (if these go to zero the scanner broke, not the code).
    assert!(
        report.locks.sites.len() >= 5,
        "expected the ledger/metrics/trace lock sites, got {:?}",
        report.locks.sites
    );
    assert!(
        report.atomics.atomics.len() >= 3,
        "expected the cancel/stopping/inflight atomics, got {:?}",
        report.atomics.atomics
    );
}

#[test]
fn shared_files_debt_stays_paid() {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("CONC_ALLOWLIST.txt"));
    assert!(
        allow
            .entries
            .iter()
            .all(|e| !e.root.contains("SharedFiles") && !e.root.contains("MemBackend")),
        "SharedFiles was converted to Arc<RwLock<..>>; its allowlist entry must not return: \
         {:?}",
        allow.entries
    );
    let report = real_report();
    for r in &report.roots {
        if r.root == "reldb::SharedFiles" || r.root == "reldb::MemBackend" {
            assert!(
                r.is_send() && r.is_sync(),
                "{} regressed: {:?}",
                r.root,
                r.chains
            );
        }
    }
}

#[test]
fn ledger_and_cancel_handles_are_thread_safe() {
    let report = real_report();
    for name in ["core::Ledger", "obs::CancelToken", "obs::TraceSink"] {
        let r = report
            .roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("{name} not audited"));
        assert!(r.is_send() && r.is_sync(), "{name}: {:?}", r.chains);
    }
}

#[test]
fn allowlist_is_empty_and_every_audited_root_is_thread_safe() {
    // The concurrent-serving work paid off the last allowlist entries:
    // the committed file must carry zero live entries, and every audited
    // handle root must be fully Send + Sync with no excuses.
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("CONC_ALLOWLIST.txt"));
    assert!(
        allow.entries.is_empty(),
        "CONC_ALLOWLIST.txt may only shrink and is now empty; new entries \
         would reintroduce thread-safety debt: {:?}",
        allow.entries
    );
    let report = real_report();
    for r in &report.roots {
        assert!(
            r.is_send() && r.is_sync(),
            "{} must be Send + Sync with an empty allowlist: {:?}",
            r.root,
            r.chains
        );
    }
}

// ---- gate teeth ------------------------------------------------------------

#[test]
fn injected_rc_in_store_handle_fails_with_empty_allowlist() {
    // The teeth of the empty-allowlist gate: sneak an `Rc` back into the
    // store handle (the exact shape the Meter conversion removed) and
    // the audit must fail — there is no allowlist line to hide behind.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/store.rs",
        "pub struct XmlStore { db: Arc<RwLock<Database>>, meter: Meter }\n\
         pub struct Database { epoch: u64 }\n\
         pub struct Meter { tick: Rc<Cell<u64>> }",
    )]);
    let report = conc::analyze_rooted(&ws, &Allowlist::default(), &[("core", "XmlStore")]);
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert!(f.contains("core::XmlStore"), "{f}");
    assert!(
        f.contains("meter.tick"),
        "diagnostic must name the chain: {f}"
    );
}

#[test]
fn injected_rc_field_fails_with_path_naming_diagnostic() {
    let ws = Workspace::from_sources(&[(
        "crates/reldb/src/db.rs",
        "pub struct Database { catalog: Catalog }\n\
         pub struct Catalog { tables: Vec<String>, cache: Rc<RefCell<Stats>> }\n\
         pub struct Stats { rows: u64 }",
    )]);
    let report = conc::analyze_rooted(&ws, &Allowlist::default(), &[("reldb", "Database")]);
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert!(f.contains("reldb::Database"), "{f}");
    assert!(
        f.contains("catalog.cache"),
        "diagnostic must name the chain: {f}"
    );
    assert!(f.contains("crates/reldb/src/db.rs:2"), "{f}");
    assert!(f.contains("CONC_ALLOWLIST.txt"), "{f}");
}

#[test]
fn injected_lock_inversion_fails_with_readable_diff() {
    let ws = Workspace::from_sources(&[(
        "crates/reldb/src/wal.rs",
        "impl Wal {\n\
         fn commit(&self) { let c = self.catalog.lock(); let w = self.wal.lock(); go(c, w); }\n\
         fn replay(&self) { let w = self.wal.lock(); let c = self.catalog.lock(); go(c, w); }\n\
         }",
    )]);
    let report = conc::analyze_rooted(&ws, &Allowlist::default(), &[]);
    assert_eq!(report.locks.cycles.len(), 1);
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let f = &failures[0];
    assert!(f.contains("lock-order cycle"), "{f}");
    // The diff names both locks, both functions, and both sites.
    assert!(f.contains("Wal.catalog") && f.contains("Wal.wal"), "{f}");
    assert!(f.contains("`commit`") && f.contains("`replay`"), "{f}");
    assert!(f.contains("wal.rs:2") && f.contains("wal.rs:3"), "{f}");
}

#[test]
fn injected_rmw_and_mixed_orderings_fail() {
    let ws = Workspace::from_sources(&[(
        "crates/obs/src/serve.rs",
        "fn admit(inflight: &AtomicUsize) {\n\
         let n = inflight.load(Ordering::Acquire);\n\
         inflight.store(n + 1, Ordering::Release);\n\
         }\n\
         fn relaxed_peek(inflight: &AtomicUsize) -> usize {\n\
         inflight.load(Ordering::Relaxed)\n\
         }",
    )]);
    let report = conc::analyze_rooted(&ws, &Allowlist::default(), &[]);
    let kinds: Vec<&str> = report
        .atomics
        .findings
        .iter()
        .map(|f| f.kind.as_str())
        .collect();
    assert!(kinds.contains(&"load-store-rmw"), "{kinds:?}");
    assert!(kinds.contains(&"mixed-ordering"), "{kinds:?}");
    assert!(report.failures().len() >= 2);
}

#[test]
fn unallowlisted_entry_fails_but_allowlisted_passes() {
    let src = "pub struct H { cell: Rc<u8> }";
    let ws = Workspace::from_sources(&[("crates/reldb/src/h.rs", src)]);
    let bare = conc::analyze_rooted(&ws, &Allowlist::default(), &[("reldb", "H")]);
    assert_eq!(bare.failures().len(), 1);
    let allow = Allowlist::parse("reldb::H cell profile cell, single-threaded executor");
    let allowed = conc::analyze_rooted(&ws, &allow, &[("reldb", "H")]);
    assert!(allowed.failures().is_empty(), "{:?}", allowed.failures());
    // And once the debt is paid, the stale entry itself fails the gate.
    let paid = Workspace::from_sources(&[("crates/reldb/src/h.rs", "pub struct H { n: u8 }")]);
    let stale = conc::analyze_rooted(&paid, &allow, &[("reldb", "H")]);
    let failures = stale.failures();
    assert_eq!(failures.len(), 1);
    assert!(
        failures[0].contains("stale allowlist entry"),
        "{failures:?}"
    );
}

// ---- report schema round-trips ---------------------------------------------

fn parse_json(text: &str) -> Json {
    json::parse(text).expect("report must parse as JSON")
}

#[test]
fn conclint_report_roundtrips_through_json_parser() {
    let report = real_report();
    let parsed = parse_json(&report.to_json());
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("conclint/v1")
    );
    let roots = parsed
        .get("sendsync")
        .and_then(Json::as_arr)
        .expect("sendsync array");
    assert_eq!(roots.len(), report.roots.len());
    for (node, r) in roots.iter().zip(&report.roots) {
        assert_eq!(
            node.get("root").and_then(Json::as_str),
            Some(r.root.as_str())
        );
        let chains = node.get("chains").and_then(Json::as_arr).expect("chains");
        assert_eq!(chains.len(), r.chains.len());
        for (cn, c) in chains.iter().zip(&r.chains) {
            assert_eq!(cn.get("path").and_then(Json::as_str), Some(c.path.as_str()));
            assert_eq!(
                cn.get("line").and_then(Json::as_u64),
                Some(u64::from(c.line))
            );
        }
    }
    let locks = parsed.get("locks").expect("locks object");
    let sites = locks
        .get("acquisitions")
        .and_then(Json::as_arr)
        .expect("sites");
    assert_eq!(sites.len(), report.locks.sites.len());
    let atomics = parsed
        .get("atomics")
        .and_then(|a| a.get("atomics"))
        .and_then(Json::as_arr)
        .expect("atomics array");
    assert_eq!(atomics.len(), report.atomics.atomics.len());
}

#[test]
fn lint_violation_report_roundtrips_through_json_parser() {
    let violations = lint::lint_source(
        "bad.rs",
        "fn f(rows: &[u64]) -> u64 { rows[0] + path(\"a\\\"b\").unwrap() }",
    );
    assert!(!violations.is_empty());
    let parsed = parse_json(&lint::to_json(&violations));
    let arr = parsed.as_arr().expect("violations array");
    assert_eq!(arr.len(), violations.len());
    for (node, v) in arr.iter().zip(&violations) {
        assert_eq!(node.get("file").and_then(Json::as_str), Some("bad.rs"));
        assert_eq!(node.get("rule").and_then(Json::as_str), Some(v.rule));
        assert_eq!(
            node.get("line").and_then(Json::as_u64),
            Some(u64::from(v.line))
        );
        assert_eq!(
            node.get("message").and_then(Json::as_str),
            Some(v.message.as_str())
        );
    }
}

#[test]
fn empty_conclint_sections_still_parse() {
    // A workspace with no locks, no atomics, no findings must still emit
    // valid JSON (empty arrays, not truncated objects).
    let ws = Workspace::from_sources(&[("crates/reldb/src/a.rs", "pub struct H { n: u8 }")]);
    let report = conc::analyze_rooted(&ws, &Allowlist::default(), &[("reldb", "H")]);
    let parsed = parse_json(&report.to_json());
    assert_eq!(
        parsed
            .get("locks")
            .and_then(|l| l.get("cycles"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
}
