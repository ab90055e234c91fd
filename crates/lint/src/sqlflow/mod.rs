//! SQL-construction analysis (`xmlrel-lint --sql`).
//!
//! The six translation backends assemble SQL as strings; the engine
//! executes whatever they produce. This module is the static gate that
//! keeps that surface injection-safe (DESIGN.md §16): three passes over
//! the same item-level parse the concurrency analyses use
//! ([`crate::conc::Workspace`]):
//!
//! - [`taint`] — intraprocedural string-flow taint analysis: untrusted
//!   text (document text, node labels, query literals) must pass through
//!   the `sql_lit`/`sql_ident` quoting seam before reaching an
//!   execute/parse/builder sink. Bypassing flows are reported as full
//!   file:line chains.
//! - [`constsql`] — constant-fragment parse check: literal-assembled SQL
//!   is constant-folded ([`strings`]) and parsed with `reldb::sql` at
//!   lint time, so a malformed keyword fails the gate before any test.
//! - [`idents`] — identifier/schema cross-check: table and column
//!   literals are verified against the DDL catalog recovered from the
//!   same fold, so a typo'd column in one backend fails the gate.
//!
//! Findings check against `SQL_ALLOWLIST.txt` at the workspace root, with
//! the same contract as `CONC_ALLOWLIST.txt`: an unallowlisted finding
//! fails, and a stale entry (matching no finding) also fails — the list
//! may only shrink. Keys are `flow <file>:<fn>:<source>-><sink>`,
//! `constsql <file>:<line>`, and `ident <file>:<name>`.

pub mod constsql;
pub mod idents;
pub mod strings;
pub mod taint;

use crate::conc::{AllowEntry, Allowlist, Workspace};
use xmlrel_obs::trace::json_quote;

/// Workspace-relative form of a scanned path, so allowlist keys and flow
/// chains are stable across checkouts: everything from the `crates/` (or
/// top-level `src/`) component on.
pub fn rel_path(file: &str) -> String {
    let f = file.replace('\\', "/");
    if let Some(pos) = f.find("crates/") {
        return f[pos..].to_string();
    }
    if let Some(pos) = f.find("src/") {
        return f[pos..].to_string();
    }
    f
}

/// Corpus-size counters for the report's stats block.
pub struct SqlStats {
    /// Functions the taint pass scanned.
    pub fns_scanned: usize,
    /// String literals constant-folded and parsed.
    pub literals_checked: usize,
    /// Tables recovered into the DDL catalog.
    pub tables_cataloged: usize,
}

/// The combined SQL-construction report.
pub struct SqlReport {
    pub flows: Vec<taint::FlowFinding>,
    pub const_findings: Vec<constsql::ConstFinding>,
    pub ident_findings: Vec<idents::IdentFinding>,
    /// Allowlist entries that matched no finding: the debt was paid, so
    /// the entry must be deleted (this is how "only shrink" is enforced).
    pub stale_allowlist: Vec<AllowEntry>,
    pub stats: SqlStats,
}

/// Allowlist kinds, doubling as the `root` column of `SQL_ALLOWLIST.txt`.
const KIND_FLOW: &str = "flow";
const KIND_CONSTSQL: &str = "constsql";
const KIND_IDENT: &str = "ident";

fn allowed(allow: &Allowlist, kind: &str, key: &str) -> bool {
    allow
        .entries
        .iter()
        .any(|e| e.root == kind && e.path == key)
}

/// Run all three analyses over a parsed workspace.
pub fn analyze(ws: &Workspace, allow: &Allowlist) -> SqlReport {
    let (mut flows, fns_scanned) = taint::analyze(ws);
    let consts = constsql::string_consts(ws);
    let scan = constsql::scan(ws, &consts);
    let catalog = idents::Catalog::build(&scan.stmts);
    let mut ident_findings = catalog.check(&scan.stmts);
    let mut const_findings = scan.findings;

    for f in &mut flows {
        f.allowlisted = allowed(allow, KIND_FLOW, &f.key());
    }
    for f in &mut const_findings {
        f.allowlisted = allowed(allow, KIND_CONSTSQL, &format!("{}:{}", f.file, f.line));
    }
    for f in &mut ident_findings {
        f.allowlisted = allowed(allow, KIND_IDENT, &f.key());
    }

    let stale: Vec<AllowEntry> = allow
        .entries
        .iter()
        .filter(|e| {
            let matched = match e.root.as_str() {
                KIND_FLOW => flows.iter().any(|f| f.key() == e.path),
                KIND_CONSTSQL => const_findings
                    .iter()
                    .any(|f| format!("{}:{}", f.file, f.line) == e.path),
                KIND_IDENT => ident_findings.iter().any(|f| f.key() == e.path),
                _ => false, // unknown kind is always stale
            };
            !matched
        })
        .cloned()
        .collect();

    SqlReport {
        flows,
        const_findings,
        ident_findings,
        stale_allowlist: stale,
        stats: SqlStats {
            fns_scanned,
            literals_checked: scan.checked,
            tables_cataloged: catalog.len(),
        },
    }
}

impl SqlReport {
    /// Everything that fails the gate, as human-readable diagnostics.
    /// Empty means the workspace's SQL construction is clean modulo the
    /// committed allowlist.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in self.flows.iter().filter(|f| !f.allowlisted) {
            out.push(format!(
                "sql-flow: {}\n  route the value through sql_lit/sql_ident (core::sqlgen), or \
                 add `flow {}` to SQL_ALLOWLIST.txt with a justification",
                f.describe(),
                f.key()
            ));
        }
        for f in self.const_findings.iter().filter(|f| !f.allowlisted) {
            out.push(format!(
                "sql-parse: constant SQL does not parse at {}:{}: {}\n  folded: {}\n  fix the \
                 literal, or add `constsql {}:{}` to SQL_ALLOWLIST.txt with a justification",
                f.file, f.line, f.error, f.folded, f.file, f.line
            ));
        }
        for f in self.ident_findings.iter().filter(|f| !f.allowlisted) {
            let detail = if f.table.is_empty() {
                format!("`{}` is not in any CREATE TABLE the lint can see", f.name)
            } else {
                format!("`{}` is not a column of `{}`", f.name, f.table)
            };
            out.push(format!(
                "sql-ident: {} at {}:{}: {}\n  fix the identifier, or add `ident {}` to \
                 SQL_ALLOWLIST.txt with a justification",
                f.kind,
                f.file,
                f.line,
                detail,
                f.key()
            ));
        }
        for e in &self.stale_allowlist {
            out.push(format!(
                "stale allowlist entry: `{} {}` matches no finding — the debt was paid; \
                 delete the line from SQL_ALLOWLIST.txt (the allowlist may only shrink)",
                e.root, e.path
            ));
        }
        out
    }

    /// Machine-readable report (`target/sqllint.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"sqllint/v1\",\n  \"flows\": [");
        for (i, f) in self.flows.iter().enumerate() {
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"fn\": {}, \"source\": {}, \
                 \"source_line\": {}, \"sink\": {}, \"sink_line\": {}, \
                 \"allowlisted\": {}, \"chain\": [",
                json_quote(&f.file),
                json_quote(&f.fn_name),
                json_quote(&f.source),
                f.source_line,
                json_quote(&f.sink),
                f.sink_line,
                f.allowlisted
            ));
            for (j, step) in f.chain.iter().enumerate() {
                s.push_str(&format!(
                    "\n      {}{}",
                    json_quote(step),
                    if j + 1 < f.chain.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "]}}{}",
                if i + 1 < self.flows.len() { "," } else { "" }
            ));
        }
        s.push_str("\n  ],\n  \"const_sql\": [");
        for (i, f) in self.const_findings.iter().enumerate() {
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"error\": {}, \
                 \"folded\": {}, \"allowlisted\": {}}}{}",
                json_quote(&f.file),
                f.line,
                json_quote(&f.error),
                json_quote(&f.folded),
                f.allowlisted,
                if i + 1 < self.const_findings.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("\n  ],\n  \"idents\": [");
        for (i, f) in self.ident_findings.iter().enumerate() {
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"kind\": \"{}\", \
                 \"name\": {}, \"table\": {}, \"allowlisted\": {}}}{}",
                json_quote(&f.file),
                f.line,
                f.kind,
                json_quote(&f.name),
                json_quote(&f.table),
                f.allowlisted,
                if i + 1 < self.ident_findings.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("\n  ],\n  \"stale_allowlist\": [");
        for (i, e) in self.stale_allowlist.iter().enumerate() {
            s.push_str(&format!(
                "\n    {{\"kind\": {}, \"key\": {}}}{}",
                json_quote(&e.root),
                json_quote(&e.path),
                if i + 1 < self.stale_allowlist.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str(&format!(
            "\n  ],\n  \"stats\": {{\"fns_scanned\": {}, \"literals_checked\": {}, \
             \"tables_cataloged\": {}}},\n  \"ok\": {}\n}}\n",
            self.stats.fns_scanned,
            self.stats.literals_checked,
            self.stats.tables_cataloged,
            self.failures().is_empty()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_matches_and_goes_stale() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/compile/fix.rs",
            r#"fn find(db: &Db, name: &str) {
                db.execute("CREATE TABLE edge (label TEXT)");
                db.query(&format!("SELECT * FROM edge WHERE label = '{name}'"));
            }"#,
        )]);
        let r = analyze(&ws, &Allowlist::default());
        assert_eq!(r.flows.len(), 1);
        assert!(!r.failures().is_empty());

        let key = r.flows[0].key();
        let allow = Allowlist::parse(&format!("flow {key} routed in PR 9"));
        let r = analyze(&ws, &allow);
        assert!(r.flows[0].allowlisted);
        // The only remaining failure class would be staleness; the entry
        // matches, so the gate is green.
        assert!(r.failures().is_empty(), "{:?}", r.failures());

        let allow = Allowlist::parse("flow crates/core/src/compile/gone.rs:f:x->query paid");
        let r = analyze(&ws, &allow);
        assert!(r.failures().iter().any(|m| m.contains("stale")));
    }

    #[test]
    fn json_has_schema_and_sections() {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", "fn f() {}")]);
        let j = analyze(&ws, &Allowlist::default()).to_json();
        assert!(j.contains("\"schema\": \"sqllint/v1\""));
        assert!(j.contains("\"flows\""));
        assert!(j.contains("\"const_sql\""));
        assert!(j.contains("\"idents\""));
        assert!(j.contains("\"ok\": true"));
    }
}
