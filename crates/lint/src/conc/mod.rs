//! Concurrency-readiness analysis (`xmlrel-lint --conc`).
//!
//! ROADMAP item 1 (MVCC reads behind a real query server) needs
//! `XmlStore`/`Database` to become `Send + Sync`, interior locking at the
//! catalog/WAL choke points, and disciplined atomics on the shared
//! counters. This module is the static gate that (a) names exactly *why*
//! the handle types are thread-hostile today, as field chains checked
//! against a committed allowlist that may only shrink, (b) proves the lock
//! acquisition graph acyclic so the locking that threading introduces is
//! born deadlock-checked, and (c) flags undisciplined atomics (non-CAS
//! read-modify-write sequences, mixed ordering families).
//!
//! Three passes over an item-level parse ([`crate::items`]) of the whole
//! workspace:
//! - [`sendsync`] — Send/Sync reachability over the struct/field type
//!   graph, rooted at the public handle types.
//! - [`locks`] — `Mutex`/`RwLock` guard scopes, the lock-order graph, and
//!   cycle detection (intraprocedural; see module docs for limits).
//! - [`atomics`] — per-atomic ordering families and load…store
//!   read-modify-write detection.
//!
//! Unlike the token rules, these findings are not suppressed with
//! `lint:allow` comments: the Send/Sync debt lives in one committed file
//! (`CONC_ALLOWLIST.txt` at the workspace root) so the whole worklist is
//! readable in one place, every entry must still match a real finding
//! (stale entries fail the gate), and lock cycles / atomics findings are
//! never allowlistable at all.

pub mod atomics;
pub mod locks;
pub mod sendsync;

use crate::items::{self, Items};
use crate::lexer::{self, Tok};
use std::path::{Path, PathBuf};
use xmlrel_obs::trace::json_quote;

/// One parsed source file: tokens, items, and the test-region mask (test
/// code is exempt from all three analyses, like the token rules).
pub struct ParsedFile {
    /// Path as reported (normalized to `/` separators).
    pub file: String,
    /// Owning crate: the directory name under `crates/`, or `xmlrel` for
    /// the root `src/`.
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub items: Items,
    pub test_mask: Vec<bool>,
}

/// The whole workspace, parsed.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
}

/// Derive the crate name from a path like `crates/reldb/src/storage.rs`.
fn crate_of(file: &str) -> String {
    let norm = file.replace('\\', "/");
    if let Some(pos) = norm.find("crates/") {
        let rest = &norm[pos + "crates/".len()..];
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "xmlrel".to_string()
}

impl Workspace {
    /// Parse in-memory sources (tests and fixtures).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(file, src)| {
                let lexed = lexer::lex(src);
                let items = items::parse_items(&lexed.tokens);
                let test_mask = crate::rules::test_region_mask(&lexed.tokens);
                ParsedFile {
                    file: file.replace('\\', "/"),
                    crate_name: crate_of(file),
                    toks: lexed.tokens,
                    items,
                    test_mask,
                }
            })
            .collect();
        Workspace { files }
    }

    /// Parse every linted `.rs` file under the given roots.
    pub fn load(roots: &[PathBuf]) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for r in roots {
            crate::collect_files(r, &mut paths)?;
        }
        paths.sort();
        paths.dedup();
        let mut owned: Vec<(String, String)> = Vec::new();
        for p in &paths {
            let src = std::fs::read_to_string(p)?;
            owned.push((p.to_string_lossy().into_owned(), src));
        }
        let borrowed: Vec<(&str, &str)> = owned
            .iter()
            .map(|(f, s)| (f.as_str(), s.as_str()))
            .collect();
        Ok(Workspace::from_sources(&borrowed))
    }
}

/// One committed Send/Sync-debt entry: a root handle type plus the field
/// chain that makes it thread-hostile, with a free-form note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Qualified root, e.g. `reldb::Database`.
    pub root: String,
    /// Field chain from the root, e.g. `durability.backend`.
    pub path: String,
    /// Everything after the chain: justification / owning-roadmap note.
    pub note: String,
}

/// The committed allowlist (`CONC_ALLOWLIST.txt`).
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the allowlist format: one entry per line,
    /// `<root> <chain> <note...>`; `#` lines and blanks are skipped.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(root), Some(path)) = (parts.next(), parts.next()) else {
                continue;
            };
            entries.push(AllowEntry {
                root: root.to_string(),
                path: path.to_string(),
                note: parts.next().unwrap_or("").trim().to_string(),
            });
        }
        Allowlist { entries }
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Allowlist {
        match std::fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    fn contains(&self, root: &str, path: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.root == root && e.path == path)
    }
}

/// The combined concurrency-readiness report.
pub struct ConcReport {
    /// Per-root Send/Sync reachability results.
    pub roots: Vec<sendsync::RootReport>,
    /// Allowlist entries that matched no finding: the debt was paid, so
    /// the entry must be deleted (this is how "only shrink" is enforced).
    pub stale_allowlist: Vec<AllowEntry>,
    /// Lock acquisition sites, nesting edges, and any cycles.
    pub locks: locks::LockReport,
    /// Atomic usage inventory and discipline findings.
    pub atomics: atomics::AtomicsReport,
}

/// Run all three analyses over a parsed workspace.
pub fn analyze(ws: &Workspace, allow: &Allowlist) -> ConcReport {
    analyze_rooted(ws, allow, sendsync::DEFAULT_ROOTS)
}

/// [`analyze`] with an explicit root set (tests and fixtures).
pub fn analyze_rooted(ws: &Workspace, allow: &Allowlist, roots: &[(&str, &str)]) -> ConcReport {
    let mut root_reports = sendsync::audit(ws, roots);
    for r in &mut root_reports {
        for c in &mut r.chains {
            c.allowlisted = allow.contains(&r.root, &c.path);
        }
    }
    let stale: Vec<AllowEntry> = allow
        .entries
        .iter()
        .filter(|e| {
            !root_reports
                .iter()
                .any(|r| r.root == e.root && r.chains.iter().any(|c| c.path == e.path))
        })
        .cloned()
        .collect();
    ConcReport {
        roots: root_reports,
        stale_allowlist: stale,
        locks: locks::analyze(ws),
        atomics: atomics::analyze(ws),
    }
}

impl ConcReport {
    /// Everything that fails the gate, as human-readable diagnostics.
    /// Empty means the workspace is concurrency-clean modulo the
    /// committed allowlist.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.roots {
            for c in r.chains.iter().filter(|c| !c.allowlisted) {
                out.push(format!(
                    "send/sync: {} is {} via `{}`: {} ({}:{})\n  add to CONC_ALLOWLIST.txt only \
                     with a justification, or fix the field",
                    r.root,
                    c.kills(),
                    c.path,
                    c.reason,
                    c.file,
                    c.line
                ));
            }
        }
        for e in &self.stale_allowlist {
            out.push(format!(
                "stale allowlist entry: `{} {}` matches no finding — the debt was paid; \
                 delete the line from CONC_ALLOWLIST.txt (the allowlist may only shrink)",
                e.root, e.path
            ));
        }
        for cycle in &self.locks.cycles {
            out.push(format!("lock-order cycle:\n{}", cycle.describe()));
        }
        for f in &self.atomics.findings {
            out.push(format!("atomics: {}", f.message));
        }
        out
    }

    /// Machine-readable report (`target/conclint.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"conclint/v1\",\n  \"sendsync\": [\n");
        for (i, r) in self.roots.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"root\": {}, \"send\": {}, \"sync\": {}, \"chains\": [",
                json_quote(&r.root),
                r.is_send(),
                r.is_sync()
            ));
            for (j, c) in r.chains.iter().enumerate() {
                s.push_str(&format!(
                    "\n      {{\"path\": {}, \"type\": {}, \"kills\": \"{}\", \
                     \"reason\": {}, \"allowlisted\": {}, \"file\": {}, \"line\": {}}}{}",
                    json_quote(&c.path),
                    json_quote(&c.ty),
                    c.kills(),
                    json_quote(&c.reason),
                    c.allowlisted,
                    json_quote(&c.file),
                    c.line,
                    if j + 1 < r.chains.len() { "," } else { "" }
                ));
            }
            if !r.chains.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str(&format!(
                "]}}{}\n",
                if i + 1 < self.roots.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"stale_allowlist\": [");
        for (i, e) in self.stale_allowlist.iter().enumerate() {
            s.push_str(&format!(
                "{}{}",
                if i > 0 { ", " } else { "" },
                json_quote(&format!("{} {}", e.root, e.path))
            ));
        }
        s.push_str("],\n  \"locks\": {\n    \"acquisitions\": [\n");
        for (i, a) in self.locks.sites.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"lock\": {}, \"fn\": {}, \"file\": {}, \"line\": {}}}{}\n",
                json_quote(&a.lock),
                json_quote(&a.fn_name),
                json_quote(&a.file),
                a.line,
                if i + 1 < self.locks.sites.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("    ],\n    \"edges\": [\n");
        for (i, e) in self.locks.edges.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"from\": {}, \"to\": {}, \"fn\": {}, \"file\": {}, \
                 \"line\": {}}}{}\n",
                json_quote(&e.from),
                json_quote(&e.to),
                json_quote(&e.fn_name),
                json_quote(&e.file),
                e.line,
                if i + 1 < self.locks.edges.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("    ],\n    \"cycles\": [");
        for (i, c) in self.locks.cycles.iter().enumerate() {
            s.push_str(&format!(
                "{}{}",
                if i > 0 { ", " } else { "" },
                json_quote(&c.nodes.join(" -> "))
            ));
        }
        s.push_str("]\n  },\n  \"atomics\": {\n    \"atomics\": [\n");
        for (i, a) in self.atomics.atomics.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"id\": {}, \"orderings\": [{}], \"sites\": {}}}{}\n",
                json_quote(&a.id),
                a.orderings
                    .iter()
                    .map(|o| format!("\"{o}\""))
                    .collect::<Vec<_>>()
                    .join(", "),
                a.sites,
                if i + 1 < self.atomics.atomics.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("    ],\n    \"findings\": [\n");
        for (i, f) in self.atomics.findings.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"kind\": {}, \"id\": {}, \"message\": {}}}{}\n",
                json_quote(&f.kind),
                json_quote(&f.id),
                json_quote(&f.message),
                if i + 1 < self.atomics.findings.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("    ]\n  }\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_skips_comments() {
        let a = Allowlist::parse(
            "# the debt register\n\
             \n\
             reldb::Database durability.backend dyn StorageBackend — MVCC PR makes it Send\n\
             core::XmlStore db.durability.backend same chain, seen through the store\n",
        );
        assert_eq!(a.entries.len(), 2);
        assert!(a.contains("reldb::Database", "durability.backend"));
        assert!(!a.contains("reldb::Database", "other.chain"));
        assert!(a.entries[0].note.contains("MVCC"));
    }

    #[test]
    fn crate_names_derived_from_paths() {
        assert_eq!(crate_of("crates/reldb/src/storage.rs"), "reldb");
        assert_eq!(crate_of("crates\\core\\src\\store.rs"), "core");
        assert_eq!(crate_of("src/main.rs"), "xmlrel");
    }

    #[test]
    fn stale_allowlist_entries_reported() {
        let ws =
            Workspace::from_sources(&[("crates/reldb/src/a.rs", "pub struct Clean { n: u64 }")]);
        let allow = Allowlist::parse("reldb::Clean n paid off long ago");
        let report = analyze_rooted(&ws, &allow, &[("reldb", "Clean")]);
        assert_eq!(report.stale_allowlist.len(), 1);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("stale allowlist entry"),
            "{failures:?}"
        );
        assert!(failures[0].contains("only shrink"));
    }

    #[test]
    fn json_report_shape() {
        let ws =
            Workspace::from_sources(&[("crates/reldb/src/a.rs", "pub struct H { cell: Rc<u8> }")]);
        let report = analyze_rooted(&ws, &Allowlist::default(), &[("reldb", "H")]);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"conclint/v1\""));
        assert!(json.contains("\"sendsync\""));
        assert!(json.contains("\"locks\""));
        assert!(json.contains("\"atomics\""));
        assert!(json.contains("\"allowlisted\": false"));
    }
}
