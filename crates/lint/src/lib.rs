//! `xmlrel-lint`: a from-scratch, token-level linter for this workspace.
//!
//! The workspace's reliability story depends on library code never
//! panicking on user input: a malformed XML document, a corrupt WAL frame,
//! or a hostile query must surface as a typed error, not an abort. Clippy
//! cannot enforce the project-specific parts of that contract, so this
//! crate implements the handful of rules we care about over a hand-written
//! lexer (no external parser dependencies; the build environment is
//! offline).
//!
//! Rules (see [`rules::RULES`]):
//! - `no-unwrap`, `no-expect`: no `.unwrap()` / `.expect(..)` in non-test
//!   library code.
//! - `no-panic`, `no-unreachable`, `no-todo`: no `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!`.
//! - `no-index`: no integer-literal subscripts (`row[0]`); use checked
//!   accessors.
//! - `no-len-truncate`: no `.len() as u32`-style truncating casts.
//! - `no-cost-truncate`: no `as u64`/`as usize` casts on cost/cardinality
//!   estimates outside `plan::cost`; estimates stay f64 end to end.
//! - `no-untraced-entrypoint`: public `query*`/`execute*`/`run*` fns in
//!   the execution-surface files (`core/src/store.rs`, `reldb/src/db.rs`)
//!   must open a trace span; deprecated shims are exempt.
//! - `no-unledgered-query`: the same entry points in `core/src/store.rs`
//!   must also reach the query ledger (directly or through `fetch`, the
//!   recording choke point), and `fetch` itself must record into it.
//! - `no-undeadlined-loop`: `while let .. = ..next..` operator loops in
//!   `reldb/src/exec/` must poll the cooperative cancel/deadline check so
//!   queries past their deadline stop promptly instead of draining their
//!   children to exhaustion.
//!
//! Suppress a finding with `// lint:allow(rule): justification` on the
//! offending line or alone on the line above. Bare `lint:allow` without a
//! rule name is itself reported (`bare-allow`).
//!
//! Beyond the token rules, `xmlrel-lint --conc` runs the cross-file
//! concurrency-readiness analyses (Send/Sync reachability, lock-order
//! graph, atomics discipline) in [`conc`], over the item-level parse in
//! [`items`]. Those findings are gated by the committed
//! `CONC_ALLOWLIST.txt`, not by `lint:allow` comments.

pub mod conc;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod sqlflow;

pub use rules::{check, Violation, RULES};

use std::path::{Path, PathBuf};
use xmlrel_obs::trace::json_quote;

/// Lint a single source string.
pub fn lint_source(file: &str, src: &str) -> Vec<Violation> {
    rules::check(file, &lexer::lex(src))
}

/// Directory names whose contents are test/bench scaffolding, exempt from
/// library-code rules.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Vendored dependency shims: not project library code, so not linted by
/// default.
const SKIP_CRATES: &[&str] = &["rand", "proptest"];

/// Collect the `.rs` files under `root` that the linter should scan.
pub fn collect_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let meta = std::fs::metadata(root)?;
    if meta.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            // Skip vendored crates when walking a `crates/` directory.
            if root.file_name().is_some_and(|n| n == "crates") && SKIP_CRATES.contains(&name) {
                continue;
            }
            collect_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every collected file under the given roots; returns all
/// violations, sorted by file then line.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for r in roots {
        collect_files(r, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut out = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        let name = f.to_string_lossy().into_owned();
        out.extend(lint_source(&name, &src));
    }
    Ok(out)
}

/// Render violations as a JSON array (machine-readable report). No serde:
/// the fields are simple enough to emit by hand.
pub fn to_json(violations: &[Violation]) -> String {
    let mut s = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"message\": {}}}{}\n",
            json_quote(&v.file),
            v.line,
            v.rule,
            json_quote(&v.message),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let v = vec![Violation {
            file: "a\"b.rs".into(),
            line: 3,
            rule: "no-unwrap",
            message: "has \"quotes\"\nand newline".into(),
        }];
        let j = to_json(&v);
        assert!(j.contains(r#""file": "a\"b.rs""#));
        assert!(j.contains(r#"\nand newline"#));
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
    }

    #[test]
    fn empty_json() {
        assert_eq!(to_json(&[]), "[\n]");
    }
}
