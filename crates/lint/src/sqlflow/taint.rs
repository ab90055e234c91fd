//! Intraprocedural string-flow taint analysis over the SQL-assembling
//! layers. Sources are the places untrusted text enters a translation
//! function — document text, element/attribute names, query literals —
//! modelled as (a) a vocabulary of binding names that carry such text and
//! (b) schema/text-returning calls whose results taint `let` bindings.
//! Sinks are the calls whose string argument becomes SQL: statement
//! execution, builder fragments, and the engine parser. The only
//! sanitizer is the blessed quoting seam (`sql_lit`/`sql_ident` in
//! `core::sqlgen`, re-exported from `reldb::sql::quote`): a balanced-paren
//! span under either call clears taint. Every flow that bypasses the seam
//! is reported with its full file:line chain from source to sink.
//!
//! The analysis is token-level and deliberately over-approximate: a
//! vocabulary name is tainted at use unless the function's signature
//! proves it non-stringy or a `let` rebinds it from a clean expression.
//! False positives route through the seam (the fix is the same as for a
//! true positive) or, when genuinely safe-by-construction, earn a
//! `SQL_ALLOWLIST.txt` entry with a justification.

use crate::conc::{ParsedFile, Workspace};
use crate::items::FnDef;
use crate::lexer::{Tok, TokKind};

use super::strings;

/// Binding names assumed to carry untrusted text wherever they appear.
/// These are the workspace's conventional names for document text, node
/// labels, table/registry names, and query-supplied strings.
const SOURCE_VOCAB: &[&str] = &[
    "name",
    "label",
    "needle",
    "key",
    "parent_key",
    "anchor",
    "tbl",
    "table",
    "stem",
    "pattern",
    "query_text",
    "doc_name",
    "s",
    "text",
    "value",
    "path",
];

/// Calls whose return value is schema- or document-derived text: a `let`
/// binding whose initializer calls one of these is tainted.
const SOURCE_CALLS: &[&str] = &[
    "element_table",
    "attribute_table",
    "all_element_tables",
    "row_text",
    "as_text",
    "concrete_paths",
    "elem_stem",
    "stems",
    "label_columns",
];

/// Method-call sinks: `.name(` whose string argument becomes SQL text.
const METHOD_SINKS: &[&str] = &[
    "execute",
    "query",
    "prepare",
    "cond",
    "add_table",
    "add_table_with",
    "render",
];

/// Free-function sinks (path-qualified calls included). `add_join` is
/// deliberately absent: it routes its table argument through `sql_ident`
/// inside its own body, where the builder method sinks verify it.
const FREE_SINKS: &[&str] = &["parse_statement", "parse_script"];

/// The blessed sanitizers: a balanced-paren span under either call is
/// quoted/validated text, so taint inside it does not reach the sink.
const SANITIZERS: &[&str] = &["sql_lit", "sql_ident"];

/// Accumulator methods that propagate taint from argument to receiver.
const PROPAGATORS: &[&str] = &["push", "push_str", "extend", "insert_str"];

/// One source→sink flow that bypasses the quoting seam.
#[derive(Debug, Clone)]
pub struct FlowFinding {
    pub file: String,
    pub fn_name: String,
    /// The root source binding or call (whitespace-free, for the key).
    pub source: String,
    pub source_line: u32,
    /// The sink call name.
    pub sink: String,
    pub sink_line: u32,
    /// Human-readable steps, `file:line: …` at every hop.
    pub chain: Vec<String>,
    pub allowlisted: bool,
}

impl FlowFinding {
    /// The allowlist key: `<file>:<fn>:<source>-><sink>`.
    pub fn key(&self) -> String {
        format!(
            "{}:{}:{}->{}",
            self.file, self.fn_name, self.source, self.sink
        )
    }

    /// The full chain as one indented block for diagnostics.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "`{}` reaches sink `{}` in {} ({}:{})",
            self.source, self.sink, self.fn_name, self.file, self.sink_line
        );
        for step in &self.chain {
            s.push_str("\n    ");
            s.push_str(step);
        }
        s
    }
}

/// Files the taint analysis covers: every layer that assembles SQL text
/// outside the seam itself (`sqlgen.rs` is the seam's home and exempt).
pub fn in_scope(file: &str) -> bool {
    let f = file.replace('\\', "/");
    if f.ends_with("/sqlgen.rs") {
        return false;
    }
    f.contains("crates/core/src/compile/")
        || f.ends_with("crates/core/src/update.rs")
        || f.ends_with("crates/core/src/store.rs")
        || f.ends_with("crates/core/src/publish.rs")
        || f.ends_with("crates/shredder/src/labels.rs")
        || f.ends_with("crates/shredder/src/docstore.rs")
        || f.ends_with("crates/shredder/src/pathsummary.rs")
}

/// How a binding became tainted: the root source plus the chain of hops,
/// each pre-formatted with file:line.
#[derive(Debug, Clone)]
struct Origin {
    root: String,
    root_line: u32,
    chain: Vec<String>,
}

/// Run the taint pass over every in-scope function. Also reports the
/// number of functions scanned (for the stats block).
pub fn analyze(ws: &Workspace) -> (Vec<FlowFinding>, usize) {
    let mut flows = Vec::new();
    let mut scanned = 0usize;
    for pf in &ws.files {
        if !in_scope(&pf.file) {
            continue;
        }
        for f in &pf.items.fns {
            if pf.test_mask.get(f.body.0).copied().unwrap_or(false) {
                continue; // test code is exempt, like every other analysis
            }
            scanned += 1;
            scan_fn(pf, f, &mut flows);
        }
    }
    // One finding per (fn, root source, sink line): the same tainted name
    // used twice in one argument list is one flow.
    let mut seen = std::collections::BTreeSet::new();
    flows.retain(|fl| {
        seen.insert((
            fl.file.clone(),
            fl.fn_name.clone(),
            fl.source.clone(),
            fl.sink_line,
        ))
    });
    (flows, scanned)
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Per-function taint state and scanning.
struct FnScan<'a> {
    pf: &'a ParsedFile,
    f: &'a FnDef,
    /// Workspace-relative path, used in chains and finding keys.
    file: String,
    taint: std::collections::BTreeMap<String, Origin>,
}

fn scan_fn(pf: &ParsedFile, f: &FnDef, flows: &mut Vec<FlowFinding>) {
    let mut st = FnScan {
        pf,
        f,
        file: super::rel_path(&pf.file),
        taint: std::collections::BTreeMap::new(),
    };
    // Vocabulary names start tainted…
    for &v in SOURCE_VOCAB {
        st.taint.insert(
            v.to_string(),
            Origin {
                root: v.to_string(),
                root_line: f.line,
                chain: vec![format!(
                    "{}:{}: `{}` carries untrusted text in `{}` (source vocabulary)",
                    st.file, f.line, v, f.name
                )],
            },
        );
    }
    // …unless the signature proves them non-stringy (`doc: i64`). A
    // stringy parameter upgrades the origin to name its declaration.
    for p in &f.params {
        if !SOURCE_VOCAB.contains(&p.name.as_str()) {
            continue;
        }
        if p.is_stringy() {
            st.taint.insert(
                p.name.clone(),
                Origin {
                    root: p.name.clone(),
                    root_line: f.line,
                    chain: vec![format!(
                        "{}:{}: parameter `{}: {}` of `{}` carries untrusted text",
                        st.file, f.line, p.name, p.ty, f.name
                    )],
                },
            );
        } else {
            st.taint.remove(&p.name);
        }
    }

    let toks = &pf.toks;
    let (start, end) = f.body;
    let mut i = start;
    while i < end.min(toks.len()) {
        // Sanitized spans contribute nothing anywhere.
        if let Some(past) = sanitizer_span(toks, i, end) {
            i = past;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "let" || t.text == "for") {
            // `if let` / `while let` initializers end at the block `{`,
            // like `for` — a statement `let` runs to its `;`.
            let conditional = t.text == "for"
                || (i > start
                    && toks[i - 1].kind == TokKind::Ident
                    && (toks[i - 1].text == "if" || toks[i - 1].text == "while"));
            i = st.binding(i, end, conditional);
            continue;
        }
        // Propagation: `recv.push_str(arg)` with a tainted arg taints recv.
        if t.kind == TokKind::Ident
            && PROPAGATORS.contains(&t.text.as_str())
            && i > start
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
        {
            let (_, cause) = st.region_taint(i + 2, end);
            if let Some((cause, name, line)) = cause {
                if let Some(recv) = receiver_name(toks, i - 1, start) {
                    let mut chain = cause.chain.clone();
                    chain.push(format!(
                        "{}:{}: tainted `{}` flows into `{}` via `.{}(`",
                        st.file, line, name, recv, t.text
                    ));
                    st.taint.insert(
                        recv,
                        Origin {
                            root: cause.root.clone(),
                            root_line: cause.root_line,
                            chain,
                        },
                    );
                }
            }
            i += 2; // resume inside the args so nested sinks are still seen
            continue;
        }
        // `write!(recv, "…", args)` / `writeln!` propagate the same way.
        if t.kind == TokKind::Ident
            && (t.text == "write" || t.text == "writeln")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "!"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, "("))
        {
            let recv = toks
                .get(i + 3)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            let (_, cause) = st.region_taint(i + 3, end);
            if let (Some(recv), Some((cause, name, line))) = (recv, cause) {
                if recv != name {
                    let mut chain = cause.chain.clone();
                    chain.push(format!(
                        "{}:{}: tainted `{}` flows into `{}` via `write!`",
                        st.file, line, name, recv
                    ));
                    st.taint.insert(
                        recv,
                        Origin {
                            root: cause.root.clone(),
                            root_line: cause.root_line,
                            chain,
                        },
                    );
                }
            }
            i += 3;
            continue;
        }
        // Sinks: scan the argument region for unsanitized tainted uses.
        if let Some(sink) = sink_at(toks, i, start) {
            let args_start = i + 1;
            let mut hits = Vec::new();
            st.region_uses(args_start + 1, end, &mut hits);
            for (origin, name, line) in hits {
                let mut chain = origin.chain.clone();
                chain.push(format!(
                    "{}:{}: tainted `{}` reaches SQL sink `{}(` without passing \
                     through sql_lit/sql_ident",
                    st.file, line, name, sink
                ));
                flows.push(FlowFinding {
                    file: st.file.clone(),
                    fn_name: st.f.name.clone(),
                    source: origin.root.clone(),
                    source_line: origin.root_line,
                    sink: sink.to_string(),
                    sink_line: t.line,
                    chain,
                    allowlisted: false,
                });
            }
        }
        i += 1;
    }
}

/// If `i` starts a sanitizer call (`sql_lit(` / `sql_ident(`), return the
/// index just past its balanced closing paren.
fn sanitizer_span(toks: &[Tok], i: usize, end: usize) -> Option<usize> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !SANITIZERS.contains(&t.text.as_str()) {
        return None;
    }
    if !toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < end.min(toks.len()) && depth > 0 {
        if is_punct(&toks[j], "(") {
            depth += 1;
        } else if is_punct(&toks[j], ")") {
            depth -= 1;
        }
        j += 1;
    }
    Some(j)
}

/// The sink name if token `i` is a sink call: a method sink preceded by
/// `.`, or a free sink (possibly path-qualified), followed by `(`.
fn sink_at(toks: &[Tok], i: usize, start: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) {
        return None;
    }
    let name = t.text.as_str();
    let after_dot = i > start && is_punct(&toks[i - 1], ".");
    if METHOD_SINKS.contains(&name) && after_dot {
        return Some(name);
    }
    if FREE_SINKS.contains(&name) && !after_dot {
        return Some(name);
    }
    None
}

/// Walk back over a `.`-separated chain to the receiver's own name:
/// for `self.sql.push_str(` at the `.` before `push_str`, yields `sql`.
fn receiver_name(toks: &[Tok], dot: usize, start: usize) -> Option<String> {
    if dot <= start {
        return None;
    }
    let t = &toks[dot - 1];
    if t.kind == TokKind::Ident && t.text != "self" {
        Some(t.text.clone())
    } else {
        None
    }
}

impl FnScan<'_> {
    /// Handle a `let`/`for` binding at token `i`; returns where the main
    /// scan should resume (the start of the initializer, so sinks inside
    /// it are still visited). `conditional` marks forms whose initializer
    /// ends at a block `{` (`for`, `if let`, `while let`).
    fn binding(&mut self, i: usize, end: usize, conditional: bool) -> usize {
        let toks = &self.pf.toks;
        let kw = toks[i].text.clone();
        // Collect the bound names: plain idents in the pattern, skipping
        // `mut`/`ref` and constructor names (`Some(x)` binds `x`).
        let mut names = Vec::new();
        let mut j = i + 1;
        let mut in_annotation = false; // after a lone `:`, until the `=`
        while j < end.min(toks.len()) {
            let t = &toks[j];
            if kw == "let" {
                if is_punct(t, "=") || (!in_annotation && is_punct(t, ";")) {
                    break;
                }
            } else if !in_annotation && t.kind == TokKind::Ident && t.text == "in" {
                break;
            }
            if is_punct(t, ":") && !toks.get(j + 1).is_some_and(|n| is_punct(n, ":")) {
                in_annotation = true;
            } else if t.kind == TokKind::Ident
                && !in_annotation
                && t.text != "mut"
                && t.text != "ref"
                && !toks
                    .get(j + 1)
                    .is_some_and(|n| is_punct(n, "(") || is_punct(n, "{") || is_punct(n, ":"))
                && !(j > 0 && is_punct(&toks[j - 1], ":"))
            {
                names.push(t.text.clone());
            }
            j += 1;
        }
        if j >= end.min(toks.len()) || is_punct(&toks[j], ";") {
            return j + 1; // `let x;` — uninitialized, nothing to decide
        }
        let rhs_start = j + 1;
        let rhs_end = rhs_extent(toks, rhs_start, end, conditional);
        // Does the initializer carry taint?
        let (_, cause) = self.region_taint_bounded(rhs_start, rhs_end);
        match cause {
            Some((origin, from, at)) => {
                for n in &names {
                    let mut chain = origin.chain.clone();
                    chain.push(format!(
                        "{}:{}: tainted `{}` flows into `{}` ({} binding)",
                        self.file, at, from, n, kw
                    ));
                    self.taint.insert(
                        n.clone(),
                        Origin {
                            root: origin.root.clone(),
                            root_line: origin.root_line,
                            chain,
                        },
                    );
                }
            }
            None => {
                // Clean initializer: rebinding launders a vocabulary name
                // (`let n = recs.len() as i64` is not text).
                for n in &names {
                    self.taint.remove(n);
                }
            }
        }
        rhs_start
    }

    /// Scan `[from, …)` up to the end of the enclosing paren region for
    /// the first tainted use; returns (region end, Some cause).
    fn region_taint(&self, from: usize, end: usize) -> (usize, Option<(Origin, String, u32)>) {
        let to = paren_region_end(&self.pf.toks, from, end);
        let (e, c) = self.region_taint_bounded(from, to);
        (e, c)
    }

    /// First tainted use in `[from, to)` — a tainted ident, a tainted
    /// format-string hole, or a source call — skipping sanitizer spans.
    fn region_taint_bounded(
        &self,
        from: usize,
        to: usize,
    ) -> (usize, Option<(Origin, String, u32)>) {
        let mut hits = Vec::new();
        self.region_uses_impl(from, to, &mut hits, true);
        let cause = hits.into_iter().next();
        (to, cause)
    }

    /// All tainted uses in a sink's SQL argument: the first top-level
    /// argument of the paren region opening just before `from`. Later
    /// arguments (row callbacks, flags) never become SQL text.
    fn region_uses(&self, from: usize, end: usize, out: &mut Vec<(Origin, String, u32)>) {
        let to = first_arg_end(&self.pf.toks, from, end);
        self.region_uses_impl(from, to, out, false);
    }

    fn region_uses_impl(
        &self,
        from: usize,
        to: usize,
        out: &mut Vec<(Origin, String, u32)>,
        include_source_calls: bool,
    ) {
        let toks = &self.pf.toks;
        let mut j = from;
        while j < to.min(toks.len()) {
            if let Some(past) = sanitizer_span(toks, j, to) {
                j = past;
                continue;
            }
            let t = &toks[j];
            if t.kind == TokKind::Str {
                // Named format holes are uses of the named binding.
                if let Some(content) = strings::decode(&t.text) {
                    for p in strings::split_format(&content) {
                        if let strings::Piece::Hole(Some(name)) = p {
                            if let Some(o) = self.taint.get(&name) {
                                out.push((o.clone(), name, t.line));
                            }
                        }
                    }
                }
                j += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                let followed_call = toks.get(j + 1).is_some_and(|n| is_punct(n, "("));
                if include_source_calls && followed_call && SOURCE_CALLS.contains(&t.text.as_str())
                {
                    out.push((
                        Origin {
                            root: format!("{}()", t.text),
                            root_line: t.line,
                            chain: vec![format!(
                                "{}:{}: `{}()` returns schema/document text",
                                self.file, t.line, t.text
                            )],
                        },
                        format!("{}()", t.text),
                        t.line,
                    ));
                    j += 1;
                    continue;
                }
                let path_qualified = j > 0 && is_punct(&toks[j - 1], ":");
                let field_or_spec = toks.get(j + 1).is_some_and(|n| is_punct(n, ":"));
                if !followed_call && !path_qualified && !field_or_spec {
                    if let Some(o) = self.taint.get(&t.text) {
                        out.push((o.clone(), t.text.clone(), t.line));
                    }
                }
            }
            j += 1;
        }
    }
}

/// End of the first top-level argument in the paren region whose opening
/// `(` sits just before `from`: the first `,` outside any nested parens,
/// brackets, or braces, or the region's closing `)`.
fn first_arg_end(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut paren = 1isize;
    let mut nest = 0isize; // `[`/`{` nesting
    let mut j = from;
    while j < end.min(toks.len()) {
        let t = &toks[j];
        if is_punct(t, "(") {
            paren += 1;
        } else if is_punct(t, ")") {
            paren -= 1;
            if paren == 0 {
                return j;
            }
        } else if is_punct(t, "[") || is_punct(t, "{") {
            nest += 1;
        } else if is_punct(t, "]") || is_punct(t, "}") {
            nest -= 1;
        } else if is_punct(t, ",") && paren == 1 && nest == 0 {
            return j;
        }
        j += 1;
    }
    j
}

/// End of the balanced paren region whose opening `(` sits just before
/// `from` (i.e. `from` is the first token inside).
fn paren_region_end(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut depth = 1isize;
    let mut j = from;
    while j < end.min(toks.len()) {
        if is_punct(&toks[j], "(") {
            depth += 1;
        } else if is_punct(&toks[j], ")") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

/// Extent of a binding initializer: to the `;` closing the statement for
/// a plain `let` (brace-aware, so `match … { … };` folds in), or to the
/// `{` opening the body for the conditional forms (`for`, `if let`,
/// `while let`).
fn rhs_extent(toks: &[Tok], from: usize, end: usize, conditional: bool) -> usize {
    let mut paren = 0isize;
    let mut brace = 0isize;
    let mut j = from;
    while j < end.min(toks.len()) {
        let t = &toks[j];
        if is_punct(t, "(") || is_punct(t, "[") {
            paren += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            if paren == 0 {
                return j; // closing something outside the initializer
            }
            paren -= 1;
        } else if is_punct(t, "{") {
            if conditional && paren == 0 && brace == 0 {
                return j; // the loop/if/while body
            }
            brace += 1;
        } else if is_punct(t, "}") {
            if brace == 0 {
                return j;
            }
            brace -= 1;
        } else if is_punct(t, ";") && paren == 0 && brace == 0 {
            return j;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(src: &str) -> Vec<FlowFinding> {
        let ws = Workspace::from_sources(&[("crates/core/src/compile/fix.rs", src)]);
        analyze(&ws).0
    }

    #[test]
    fn raw_interpolation_reaches_sink() {
        let f = flows(
            r#"fn find(db: &Db, name: &str) {
                db.query(&format!("SELECT * FROM edge WHERE label = '{name}'"));
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].source, "name");
        assert_eq!(f[0].sink, "query");
        assert_eq!(f[0].sink_line, 2);
        assert!(f[0].chain.iter().any(|s| s.contains("parameter `name")));
        assert!(f[0]
            .chain
            .last()
            .unwrap()
            .contains("crates/core/src/compile/fix.rs:2"));
    }

    #[test]
    fn seam_clears_taint() {
        let f = flows(
            r#"fn find(db: &Db, name: &str) {
                db.query(&format!("SELECT * FROM edge WHERE label = {}", sql_lit(name)));
            }"#,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_stringy_param_is_clean() {
        let f = flows(
            r#"fn find(db: &Db, table: i64, name: u32) {
                db.query(&format!("SELECT * FROM t WHERE a = {table} AND b = {name}"));
            }"#,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn accumulator_propagates_and_let_launders() {
        let f = flows(
            r#"fn build(db: &Db, label: &str, recs: &[R]) {
                let mut sql = String::from("SELECT * FROM t WHERE x = ");
                sql.push_str(label);
                let n = recs.len() as i64;
                db.execute(&sql);
                db.execute(&format!("DELETE FROM t WHERE n = {n}"));
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].source, "label");
        assert_eq!(f[0].sink, "execute");
        assert!(f[0].chain.iter().any(|s| s.contains("flows into `sql`")));
    }

    #[test]
    fn source_call_taints_binding() {
        let f = flows(
            r#"fn publish(db: &Db, scheme: &S) {
                let t = scheme.element_table(7);
                db.prepare(&format!("SELECT * FROM {t} WHERE doc = 1"));
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].source, "element_table()");
        assert_eq!(f[0].sink, "prepare");
        assert!(f[0].chain[0].contains("element_table()"));
    }

    #[test]
    fn sanitized_let_then_sink_is_clean() {
        let f = flows(
            r#"fn publish(db: &Db, scheme: &S) {
                let t = sql_ident(&scheme.element_table(7));
                db.prepare(&format!("SELECT * FROM {t} WHERE doc = 1"));
            }"#,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_files_are_exempt() {
        let hostile = r#"#[cfg(test)]
            mod tests {
                #[test]
                fn t(db: &Db, name: &str) { db.query(&format!("SELECT {name}")); }
            }"#;
        assert!(flows(hostile).is_empty());
        let ws = Workspace::from_sources(&[(
            "crates/obs/src/report.rs",
            r#"fn f(db: &Db, name: &str) { db.query(&format!("SELECT '{name}'")); }"#,
        )]);
        assert!(analyze(&ws).0.is_empty());
    }
}
