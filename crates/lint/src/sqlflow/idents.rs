//! Identifier/schema cross-check: build a catalog from the constant
//! `CREATE TABLE` literals in the workspace, then verify every table and
//! column referenced by a constant-folded statement against it — a typo'd
//! column in one of the six backends fails the gate instead of surfacing
//! as a runtime error.
//!
//! Dynamic names are exempt by construction: a fold placeholder
//! (`lint_hole_*`) in table position makes the reference unverifiable, a
//! placeholder column definition marks the table *open* (its column set
//! is not fully known), and unqualified columns are only checked when the
//! statement reads exactly one known, closed table.

use std::collections::{BTreeMap, BTreeSet};

use reldb::sql::ast::{Expr, SelectItem, SelectStmt, Statement, TableRef};

use super::constsql::FoldedStmt;
use super::strings::is_hole_name;

/// One identifier that failed the cross-check.
#[derive(Debug, Clone)]
pub struct IdentFinding {
    pub file: String,
    pub line: u32,
    /// `unknown-table` or `unknown-column`.
    pub kind: &'static str,
    /// The offending identifier.
    pub name: String,
    /// The table the column was checked against (empty for tables).
    pub table: String,
    pub allowlisted: bool,
}

impl IdentFinding {
    /// The allowlist key for this finding: `<file>:<name>`.
    pub fn key(&self) -> String {
        format!("{}:{}", self.file, self.name)
    }
}

/// What the catalog knows about one table.
#[derive(Debug, Default)]
struct TableInfo {
    columns: BTreeSet<String>,
    /// True when the DDL contained a placeholder column (dynamic column
    /// set — membership checks are skipped).
    open: bool,
}

/// The DDL catalog plus per-statement reference checking.
pub struct Catalog {
    tables: BTreeMap<String, TableInfo>,
}

impl Catalog {
    /// Build from every constant `CREATE TABLE` in the folded corpus.
    pub fn build(stmts: &[FoldedStmt]) -> Catalog {
        let mut tables: BTreeMap<String, TableInfo> = BTreeMap::new();
        for fs in stmts {
            let Statement::CreateTable { name, columns, .. } = &fs.stmt else {
                continue;
            };
            if is_hole_name(name) {
                continue; // dynamically named table: not catalogable
            }
            let info = tables.entry(name.clone()).or_default();
            for c in columns {
                if is_hole_name(&c.name) {
                    info.open = true;
                } else {
                    info.columns.insert(c.name.clone());
                }
            }
        }
        Catalog { tables }
    }

    /// Number of cataloged tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Check every folded statement's references against the catalog.
    pub fn check(&self, stmts: &[FoldedStmt]) -> Vec<IdentFinding> {
        let mut out = Vec::new();
        for fs in stmts {
            let mut ck = Checker {
                cat: self,
                file: &fs.file,
                line: fs.line,
                out: &mut out,
            };
            ck.statement(&fs.stmt);
        }
        // One finding per (file, kind, name, table) — the same typo on
        // many lines is one fix.
        let mut seen = BTreeSet::new();
        out.retain(|f| seen.insert((f.file.clone(), f.kind, f.name.clone(), f.table.clone())));
        out
    }
}

/// Per-statement reference walker.
struct Checker<'a> {
    cat: &'a Catalog,
    file: &'a str,
    line: u32,
    out: &'a mut Vec<IdentFinding>,
}

impl Checker<'_> {
    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable { .. } => {}
            Statement::CreateIndex { table, columns, .. } => {
                if self.table_known(table) {
                    for c in columns {
                        self.column(table, c);
                    }
                }
            }
            Statement::Insert { table, columns, .. } => {
                if self.table_known(table) {
                    for c in columns.iter().flatten() {
                        self.column(table, c);
                    }
                }
            }
            Statement::Delete { table, predicate } => {
                if self.table_known(table) {
                    let scope = Scope::single(table);
                    if let Some(p) = predicate {
                        self.expr(p, &scope);
                    }
                }
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                if self.table_known(table) {
                    let scope = Scope::single(table);
                    for (c, e) in assignments {
                        self.column(table, c);
                        self.expr(e, &scope);
                    }
                    if let Some(p) = predicate {
                        self.expr(p, &scope);
                    }
                }
            }
            Statement::Select(s) => self.select(s),
            Statement::Explain { stmt, .. } => self.statement(stmt),
        }
    }

    fn select(&mut self, s: &SelectStmt) {
        let mut scope = Scope::default();
        if let Some(from) = &s.from {
            self.table_ref(from, &mut scope);
        }
        for item in &s.projections {
            if let SelectItem::Expr { expr, .. } = item {
                self.expr(expr, &scope);
            }
        }
        for e in s.predicate.iter().chain(s.order_by.iter().map(|(e, _)| e)) {
            self.expr(e, &scope);
        }
        if let Some(u) = &s.union_all {
            self.select(u);
        }
    }

    fn table_ref(&mut self, t: &TableRef, scope: &mut Scope) {
        match t {
            TableRef::Table { name, alias } => {
                let known = self.table_known(name);
                scope.add(alias.as_deref().unwrap_or(name), name, known);
            }
            TableRef::Join {
                left, right, on, ..
            } => {
                self.table_ref(left, scope);
                self.table_ref(right, scope);
                if let Some(on) = on {
                    // The ON clause sees everything bound so far.
                    let snap = scope.clone();
                    self.expr(on, &snap);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr, scope: &Scope) {
        match e {
            Expr::Column { qualifier, name } => {
                if is_hole_name(name) {
                    return;
                }
                match qualifier {
                    Some(q) => {
                        if let Some(Some(table)) = scope.lookup(q) {
                            let table = table.to_string();
                            self.column(&table, name);
                        }
                        // Unknown qualifier: dynamic table — nothing to
                        // check against.
                    }
                    None => {
                        if let Some(table) = scope.sole_known_table() {
                            let table = table.to_string();
                            self.column(&table, name);
                        }
                    }
                }
            }
            Expr::Binary { left, right, .. } => {
                self.expr(left, scope);
                self.expr(right, scope);
            }
            Expr::Unary { expr, .. } => self.expr(expr, scope),
            Expr::Function { args, .. } => {
                for a in args {
                    self.expr(a, scope);
                }
            }
            Expr::IsNull { expr, .. } => self.expr(expr, scope),
            Expr::Between { expr, low, high } => {
                self.expr(expr, scope);
                self.expr(low, scope);
                self.expr(high, scope);
            }
            Expr::InList { expr, list } => {
                self.expr(expr, scope);
                for e in list {
                    self.expr(e, scope);
                }
            }
            Expr::Like { expr, pattern } => {
                self.expr(expr, scope);
                self.expr(pattern, scope);
            }
            Expr::Literal(_) | Expr::Star => {}
        }
    }

    /// Record a table reference; returns true when the catalog knows it.
    fn table_known(&mut self, name: &str) -> bool {
        if is_hole_name(name) {
            return false;
        }
        if self.cat.tables.contains_key(name) {
            return true;
        }
        self.out.push(IdentFinding {
            file: self.file.to_string(),
            line: self.line,
            kind: "unknown-table",
            name: name.to_string(),
            table: String::new(),
            allowlisted: false,
        });
        false
    }

    /// Check a column against a known table (skipped for open tables).
    fn column(&mut self, table: &str, col: &str) {
        if is_hole_name(col) {
            return;
        }
        let Some(info) = self.cat.tables.get(table) else {
            return;
        };
        if info.open || info.columns.contains(col) {
            return;
        }
        self.out.push(IdentFinding {
            file: self.file.to_string(),
            line: self.line,
            kind: "unknown-column",
            name: col.to_string(),
            table: table.to_string(),
            allowlisted: false,
        });
    }
}

/// Alias → (table, known) bindings for one statement.
#[derive(Debug, Default, Clone)]
struct Scope {
    bindings: Vec<(String, String, bool)>,
}

impl Scope {
    fn single(table: &str) -> Scope {
        let mut s = Scope::default();
        s.add(table, table, true);
        s
    }

    fn add(&mut self, alias: &str, table: &str, known: bool) {
        self.bindings
            .push((alias.to_string(), table.to_string(), known));
    }

    /// Resolve a qualifier: `Some(Some(table))` when it names a known
    /// table, `Some(None)` when it names a dynamic one, `None` when the
    /// qualifier is unbound (not checkable).
    fn lookup(&self, alias: &str) -> Option<Option<&str>> {
        self.bindings
            .iter()
            .find(|(a, _, _)| a == alias)
            .map(|(_, t, known)| if *known { Some(t.as_str()) } else { None })
    }

    /// The statement's only table, when there is exactly one and it is
    /// known — the precondition for checking unqualified columns.
    fn sole_known_table(&self) -> Option<&str> {
        match self.bindings.as_slice() {
            [(_, t, true)] => Some(t.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conc::Workspace;
    use crate::sqlflow::constsql;

    fn check_src(src: &str) -> Vec<IdentFinding> {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", src)]);
        let consts = constsql::string_consts(&ws);
        let scan = constsql::scan(&ws, &consts);
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        Catalog::build(&scan.stmts).check(&scan.stmts)
    }

    #[test]
    fn typod_column_is_found() {
        let f = check_src(
            r#"fn f(db: &Db, doc: i64) {
                db.execute("CREATE TABLE inode (doc INT, pre INT, size INT)");
                db.query(&format!("SELECT pre, sizee FROM inode WHERE doc = {doc}"));
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "unknown-column");
        assert_eq!(f[0].name, "sizee");
        assert_eq!(f[0].table, "inode");
    }

    #[test]
    fn aliases_and_joins_resolve() {
        let f = check_src(
            r#"fn f(db: &Db) {
                db.execute("CREATE TABLE edge (doc INT, source INT, target INT)");
                db.query("SELECT t0.target FROM edge t0, edge t1 WHERE t1.source = t0.target");
                db.query("SELECT t0.target FROM edge t0 LEFT JOIN edge t1 ON t1.sourc = t0.target");
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].name, "sourc");
    }

    #[test]
    fn dynamic_tables_and_open_columns_are_exempt() {
        let f = check_src(
            r#"fn f(db: &Db, tbl: &str, cols: &str) {
                db.execute(&format!("CREATE TABLE {tbl} (doc INT, pre INT)"));
                db.execute(&format!("CREATE TABLE univ ({cols})"));
                db.query(&format!("SELECT anything FROM {tbl} WHERE doc = 1"));
                db.query("SELECT t_whatever FROM univ");
            }"#,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unknown_table_is_found() {
        let f = check_src(
            r#"fn f(db: &Db) {
                db.execute("CREATE TABLE inode (doc INT)");
                db.query("SELECT doc FROM inodes LIMIT 1");
            }"#,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "unknown-table");
        assert_eq!(f[0].name, "inodes");
    }
}
