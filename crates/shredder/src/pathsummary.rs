//! Path summaries (DataGuide-style): the set of distinct root-to-element
//! label paths per document.
//!
//! Schemes without a native descendant axis (edge, binary, universal)
//! answer `//` and `*` steps by **path expansion**: a pattern like
//! `//item/name` is matched against the stored concrete paths and the
//! translator emits one child-chain query per match, `UNION ALL`ed
//! together — the technique the tutorial attributes to the DTD/DataGuide
//! line of work, and the reason those schemes degrade on deep `//`
//! queries.

use std::collections::BTreeSet;

use reldb::{row_text, Database, Value};
use xmlpar::Document;

use crate::error::Result;

/// Maintains a `<prefix>_paths(doc, path)` table.
#[derive(Debug, Clone)]
pub struct PathSummary {
    /// Table-name prefix (matches the owning scheme).
    pub prefix: &'static str,
}

impl PathSummary {
    /// The summary table's name.
    pub fn table(&self) -> String {
        format!("{}_paths", self.prefix)
    }

    /// Create the summary table.
    pub fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(&format!(
            "CREATE TABLE {} (doc INT NOT NULL, path TEXT NOT NULL)",
            self.table()
        ))?;
        Ok(())
    }

    /// Record a document's distinct element label paths
    /// (`/site/regions/region` form).
    pub fn record(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<usize> {
        let mut paths: BTreeSet<String> = BTreeSet::new();
        collect(doc, doc.root(), String::new(), &mut paths);
        let n = paths.len();
        let rows: Vec<Vec<Value>> = paths
            .into_iter()
            .map(|p| vec![Value::Int(doc_id), Value::Text(p)])
            .collect();
        db.bulk_insert(&self.table(), rows)?;
        Ok(n)
    }

    /// All distinct paths (across documents, or for one document).
    pub fn paths(&self, db: &Database, doc_id: Option<i64>) -> Result<Vec<String>> {
        let filter = match doc_id {
            Some(d) => format!(" WHERE doc = {d}"),
            None => String::new(),
        };
        let mut out = BTreeSet::new();
        db.prepare(&format!("SELECT path FROM {}{filter}", self.table()))?
            .run(&db.limits, false, |row| {
                if let Some(p) = row_text(&row, 0) {
                    out.insert(p.to_string());
                }
                Ok(())
            })
            .0?;
        Ok(out.into_iter().collect())
    }

    /// Drop a document's summary rows.
    pub fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        match db.execute(&format!(
            "DELETE FROM {} WHERE doc = {doc_id}",
            self.table()
        ))? {
            reldb::ExecResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }
}

fn collect(doc: &Document, node: xmlpar::NodeId, prefix: String, out: &mut BTreeSet<String>) {
    let Some(name) = doc.name(node) else { return };
    let path = format!("{prefix}/{}", name.as_label());
    for &c in doc.children(node) {
        collect(doc, c, path.clone(), out);
    }
    out.insert(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_distinct_paths() {
        let mut db = Database::new();
        let ps = PathSummary { prefix: "edge" };
        ps.install(&mut db).unwrap();
        let doc = Document::parse("<a><b><c/><c/></b><b/><d/></a>").unwrap();
        let n = ps.record(&mut db, 1, &doc).unwrap();
        assert_eq!(n, 4); // /a, /a/b, /a/b/c, /a/d
        let paths = ps.paths(&db, Some(1)).unwrap();
        assert_eq!(paths, vec!["/a", "/a/b", "/a/b/c", "/a/d"]);
    }

    #[test]
    fn multiple_documents_merge_or_filter() {
        let mut db = Database::new();
        let ps = PathSummary { prefix: "bin" };
        ps.install(&mut db).unwrap();
        ps.record(&mut db, 1, &Document::parse("<a><b/></a>").unwrap())
            .unwrap();
        ps.record(&mut db, 2, &Document::parse("<a><c/></a>").unwrap())
            .unwrap();
        assert_eq!(ps.paths(&db, None).unwrap().len(), 3);
        assert_eq!(ps.paths(&db, Some(2)).unwrap(), vec!["/a", "/a/c"]);
        assert_eq!(ps.delete_document(&mut db, 1).unwrap(), 2);
        assert_eq!(ps.paths(&db, None).unwrap().len(), 2);
    }
}
