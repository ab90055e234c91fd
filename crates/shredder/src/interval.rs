//! The **interval** (pre/size/level) mapping — Grust's XPath accelerator.
//!
//! ```text
//! inode(doc, pre, size, level, parent, ordinal, kind, name, value)
//! ```
//!
//! The subtree of a node with pre-order number `pre` and `size` descendants
//! occupies exactly `pre+1 ..= pre+size`, so the descendant axis becomes a
//! *range predicate* instead of a join fixpoint:
//!
//! ```sql
//! -- //a//b
//! SELECT d.* FROM inode a, inode d
//! WHERE a.name = 'a' AND d.name = 'b'
//!   AND d.pre > a.pre AND d.pre <= a.pre + a.size
//! ```
//!
//! which the engine executes with the interval (structural) join operator.
//! `level` supports the child axis as `descendant AND level = a.level + 1`;
//! `parent` is also materialized for direct child joins.

use reldb::{row_int, row_text, Database, Value};
use xmlpar::Document;

use crate::error::Result;
use crate::reconstruct::rebuild;
use crate::scheme::{tally, MappingScheme, ShredStats};
use crate::walk::{flatten, NodeRec, RecKind};

/// The interval scheme.
#[derive(Debug, Clone, Default)]
pub struct IntervalScheme {
    /// Create an index on the `value` column at install time.
    pub with_value_index: bool,
}

impl IntervalScheme {
    /// Scheme with default options.
    pub fn new() -> IntervalScheme {
        IntervalScheme::default()
    }

    /// The node table's name.
    pub fn table(&self) -> &'static str {
        "inode"
    }
}

impl MappingScheme for IntervalScheme {
    fn name(&self) -> &'static str {
        "interval"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(
            "CREATE TABLE inode (
                doc INT NOT NULL,
                pre INT NOT NULL,
                size INT NOT NULL,
                level INT NOT NULL,
                parent INT,
                ordinal INT NOT NULL,
                kind TEXT NOT NULL,
                name TEXT,
                value TEXT
            )",
        )?;
        db.execute("CREATE INDEX inode_pre ON inode (pre, doc)")?;
        db.execute("CREATE INDEX inode_name ON inode (name)")?;
        db.execute("CREATE INDEX inode_parent ON inode (parent, doc)")?;
        if self.with_value_index {
            db.execute("CREATE INDEX inode_value ON inode (value)")?;
        }
        Ok(())
    }

    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats> {
        let recs = flatten(doc);
        let stats = tally(&recs);
        let rows: Vec<Vec<Value>> = recs
            .iter()
            .map(|r| {
                vec![
                    Value::Int(doc_id),
                    Value::Int(r.pre),
                    Value::Int(r.size),
                    Value::Int(r.level),
                    r.parent.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(r.ordinal),
                    Value::text(r.kind.tag()),
                    r.name.clone().map(Value::Text).unwrap_or(Value::Null),
                    r.value.clone().map(Value::Text).unwrap_or(Value::Null),
                ]
            })
            .collect();
        db.bulk_insert("inode", rows)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        let mut recs = Vec::new();
        db.prepare(&format!(
            "SELECT pre, size, level, parent, ordinal, kind, name, value \
             FROM inode WHERE doc = {doc_id}"
        ))?
        .run(&db.limits, false, |row| {
            recs.push(NodeRec {
                pre: row_int(&row, 0).unwrap_or(0),
                size: row_int(&row, 1).unwrap_or(0),
                level: row_int(&row, 2).unwrap_or(0),
                parent: row_int(&row, 3),
                ordinal: row_int(&row, 4).unwrap_or(0),
                kind: RecKind::from_tag(row_text(&row, 5).unwrap_or("")).unwrap_or(RecKind::Elem),
                name: row_text(&row, 6).map(str::to_string),
                value: row_text(&row, 7).map(str::to_string),
            });
            Ok(())
        })
        .0?;
        rebuild(recs)
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        match db.execute(&format!("DELETE FROM inode WHERE doc = {doc_id}"))? {
            reldb::ExecResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn tables(&self, _db: &Database) -> Vec<String> {
        vec!["inode".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = "<a><b><c>x</c></b><b><c>y</c></b><d/></a>";

    fn setup_with(xml: &str) -> (Database, IntervalScheme) {
        let mut db = Database::new();
        let s = IntervalScheme::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(xml).unwrap()).unwrap();
        (db, s)
    }

    #[test]
    fn round_trip() {
        let (db, s) = setup_with(XML);
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            XML
        );
    }

    #[test]
    fn descendant_axis_as_range_predicate() {
        let (db, _) = setup_with(XML);
        // //b//text(): descendants of b that are text.
        let q = db
            .query(
                "SELECT d.value FROM inode a, inode d \
                 WHERE a.name = 'b' AND d.kind = 'text' \
                   AND d.pre > a.pre AND d.pre <= a.pre + a.size \
                 ORDER BY d.pre",
            )
            .unwrap();
        let vals: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["x", "y"]);
    }

    #[test]
    fn child_axis_via_parent_column() {
        let (db, _) = setup_with(XML);
        let q = db
            .query(
                "SELECT c.name FROM inode p, inode c \
                 WHERE p.name = 'a' AND c.parent = p.pre AND c.doc = p.doc \
                 ORDER BY c.ordinal",
            )
            .unwrap();
        let names: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["b", "b", "d"]);
    }

    #[test]
    fn level_column_consistent_with_parent_depth() {
        let (db, _) = setup_with(XML);
        let q = db
            .query(
                "SELECT COUNT(*) FROM inode c, inode p \
                 WHERE c.parent = p.pre AND c.level != p.level + 1",
            )
            .unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn structural_join_plan_used() {
        let (db, _) = setup_with(XML);
        let prepared = db
            .prepare(
                "SELECT d.name FROM inode a, inode d \
                 WHERE a.name = 'b' AND d.pre > a.pre AND d.pre <= a.pre + a.size",
            )
            .unwrap();
        let text = reldb::plan::physical::explain_physical(prepared.physical());
        assert!(text.contains("IntervalJoin"), "{text}");
    }

    #[test]
    fn delete_and_stats() {
        let (mut db, s) = setup_with(XML);
        let st = s.storage_stats(&db);
        assert_eq!(st.rows, 8);
        assert_eq!(s.delete_document(&mut db, 1).unwrap(), 8);
        assert_eq!(s.storage_stats(&db).rows, 0);
    }
}
