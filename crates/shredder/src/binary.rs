//! The **binary** (attribute-partitioned) mapping (Florescu & Kossmann
//! 1999): the edge table horizontally partitioned by label.
//!
//! - one table per element label:   `bin_el_<label>(doc, pre, source, ordinal)`
//! - one table per attribute label: `bin_at_<label>(doc, pre, source, ordinal, value)`
//! - one shared text table:         `bin_text(doc, pre, source, ordinal, value)`
//!
//! A path step touches only its label's table, so scans are smaller than
//! the edge scheme's, at the cost of many tables and of `UNION ALL` for
//! wildcard steps.

use reldb::{row_int, row_text, Database, ExecResult, Value};
use xmlpar::Document;

use crate::error::Result;
use crate::labels::LabelRegistry;
use crate::pathsummary::PathSummary;
use crate::reconstruct::rebuild;
use crate::scheme::{tally, MappingScheme, ShredStats};
use crate::walk::{flatten, NodeRec, RecKind};

/// The binary scheme.
#[derive(Debug, Clone)]
pub struct BinaryScheme {
    registry: LabelRegistry,
    /// Create per-table value indexes at table-creation time.
    pub with_value_index: bool,
}

impl Default for BinaryScheme {
    fn default() -> BinaryScheme {
        BinaryScheme {
            registry: LabelRegistry { prefix: "bin" },
            with_value_index: false,
        }
    }
}

impl BinaryScheme {
    /// Scheme with default options.
    pub fn new() -> BinaryScheme {
        BinaryScheme::default()
    }

    /// The shared text table's name.
    pub fn text_table(&self) -> &'static str {
        "bin_text"
    }

    /// The scheme's path summary (used for `//` and `*` expansion).
    pub fn path_summary(&self) -> PathSummary {
        PathSummary { prefix: "bin" }
    }

    /// The registry assigning element and attribute labels to tables.
    pub fn registry(&self) -> &LabelRegistry {
        &self.registry
    }

    /// Table for an element label, if one exists yet.
    pub fn element_table(&self, db: &Database, label: &str) -> Result<Option<String>> {
        self.registry.lookup(db, label, "elem")
    }

    /// Table for an attribute label, if one exists yet.
    pub fn attribute_table(&self, db: &Database, label: &str) -> Result<Option<String>> {
        self.registry.lookup(db, label, "attr")
    }

    /// All element-label tables (for wildcard steps).
    pub fn all_element_tables(&self, db: &Database) -> Result<Vec<(String, String)>> {
        Ok(self
            .registry
            .all(db)?
            .into_iter()
            .filter(|(_, kind, _)| kind == "elem")
            .map(|(label, _, tbl)| (label, tbl))
            .collect())
    }

    fn ensure_table(&self, db: &mut Database, label: &str, kind: &str) -> Result<String> {
        let tbl = self.registry.assign(db, label, kind)?;
        if !db.catalog.has_table(&tbl) {
            let value_col = if kind == "attr" { ", value TEXT" } else { "" };
            db.execute(&format!(
                "CREATE TABLE {tbl} (doc INT NOT NULL, pre INT NOT NULL, \
                 source INT, ordinal INT NOT NULL{value_col})"
            ))?;
            db.execute(&format!("CREATE INDEX {tbl}_src ON {tbl} (source, doc)"))?;
            db.execute(&format!("CREATE INDEX {tbl}_pre ON {tbl} (pre, doc)"))?;
            if self.with_value_index && kind == "attr" {
                db.execute(&format!("CREATE INDEX {tbl}_val ON {tbl} (value)"))?;
            }
        }
        Ok(tbl)
    }
}

impl MappingScheme for BinaryScheme {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        self.registry.install(db)?;
        db.execute(
            "CREATE TABLE bin_text (doc INT NOT NULL, pre INT NOT NULL, \
             source INT, ordinal INT NOT NULL, value TEXT)",
        )?;
        db.execute("CREATE INDEX bin_text_src ON bin_text (source, doc)")?;
        if self.with_value_index {
            db.execute("CREATE INDEX bin_text_val ON bin_text (value)")?;
        }
        self.path_summary().install(db)?;
        Ok(())
    }

    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats> {
        let recs = flatten(doc);
        let stats = tally(&recs);
        // Group rows per target table, creating tables on first sight.
        let mut batches: std::collections::HashMap<String, Vec<Vec<Value>>> =
            std::collections::HashMap::new();
        for r in &recs {
            let (tbl, row) = match r.kind {
                RecKind::Elem => {
                    let label = r.name.as_deref().unwrap_or("");
                    let tbl = self.ensure_table(db, label, "elem")?;
                    (
                        tbl,
                        vec![
                            Value::Int(doc_id),
                            Value::Int(r.pre),
                            r.parent.map(Value::Int).unwrap_or(Value::Null),
                            Value::Int(r.ordinal),
                        ],
                    )
                }
                RecKind::Attr => {
                    let label = r.name.as_deref().unwrap_or("");
                    let tbl = self.ensure_table(db, label, "attr")?;
                    (
                        tbl,
                        vec![
                            Value::Int(doc_id),
                            Value::Int(r.pre),
                            r.parent.map(Value::Int).unwrap_or(Value::Null),
                            Value::Int(r.ordinal),
                            r.value.clone().map(Value::Text).unwrap_or(Value::Null),
                        ],
                    )
                }
                RecKind::Text => (
                    "bin_text".to_string(),
                    vec![
                        Value::Int(doc_id),
                        Value::Int(r.pre),
                        r.parent.map(Value::Int).unwrap_or(Value::Null),
                        Value::Int(r.ordinal),
                        r.value.clone().map(Value::Text).unwrap_or(Value::Null),
                    ],
                ),
            };
            batches.entry(tbl).or_default().push(row);
        }
        for (tbl, rows) in batches {
            db.bulk_insert(&tbl, rows)?;
        }
        self.path_summary().record(db, doc_id, doc)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        let mut recs = Vec::new();
        for (label, kind, tbl) in self.registry.all(db)? {
            let value_sel = if kind == "attr" { ", value" } else { "" };
            let rec_kind = if kind == "attr" {
                RecKind::Attr
            } else {
                RecKind::Elem
            };
            db.prepare(&format!(
                "SELECT pre, source, ordinal{value_sel} FROM {tbl} WHERE doc = {doc_id}"
            ))?
            .run(&db.limits, false, |row| {
                recs.push(NodeRec {
                    pre: row_int(&row, 0).unwrap_or(0),
                    parent: row_int(&row, 1),
                    ordinal: row_int(&row, 2).unwrap_or(0),
                    size: 0,
                    level: 0,
                    kind: rec_kind,
                    name: Some(label.clone()),
                    value: row.get(3).and_then(|v| v.as_text()).map(str::to_string),
                });
                Ok(())
            })
            .0?;
        }
        db.prepare(&format!(
            "SELECT pre, source, ordinal, value FROM bin_text WHERE doc = {doc_id}"
        ))?
        .run(&db.limits, false, |row| {
            recs.push(NodeRec {
                pre: row_int(&row, 0).unwrap_or(0),
                parent: row_int(&row, 1),
                ordinal: row_int(&row, 2).unwrap_or(0),
                size: 0,
                level: 0,
                kind: RecKind::Text,
                name: None,
                value: row_text(&row, 3).map(str::to_string),
            });
            Ok(())
        })
        .0?;
        rebuild(recs)
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        self.path_summary().delete_document(db, doc_id)?;
        let mut n = 0;
        let tables: Vec<String> = self
            .registry
            .all(db)?
            .into_iter()
            .map(|(_, _, t)| t)
            .chain(std::iter::once("bin_text".to_string()))
            .collect();
        for t in tables {
            if let ExecResult::Affected(k) =
                db.execute(&format!("DELETE FROM {t} WHERE doc = {doc_id}"))?
            {
                n += k;
            }
        }
        Ok(n)
    }

    fn tables(&self, db: &Database) -> Vec<String> {
        let mut out: Vec<String> = self
            .registry
            .all(db)
            .map(|v| v.into_iter().map(|(_, _, t)| t).collect())
            .unwrap_or_default();
        out.push("bin_text".to_string());
        out.push(self.registry.registry_table());
        out.push(self.path_summary().table());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOK: &str = r#"<book year="1967"><title>T</title><author><firstname>R</firstname><lastname>L</lastname></author></book>"#;

    fn setup() -> (Database, BinaryScheme) {
        let mut db = Database::new();
        let s = BinaryScheme::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(BOOK).unwrap())
            .unwrap();
        (db, s)
    }

    #[test]
    fn one_table_per_label() {
        let (db, s) = setup();
        assert!(s.element_table(&db, "book").unwrap().is_some());
        assert!(s.element_table(&db, "title").unwrap().is_some());
        assert!(s.attribute_table(&db, "year").unwrap().is_some());
        assert!(s.element_table(&db, "missing").unwrap().is_none());
        // 5 element labels + 1 attribute label.
        assert_eq!(s.all_element_tables(&db).unwrap().len(), 5);
    }

    #[test]
    fn per_label_scan_is_small() {
        let (db, s) = setup();
        let t = s.element_table(&db, "title").unwrap().unwrap();
        let q = db.query(&format!("SELECT COUNT(*) FROM {t}")).unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn round_trip() {
        let (db, s) = setup();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            BOOK
        );
    }

    #[test]
    fn path_query_via_label_tables() {
        let (db, s) = setup();
        let book = s.element_table(&db, "book").unwrap().unwrap();
        let author = s.element_table(&db, "author").unwrap().unwrap();
        let lastname = s.element_table(&db, "lastname").unwrap().unwrap();
        // /book/author/lastname/text()
        let q = db
            .query(&format!(
                "SELECT t.value FROM {book} b, {author} a, {lastname} l, bin_text t \
                 WHERE a.source = b.pre AND l.source = a.pre AND t.source = l.pre"
            ))
            .unwrap();
        assert_eq!(q.rows[0][0], Value::text("L"));
    }

    #[test]
    fn delete_document() {
        let (mut db, s) = setup();
        s.shred(
            &mut db,
            2,
            &Document::parse("<book><title>U</title></book>").unwrap(),
        )
        .unwrap();
        let n = s.delete_document(&mut db, 1).unwrap();
        assert_eq!(n, 9);
        assert!(s.reconstruct(&db, 1).is_err());
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 2).unwrap()),
            "<book><title>U</title></book>"
        );
    }

    #[test]
    fn storage_stats_count_all_tables() {
        let (db, s) = setup();
        let st = s.storage_stats(&db);
        // 5 element tables + 1 attr table + bin_text + registry + paths.
        assert_eq!(st.tables, 9);
        assert!(st.rows >= 9);
    }
}
