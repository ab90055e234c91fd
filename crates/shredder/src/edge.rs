//! The **edge** mapping (Florescu & Kossmann 1999).
//!
//! One table holds every parent→child edge of the XML graph:
//!
//! ```text
//! edge(doc, source, ordinal, label, kind, target, value)
//! ```
//!
//! - `source` is the parent node's identifier (NULL for the root edge);
//! - `target` is the child node's identifier (its pre-order number);
//! - `label` is the tag / attribute name (NULL for text nodes);
//! - `kind` distinguishes element / attribute / text edges;
//! - `value` carries attribute values and text content ("values inlined"
//!   variant of the paper).
//!
//! Path steps translate to self-joins of this table: `/a/b/c` needs one
//! `edge` occurrence per step — the join-chain cost that motivates every
//! other scheme in the comparison.

use reldb::{row_int, row_text, Database, Value};
use xmlpar::Document;

use crate::error::Result;
use crate::pathsummary::PathSummary;
use crate::reconstruct::rebuild;
use crate::scheme::{tally, MappingScheme, ShredStats};
use crate::walk::{flatten, NodeRec, RecKind};

/// The edge scheme. `with_value_index` adds a secondary index on `value`
/// (experiment E5's knob).
#[derive(Debug, Clone, Default)]
pub struct EdgeScheme {
    /// Create an index on the `value` column at install time.
    pub with_value_index: bool,
}

impl EdgeScheme {
    /// Scheme with default options.
    pub fn new() -> EdgeScheme {
        EdgeScheme::default()
    }

    /// The edge table's name.
    pub fn table(&self) -> &'static str {
        "edge"
    }

    /// The scheme's path summary (used for `//` and `*` expansion).
    pub fn path_summary(&self) -> PathSummary {
        PathSummary { prefix: "edge" }
    }
}

impl MappingScheme for EdgeScheme {
    fn name(&self) -> &'static str {
        "edge"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(
            "CREATE TABLE edge (
                doc INT NOT NULL,
                source INT,
                ordinal INT NOT NULL,
                label TEXT,
                kind TEXT NOT NULL,
                target INT NOT NULL,
                value TEXT
            )",
        )?;
        db.execute("CREATE INDEX edge_source ON edge (source, doc)")?;
        db.execute("CREATE INDEX edge_label ON edge (label)")?;
        db.execute("CREATE INDEX edge_target ON edge (target, doc)")?;
        if self.with_value_index {
            db.execute("CREATE INDEX edge_value ON edge (value)")?;
        }
        self.path_summary().install(db)?;
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
                    r.parent.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(r.ordinal),
                    r.name.clone().map(Value::Text).unwrap_or(Value::Null),
                    Value::text(r.kind.tag()),
                    Value::Int(r.pre),
                    r.value.clone().map(Value::Text).unwrap_or(Value::Null),
                ]
            })
            .collect();
        db.bulk_insert("edge", rows)?;
        self.path_summary().record(db, doc_id, doc)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        let mut recs = Vec::new();
        db.prepare(&format!(
            "SELECT source, ordinal, label, kind, target, value FROM edge WHERE doc = {doc_id}"
        ))?
        .run(&db.limits, false, |row| {
            recs.push(NodeRec {
                pre: row_int(&row, 4).unwrap_or(0),
                parent: row_int(&row, 0),
                ordinal: row_int(&row, 1).unwrap_or(0),
                size: 0,
                level: 0,
                kind: RecKind::from_tag(row_text(&row, 3).unwrap_or("")).unwrap_or(RecKind::Elem),
                name: row_text(&row, 2).map(str::to_string),
                value: row_text(&row, 5).map(str::to_string),
            });
            Ok(())
        })
        .0?;
        rebuild(recs)
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        self.path_summary().delete_document(db, doc_id)?;
        let r = db.execute(&format!("DELETE FROM edge WHERE doc = {doc_id}"))?;
        match r {
            reldb::ExecResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn tables(&self, _db: &Database) -> Vec<String> {
        vec!["edge".to_string(), self.path_summary().table()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::MappingScheme;

    const BOOK: &str = r#"<book year="1967"><title>The politics of experience</title><author><firstname>Ronald</firstname><lastname>Laing</lastname></author></book>"#;

    fn setup() -> (Database, EdgeScheme) {
        let mut db = Database::new();
        let s = EdgeScheme::new();
        s.install(&mut db).unwrap();
        (db, s)
    }

    #[test]
    fn shred_counts() {
        let (mut db, s) = setup();
        let doc = Document::parse(BOOK).unwrap();
        let stats = s.shred(&mut db, 1, &doc).unwrap();
        assert_eq!(stats.elements, 5);
        assert_eq!(stats.attributes, 1);
        assert_eq!(stats.texts, 3);
        assert_eq!(stats.rows, 9);
        let t = db.catalog.table("edge").unwrap();
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn round_trip() {
        let (mut db, s) = setup();
        let doc = Document::parse(BOOK).unwrap();
        s.shred(&mut db, 1, &doc).unwrap();
        let rebuilt = s.reconstruct(&db, 1).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), BOOK);
    }

    #[test]
    fn multiple_documents_isolated() {
        let (mut db, s) = setup();
        s.shred(&mut db, 1, &Document::parse("<a><b/></a>").unwrap())
            .unwrap();
        s.shred(&mut db, 2, &Document::parse("<x>t</x>").unwrap())
            .unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            "<a><b/></a>"
        );
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 2).unwrap()),
            "<x>t</x>"
        );
    }

    #[test]
    fn delete_document_removes_rows() {
        let (mut db, s) = setup();
        s.shred(&mut db, 1, &Document::parse(BOOK).unwrap())
            .unwrap();
        s.shred(&mut db, 2, &Document::parse("<x/>").unwrap())
            .unwrap();
        let n = s.delete_document(&mut db, 1).unwrap();
        assert_eq!(n, 9);
        assert_eq!(db.catalog.table("edge").unwrap().len(), 1);
        assert!(s.reconstruct(&db, 1).is_err());
    }

    #[test]
    fn storage_stats_nonzero() {
        let (mut db, s) = setup();
        s.shred(&mut db, 1, &Document::parse(BOOK).unwrap())
            .unwrap();
        let st = s.storage_stats(&db);
        assert_eq!(st.tables, 2); // edge + edge_paths
        assert!(st.rows >= 9);
        assert!(st.heap_bytes > 0);
        assert!(st.index_bytes > 0);
    }

    #[test]
    fn value_index_option() {
        let mut db = Database::new();
        let s = EdgeScheme {
            with_value_index: true,
        };
        s.install(&mut db).unwrap();
        assert!(db
            .catalog
            .table("edge")
            .unwrap()
            .indexes
            .iter()
            .any(|i| i.name == "edge_value"));
    }

    #[test]
    fn label_query_via_sql() {
        let (mut db, s) = setup();
        s.shred(&mut db, 1, &Document::parse(BOOK).unwrap())
            .unwrap();
        let q = db
            .query("SELECT value FROM edge WHERE label = 'year' AND kind = 'attr'")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::text("1967"));
    }
}
