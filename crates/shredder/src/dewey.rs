//! The **Dewey order** mapping (Tatarinov et al. 2002).
//!
//! Each node's identifier is its path of sibling ordinals, e.g. the second
//! child of the root's first child is `000001.000000.000001`. Components
//! are fixed-width hex so that *lexicographic* string comparison equals
//! document order — the property the translated SQL relies on:
//!
//! - child axis:       `child.parent = p.dewey`
//! - descendant axis:  `d.dewey LIKE p.dewey || '.%'`
//! - document order:   `ORDER BY dewey`
//!
//! Updates are the scheme's selling point: inserting a subtree only
//! renumbers the *following siblings* (plain Dewey; the ORDPATH "careting"
//! refinement would avoid even that), whereas the interval scheme must
//! renumber every node after the insertion point.

use std::collections::HashMap;

use reldb::{row_int, row_text, Database, Value};
use xmlpar::Document;

use crate::error::Result;
use crate::reconstruct::rebuild;
use crate::scheme::{tally, MappingScheme, ShredStats};
use crate::walk::{flatten, NodeRec, RecKind};

/// Width of one hex component (6 → 16M siblings max).
pub const COMPONENT_WIDTH: usize = 6;

/// Encode one sibling ordinal as a fixed-width component.
pub fn encode_component(ordinal: i64) -> String {
    format!("{:0width$x}", ordinal, width = COMPONENT_WIDTH)
}

/// Build a child key from a parent key.
pub fn child_key(parent: &str, ordinal: i64) -> String {
    if parent.is_empty() {
        encode_component(ordinal)
    } else {
        format!("{parent}.{}", encode_component(ordinal))
    }
}

/// The LIKE pattern matching all descendants of `key`.
pub fn descendant_pattern(key: &str) -> String {
    format!("{key}.%")
}

/// The Dewey scheme.
#[derive(Debug, Clone, Default)]
pub struct DeweyScheme;

impl DeweyScheme {
    /// Scheme with default options.
    pub fn new() -> DeweyScheme {
        DeweyScheme
    }

    /// The node table's name.
    pub fn table(&self) -> &'static str {
        "dnode"
    }
}

impl MappingScheme for DeweyScheme {
    fn name(&self) -> &'static str {
        "dewey"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(
            "CREATE TABLE dnode (
                doc INT NOT NULL,
                dewey TEXT NOT NULL,
                parent TEXT,
                ordinal INT NOT NULL,
                level INT NOT NULL,
                kind TEXT NOT NULL,
                name TEXT,
                value TEXT
            )",
        )?;
        db.execute("CREATE INDEX dnode_key ON dnode (dewey, doc)")?;
        db.execute("CREATE INDEX dnode_name ON dnode (name)")?;
        db.execute("CREATE INDEX dnode_parent ON dnode (parent, doc)")?;
        Ok(())
    }

    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats> {
        let recs = flatten(doc);
        let stats = tally(&recs);
        // Compute keys from parent links: the root's key is one component.
        let mut keys: Vec<String> = Vec::with_capacity(recs.len());
        for r in &recs {
            let key = match r.parent {
                None => encode_component(0),
                Some(p) => child_key(&keys[p as usize], r.ordinal),
            };
            keys.push(key);
        }
        let rows: Vec<Vec<Value>> = recs
            .iter()
            .zip(&keys)
            .map(|(r, key)| {
                vec![
                    Value::Int(doc_id),
                    Value::text(key.clone()),
                    r.parent
                        .map(|p| Value::text(keys[p as usize].clone()))
                        .unwrap_or(Value::Null),
                    Value::Int(r.ordinal),
                    Value::Int(r.level),
                    Value::text(r.kind.tag()),
                    r.name.clone().map(Value::Text).unwrap_or(Value::Null),
                    r.value.clone().map(Value::Text).unwrap_or(Value::Null),
                ]
            })
            .collect();
        db.bulk_insert("dnode", rows)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        // (dewey, parent, ordinal, level, kind, name, value)
        type RawRow = (
            String,
            Option<String>,
            i64,
            i64,
            String,
            Option<String>,
            Option<String>,
        );
        // Assign synthetic pre ids by lexicographic key rank.
        let mut raw: Vec<RawRow> = Vec::new();
        db.prepare(&format!(
            "SELECT dewey, parent, ordinal, level, kind, name, value \
             FROM dnode WHERE doc = {doc_id} ORDER BY dewey"
        ))?
        .run(&db.limits, false, |row| {
            raw.push((
                row_text(&row, 0).unwrap_or("").to_string(),
                row_text(&row, 1).map(str::to_string),
                row_int(&row, 2).unwrap_or(0),
                row_int(&row, 3).unwrap_or(0),
                row_text(&row, 4).unwrap_or("").to_string(),
                row_text(&row, 5).map(str::to_string),
                row_text(&row, 6).map(str::to_string),
            ));
            Ok(())
        })
        .0?;
        let rank: HashMap<&str, i64> = raw
            .iter()
            .enumerate()
            .map(|(i, r)| (r.0.as_str(), i as i64))
            .collect();
        let recs: Vec<NodeRec> = raw
            .iter()
            .enumerate()
            .map(
                |(i, (_, parent, ordinal, level, kind, name, value))| NodeRec {
                    pre: i as i64,
                    parent: parent.as_deref().and_then(|p| rank.get(p)).copied(),
                    ordinal: *ordinal,
                    size: 0,
                    level: *level,
                    kind: RecKind::from_tag(kind).unwrap_or(RecKind::Elem),
                    name: name.clone(),
                    value: value.clone(),
                },
            )
            .collect();
        rebuild(recs)
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        match db.execute(&format!("DELETE FROM dnode WHERE doc = {doc_id}"))? {
            reldb::ExecResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn tables(&self, _db: &Database) -> Vec<String> {
        vec!["dnode".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = r#"<bib><book year="1994"><title>TCP</title></book><book year="2000"><title>Data</title></book></bib>"#;

    fn setup() -> (Database, DeweyScheme) {
        let mut db = Database::new();
        let s = DeweyScheme::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(XML).unwrap()).unwrap();
        (db, s)
    }

    #[test]
    fn round_trip() {
        let (db, s) = setup();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            XML
        );
    }

    #[test]
    fn lexicographic_order_is_document_order() {
        let (db, _) = setup();
        let q = db
            .query("SELECT name, kind FROM dnode WHERE doc = 1 ORDER BY dewey")
            .unwrap();
        let names: Vec<String> = q
            .rows
            .iter()
            .filter(|r| r[1] == Value::text("elem"))
            .map(|r| r[0].to_string())
            .collect();
        assert_eq!(names, vec!["bib", "book", "title", "book", "title"]);
    }

    #[test]
    fn descendant_axis_via_like() {
        let (db, _) = setup();
        // Text descendants of the first book.
        let q = db
            .query(
                "SELECT d.value FROM dnode b, dnode d \
                 WHERE b.name = 'book' AND d.kind = 'text' \
                   AND d.dewey LIKE b.dewey || '.%' \
                 ORDER BY d.dewey",
            )
            .unwrap();
        let vals: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["TCP", "Data"]);
    }

    #[test]
    fn child_axis_via_parent_key() {
        let (db, _) = setup();
        let q = db
            .query(
                "SELECT c.name FROM dnode p, dnode c \
                 WHERE p.name = 'bib' AND c.parent = p.dewey ORDER BY c.dewey",
            )
            .unwrap();
        assert_eq!(q.rows.len(), 2);
    }

    #[test]
    fn key_encoding_properties() {
        // Lexicographic = numeric thanks to fixed width.
        assert!(encode_component(2) < encode_component(10));
        assert!(child_key("000001", 0) < child_key("000001", 1));
        // A child sorts after its parent and before the next sibling.
        let parent = encode_component(5);
        let child = child_key(&parent, 999);
        let next_sibling = encode_component(6);
        assert!(parent < child);
        assert!(child < next_sibling);
        assert_eq!(descendant_pattern("0001"), "0001.%");
    }

    #[test]
    fn delete_document() {
        let (mut db, s) = setup();
        let n = s.delete_document(&mut db, 1).unwrap();
        assert_eq!(n, 9); // 5 elements + 2 attributes + 2 texts
        assert!(s.reconstruct(&db, 1).is_err());
    }
}
