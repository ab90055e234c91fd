//! The **universal** mapping (Florescu & Kossmann 1999): one wide table,
//! equivalent to the full outer join of all binary tables over `source`.
//!
//! Layout (one column group per element label `L`, per attribute label `A`,
//! plus a text pseudo-label):
//!
//! ```text
//! univ(doc, src, row,
//!      t_<L> /*child pre*/, o_<L> /*global ordinal*/,    ... per element label
//!      a_<A> /*value*/,     ao_<A> /*global ordinal*/,   ... per attribute label
//!      t_text, o_text, v_text)                            -- text children
//! ```
//!
//! Row `k` of a source node holds that node's *k-th* child of each label
//! (the "padded outer join" reading: row count per source = the maximum
//! child count over labels, shorter lists padded with NULL — we pad rather
//! than take the true outer-join product, which keeps the same NULL
//! blow-up shape the paper reports without the combinatorial row
//! explosion). A virtual row with `src = NULL` anchors the root element.
//!
//! The table's column set is fixed when the first document is shredded;
//! later documents must use a subset of those labels. This mirrors the
//! paper's observation that the universal relation requires the label set
//! up front — its key disadvantage next to edge/binary.

use std::collections::BTreeMap;

use reldb::{row_int, row_text, Database, ExecLimits, ExecResult, Value};
use xmlpar::Document;

use crate::error::{Result, ShredError};
use crate::labels::sanitize;
use crate::pathsummary::PathSummary;
use crate::reconstruct::rebuild;
use crate::scheme::{tally, MappingScheme, ShredStats};
use crate::walk::{flatten, NodeRec, RecKind};

/// The universal scheme.
#[derive(Debug, Clone, Default)]
pub struct UniversalScheme;

/// Column assignment for one label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCols {
    /// Label text.
    pub label: String,
    /// `elem` or `attr`.
    pub kind: String,
    /// Sanitized column stem (e.g. `t_<stem>`, `o_<stem>`).
    pub stem: String,
}

impl UniversalScheme {
    /// Scheme instance.
    pub fn new() -> UniversalScheme {
        UniversalScheme
    }

    /// The wide table's name.
    pub fn table(&self) -> &'static str {
        "univ"
    }

    /// The scheme's path summary (used for `//` and `*` expansion).
    pub fn path_summary(&self) -> PathSummary {
        PathSummary { prefix: "univ" }
    }

    /// Metadata: label → column-stem assignments.
    pub fn label_columns(&self, db: &Database) -> Result<Vec<LabelCols>> {
        let mut out = Vec::new();
        db.prepare("SELECT label, kind, stem FROM univ_meta")?
            .run(&db.limits, false, |row| {
                out.push(LabelCols {
                    label: row_text(&row, 0).unwrap_or("").to_string(),
                    kind: row_text(&row, 1).unwrap_or("").to_string(),
                    stem: row_text(&row, 2).unwrap_or("").to_string(),
                });
                Ok(())
            })
            .0?;
        Ok(out)
    }

    /// Column stem for a label, if assigned.
    pub fn stem_for(&self, db: &Database, label: &str, kind: &str) -> Result<Option<String>> {
        Ok(self
            .label_columns(db)?
            .into_iter()
            .find(|c| c.label == label && c.kind == kind)
            .map(|c| c.stem))
    }

    /// Every node record of document `doc_id`, read with one scan of
    /// `univ` under `limits`. Element and text records keep their stored
    /// pre numbers; attribute records get unique negative ones. The root
    /// record is the one whose parent is `None`.
    pub fn records(&self, db: &Database, limits: &ExecLimits, doc_id: i64) -> Result<Vec<NodeRec>> {
        let meta = self.label_columns(db)?;
        let schema = db.catalog.table("univ")?.schema.clone();
        let col = |name: &str| -> Result<usize> {
            schema.index_of(name).ok_or_else(|| {
                ShredError::Corrupt(format!("universal table lacks column {name:?}"))
            })
        };
        let src_col = col("src")?;
        // Resolve every per-label column up front so schema drift is a
        // typed error, not a panic inside the scan callback.
        let mut meta_cols: Vec<(usize, usize)> = Vec::with_capacity(meta.len());
        for m in &meta {
            meta_cols.push(if m.kind == "elem" {
                (
                    col(&format!("t_{}", m.stem))?,
                    col(&format!("o_{}", m.stem))?,
                )
            } else {
                (
                    col(&format!("a_{}", m.stem))?,
                    col(&format!("ao_{}", m.stem))?,
                )
            });
        }
        let (t_text, o_text, v_text) = (col("t_text")?, col("o_text")?, col("v_text")?);
        let mut recs: Vec<NodeRec> = Vec::new();
        // Synthetic unique ids for attribute records (never referenced).
        let mut synth = -1i64;
        db.prepare(&format!("SELECT * FROM univ WHERE doc = {doc_id}"))?
            .run(limits, false, |row| {
                let src = row_int(&row, src_col);
                for (m, &(c1, c2)) in meta.iter().zip(&meta_cols) {
                    if m.kind == "elem" {
                        let t = row_int(&row, c1);
                        let o = row_int(&row, c2);
                        if let (Some(t), Some(o)) = (t, o) {
                            recs.push(NodeRec {
                                pre: t,
                                parent: src,
                                ordinal: o,
                                size: 0,
                                level: 0,
                                kind: RecKind::Elem,
                                name: Some(m.label.clone()),
                                value: None,
                            });
                        }
                    } else {
                        let a = row_text(&row, c1).map(str::to_string);
                        let ao = row_int(&row, c2);
                        if let (Some(a), Some(ao)) = (a, ao) {
                            recs.push(NodeRec {
                                pre: synth,
                                parent: src,
                                ordinal: ao,
                                size: 0,
                                level: 0,
                                kind: RecKind::Attr,
                                name: Some(m.label.clone()),
                                value: Some(a),
                            });
                            synth -= 1;
                        }
                    }
                }
                if let (Some(t), Some(o)) = (row_int(&row, t_text), row_int(&row, o_text)) {
                    recs.push(NodeRec {
                        pre: t,
                        parent: src,
                        ordinal: o,
                        size: 0,
                        level: 0,
                        kind: RecKind::Text,
                        name: None,
                        value: row_text(&row, v_text).map(str::to_string),
                    });
                }
                Ok(())
            })
            .0?;
        Ok(recs)
    }

    /// Create `univ` for a label set (first shred does this automatically).
    pub fn create_for_labels(
        &self,
        db: &mut Database,
        elem_labels: &[String],
        attr_labels: &[String],
    ) -> Result<()> {
        let mut stems: BTreeMap<String, usize> = BTreeMap::new();
        let mut cols = String::from("doc INT NOT NULL, src INT, row INT NOT NULL");
        let mut meta_rows = Vec::new();
        let mut mk_stem = |label: &str, kind: &str| {
            let mut stem = format!(
                "{}_{}",
                if kind == "attr" { "a" } else { "e" },
                sanitize(label)
            );
            let n = stems.entry(stem.clone()).or_insert(0);
            *n += 1;
            if *n > 1 {
                stem = format!("{stem}_{}", *n);
            }
            stem
        };
        for l in elem_labels {
            let stem = mk_stem(l, "elem");
            cols.push_str(&format!(", t_{stem} INT, o_{stem} INT"));
            meta_rows.push(vec![
                Value::text(l.clone()),
                Value::text("elem"),
                Value::text(stem),
            ]);
        }
        for l in attr_labels {
            let stem = mk_stem(l, "attr");
            cols.push_str(&format!(", a_{stem} TEXT, ao_{stem} INT"));
            meta_rows.push(vec![
                Value::text(l.clone()),
                Value::text("attr"),
                Value::text(stem),
            ]);
        }
        cols.push_str(", t_text INT, o_text INT, v_text TEXT");
        db.execute(&format!("CREATE TABLE univ ({cols})"))?;
        db.execute("CREATE INDEX univ_src ON univ (src, doc)")?;
        db.bulk_insert("univ_meta", meta_rows)?;
        Ok(())
    }
}

impl MappingScheme for UniversalScheme {
    fn name(&self) -> &'static str {
        "universal"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(
            "CREATE TABLE univ_meta (label TEXT NOT NULL, kind TEXT NOT NULL, stem TEXT NOT NULL)",
        )?;
        self.path_summary().install(db)?;
        Ok(())
    }

    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats> {
        let recs = flatten(doc);
        let stats = tally(&recs);
        // Label sets of this document.
        let mut elem_labels: Vec<String> = Vec::new();
        let mut attr_labels: Vec<String> = Vec::new();
        for r in &recs {
            if let Some(n) = &r.name {
                let list = match r.kind {
                    RecKind::Elem => &mut elem_labels,
                    RecKind::Attr => &mut attr_labels,
                    RecKind::Text => continue,
                };
                if !list.contains(n) {
                    list.push(n.clone());
                }
            }
        }
        if !db.catalog.has_table("univ") {
            self.create_for_labels(db, &elem_labels, &attr_labels)?;
        }
        // Resolve stems and column offsets.
        let meta = self.label_columns(db)?;
        let schema = &db.catalog.table("univ")?.schema;
        let arity = schema.arity();
        let col = |name: &str| -> Result<usize> {
            schema.index_of(name).ok_or_else(|| {
                ShredError::Unsupported(format!(
                    "universal table lacks column {name:?}; label set was fixed at creation"
                ))
            })
        };
        let mut elem_cols: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        let mut attr_cols: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for m in &meta {
            if m.kind == "elem" {
                elem_cols.insert(
                    m.label.as_str(),
                    (
                        col(&format!("t_{}", m.stem))?,
                        col(&format!("o_{}", m.stem))?,
                    ),
                );
            } else {
                attr_cols.insert(
                    m.label.as_str(),
                    (
                        col(&format!("a_{}", m.stem))?,
                        col(&format!("ao_{}", m.stem))?,
                    ),
                );
            }
        }
        for l in elem_labels.iter() {
            if !elem_cols.contains_key(l.as_str()) {
                return Err(ShredError::Unsupported(format!(
                    "element label {l:?} not in the universal table's label set"
                )));
            }
        }
        for l in attr_labels.iter() {
            if !attr_cols.contains_key(l.as_str()) {
                return Err(ShredError::Unsupported(format!(
                    "attribute label {l:?} not in the universal table's label set"
                )));
            }
        }
        let (t_text, o_text, v_text) = (col("t_text")?, col("o_text")?, col("v_text")?);

        // Group child records by source.
        let mut by_src: BTreeMap<Option<i64>, Vec<&NodeRec>> = BTreeMap::new();
        let Some(root_rec) = recs.first() else {
            return Err(ShredError::Corrupt(
                "flattened document has no records".into(),
            ));
        };
        by_src.entry(None).or_default().push(root_rec); // virtual root row
        for r in recs.iter().skip(1) {
            by_src.entry(r.parent).or_default().push(r);
        }
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (src, children) in by_src {
            // Per-label child lists.
            let mut lists: BTreeMap<(u8, &str), Vec<&NodeRec>> = BTreeMap::new();
            for c in children {
                let key = match c.kind {
                    RecKind::Elem => (0u8, c.name.as_deref().unwrap_or("")),
                    RecKind::Attr => (1u8, c.name.as_deref().unwrap_or("")),
                    RecKind::Text => (2u8, "#text"),
                };
                lists.entry(key).or_default().push(c);
            }
            let depth = lists.values().map(Vec::len).max().unwrap_or(0);
            for k in 0..depth {
                let mut row: Vec<Value> = Vec::with_capacity(arity);
                row.push(Value::Int(doc_id));
                row.push(src.map(Value::Int).unwrap_or(Value::Null));
                row.push(Value::Int(k as i64));
                row.resize(arity, Value::Null);
                for ((kindtag, label), list) in &lists {
                    let Some(c) = list.get(k) else { continue };
                    match kindtag {
                        0 => {
                            let (t, o) = elem_cols[label];
                            row[t] = Value::Int(c.pre);
                            row[o] = Value::Int(c.ordinal);
                        }
                        1 => {
                            let (a, ao) = attr_cols[label];
                            row[a] = c.value.clone().map(Value::Text).unwrap_or(Value::Null);
                            row[ao] = Value::Int(c.ordinal);
                        }
                        _ => {
                            row[t_text] = Value::Int(c.pre);
                            row[o_text] = Value::Int(c.ordinal);
                            row[v_text] = c.value.clone().map(Value::Text).unwrap_or(Value::Null);
                        }
                    }
                }
                rows.push(row);
            }
        }
        db.bulk_insert("univ", rows)?;
        self.path_summary().record(db, doc_id, doc)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        rebuild(self.records(db, &db.limits, doc_id)?)
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        self.path_summary().delete_document(db, doc_id)?;
        if !db.catalog.has_table("univ") {
            return Ok(0);
        }
        match db.execute(&format!("DELETE FROM univ WHERE doc = {doc_id}"))? {
            ExecResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn tables(&self, db: &Database) -> Vec<String> {
        let mut v = vec!["univ_meta".to_string(), self.path_summary().table()];
        if db.catalog.has_table("univ") {
            v.push("univ".to_string());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOK: &str = r#"<book year="1967"><title>T</title><author><firstname>R</firstname><lastname>L</lastname></author><author><firstname>S</firstname><lastname>M</lastname></author></book>"#;

    fn setup() -> (Database, UniversalScheme) {
        let mut db = Database::new();
        let s = UniversalScheme::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(BOOK).unwrap())
            .unwrap();
        (db, s)
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
    fn repeated_labels_pad_rows() {
        let (db, _) = setup();
        // The book node has two author children → two rows for its src.
        let q = db.query("SELECT COUNT(*) FROM univ WHERE src = 0").unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn null_blowup_visible_in_storage() {
        let (db, s) = setup();
        let st = s.storage_stats(&db);
        // Wide rows: more bytes per node than a narrow scheme would use.
        assert!(st.heap_bytes > 0);
        let meta = s.label_columns(&db).unwrap();
        assert_eq!(meta.len(), 6); // 5 element labels + 1 attribute
    }

    #[test]
    fn sibling_access_without_join() {
        let (db, s) = setup();
        let fn_stem = s.stem_for(&db, "firstname", "elem").unwrap().unwrap();
        let ln_stem = s.stem_for(&db, "lastname", "elem").unwrap().unwrap();
        // Both children of one author come from ONE row: no self-join.
        let q = db
            .query(&format!(
                "SELECT COUNT(*) FROM univ WHERE t_{fn_stem} IS NOT NULL AND t_{ln_stem} IS NOT NULL"
            ))
            .unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn second_document_with_subset_labels_ok() {
        let (mut db, s) = setup();
        s.shred(
            &mut db,
            2,
            &Document::parse("<book><title>U</title></book>").unwrap(),
        )
        .unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 2).unwrap()),
            "<book><title>U</title></book>"
        );
    }

    #[test]
    fn new_label_rejected_after_creation() {
        let (mut db, s) = setup();
        let err = s
            .shred(&mut db, 3, &Document::parse("<unseen/>").unwrap())
            .unwrap_err();
        assert!(matches!(err, ShredError::Unsupported(_)));
    }

    #[test]
    fn delete_document() {
        let (mut db, s) = setup();
        assert!(s.delete_document(&mut db, 1).unwrap() > 0);
        assert!(s.reconstruct(&db, 1).is_err());
    }
}
