//! Subtree updates: the experiment that separates order encodings.
//!
//! - **Interval** (pre/size): inserting a subtree renumbers every node
//!   whose `pre` follows the insertion point and grows every ancestor's
//!   `size` — O(document) row touches.
//! - **Dewey**: appending a subtree only writes the new rows; no existing
//!   key changes — O(subtree) row touches (plain Dewey; mid-sibling
//!   inserts renumber following siblings' subtrees, which ORDPATH's
//!   careting would avoid).
//!
//! Both operations preserve exact reconstruction, which the tests verify.

use reldb::{row_int, Database, ExecResult, Value};
use shredder::dewey::{child_key, descendant_pattern};
use shredder::walk::flatten;
use xmlpar::Document;

use crate::error::{CoreError, Result};
use crate::sqlgen::sql_lit;

/// What an update touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Pre-existing rows that had to be rewritten (renumbering).
    pub rows_renumbered: usize,
    /// Rows inserted (the new subtree).
    pub rows_inserted: usize,
    /// Rows deleted.
    pub rows_deleted: usize,
}

fn affected(r: ExecResult) -> usize {
    match r {
        ExecResult::Affected(n) => n,
        ExecResult::Rows(_) => 0,
    }
}

/// Insert `fragment` as the **last child** of the interval-scheme node
/// `(doc, parent_pre)`.
pub fn interval_insert_child(
    db: &mut Database,
    doc: i64,
    parent_pre: i64,
    fragment: &Document,
) -> Result<UpdateStats> {
    let parent = db.query(&format!(
        "SELECT size, level FROM inode WHERE doc = {doc} AND pre = {parent_pre}"
    ))?;
    let row = parent
        .rows
        .first()
        .ok_or_else(|| CoreError::Translate(format!("no inode ({doc},{parent_pre})")))?;
    let psize = row_int(row, 0).unwrap_or(0);
    let plevel = row_int(row, 1).unwrap_or(0);
    let next_ord = db
        .query(&format!(
            "SELECT MAX(ordinal) FROM inode WHERE doc = {doc} AND parent = {parent_pre}"
        ))?
        .scalar()
        .and_then(Value::as_int)
        .map(|m| m + 1)
        .unwrap_or(0);

    let recs = flatten(fragment);
    let n = recs.len() as i64;
    let start = parent_pre + psize + 1;
    let boundary = parent_pre + psize;

    let mut stats = UpdateStats::default();
    // Grow ancestors (their pre/size are untouched by the shift below).
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET size = size + {n} WHERE doc = {doc} \
         AND pre <= {parent_pre} AND pre + size >= {parent_pre}"
    ))?);
    // Shift everything after the insertion point.
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET pre = pre + {n} WHERE doc = {doc} AND pre > {boundary}"
    ))?);
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET parent = parent + {n} WHERE doc = {doc} AND parent > {boundary}"
    ))?);
    // Insert the fragment.
    let rows: Vec<Vec<Value>> = recs
        .iter()
        .map(|r| {
            vec![
                Value::Int(doc),
                Value::Int(r.pre + start),
                Value::Int(r.size),
                Value::Int(r.level + plevel + 1),
                Value::Int(r.parent.map(|p| p + start).unwrap_or(parent_pre)),
                Value::Int(if r.parent.is_none() {
                    next_ord
                } else {
                    r.ordinal
                }),
                Value::text(r.kind.tag()),
                r.name.clone().map(Value::Text).unwrap_or(Value::Null),
                r.value.clone().map(Value::Text).unwrap_or(Value::Null),
            ]
        })
        .collect();
    stats.rows_inserted = db.bulk_insert("inode", rows)?;
    Ok(stats)
}

/// Delete the subtree rooted at the interval-scheme node `(doc, pre)`.
pub fn interval_delete_subtree(db: &mut Database, doc: i64, pre: i64) -> Result<UpdateStats> {
    let q = db.query(&format!(
        "SELECT size, parent, ordinal FROM inode WHERE doc = {doc} AND pre = {pre}"
    ))?;
    let row = q
        .rows
        .first()
        .ok_or_else(|| CoreError::Translate(format!("no inode ({doc},{pre})")))?;
    let size = row_int(row, 0).unwrap_or(0);
    let parent = row_int(row, 1);
    let ordinal = row_int(row, 2).unwrap_or(0);
    let n = size + 1;
    let hi = pre + size;

    let mut stats = UpdateStats {
        rows_deleted: affected(db.execute(&format!(
            "DELETE FROM inode WHERE doc = {doc} AND pre >= {pre} AND pre <= {hi}"
        ))?),
        ..UpdateStats::default()
    };
    // Shrink ancestors.
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET size = size - {n} WHERE doc = {doc} \
         AND pre < {pre} AND pre + size >= {hi}"
    ))?);
    // Close the pre gap.
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET pre = pre - {n} WHERE doc = {doc} AND pre > {hi}"
    ))?);
    stats.rows_renumbered += affected(db.execute(&format!(
        "UPDATE inode SET parent = parent - {n} WHERE doc = {doc} AND parent > {hi}"
    ))?);
    // Close the ordinal gap among following siblings.
    if let Some(p) = parent {
        stats.rows_renumbered += affected(db.execute(&format!(
            "UPDATE inode SET ordinal = ordinal - 1 WHERE doc = {doc} \
             AND parent = {p} AND ordinal > {ordinal}"
        ))?);
    }
    Ok(stats)
}

/// Insert `fragment` as the **last child** of the Dewey-scheme node
/// `(doc, parent_key)` — no existing row changes.
pub fn dewey_insert_child(
    db: &mut Database,
    doc: i64,
    parent_key: &str,
    fragment: &Document,
) -> Result<UpdateStats> {
    let parent = db.query(&format!(
        "SELECT level FROM dnode WHERE doc = {doc} AND dewey = {}",
        sql_lit(parent_key)
    ))?;
    let row = parent
        .rows
        .first()
        .ok_or_else(|| CoreError::Translate(format!("no dnode ({doc},{parent_key})")))?;
    let plevel = row_int(row, 0).unwrap_or(0);
    let next_ord = db
        .query(&format!(
            "SELECT MAX(ordinal) FROM dnode WHERE doc = {doc} AND parent = {}",
            sql_lit(parent_key)
        ))?
        .scalar()
        .and_then(Value::as_int)
        .map(|m| m + 1)
        .unwrap_or(0);

    let recs = flatten(fragment);
    // Derive keys: the fragment root becomes child `next_ord` of the parent.
    let mut keys: Vec<String> = Vec::with_capacity(recs.len());
    for r in &recs {
        let key = match r.parent {
            None => child_key(parent_key, next_ord),
            Some(p) => child_key(&keys[p as usize], r.ordinal),
        };
        keys.push(key);
    }
    let rows: Vec<Vec<Value>> = recs
        .iter()
        .zip(&keys)
        .map(|(r, key)| {
            vec![
                Value::Int(doc),
                Value::text(key.clone()),
                r.parent
                    .map(|p| Value::text(keys[p as usize].clone()))
                    .unwrap_or_else(|| Value::text(parent_key)),
                Value::Int(if r.parent.is_none() {
                    next_ord
                } else {
                    r.ordinal
                }),
                Value::Int(r.level + plevel + 1),
                Value::text(r.kind.tag()),
                r.name.clone().map(Value::Text).unwrap_or(Value::Null),
                r.value.clone().map(Value::Text).unwrap_or(Value::Null),
            ]
        })
        .collect();
    let inserted = db.bulk_insert("dnode", rows)?;
    Ok(UpdateStats {
        rows_renumbered: 0,
        rows_inserted: inserted,
        rows_deleted: 0,
    })
}

/// Delete the subtree rooted at the Dewey-scheme node `(doc, key)` — no
/// other row changes (keys may leave gaps; order is preserved).
pub fn dewey_delete_subtree(db: &mut Database, doc: i64, key: &str) -> Result<UpdateStats> {
    let deleted = affected(db.execute(&format!(
        "DELETE FROM dnode WHERE doc = {doc} AND (dewey = {k} OR dewey LIKE {pat})",
        k = sql_lit(key),
        pat = sql_lit(&descendant_pattern(key))
    ))?);
    if deleted == 0 {
        return Err(CoreError::Translate(format!("no dnode ({doc},{key})")));
    }
    Ok(UpdateStats {
        rows_renumbered: 0,
        rows_inserted: 0,
        rows_deleted: deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Scheme, XmlStore};
    use shredder::{DeweyScheme, IntervalScheme};

    const XML: &str = "<a><b><c>x</c></b><d>y</d></a>";

    #[test]
    fn interval_insert_preserves_reconstruction() {
        let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
            .open()
            .unwrap();
        let (doc, _) = store.load_str("t", XML).unwrap();
        // Insert <e>z</e> as last child of <b> (pre of b = 1).
        let frag = Document::parse("<e>z</e>").unwrap();
        let stats = store
            .with_db_mut(|db| interval_insert_child(db, doc, 1, &frag))
            .unwrap();
        assert_eq!(stats.rows_inserted, 2);
        // Renumbered: ancestors a,b sizes + shifted d,y (pre and parent).
        assert!(stats.rows_renumbered >= 4, "{stats:?}");
        assert_eq!(
            store.reconstruct("t").unwrap(),
            "<a><b><c>x</c><e>z</e></b><d>y</d></a>"
        );
    }

    #[test]
    fn interval_delete_preserves_reconstruction() {
        let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
            .open()
            .unwrap();
        let (doc, _) = store.load_str("t", XML).unwrap();
        // Delete <b> (pre 1, subtree of 3 nodes).
        let stats = store
            .with_db_mut(|db| interval_delete_subtree(db, doc, 1))
            .unwrap();
        assert_eq!(stats.rows_deleted, 3);
        assert_eq!(store.reconstruct("t").unwrap(), "<a><d>y</d></a>");
        // Queries still work after renumbering.
        assert_eq!(store.request("/a/d/text()").run().unwrap().items, vec!["y"]);
    }

    #[test]
    fn dewey_insert_touches_nothing_existing() {
        let mut store = XmlStore::builder(Scheme::Dewey(DeweyScheme::new()))
            .open()
            .unwrap();
        let (doc, _) = store.load_str("t", XML).unwrap();
        // Parent <b> has key 000000.000000.
        let frag = Document::parse("<e>z</e>").unwrap();
        let stats = store
            .with_db_mut(|db| dewey_insert_child(db, doc, "000000.000000", &frag))
            .unwrap();
        assert_eq!(stats.rows_renumbered, 0);
        assert_eq!(stats.rows_inserted, 2);
        assert_eq!(
            store.reconstruct("t").unwrap(),
            "<a><b><c>x</c><e>z</e></b><d>y</d></a>"
        );
    }

    #[test]
    fn dewey_delete_is_local() {
        let mut store = XmlStore::builder(Scheme::Dewey(DeweyScheme::new()))
            .open()
            .unwrap();
        let (doc, _) = store.load_str("t", XML).unwrap();
        let stats = store
            .with_db_mut(|db| dewey_delete_subtree(db, doc, "000000.000000"))
            .unwrap();
        assert_eq!(stats.rows_renumbered, 0);
        assert_eq!(stats.rows_deleted, 3);
        assert_eq!(store.reconstruct("t").unwrap(), "<a><d>y</d></a>");
    }

    #[test]
    fn renumbering_cost_scales_with_following_content() {
        // The E8 shape: interval renumbers O(rest of document), dewey O(0).
        let mut xml = String::from("<r><target/>");
        for i in 0..200 {
            xml.push_str(&format!("<f>{i}</f>"));
        }
        xml.push_str("</r>");

        let mut istore = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
            .open()
            .unwrap();
        let (idoc, _) = istore.load_str("t", &xml).unwrap();
        let frag = Document::parse("<x/>").unwrap();
        let istats = istore
            .with_db_mut(|db| interval_insert_child(db, idoc, 1, &frag))
            .unwrap();

        let mut dstore = XmlStore::builder(Scheme::Dewey(DeweyScheme::new()))
            .open()
            .unwrap();
        let (ddoc, _) = dstore.load_str("t", &xml).unwrap();
        let dstats = dstore
            .with_db_mut(|db| dewey_insert_child(db, ddoc, "000000.000000", &frag))
            .unwrap();

        assert!(
            istats.rows_renumbered > 200,
            "interval must renumber following rows: {istats:?}"
        );
        assert_eq!(dstats.rows_renumbered, 0, "dewey appends locally");
        // Both reconstruct identically.
        assert_eq!(
            istore.reconstruct("t").unwrap(),
            dstore.reconstruct("t").unwrap()
        );
    }

    #[test]
    fn missing_targets_error() {
        let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
            .open()
            .unwrap();
        let (doc, _) = store.load_str("t", XML).unwrap();
        let frag = Document::parse("<e/>").unwrap();
        assert!(store
            .with_db_mut(|db| interval_insert_child(db, doc, 999, &frag))
            .is_err());
        assert!(store
            .with_db_mut(|db| interval_delete_subtree(db, doc, 999))
            .is_err());
        let mut dstore = XmlStore::builder(Scheme::Dewey(DeweyScheme::new()))
            .open()
            .unwrap();
        let (ddoc, _) = dstore.load_str("t", XML).unwrap();
        assert!(dstore
            .with_db_mut(|db| dewey_insert_child(db, ddoc, "zz", &frag))
            .is_err());
        assert!(dstore
            .with_db_mut(|db| dewey_delete_subtree(db, ddoc, "zz"))
            .is_err());
    }
}
