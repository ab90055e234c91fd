//! Publishing: turn node keys from translated-query results back into
//! serialized XML fragments.

use std::collections::HashMap;

use reldb::{row_int, row_text, Database, Value};
use shredder::reconstruct::rebuild;
use shredder::walk::{NodeRec, RecKind};
use shredder::{
    BinaryScheme, DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, UniversalScheme,
};
use xmlpar::serialize;

use crate::compile::NodeKey;
use crate::error::{CoreError, Result};
use crate::sqlgen::{sql_ident, sql_lit};

/// Publish one interval-scheme node (and subtree).
pub fn publish_interval(db: &Database, _s: &IntervalScheme, doc: i64, pre: i64) -> Result<String> {
    // Fetch the node's size, then its whole interval.
    let size = db
        .query(&format!(
            "SELECT size FROM inode WHERE doc = {doc} AND pre = {pre}"
        ))?
        .scalar()
        .and_then(Value::as_int)
        .ok_or_else(|| CoreError::Translate(format!("no inode ({doc},{pre})")))?;
    let mut recs = Vec::new();
    db.prepare(&format!(
        "SELECT pre, parent, ordinal, kind, name, value FROM inode \
         WHERE doc = {doc} AND pre >= {pre} AND pre <= {hi}",
        hi = pre + size
    ))?
    .run(&db.limits, false, |row| {
        recs.push(rec_from_row(&row, pre));
        Ok(())
    })
    .0?;
    Ok(serialize::to_string(&rebuild(recs)?))
}

/// Publish one Dewey-scheme node.
pub fn publish_dewey(db: &Database, _s: &DeweyScheme, doc: i64, key: &str) -> Result<String> {
    // (dewey, parent, ordinal, kind, name, value)
    type RawRow = (
        String,
        Option<String>,
        i64,
        String,
        Option<String>,
        Option<String>,
    );
    let mut raw: Vec<RawRow> = Vec::new();
    db.prepare(&format!(
        "SELECT dewey, parent, ordinal, kind, name, value FROM dnode \
         WHERE doc = {doc} AND (dewey = {k} OR dewey LIKE {pat}) ORDER BY dewey",
        k = sql_lit(key),
        pat = sql_lit(&format!("{key}.%"))
    ))?
    .run(&db.limits, false, |row| {
        raw.push((
            row_text(&row, 0).unwrap_or("").to_string(),
            row_text(&row, 1).map(str::to_string),
            row_int(&row, 2).unwrap_or(0),
            row_text(&row, 3).unwrap_or("").to_string(),
            row_text(&row, 4).map(str::to_string),
            row_text(&row, 5).map(str::to_string),
        ));
        Ok(())
    })
    .0?;
    if raw.is_empty() {
        return Err(CoreError::Translate(format!("no dnode ({doc},{key})")));
    }
    let rank: HashMap<&str, i64> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| (r.0.as_str(), i as i64))
        .collect();
    let recs: Vec<NodeRec> = raw
        .iter()
        .enumerate()
        .map(|(i, (dewey, parent, ordinal, kind, name, value))| NodeRec {
            pre: i as i64,
            parent: if dewey == key {
                None
            } else {
                parent.as_deref().and_then(|p| rank.get(p)).copied()
            },
            ordinal: *ordinal,
            size: 0,
            level: 0,
            kind: RecKind::from_tag(kind).unwrap_or(RecKind::Elem),
            name: name.clone(),
            value: value.clone(),
        })
        .collect();
    Ok(serialize::to_string(&rebuild(recs)?))
}

/// Publish one edge-scheme node via level-order expansion.
pub fn publish_edge(db: &Database, _s: &EdgeScheme, doc: i64, pre: i64) -> Result<String> {
    let mut recs: Vec<NodeRec> = Vec::new();
    // The node's own edge row.
    db.prepare(&format!(
        "SELECT target, source, ordinal, kind, label, value FROM edge \
         WHERE doc = {doc} AND target = {pre}"
    ))?
    .run(&db.limits, false, |row| {
        recs.push(edge_rec(&row, pre));
        Ok(())
    })
    .0?;
    if recs.is_empty() {
        return Err(CoreError::Translate(format!("no edge node ({doc},{pre})")));
    }
    let mut frontier = vec![pre];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for chunk in frontier.chunks(200) {
            let list: Vec<String> = chunk.iter().map(i64::to_string).collect();
            db.prepare(&format!(
                "SELECT target, source, ordinal, kind, label, value FROM edge \
                 WHERE doc = {doc} AND source IN ({})",
                list.join(", ")
            ))?
            .run(&db.limits, false, |row| {
                let rec = edge_rec(&row, pre);
                if rec.kind == RecKind::Elem {
                    next.push(rec.pre);
                }
                recs.push(rec);
                Ok(())
            })
            .0?;
        }
        frontier = next;
    }
    Ok(serialize::to_string(&rebuild(recs)?))
}

fn edge_rec(row: &[Value], root_pre: i64) -> NodeRec {
    let target = row_int(row, 0).unwrap_or(0);
    NodeRec {
        pre: target,
        parent: if target == root_pre {
            None
        } else {
            row_int(row, 1)
        },
        ordinal: row_int(row, 2).unwrap_or(0),
        size: 0,
        level: 0,
        kind: RecKind::from_tag(row_text(row, 3).unwrap_or("")).unwrap_or(RecKind::Elem),
        name: row_text(row, 4).map(str::to_string),
        value: row_text(row, 5).map(str::to_string),
    }
}

fn rec_from_row(row: &[Value], root_pre: i64) -> NodeRec {
    let pre = row_int(row, 0).unwrap_or(0);
    NodeRec {
        pre,
        parent: if pre == root_pre {
            None
        } else {
            row_int(row, 1)
        },
        ordinal: row_int(row, 2).unwrap_or(0),
        size: 0,
        level: 0,
        kind: RecKind::from_tag(row_text(row, 3).unwrap_or("")).unwrap_or(RecKind::Elem),
        name: row_text(row, 4).map(str::to_string),
        value: row_text(row, 5).map(str::to_string),
    }
}

/// Publish one binary-scheme node via level-order expansion across the
/// label tables.
pub fn publish_binary(db: &Database, s: &BinaryScheme, doc: i64, pre: i64) -> Result<String> {
    let registry = s.path_summary(); // reuse prefix only for clarity
    let _ = registry;
    let labels = s.all_element_tables(db).map_err(CoreError::from)?;
    let attr_tables: Vec<(String, String)> = {
        // label registry: attribute tables.
        let mut v = Vec::new();
        db.prepare("SELECT label, tbl FROM bin_labels WHERE kind = 'attr'")?
            .run(&db.limits, false, |row| {
                v.push((
                    row_text(&row, 0).unwrap_or("").to_string(),
                    row_text(&row, 1).unwrap_or("").to_string(),
                ));
                Ok(())
            })
            .0?;
        v
    };
    let mut recs: Vec<NodeRec> = Vec::new();
    // Find the root node's row (label unknown: try each table).
    let mut root_label = None;
    for (label, tbl) in &labels {
        let q = db.query(&format!(
            "SELECT source, ordinal FROM {} WHERE doc = {doc} AND pre = {pre}",
            sql_ident(tbl)
        ))?;
        if let Some(row) = q.rows.first() {
            recs.push(NodeRec {
                pre,
                parent: None,
                ordinal: row_int(row, 1).unwrap_or(0),
                size: 0,
                level: 0,
                kind: RecKind::Elem,
                name: Some(label.clone()),
                value: None,
            });
            root_label = Some(label.clone());
            break;
        }
    }
    if root_label.is_none() {
        return Err(CoreError::Translate(format!(
            "no binary node ({doc},{pre})"
        )));
    }
    let mut frontier = vec![pre];
    while !frontier.is_empty() {
        let list: Vec<String> = frontier.iter().map(i64::to_string).collect();
        let in_list = list.join(", ");
        let mut next = Vec::new();
        for (label, tbl) in &labels {
            db.prepare(&format!(
                "SELECT pre, source, ordinal FROM {} \
                 WHERE doc = {doc} AND source IN ({in_list})",
                sql_ident(tbl)
            ))?
            .run(&db.limits, false, |row| {
                let p = row_int(&row, 0).unwrap_or(0);
                next.push(p);
                recs.push(NodeRec {
                    pre: p,
                    parent: row_int(&row, 1),
                    ordinal: row_int(&row, 2).unwrap_or(0),
                    size: 0,
                    level: 0,
                    kind: RecKind::Elem,
                    name: Some(label.clone()),
                    value: None,
                });
                Ok(())
            })
            .0?;
        }
        for (label, tbl) in &attr_tables {
            db.prepare(&format!(
                "SELECT pre, source, ordinal, value FROM {} \
                 WHERE doc = {doc} AND source IN ({in_list})",
                sql_ident(tbl)
            ))?
            .run(&db.limits, false, |row| {
                recs.push(NodeRec {
                    pre: row_int(&row, 0).unwrap_or(0),
                    parent: row_int(&row, 1),
                    ordinal: row_int(&row, 2).unwrap_or(0),
                    size: 0,
                    level: 0,
                    kind: RecKind::Attr,
                    name: Some(label.clone()),
                    value: row_text(&row, 3).map(str::to_string),
                });
                Ok(())
            })
            .0?;
        }
        db.prepare(&format!(
            "SELECT pre, source, ordinal, value FROM bin_text \
             WHERE doc = {doc} AND source IN ({in_list})"
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
        frontier = next;
    }
    Ok(serialize::to_string(&rebuild(recs)?))
}

/// Publish one universal-scheme node: rebuild the document once and index
/// by pre (the scheme has no per-subtree access path — a documented cost).
pub fn publish_universal(db: &Database, s: &UniversalScheme, doc: i64, pre: i64) -> Result<String> {
    use shredder::MappingScheme;
    let full = s.reconstruct(db, doc)?;
    // The stored node ids are the original document's pre-order numbers
    // (attributes counted, see `walk::flatten`), and reconstruction is
    // exact, so renumbering the rebuilt DOM with the same traversal finds
    // the node.
    for (node_id, node_pre) in collect_pre_order(&full) {
        if node_pre == pre {
            return Ok(serialize::node_to_string(&full, node_id));
        }
    }
    Err(CoreError::Translate(format!(
        "no universal node ({doc},{pre})"
    )))
}

/// Pair a document's element/text nodes with pre-order numbers using the
/// same numbering as `walk::flatten` (attributes consume numbers too).
fn collect_pre_order(doc: &xmlpar::Document) -> Vec<(xmlpar::NodeId, i64)> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    let mut counter: i64 = 0;
    while let Some(id) = stack.pop() {
        match &doc.node(id).kind {
            xmlpar::NodeKind::Element {
                attributes,
                children,
                ..
            } => {
                out.push((id, counter));
                counter += 1 + attributes.len() as i64;
                for &c in children.iter().rev() {
                    stack.push(c);
                }
            }
            xmlpar::NodeKind::Text(_) => {
                out.push((id, counter));
                counter += 1;
            }
            _ => {}
        }
    }
    out
}

/// Publish one inline-scheme node.
pub fn publish_inline(
    db: &Database,
    s: &InlineScheme,
    doc: i64,
    anchor: &str,
    id: i64,
    path: &[String],
) -> Result<String> {
    let fragment = s.reconstruct_node(db, doc, anchor, id, path)?;
    Ok(serialize::to_string(&fragment))
}

/// Dispatch on a decoded key. `publish_pre` is the scheme-appropriate
/// (doc, pre) publisher.
pub fn publish_key(
    db: &Database,
    key: &NodeKey,
    pre_publisher: &dyn Fn(&Database, i64, i64) -> Result<String>,
    dewey: Option<&DeweyScheme>,
    inline: Option<&InlineScheme>,
) -> Result<String> {
    match key {
        NodeKey::Pre { doc, pre } => pre_publisher(db, *doc, *pre),
        NodeKey::Dewey { doc, key } => {
            let s = dewey
                .ok_or_else(|| CoreError::Translate("dewey key without a dewey scheme".into()))?;
            publish_dewey(db, s, *doc, key)
        }
        NodeKey::Inline {
            doc,
            anchor,
            id,
            path,
        } => {
            let s = inline.ok_or_else(|| {
                CoreError::Translate("inline key without an inline scheme".into())
            })?;
            publish_inline(db, s, *doc, anchor, *id, path)
        }
    }
}
