//! Rebuilding a DOM from flat node records (the publishing direction).

use std::borrow::Borrow;
use std::collections::HashMap;

use xmlpar::{Document, NodeId, QName};

use crate::error::{Result, ShredError};
use crate::walk::{NodeRec, RecKind};

/// Rebuild a document from its records.
///
/// Ordering uses `(parent, ordinal)` — not global pre-order — so schemes
/// whose node identifiers are not pre-order numbers (Dewey keys, inlining
/// surrogates) can reconstruct exactly as long as they produce *unique*
/// `pre` identifiers, correct parent links, and per-parent ordinals.
/// Ties on `ordinal` fall back to `pre`.
pub fn rebuild(recs: Vec<NodeRec>) -> Result<Document> {
    let mut root: Option<&NodeRec> = None;
    let mut children: HashMap<i64, Vec<&NodeRec>> = HashMap::new();
    for rec in &recs {
        match rec.parent {
            None => {
                if root.is_some() {
                    return Err(ShredError::Corrupt("multiple root records".into()));
                }
                root = Some(rec);
            }
            Some(p) => children.entry(p).or_default().push(rec),
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|r| (r.ordinal, r.pre));
    }
    let Some(root) = root else {
        return Err(ShredError::Corrupt("no root record for document".into()));
    };
    let mut attached = 0;
    let doc = build(root, &children, &mut attached)?;
    let remaining = recs.len() - 1 - attached;
    if remaining != 0 {
        return Err(ShredError::Corrupt(format!(
            "{remaining} records unreachable from the root"
        )));
    }
    Ok(doc)
}

/// Rebuild the subtree under `root` as a document of its own. `children`
/// maps a record's `pre` to its child records, each list sorted by
/// `(ordinal, pre)` as [`rebuild`] sorts them; records that are not
/// below `root` are ignored.
pub fn rebuild_subtree<R: Borrow<NodeRec>>(
    root: &NodeRec,
    children: &HashMap<i64, Vec<R>>,
) -> Result<Document> {
    build(root, children, &mut 0)
}

/// Rebuild under `root`, counting the records attached below it.
fn build<R: Borrow<NodeRec>>(
    root: &NodeRec,
    children: &HashMap<i64, Vec<R>>,
    attached: &mut usize,
) -> Result<Document> {
    if root.kind != RecKind::Elem {
        return Err(ShredError::Corrupt("root record is not an element".into()));
    }
    let mut doc = Document::new_with_root(parse_name(root.name.as_deref())?);
    let root_id = doc.root();
    attach(&mut doc, root_id, root.pre, children, attached, 0)?;
    Ok(doc)
}

fn attach<R: Borrow<NodeRec>>(
    doc: &mut Document,
    parent_id: NodeId,
    parent_pre: i64,
    children: &HashMap<i64, Vec<R>>,
    attached: &mut usize,
    depth: usize,
) -> Result<()> {
    if depth > 100_000 {
        return Err(ShredError::Corrupt("parent links form a cycle".into()));
    }
    let Some(list) = children.get(&parent_pre) else {
        return Ok(());
    };
    for rec in list {
        let rec = rec.borrow();
        *attached += 1;
        match rec.kind {
            RecKind::Elem => {
                let id = doc.add_element(parent_id, parse_name(rec.name.as_deref())?, Vec::new());
                attach(doc, id, rec.pre, children, attached, depth + 1)?;
            }
            RecKind::Attr => {
                doc.add_attribute(
                    parent_id,
                    parse_name(rec.name.as_deref())?,
                    rec.value.clone().unwrap_or_default(),
                );
            }
            RecKind::Text => {
                doc.add_text(parent_id, rec.value.clone().unwrap_or_default());
            }
        }
    }
    Ok(())
}

fn parse_name(name: Option<&str>) -> Result<QName> {
    let n = name.ok_or_else(|| ShredError::Corrupt("element/attribute without name".into()))?;
    QName::parse(n).ok_or_else(|| ShredError::Corrupt(format!("invalid stored name {n:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::flatten;

    #[test]
    fn flatten_rebuild_round_trip() {
        let xml = r#"<book year="1967"><title>T</title><author><fn>R</fn></author></book>"#;
        let doc = Document::parse(xml).unwrap();
        let rebuilt = rebuild(flatten(&doc)).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), xml);
    }

    #[test]
    fn out_of_order_records_ok() {
        let doc = Document::parse("<a><b>x</b><c/></a>").unwrap();
        let mut recs = flatten(&doc);
        recs.reverse();
        let rebuilt = rebuild(recs).unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&rebuilt),
            "<a><b>x</b><c/></a>"
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(matches!(rebuild(vec![]), Err(ShredError::Corrupt(_))));
        let doc = Document::parse("<a><b/></a>").unwrap();
        let mut recs = flatten(&doc);
        recs.remove(0); // drop the root: b's parent is dangling
        assert!(matches!(rebuild(recs), Err(ShredError::Corrupt(_))));
    }

    #[test]
    fn mixed_content_round_trip() {
        let xml = "<p>hello <em>world</em> again</p>";
        let doc = Document::parse(xml).unwrap();
        let rebuilt = rebuild(flatten(&doc)).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), xml);
    }

    #[test]
    fn synthetic_pre_values_only_need_uniqueness() {
        // Records with arbitrary unique ids and correct (parent, ordinal).
        let recs = vec![
            NodeRec {
                pre: 900,
                parent: None,
                ordinal: 0,
                size: 0,
                level: 0,
                kind: RecKind::Elem,
                name: Some("r".into()),
                value: None,
            },
            NodeRec {
                pre: -5,
                parent: Some(900),
                ordinal: 1,
                size: 0,
                level: 1,
                kind: RecKind::Text,
                name: None,
                value: Some("second".into()),
            },
            NodeRec {
                pre: 17,
                parent: Some(900),
                ordinal: 0,
                size: 0,
                level: 1,
                kind: RecKind::Elem,
                name: Some("first".into()),
                value: None,
            },
        ];
        let doc = rebuild(recs).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&doc), "<r><first/>second</r>");
    }
}
