//! Publishing: turn the node keys of a request's result rows back into
//! serialized XML fragments.
//!
//! One request is published in two steps:
//!
//! 1. **fetch** — every node key of the result (each `OutKind::Nodes` row
//!    and each `Slot::Node` of a constructor template) is grouped by
//!    document and deduplicated, and the scheme reads the records of all
//!    their subtrees at once (see DESIGN.md §19 for the per-scheme
//!    statements). Every statement runs under the request's limits.
//! 2. **tag** — one tagger builds each item from the fetched records
//!    (`rebuild_subtree` + `serialize`) in the translated query's row
//!    order, polling the request's limits between items. Nested items
//!    reuse the records an enclosing item already fetched.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use reldb::{row_int, row_text, Database, ExecLimits, Value};
use shredder::inline::InlineLoader;
use shredder::reconstruct::rebuild_subtree;
use shredder::walk::{NodeRec, RecKind};
use shredder::{BinaryScheme, ShredError, UniversalScheme};
use xmlpar::serialize;
use xmlrel_obs::trace;

use crate::compile::driver::{OutKind, Slot, Template, Translated};
use crate::compile::{NodeKey, StepCompiler};
use crate::error::{CoreError, Result};
use crate::sqlgen::{sql_ident, sql_lit};
use crate::store::Scheme;

/// Most keys in one `IN (…)` list of a frontier statement.
const IN_LIST: usize = 200;

/// Publish `rows` per the translated query's output kind: string values
/// as they are, node keys and constructor templates as XML fragments.
pub(crate) fn publish_rows(
    scheme: &Scheme,
    db: &Database,
    limits: &ExecLimits,
    t: &Translated,
    rows: &[Vec<Value>],
) -> Result<Vec<String>> {
    let compiler = scheme.compiler();
    let (keys, template) = match &t.out {
        OutKind::Values { col } => {
            return Ok(rows
                .iter()
                .filter(|row| !row[*col].is_null())
                .map(|row| row[*col].to_string())
                .collect())
        }
        OutKind::Nodes => (
            rows.iter()
                .map(|row| compiler.decode_key(&row[..t.key_width]))
                .collect::<Result<Vec<_>>>()?,
            None,
        ),
        OutKind::Constructed(template) => {
            let mut keys = Vec::new();
            for row in rows {
                slot_keys(template, row, compiler.as_ref(), &mut keys)?;
            }
            (keys, Some(template))
        }
    };
    let mut fetched = {
        let _span = trace::span("publish.fetch", "core");
        fetch(scheme, db, limits, &keys)?
    };
    let _span = trace::span("publish.tag", "core");
    match template {
        None => keys
            .iter()
            .map(|key| {
                limits.poll("publish")?;
                fetched.tag(key)
            })
            .collect(),
        Some(template) => {
            let mut keys = keys.iter();
            rows.iter()
                .map(|row| {
                    limits.poll("publish")?;
                    let mut out = String::new();
                    render(template, row, &mut keys, &mut fetched, &mut out)?;
                    Ok(out)
                })
                .collect()
        }
    }
}

/// The node keys of one row's constructor slots, in rendering order.
fn slot_keys(
    template: &Template,
    row: &[Value],
    compiler: &dyn StepCompiler,
    keys: &mut Vec<NodeKey>,
) -> Result<()> {
    for child in &template.children {
        match child {
            Slot::Node(start) => {
                keys.push(compiler.decode_key(&row[*start..*start + compiler.key_width()])?)
            }
            Slot::Nested(t) => slot_keys(t, row, compiler, keys)?,
            Slot::Text(_) | Slot::Value(_) => {}
        }
    }
    Ok(())
}

/// Render one row's constructor; its node slots take the next keys of
/// `keys`, which [`slot_keys`] collected in the same order.
fn render(
    template: &Template,
    row: &[Value],
    keys: &mut std::slice::Iter<'_, NodeKey>,
    fetched: &mut Fetched<'_>,
    out: &mut String,
) -> Result<()> {
    out.push('<');
    out.push_str(&template.name);
    for (k, v) in &template.attrs {
        out.push_str(&format!(" {k}=\"{}\"", xmlpar::escape::escape_attr(v)));
    }
    if template.children.is_empty() {
        out.push_str("/>");
        return Ok(());
    }
    out.push('>');
    for child in &template.children {
        match child {
            Slot::Text(t) => out.push_str(&xmlpar::escape::escape_text(t)),
            Slot::Value(col) => {
                if let Some(v) = row.get(*col) {
                    if !v.is_null() {
                        out.push_str(&xmlpar::escape::escape_text(&v.to_string()));
                    }
                }
            }
            Slot::Node(_) => {
                let key = keys
                    .next()
                    .ok_or_else(|| CoreError::Translate("constructor slot without a key".into()))?;
                out.push_str(&fetched.tag(key)?);
            }
            Slot::Nested(t) => render(t, row, keys, fetched, out)?,
        }
    }
    out.push_str("</");
    out.push_str(&template.name);
    out.push('>');
    Ok(())
}

/// The records one request's items are built from, per document.
enum Fetched<'s> {
    /// Node records (edge, binary, universal, interval, dewey).
    Records(HashMap<i64, Forest>),
    /// One loaded inlining instance (inline).
    Inline(HashMap<i64, InlineLoader<'s>>),
}

impl Fetched<'_> {
    /// Serialize the subtree `key` names.
    fn tag(&mut self, key: &NodeKey) -> Result<String> {
        let found = match (&mut *self, key) {
            (Fetched::Records(docs), NodeKey::Pre { doc, pre }) => {
                docs.get(doc).map(|f| f.tag(*pre)).transpose()?.flatten()
            }
            (Fetched::Records(docs), NodeKey::Dewey { doc, key }) => docs
                .get(doc)
                .and_then(|f| f.dewey_ids.get(key).map(|id| f.tag(*id)))
                .transpose()?
                .flatten(),
            (
                Fetched::Inline(loaders),
                NodeKey::Inline {
                    doc,
                    anchor,
                    id,
                    path,
                },
            ) => match loaders.get_mut(doc) {
                Some(loader) => Some(serialize::to_string(&loader.build_node(anchor, *id, path)?)),
                None => None,
            },
            _ => None,
        };
        found.ok_or_else(|| CoreError::Translate(format!("no stored node for {key:?}")))
    }
}

/// One document's fetched node records, grouped under their parents the
/// way [`rebuild_subtree`] reads them, so tagging copies no record.
#[derive(Default)]
struct Forest {
    /// Ids of the request's keys in this document, sorted.
    keys: Vec<i64>,
    /// Each fetched key → its parent's id and its ordinal.
    placed: HashMap<i64, (Option<i64>, i64)>,
    /// Parent id → child records, sorted by `(ordinal, pre)` once fetched.
    children: HashMap<i64, Vec<NodeRec>>,
    /// Fetched records without a parent: document roots.
    roots: Vec<NodeRec>,
    /// Dewey key → the id its records carry (dewey only).
    dewey_ids: HashMap<String, i64>,
}

impl Forest {
    /// A forest for the sorted ids of the request's keys in one document.
    fn new(keys: Vec<i64>) -> Forest {
        Forest {
            keys,
            ..Forest::default()
        }
    }

    /// Add `rec`; false when it is a key's record fetched before. Only a
    /// key's record can come twice: every other record is read once,
    /// with its parent's children, and no parent is expanded twice.
    fn insert(&mut self, rec: NodeRec) -> bool {
        if self.keys.binary_search(&rec.pre).is_ok() {
            match self.placed.entry(rec.pre) {
                Entry::Occupied(_) => return false,
                Entry::Vacant(slot) => slot.insert((rec.parent, rec.ordinal)),
            };
        }
        match rec.parent {
            Some(p) => self.children.entry(p).or_default().push(rec),
            None => self.roots.push(rec),
        }
        true
    }

    /// Whether the key `id` has been fetched.
    fn contains(&self, id: i64) -> bool {
        self.placed.contains_key(&id)
    }

    /// The id standing for a Dewey key, assigned on first sight.
    fn dewey_id(&mut self, key: &str) -> i64 {
        let next = self.dewey_ids.len() as i64;
        *self.dewey_ids.entry(key.to_string()).or_insert(next)
    }

    /// Whether the node a Dewey key names has been fetched.
    fn has_dewey(&self, key: &str) -> bool {
        self.dewey_ids.get(key).is_some_and(|id| self.contains(*id))
    }

    /// Put every sibling list in document order; fetching is done.
    fn sort(&mut self) {
        for list in self.children.values_mut().chain([&mut self.roots]) {
            list.sort_by_key(|r| (r.ordinal, r.pre));
        }
    }

    /// The subtree under key `id`, serialized; `None` when `id` was not
    /// fetched.
    fn tag(&self, id: i64) -> Result<Option<String>> {
        let Some(&(parent, ordinal)) = self.placed.get(&id) else {
            return Ok(None);
        };
        let siblings = match parent {
            Some(p) => self.children.get(&p).map_or(&[][..], Vec::as_slice),
            None => &self.roots,
        };
        let Ok(at) = siblings.binary_search_by_key(&(ordinal, id), |r| (r.ordinal, r.pre)) else {
            return Ok(None);
        };
        let doc = rebuild_subtree(&siblings[at], &self.children)?;
        Ok(Some(serialize::to_string(&doc)))
    }
}

/// Fetch the records of every subtree `keys` name: once per document,
/// however many items the request has.
fn fetch<'s>(
    scheme: &'s Scheme,
    db: &Database,
    limits: &ExecLimits,
    keys: &[NodeKey],
) -> Result<Fetched<'s>> {
    let pre = |k: &NodeKey| match k {
        NodeKey::Pre { doc, pre } => Some((*doc, *pre)),
        _ => None,
    };
    let mut docs = match scheme {
        Scheme::Edge(_) => per_doc(keys, pre, |doc, pres| edge(db, limits, doc, &pres))?,
        Scheme::Binary(s) => per_doc(keys, pre, |doc, pres| binary(s, db, limits, doc, &pres))?,
        Scheme::Universal(s) => {
            per_doc(keys, pre, |doc, pres| universal(s, db, limits, doc, &pres))?
        }
        Scheme::Interval(_) => per_doc(keys, pre, |doc, pres| interval(db, limits, doc, &pres))?,
        Scheme::Dewey(_) => per_doc(
            keys,
            |k| match k {
                NodeKey::Dewey { doc, key } => Some((*doc, key.clone())),
                _ => None,
            },
            |doc, deweys| dewey(db, limits, doc, &deweys),
        )?,
        Scheme::Inline(s) => {
            return Ok(Fetched::Inline(per_doc(
                keys,
                |k| match k {
                    NodeKey::Inline { doc, .. } => Some((*doc, ())),
                    _ => None,
                },
                |doc, _| InlineLoader::load(&s.mapping, db, limits, doc).map_err(shred_err),
            )?))
        }
    };
    for forest in docs.values_mut() {
        forest.sort();
    }
    Ok(Fetched::Records(docs))
}

/// Group `keys` by document (`part` splits a key into document and
/// per-document part), drop duplicates, and run `fetch_doc` once per
/// document on its parts in ascending order.
fn per_doc<K: Ord, V>(
    keys: &[NodeKey],
    part: impl Fn(&NodeKey) -> Option<(i64, K)>,
    mut fetch_doc: impl FnMut(i64, Vec<K>) -> Result<V>,
) -> Result<HashMap<i64, V>> {
    let mut by_doc: BTreeMap<i64, BTreeSet<K>> = BTreeMap::new();
    for k in keys {
        let (doc, part) = part(k)
            .ok_or_else(|| CoreError::Translate("node key does not match the scheme".into()))?;
        by_doc.entry(doc).or_default().insert(part);
    }
    by_doc
        .into_iter()
        .map(|(doc, parts)| Ok((doc, fetch_doc(doc, parts.into_iter().collect())?)))
        .collect()
}

/// Run one fetch statement under `limits`, feeding each row to `f`.
fn each_row(
    db: &Database,
    limits: &ExecLimits,
    sql: &str,
    mut f: impl FnMut(&[Value]),
) -> Result<()> {
    db.prepare(sql)?
        .run(limits, false, |row| {
            f(&row);
            Ok(())
        })
        .0?;
    Ok(())
}

/// A shredder error, with a database error (a limit trip above all)
/// passed on as the [`CoreError::Db`] every other statement yields.
fn shred_err(e: ShredError) -> CoreError {
    match e {
        ShredError::Db(e) => CoreError::Db(e),
        e => CoreError::Shred(e),
    }
}

/// `col IN (ids)` for sorted `ids`, led by their range: reldb answers an
/// `IN` list only by testing every row it reads, but it reads an index
/// over a range, so the range keeps a frontier from scanning the table.
fn any_of(col: &str, ids: &[i64]) -> String {
    let (lo, hi) = (ids.first().unwrap_or(&0), ids.last().unwrap_or(&0));
    let list: Vec<String> = ids.iter().map(i64::to_string).collect();
    format!(
        "{col} >= {lo} AND {col} <= {hi} AND {col} IN ({})",
        list.join(", ")
    )
}

/// A record from `(id, parent, ordinal, kind, name, value)` columns.
fn node_rec(row: &[Value]) -> NodeRec {
    NodeRec {
        pre: row_int(row, 0).unwrap_or(0),
        parent: row_int(row, 1),
        ordinal: row_int(row, 2).unwrap_or(0),
        size: 0,
        level: 0,
        kind: RecKind::from_tag(row_text(row, 3).unwrap_or("")).unwrap_or(RecKind::Elem),
        name: row_text(row, 4).map(str::to_string),
        value: row_text(row, 5).map(str::to_string),
    }
}

/// Edge: the keys' own rows, then a level-wise frontier over `source`
/// that starts from all keys at once.
fn edge(db: &Database, limits: &ExecLimits, doc: i64, pres: &[i64]) -> Result<Forest> {
    let mut forest = Forest::new(pres.to_vec());
    for chunk in pres.chunks(IN_LIST) {
        each_row(
            db,
            limits,
            &format!(
                "SELECT target, source, ordinal, kind, label, value FROM edge \
                 WHERE doc = {doc} AND {}",
                any_of("target", chunk)
            ),
            |row| {
                forest.insert(node_rec(row));
            },
        )?;
    }
    let mut frontier = pres.to_vec();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for chunk in frontier.chunks(IN_LIST) {
            each_row(
                db,
                limits,
                &format!(
                    "SELECT target, source, ordinal, kind, label, value FROM edge \
                     WHERE doc = {doc} AND {}",
                    any_of("source", chunk)
                ),
                |row| {
                    let rec = node_rec(row);
                    let (id, elem) = (rec.pre, rec.kind == RecKind::Elem);
                    if forest.insert(rec) && elem {
                        next.push(id);
                    }
                },
            )?;
        }
        next.sort_unstable();
        frontier = next;
    }
    Ok(forest)
}

/// A binary-scheme record from `(pre, source, ordinal[, value])`.
fn bin_rec(row: &[Value], kind: RecKind, name: Option<&str>) -> NodeRec {
    NodeRec {
        pre: row_int(row, 0).unwrap_or(0),
        parent: row_int(row, 1),
        ordinal: row_int(row, 2).unwrap_or(0),
        size: 0,
        level: 0,
        kind,
        name: name.map(str::to_string),
        value: row_text(row, 3).map(str::to_string),
    }
}

/// Binary: the keys' own rows from every element table, then a
/// level-wise frontier over `source` across the element, attribute and
/// text tables. Statements grow with depth and label count, not items.
fn binary(
    s: &BinaryScheme,
    db: &Database,
    limits: &ExecLimits,
    doc: i64,
    pres: &[i64],
) -> Result<Forest> {
    let (mut elems, mut attrs) = (Vec::new(), Vec::new());
    for (label, kind, tbl) in s.registry().all(db).map_err(shred_err)? {
        match kind.as_str() {
            "elem" => elems.push((label, tbl)),
            "attr" => attrs.push((label, tbl)),
            _ => {}
        }
    }
    let mut forest = Forest::new(pres.to_vec());
    for (label, tbl) in &elems {
        for chunk in pres.chunks(IN_LIST) {
            each_row(
                db,
                limits,
                &format!(
                    "SELECT pre, source, ordinal FROM {} WHERE doc = {doc} AND {}",
                    sql_ident(tbl),
                    any_of("pre", chunk)
                ),
                |row| {
                    forest.insert(bin_rec(row, RecKind::Elem, Some(label)));
                },
            )?;
        }
    }
    let mut frontier = pres.to_vec();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for chunk in frontier.chunks(IN_LIST) {
            let sources = any_of("source", chunk);
            for (label, tbl) in &elems {
                each_row(
                    db,
                    limits,
                    &format!(
                        "SELECT pre, source, ordinal FROM {} \
                         WHERE doc = {doc} AND {sources}",
                        sql_ident(tbl)
                    ),
                    |row| {
                        let rec = bin_rec(row, RecKind::Elem, Some(label));
                        let id = rec.pre;
                        if forest.insert(rec) {
                            next.push(id);
                        }
                    },
                )?;
            }
            for (label, tbl) in &attrs {
                each_row(
                    db,
                    limits,
                    &format!(
                        "SELECT pre, source, ordinal, value FROM {} \
                         WHERE doc = {doc} AND {sources}",
                        sql_ident(tbl)
                    ),
                    |row| {
                        forest.insert(bin_rec(row, RecKind::Attr, Some(label)));
                    },
                )?;
            }
            each_row(
                db,
                limits,
                &format!(
                    "SELECT pre, source, ordinal, value FROM bin_text \
                     WHERE doc = {doc} AND {sources}"
                ),
                |row| {
                    forest.insert(bin_rec(row, RecKind::Text, None));
                },
            )?;
        }
        next.sort_unstable();
        frontier = next;
    }
    Ok(forest)
}

/// Universal: the scheme has no per-subtree access path, so the whole
/// document's records are read once per request.
fn universal(
    s: &UniversalScheme,
    db: &Database,
    limits: &ExecLimits,
    doc: i64,
    pres: &[i64],
) -> Result<Forest> {
    let mut forest = Forest::new(pres.to_vec());
    for rec in s.records(db, limits, doc).map_err(shred_err)? {
        forest.insert(rec);
    }
    Ok(forest)
}

/// Interval: per key, its size, then its `pre ..= pre + size` range.
/// Keys come in document order, so a key inside an earlier key's range
/// is already fetched and costs no statement.
fn interval(db: &Database, limits: &ExecLimits, doc: i64, pres: &[i64]) -> Result<Forest> {
    let mut forest = Forest::new(pres.to_vec());
    for &pre in pres {
        if forest.contains(pre) {
            continue;
        }
        let mut size = None;
        each_row(
            db,
            limits,
            &format!("SELECT size FROM inode WHERE doc = {doc} AND pre = {pre}"),
            |row| size = size.or(row_int(row, 0)),
        )?;
        let Some(size) = size else { continue };
        each_row(
            db,
            limits,
            &format!(
                "SELECT pre, parent, ordinal, kind, name, value FROM inode \
                 WHERE doc = {doc} AND pre >= {pre} AND pre <= {hi}",
                hi = pre + size
            ),
            |row| {
                forest.insert(node_rec(row));
            },
        )?;
    }
    Ok(forest)
}

/// Dewey: per key, one index range over `dnode_key` holding the key and
/// every key that extends it by `.`: components are fixed-width hex and
/// `/` is the byte after `.`. Keys come sorted, so ancestors precede
/// descendants and a key an earlier range covered costs no statement.
fn dewey(db: &Database, limits: &ExecLimits, doc: i64, deweys: &[String]) -> Result<Forest> {
    let mut forest = Forest::default();
    // Keys take the first ids, in their sorted order.
    let keys = deweys.iter().map(|k| forest.dewey_id(k)).collect();
    forest.keys = keys;
    for key in deweys {
        if forest.has_dewey(key) {
            continue;
        }
        each_row(
            db,
            limits,
            &format!(
                "SELECT dewey, parent, ordinal, kind, name, value FROM dnode \
                 WHERE doc = {doc} AND dewey >= {lo} AND dewey < {hi}",
                lo = sql_lit(key),
                hi = sql_lit(&format!("{key}/"))
            ),
            |row| {
                let pre = forest.dewey_id(row_text(row, 0).unwrap_or(""));
                let parent = row_text(row, 1).map(|p| forest.dewey_id(p));
                forest.insert(NodeRec {
                    pre,
                    parent,
                    ..node_rec(row)
                });
            },
        )?;
    }
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::XmlStore;
    use reldb::{CancelToken, DbError};
    use shredder::{
        BinaryScheme, DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, UniversalScheme,
    };

    const DTD: &str = r#"
        <!ELEMENT r (s*)>
        <!ELEMENT s (t?)>
        <!ATTLIST s a CDATA #IMPLIED>
        <!ELEMENT t (#PCDATA)>
    "#;
    const XML: &str = r#"<r><s a="1"><t>one</t></s><s a="2"/><s><t>three</t></s></r>"#;

    fn schemes() -> Vec<Scheme> {
        vec![
            Scheme::Edge(EdgeScheme::new()),
            Scheme::Binary(BinaryScheme::new()),
            Scheme::Universal(UniversalScheme::new()),
            Scheme::Interval(IntervalScheme::new()),
            Scheme::Dewey(DeweyScheme::new()),
            Scheme::Inline(InlineScheme::from_dtd_text(DTD).unwrap()),
        ]
    }

    #[test]
    fn cancelled_token_stops_publishing_on_every_scheme() {
        for scheme in schemes() {
            let name = scheme.name();
            let mut store = XmlStore::builder(scheme).open().unwrap();
            store.load_str("d", XML).unwrap();
            let out = store.request("/r/s").run().unwrap();
            assert_eq!(out.items.len(), 3, "{name}");
            let db = store.snapshot();
            let t = Translated {
                sql: out.sql.clone(),
                out: OutKind::Nodes,
                key_width: store.scheme().compiler().key_width(),
                positional: None,
            };
            let again = publish_rows(store.scheme(), &db, &db.limits, &t, &out.rows).unwrap();
            assert_eq!(again, out.items, "{name}");

            let token = CancelToken::new();
            token.cancel();
            let limits = db.limits.clone().with_cancel(&token);
            let sink = trace::TraceSink::new();
            let err = {
                let _guard = trace::install(&sink);
                publish_rows(store.scheme(), &db, &limits, &t, &out.rows).unwrap_err()
            };
            assert!(
                matches!(err, CoreError::Db(DbError::Cancelled(_))),
                "{name}: {err:?}"
            );
            // The fetch statements themselves trip: tagging never starts.
            assert!(
                sink.events().iter().all(|e| e.name != "publish.tag"),
                "{name}: fetch ran past the cancelled token"
            );
        }
    }
}
