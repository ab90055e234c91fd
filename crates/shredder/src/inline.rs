//! The **DTD shared-inlining** mapping (Shanmugasundaram et al. 1999).
//!
//! The DTD is normalized (see [`xmlpar::dtd`]) and each element type is
//! either given its **own table** or **inlined** into its nearest tabled
//! ancestor as a group of columns. An element gets a table when:
//!
//! - it is the DTD root (or has no declared parent),
//! - some parent may contain it *many* times (`*`/`+` after normalization),
//! - it is **shared** (reachable from two or more distinct parents),
//! - it participates in a **recursive** cycle, or
//! - it has **mixed content** (text interleaved with element children,
//!   whose order needs per-node bookkeeping).
//!
//! Everything else — elements that occur at most once under a single
//! parent type — is inlined: its text value, attributes, and (recursively)
//! its inlined children become columns `a_b_val`, `a_b_attr_x`, … of the
//! ancestor's table. This is exactly the join-saving the scheme is famous
//! for: `/root/a/b` reads *one* table when `a` and `b` are inlined.
//!
//! Table layout for a tabled element `T`:
//!
//! ```text
//! inl_<T>(doc, id, parent_id, parent_tbl, parent_path, ord, ...value cols)
//! inl_text(doc, tbl, parent_id, ord, value)     -- text of mixed elements
//! ```
//!
//! `parent_tbl`/`parent_path` record *which* table row and *which* inlined
//! element within it the row hangs under (needed for shared and recursive
//! elements); `ord` is the child's global ordinal under its parent element
//! so document order survives reconstruction.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use reldb::{row_int, row_text, Database, ExecLimits, ExecResult, Value};
use xmlpar::dtd::{Card, Dtd, NormalizedModel};
use xmlpar::{Document, NodeId, NodeKind, QName};

use crate::error::{Result, ShredError};
use crate::labels::sanitize;
use crate::scheme::{MappingScheme, ShredStats};

/// Kind of a value column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColKind {
    /// Concatenated text content of the element at `path`.
    Pcdata,
    /// An attribute of the element at `path`.
    Attr(String),
    /// Presence marker for an optional inlined element.
    Present,
}

/// One value column of an inlined table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineCol {
    /// Inline path from the table's element (empty = the element itself).
    pub path: Vec<String>,
    /// What the column stores.
    pub kind: ColKind,
    /// SQL column name.
    pub column: String,
}

/// A tabled element's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Element name.
    pub element: String,
    /// SQL table name.
    pub table: String,
    /// Value columns in declaration order.
    pub columns: Vec<InlineCol>,
    /// Whether the element's own text goes to the `inl_text` side table
    /// (mixed content) rather than a `val` column.
    pub mixed: bool,
}

impl TableDef {
    /// Find a value column by path and kind.
    pub fn find_col(&self, path: &[String], kind: &ColKind) -> Option<&InlineCol> {
        self.columns
            .iter()
            .find(|c| c.path == path && c.kind == *kind)
    }

    /// Row offset of `col` in the table's full layout (6 fixed columns
    /// precede the value columns). `Corrupt` when the column does not
    /// belong to this definition — e.g. a mapping edited behind our back.
    pub fn col_offset(&self, col: &InlineCol) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == col)
            .map(|i| 6 + i)
            .ok_or_else(|| {
                ShredError::Corrupt(format!(
                    "column {:?} is not part of table {:?}",
                    col.column, self.table
                ))
            })
    }
}

/// The complete inlining decision for a DTD.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineMapping {
    /// The DTD's root element.
    pub root: String,
    /// Tabled elements.
    pub tables: BTreeMap<String, TableDef>,
    /// Normalized DTD models (needed for shredding/reconstruction order).
    pub models: BTreeMap<String, NormalizedModel>,
    /// Attribute names per element, in DTD order.
    pub attrs: BTreeMap<String, Vec<String>>,
}

impl InlineMapping {
    /// Decide the mapping for a DTD.
    pub fn from_dtd(dtd: &Dtd) -> Result<InlineMapping> {
        let models = dtd.normalize();
        let root = dtd
            .root
            .clone()
            .or_else(|| pick_root(&models))
            .ok_or_else(|| ShredError::Unsupported("DTD has no root element".into()))?;
        if !models.contains_key(&root) {
            return Err(ShredError::Unsupported(format!(
                "root element {root:?} is not declared"
            )));
        }
        // All referenced children must be declared.
        for (el, m) in &models {
            for (c, _) in &m.children {
                if !models.contains_key(c) {
                    return Err(ShredError::Unsupported(format!(
                        "element {c:?} referenced by {el:?} is not declared"
                    )));
                }
            }
        }
        // Parent map.
        let mut parents: BTreeMap<&str, Vec<(&str, Card)>> = BTreeMap::new();
        for (p, m) in &models {
            for (c, card) in &m.children {
                parents.entry(c).or_default().push((p, *card));
            }
        }
        // Tabling decision.
        let mut tabled: BTreeSet<&str> = BTreeSet::new();
        tabled.insert(root.as_str());
        for (el, m) in &models {
            let ps = parents.get(el.as_str());
            let shared = ps
                .map(|v| v.iter().map(|(p, _)| p).collect::<BTreeSet<_>>().len() > 1)
                .unwrap_or(false);
            let set_valued = ps
                .map(|v| v.iter().any(|(_, c)| *c == Card::Many))
                .unwrap_or(false);
            let orphan = ps.is_none();
            let mixed = m.pcdata && !m.children.is_empty();
            if shared || set_valued || orphan || mixed {
                tabled.insert(el.as_str());
            }
        }
        // Cycles: every element on a cycle gets a table.
        for el in cycle_elements(&models) {
            tabled.insert(el);
        }
        // Build table defs.
        let attrs: BTreeMap<String, Vec<String>> = models
            .keys()
            .map(|el| {
                (
                    el.clone(),
                    dtd.attributes_of(el)
                        .iter()
                        .map(|a| a.name.clone())
                        .collect(),
                )
            })
            .collect();
        let mut tables = BTreeMap::new();
        for &el in &tabled {
            let m = &models[el];
            let mixed = m.pcdata && !m.children.is_empty();
            let mut used: HashMap<String, usize> = HashMap::new();
            let mut columns = Vec::new();
            // The element's own attributes and (pure) text.
            for a in &attrs[el] {
                columns.push(InlineCol {
                    path: Vec::new(),
                    kind: ColKind::Attr(a.clone()),
                    column: unique_col(&mut used, &format!("attr_{}", sanitize(a))),
                });
            }
            if m.pcdata && !mixed {
                columns.push(InlineCol {
                    path: Vec::new(),
                    kind: ColKind::Pcdata,
                    column: unique_col(&mut used, "val"),
                });
            }
            inline_columns(
                el,
                &models,
                &attrs,
                &tabled,
                &mut Vec::new(),
                &mut used,
                &mut columns,
            )?;
            tables.insert(
                el.to_string(),
                TableDef {
                    element: el.to_string(),
                    table: format!("inl_{}", sanitize(el)),
                    columns,
                    mixed,
                },
            );
        }
        Ok(InlineMapping {
            root,
            tables,
            models,
            attrs,
        })
    }

    /// Is this element tabled?
    pub fn is_tabled(&self, element: &str) -> bool {
        self.tables.contains_key(element)
    }

    /// Number of tables the mapping creates (+1 for `inl_text`).
    pub fn table_count(&self) -> usize {
        self.tables.len() + 1
    }
}

fn pick_root(models: &BTreeMap<String, NormalizedModel>) -> Option<String> {
    // The element no other element references.
    let referenced: BTreeSet<&str> = models
        .values()
        .flat_map(|m| m.children.iter().map(|(c, _)| c.as_str()))
        .collect();
    models
        .keys()
        .find(|el| !referenced.contains(el.as_str()))
        .cloned()
        // Fully cyclic DTD fragments reference every element; fall back to
        // the first declared element (any cycle member is tabled anyway).
        .or_else(|| models.keys().next().cloned())
}

fn unique_col(used: &mut HashMap<String, usize>, base: &str) -> String {
    let n = used.entry(base.to_string()).or_insert(0);
    *n += 1;
    if *n == 1 {
        base.to_string()
    } else {
        format!("{base}_{n}")
    }
}

/// Recursively add columns for the inlined children of `el`.
fn inline_columns(
    el: &str,
    models: &BTreeMap<String, NormalizedModel>,
    attrs: &BTreeMap<String, Vec<String>>,
    tabled: &BTreeSet<&str>,
    path: &mut Vec<String>,
    used: &mut HashMap<String, usize>,
    out: &mut Vec<InlineCol>,
) -> Result<()> {
    let m = &models[el];
    for (child, card) in &m.children {
        if tabled.contains(child.as_str()) {
            continue; // linked via parent_id, not columns
        }
        debug_assert_ne!(*card, Card::Many, "many-children are always tabled");
        path.push(child.clone());
        let prefix = path
            .iter()
            .map(|p| sanitize(p))
            .collect::<Vec<_>>()
            .join("_");
        let cm = &models[child];
        if *card == Card::Opt {
            out.push(InlineCol {
                path: path.clone(),
                kind: ColKind::Present,
                column: unique_col(used, &format!("{prefix}_present")),
            });
        }
        for a in &attrs[child] {
            out.push(InlineCol {
                path: path.clone(),
                kind: ColKind::Attr(a.clone()),
                column: unique_col(used, &format!("{prefix}_attr_{}", sanitize(a))),
            });
        }
        if cm.pcdata {
            out.push(InlineCol {
                path: path.clone(),
                kind: ColKind::Pcdata,
                column: unique_col(used, &format!("{prefix}_val")),
            });
        }
        inline_columns(child, models, attrs, tabled, path, used, out)?;
        path.pop();
    }
    Ok(())
}

/// Elements involved in any DTD cycle (DFS with colors).
fn cycle_elements(models: &BTreeMap<String, NormalizedModel>) -> BTreeSet<&str> {
    // Tarjan-lite: find strongly connected components of size > 1 or with
    // self-loops; everything in such a component is "recursive".
    let names: Vec<&str> = models.keys().map(String::as_str).collect();
    let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = names.len();
    let adj: Vec<Vec<usize>> = names
        .iter()
        .map(|&el| {
            models[el]
                .children
                .iter()
                .filter_map(|(c, _)| index.get(c.as_str()).copied())
                .collect()
        })
        .collect();
    // Iterative Tarjan.
    let mut idx = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut out: BTreeSet<&str> = BTreeSet::new();
    #[allow(clippy::needless_range_loop)]
    for start in 0..n {
        if idx[start] != usize::MAX {
            continue;
        }
        // Explicit DFS stack: (node, child position).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        idx[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if idx[w] == usize::MAX {
                    idx[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                dfs.pop();
                if let Some(&mut (p, _)) = dfs.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == idx[v] {
                    // Root of an SCC.
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = matches!(comp.as_slice(), &[w] if adj[w].contains(&w));
                    if comp.len() > 1 || self_loop {
                        for w in comp {
                            out.insert(names[w]);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The inlining scheme: owns an [`InlineMapping`] derived from a DTD.
#[derive(Debug, Clone)]
pub struct InlineScheme {
    /// The mapping.
    pub mapping: InlineMapping,
}

impl InlineScheme {
    /// Build the scheme from a DTD.
    pub fn from_dtd(dtd: &Dtd) -> Result<InlineScheme> {
        Ok(InlineScheme {
            mapping: InlineMapping::from_dtd(dtd)?,
        })
    }

    /// Build from DTD fragment text (convenience).
    pub fn from_dtd_text(text: &str) -> Result<InlineScheme> {
        let dtd = xmlpar::dtd::parse_dtd_fragment(text)?;
        InlineScheme::from_dtd(&dtd)
    }
}

impl MappingScheme for InlineScheme {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn install(&self, db: &mut Database) -> Result<()> {
        for def in self.mapping.tables.values() {
            let mut ddl = format!(
                "CREATE TABLE {} (doc INT NOT NULL, id INT NOT NULL, parent_id INT, \
                 parent_tbl TEXT, parent_path TEXT, ord INT NOT NULL",
                def.table
            );
            for c in &def.columns {
                ddl.push_str(&format!(", {} TEXT", c.column));
            }
            ddl.push(')');
            db.execute(&ddl)?;
            db.execute(&format!(
                "CREATE INDEX {0}_parent ON {0} (parent_id, doc)",
                def.table
            ))?;
            db.execute(&format!("CREATE INDEX {0}_id ON {0} (id, doc)", def.table))?;
        }
        db.execute(
            "CREATE TABLE inl_text (doc INT NOT NULL, tbl TEXT NOT NULL, \
             parent_id INT NOT NULL, ord INT NOT NULL, value TEXT)",
        )?;
        db.execute("CREATE INDEX inl_text_parent ON inl_text (parent_id, doc)")?;
        Ok(())
    }

    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats> {
        let root_label = doc
            .name(doc.root())
            .map(QName::as_label)
            .unwrap_or_default();
        if !self.mapping.is_tabled(&root_label) {
            return Err(ShredError::Unsupported(format!(
                "document root {root_label:?} has no table in the inline mapping"
            )));
        }
        let mut sh = InlineShredder {
            mapping: &self.mapping,
            doc,
            doc_id,
            next_id: 0,
            rows: BTreeMap::new(),
            text_rows: Vec::new(),
            stats: ShredStats::default(),
        };
        sh.shred_tabled(doc.root(), None)?;
        let InlineShredder {
            rows,
            text_rows,
            stats,
            ..
        } = sh;
        for (table, rs) in rows {
            db.bulk_insert(&table, rs)?;
        }
        db.bulk_insert("inl_text", text_rows)?;
        Ok(stats)
    }

    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        let mut loader = InlineLoader::load(&self.mapping, db, &db.limits, doc_id)?;
        loader.build()
    }

    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize> {
        let mut n = 0;
        for def in self.mapping.tables.values() {
            if let ExecResult::Affected(k) =
                db.execute(&format!("DELETE FROM {} WHERE doc = {doc_id}", def.table))?
            {
                n += k;
            }
        }
        if let ExecResult::Affected(k) =
            db.execute(&format!("DELETE FROM inl_text WHERE doc = {doc_id}"))?
        {
            n += k;
        }
        Ok(n)
    }

    fn tables(&self, _db: &Database) -> Vec<String> {
        let mut v: Vec<String> = self
            .mapping
            .tables
            .values()
            .map(|d| d.table.clone())
            .collect();
        v.push("inl_text".to_string());
        v
    }
}

// ---- shredding ------------------------------------------------------------

struct InlineShredder<'a> {
    mapping: &'a InlineMapping,
    doc: &'a Document,
    doc_id: i64,
    next_id: i64,
    rows: BTreeMap<String, Vec<Vec<Value>>>,
    text_rows: Vec<Vec<Value>>,
    stats: ShredStats,
}

impl InlineShredder<'_> {
    /// Shred a tabled element; returns its surrogate id.
    fn shred_tabled(
        &mut self,
        node: NodeId,
        parent: Option<(&str, i64, String, i64)>, // (table, id, path, ord)
    ) -> Result<i64> {
        let label = self.doc.name(node).map(QName::as_label).unwrap_or_default();
        let def = self
            .mapping
            .tables
            .get(&label)
            .ok_or_else(|| {
                ShredError::Unsupported(format!("element {label:?} is not tabled here"))
            })?
            .clone();
        let id = self.next_id;
        self.next_id += 1;
        self.stats.elements += 1;
        let arity = 6 + def.columns.len();
        let mut row: Vec<Value> = Vec::with_capacity(arity);
        row.push(Value::Int(self.doc_id));
        row.push(Value::Int(id));
        if let Some((ptbl, pid, ppath, ord)) = &parent {
            row.push(Value::Int(*pid));
            row.push(Value::text(*ptbl));
            row.push(Value::text(ppath.clone()));
            row.push(Value::Int(*ord));
        } else {
            row.extend([Value::Null, Value::Null, Value::Null, Value::Int(0)]);
        }
        row.resize(arity, Value::Null);
        // Own attributes.
        for a in self.doc.attributes(node) {
            let col = def
                .find_col(&[], &ColKind::Attr(a.name.as_label()))
                .ok_or_else(|| {
                    ShredError::Unsupported(format!(
                        "attribute {:?} of {label:?} not declared in the DTD",
                        a.name.as_label()
                    ))
                })?;
            let off = def.col_offset(col)?;
            row[off] = Value::text(a.value.clone());
            self.stats.attributes += 1;
        }
        // Content.
        let mut val_text = String::new();
        let children: Vec<NodeId> = self.doc.children(node).to_vec();
        for (ord, child) in children.iter().enumerate() {
            match &self.doc.node(*child).kind {
                NodeKind::Text(t) => {
                    self.stats.texts += 1;
                    if def.mixed {
                        self.text_rows.push(vec![
                            Value::Int(self.doc_id),
                            Value::text(def.table.clone()),
                            Value::Int(id),
                            Value::Int(ord as i64),
                            Value::text(t.clone()),
                        ]);
                        self.stats.rows += 1;
                    } else {
                        val_text.push_str(t);
                    }
                }
                NodeKind::Element { name, .. } => {
                    let clabel = name.as_label();
                    if self.mapping.is_tabled(&clabel) {
                        self.shred_tabled(
                            *child,
                            Some((&def.table, id, String::new(), ord as i64)),
                        )?;
                    } else {
                        self.shred_inlined(
                            *child,
                            &def,
                            &mut row,
                            &mut vec![clabel],
                            id,
                            ord as i64,
                        )?;
                    }
                }
                _ => {}
            }
        }
        if !val_text.is_empty() || self.mapping.models[&label].pcdata && !def.mixed {
            if let Some(col) = def.find_col(&[], &ColKind::Pcdata) {
                let off = def.col_offset(col)?;
                row[off] = Value::text(val_text);
            }
        }
        self.rows.entry(def.table.clone()).or_default().push(row);
        self.stats.rows += 1;
        Ok(id)
    }

    /// Shred an inlined element into its ancestor's row.
    fn shred_inlined(
        &mut self,
        node: NodeId,
        def: &TableDef,
        row: &mut [Value],
        path: &mut Vec<String>,
        anchor_id: i64,
        _ord: i64,
    ) -> Result<()> {
        self.stats.elements += 1;
        let label = path.last().cloned().unwrap_or_default();

        // Presence marker (duplicate occurrence of a once-child = non-conforming).
        if let Some(col) = def.find_col(path, &ColKind::Present) {
            let off = def.col_offset(col)?;
            if !row[off].is_null() {
                return Err(ShredError::Unsupported(format!(
                    "element {label:?} occurs twice but the DTD allows it once"
                )));
            }
            row[off] = Value::Int(1);
        }
        for a in self.doc.attributes(node) {
            let col = def
                .find_col(path, &ColKind::Attr(a.name.as_label()))
                .ok_or_else(|| {
                    ShredError::Unsupported(format!(
                        "attribute {:?} of {label:?} not declared",
                        a.name.as_label()
                    ))
                })?;
            row[def.col_offset(col)?] = Value::text(a.value.clone());
            self.stats.attributes += 1;
        }
        let mut val_text = String::new();
        let mut saw_pcdata_col = false;
        if let Some(col) = def.find_col(path, &ColKind::Pcdata) {
            saw_pcdata_col = true;
            if !row[def.col_offset(col)?].is_null() {
                return Err(ShredError::Unsupported(format!(
                    "element {label:?} occurs twice but the DTD allows it once"
                )));
            }
        }
        let children: Vec<NodeId> = self.doc.children(node).to_vec();
        for (ord, child) in children.iter().enumerate() {
            match &self.doc.node(*child).kind {
                NodeKind::Text(t) => {
                    self.stats.texts += 1;
                    val_text.push_str(t);
                }
                NodeKind::Element { name, .. } => {
                    let clabel = name.as_label();
                    if self.mapping.is_tabled(&clabel) {
                        let ppath = path.join("/");
                        self.shred_tabled(
                            *child,
                            Some((&def.table, anchor_id, ppath, ord as i64)),
                        )?;
                    } else {
                        path.push(clabel);
                        self.shred_inlined(*child, def, row, path, anchor_id, ord as i64)?;
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        if saw_pcdata_col {
            if let Some(col) = def.find_col(path, &ColKind::Pcdata) {
                row[def.col_offset(col)?] = Value::text(val_text);
            }
        } else if !val_text.trim().is_empty() {
            return Err(ShredError::Unsupported(format!(
                "element {label:?} has text content but the DTD declares none"
            )));
        }
        Ok(())
    }
}

// ---- reconstruction --------------------------------------------------------

/// One loaded row: surrogate id, ord, and value columns by name.
struct LoadedRow {
    id: i64,
    ord: i64,
    values: HashMap<String, Value>,
}

/// (table, parent_id, parent_path) → child rows.
type ChildMap = HashMap<(String, Option<i64>, String), Vec<(String, Rc<LoadedRow>)>>;

/// One document's rows, loaded from every relation of the mapping. Built
/// once, it rebuilds the whole document ([`MappingScheme::reconstruct`])
/// or any number of its nodes ([`InlineLoader::build_node`]); building
/// reads the loaded rows and never consumes them.
pub struct InlineLoader<'a> {
    mapping: &'a InlineMapping,
    /// Child rows sorted by ord.
    children: ChildMap,
    /// (element, id) → row (for direct node lookup by the publisher).
    by_id: HashMap<(String, i64), Rc<LoadedRow>>,
    /// (table, id) → text fragments (ord, value).
    texts: HashMap<(String, i64), Vec<(i64, String)>>,
    doc: Option<Document>,
}

impl<'a> InlineLoader<'a> {
    /// Load document `doc_id`: one statement per relation of `mapping`
    /// plus one for `inl_text`, each run under `limits`.
    pub fn load(
        mapping: &'a InlineMapping,
        db: &Database,
        limits: &ExecLimits,
        doc_id: i64,
    ) -> Result<InlineLoader<'a>> {
        let mut children: ChildMap = HashMap::new();
        let mut by_id: HashMap<(String, i64), Rc<LoadedRow>> = HashMap::new();
        for def in mapping.tables.values() {
            let col_list: Vec<&str> = def.columns.iter().map(|c| c.column.as_str()).collect();
            let select = if col_list.is_empty() {
                String::new()
            } else {
                format!(", {}", col_list.join(", "))
            };
            db.prepare(&format!(
                "SELECT id, parent_id, parent_tbl, parent_path, ord{select} \
                 FROM {} WHERE doc = {doc_id}",
                def.table
            ))?
            .run(limits, false, |row| {
                let mut values = HashMap::new();
                for (i, c) in col_list.iter().enumerate() {
                    values.insert(c.to_string(), row[5 + i].clone());
                }
                let loaded = Rc::new(LoadedRow {
                    id: row_int(&row, 0).unwrap_or(0),
                    ord: row_int(&row, 4).unwrap_or(0),
                    values,
                });
                let key = (
                    row_text(&row, 2).unwrap_or("").to_string(),
                    row_int(&row, 1),
                    row_text(&row, 3).unwrap_or("").to_string(),
                );
                by_id.insert((def.element.clone(), loaded.id), Rc::clone(&loaded));
                children
                    .entry(key)
                    .or_default()
                    .push((def.element.clone(), loaded));
                Ok(())
            })
            .0?;
        }
        for list in children.values_mut() {
            list.sort_by_key(|(_, r)| (r.ord, r.id));
        }
        let mut texts: HashMap<(String, i64), Vec<(i64, String)>> = HashMap::new();
        db.prepare(&format!(
            "SELECT tbl, parent_id, ord, value FROM inl_text WHERE doc = {doc_id}"
        ))?
        .run(limits, false, |row| {
            texts
                .entry((
                    row_text(&row, 0).unwrap_or("").to_string(),
                    row_int(&row, 1).unwrap_or(0),
                ))
                .or_default()
                .push((
                    row_int(&row, 2).unwrap_or(0),
                    row_text(&row, 3).unwrap_or("").to_string(),
                ));
            Ok(())
        })
        .0?;
        for list in texts.values_mut() {
            list.sort();
        }
        Ok(InlineLoader {
            mapping,
            children,
            by_id,
            texts,
            doc: None,
        })
    }

    /// Build a fragment rooted at one node: a tabled row (`path` empty)
    /// or the inlined element at `path` within it.
    pub fn build_node(&mut self, anchor: &str, id: i64, path: &[String]) -> Result<Document> {
        let row = self
            .by_id
            .get(&(anchor.to_string(), id))
            .cloned()
            .ok_or_else(|| ShredError::Corrupt(format!("no row {id} in table for {anchor:?}")))?;
        let element = path.last().map(String::as_str).unwrap_or(anchor);
        let doc = Document::new_with_root(parse_qname(element)?);
        let root_id = doc.root();
        self.doc = Some(doc);
        if path.is_empty() {
            self.emit_tabled(root_id, anchor, &row)?;
        } else {
            let def = self.mapping.tables[anchor].clone();
            // Attributes and text of the inlined element at `path`.
            for col in &def.columns {
                if col.path == path {
                    if let ColKind::Attr(a) = &col.kind {
                        if let Some(Value::Text(v)) = row.values.get(&col.column) {
                            let v = v.clone();
                            self.doc_mut()?.add_attribute(root_id, parse_qname(a)?, v);
                        }
                    }
                }
            }
            if let Some(col) = def.find_col(path, &ColKind::Pcdata) {
                if let Some(Value::Text(v)) = row.values.get(&col.column) {
                    if !v.is_empty() {
                        let v = v.clone();
                        self.doc_mut()?.add_text(root_id, v);
                    }
                }
            }
            let model = self.mapping.models[element].clone();
            let mut p = path.to_vec();
            self.emit_children(root_id, element, &def, &row, &model, &mut p)?;
        }
        self.doc
            .take()
            .ok_or_else(|| ShredError::Corrupt("reconstruction lost its document".into()))
    }

    fn build(&mut self) -> Result<Document> {
        // The root row: no parent.
        let roots = self
            .children
            .get(&(String::new(), None, String::new()))
            .cloned()
            .unwrap_or_default();
        if roots.len() != 1 {
            return Err(ShredError::Corrupt(format!(
                "expected exactly one root row, found {}",
                roots.len()
            )));
        }
        let Some((element, row)) = roots.into_iter().next() else {
            return Err(ShredError::Corrupt("root row vanished".into()));
        };
        let doc = Document::new_with_root(parse_qname(&element)?);
        let root_id = doc.root();
        self.doc = Some(doc);
        self.emit_tabled(root_id, &element, &row)?;
        self.doc
            .take()
            .ok_or_else(|| ShredError::Corrupt("reconstruction lost its document".into()))
    }

    fn emit_tabled(&mut self, node: NodeId, element: &str, row: &LoadedRow) -> Result<()> {
        let def = self.mapping.tables[element].clone();
        // Attributes.
        for c in &def.columns {
            if c.path.is_empty() {
                if let ColKind::Attr(a) = &c.kind {
                    if let Some(Value::Text(v)) = row.values.get(&c.column) {
                        let v = v.clone();
                        self.doc_mut()?.add_attribute(node, parse_qname(a)?, v);
                    }
                }
            }
        }
        if def.mixed {
            // Interleave tabled children and text fragments by ord.
            let mut items: Vec<(i64, Item)> = Vec::new();
            if let Some(kids) = self
                .children
                .get(&(def.table.clone(), Some(row.id), String::new()))
            {
                for (el, r) in kids {
                    items.push((r.ord, Item::Tabled(el.clone(), Rc::clone(r))));
                }
            }
            if let Some(frags) = self.texts.get(&(def.table.clone(), row.id)) {
                for (ord, v) in frags {
                    items.push((*ord, Item::Text(v.clone())));
                }
            }
            items.sort_by_key(|(ord, item)| (*ord, matches!(item, Item::Text(_)) as u8));
            for (_, item) in items {
                match item {
                    Item::Text(v) => {
                        self.doc_mut()?.add_text(node, v);
                    }
                    Item::Tabled(el, r) => {
                        let child =
                            self.doc_mut()?
                                .add_element(node, parse_qname(&el)?, Vec::new());
                        self.emit_tabled(child, &el, &r)?;
                    }
                }
            }
            return Ok(());
        }
        // Non-mixed: children in DTD model order; own text first if pcdata.
        if let Some(col) = def.find_col(&[], &ColKind::Pcdata) {
            if let Some(Value::Text(v)) = row.values.get(&col.column) {
                if !v.is_empty() {
                    let v = v.clone();
                    self.doc_mut()?.add_text(node, v);
                }
            }
        }
        let model = self.mapping.models[element].clone();
        self.emit_children(node, element, &def, row, &model, &mut Vec::new())?;
        Ok(())
    }

    /// Emit the children of the element at `path` inside `def`'s row.
    fn emit_children(
        &mut self,
        node: NodeId,
        _element: &str,
        def: &TableDef,
        row: &LoadedRow,
        model: &NormalizedModel,
        path: &mut Vec<String>,
    ) -> Result<()> {
        for (child, card) in &model.children {
            if self.mapping.is_tabled(child) {
                // All rows of this label hanging under (table, row.id, path).
                // Rows are cloned (not removed) because several tabled child
                // labels can share the same key.
                let kids: Vec<(String, Rc<LoadedRow>)> = self
                    .children
                    .get(&(def.table.clone(), Some(row.id), path.join("/")))
                    .map(|v| v.iter().filter(|(el, _)| el == child).cloned().collect())
                    .unwrap_or_default();
                for (el, r) in kids {
                    let c = self
                        .doc_mut()?
                        .add_element(node, parse_qname(&el)?, Vec::new());
                    self.emit_tabled(c, &el, &r)?;
                }
                continue;
            }
            path.push(child.clone());
            let present = match card {
                Card::Opt => def
                    .find_col(path, &ColKind::Present)
                    .and_then(|c| row.values.get(&c.column))
                    .map(|v| !v.is_null())
                    .unwrap_or(false),
                _ => true,
            };
            if present {
                let c = self
                    .doc_mut()?
                    .add_element(node, parse_qname(child)?, Vec::new());
                // Attributes.
                let cm = self.mapping.models[child].clone();
                for col in &def.columns {
                    if col.path == *path {
                        if let ColKind::Attr(a) = &col.kind {
                            if let Some(Value::Text(v)) = row.values.get(&col.column) {
                                let v = v.clone();
                                self.doc_mut()?.add_attribute(c, parse_qname(a)?, v);
                            }
                        }
                    }
                }
                // Text.
                if let Some(col) = def.find_col(path, &ColKind::Pcdata) {
                    if let Some(Value::Text(v)) = row.values.get(&col.column) {
                        if !v.is_empty() {
                            let v = v.clone();
                            self.doc_mut()?.add_text(c, v);
                        }
                    }
                }
                self.emit_children(c, child, def, row, &cm, path)?;
            }
            path.pop();
        }
        Ok(())
    }

    fn doc_mut(&mut self) -> Result<&mut Document> {
        self.doc
            .as_mut()
            .ok_or_else(|| ShredError::Corrupt("reconstruction lost its document".into()))
    }
}

enum Item {
    Text(String),
    Tabled(String, Rc<LoadedRow>),
}

fn parse_qname(s: &str) -> Result<QName> {
    QName::parse(s).ok_or_else(|| ShredError::Corrupt(format!("invalid name {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::MappingScheme;

    const DTD: &str = r#"
        <!ELEMENT bib (book*)>
        <!ELEMENT book (title, author+, price?)>
        <!ATTLIST book year CDATA #REQUIRED>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT author (firstname?, lastname)>
        <!ELEMENT firstname (#PCDATA)>
        <!ELEMENT lastname (#PCDATA)>
        <!ELEMENT price (#PCDATA)>
        <!ATTLIST price currency CDATA #IMPLIED>
    "#;

    const XML: &str = r#"<bib><book year="1994"><title>TCP/IP</title><author><lastname>Stevens</lastname></author><author><firstname>Gary</firstname><lastname>Wright</lastname></author><price currency="USD">65.95</price></book><book year="2000"><title>Data</title><author><firstname>Serge</firstname><lastname>Abiteboul</lastname></author></book></bib>"#;

    fn scheme() -> InlineScheme {
        InlineScheme::from_dtd_text(DTD).unwrap()
    }

    #[test]
    fn tabling_decisions() {
        let m = &scheme().mapping;
        // bib: root -> tabled. book: * under bib -> tabled.
        // author: + under book -> tabled.
        assert!(m.is_tabled("bib"));
        assert!(m.is_tabled("book"));
        assert!(m.is_tabled("author"));
        // title, price, firstname, lastname: single-occurrence -> inlined.
        assert!(!m.is_tabled("title"));
        assert!(!m.is_tabled("price"));
        assert!(!m.is_tabled("firstname"));
        assert!(!m.is_tabled("lastname"));
        assert_eq!(m.table_count(), 4); // bib, book, author + inl_text
    }

    #[test]
    fn inlined_columns_exist() {
        let m = &scheme().mapping;
        let book = &m.tables["book"];
        assert!(book.find_col(&[], &ColKind::Attr("year".into())).is_some());
        assert!(book.find_col(&["title".into()], &ColKind::Pcdata).is_some());
        assert!(book
            .find_col(&["price".into()], &ColKind::Attr("currency".into()))
            .is_some());
        // price is optional -> presence marker.
        assert!(book
            .find_col(&["price".into()], &ColKind::Present)
            .is_some());
        let author = &m.tables["author"];
        assert!(author
            .find_col(&["firstname".into()], &ColKind::Pcdata)
            .is_some());
        assert!(author
            .find_col(&["lastname".into()], &ColKind::Pcdata)
            .is_some());
    }

    #[test]
    fn shred_and_round_trip() {
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        let doc = Document::parse(XML).unwrap();
        let stats = s.shred(&mut db, 1, &doc).unwrap();
        assert_eq!(stats.elements, 14);
        // Rows: 1 bib + 2 book + 3 author = 6.
        assert_eq!(db.catalog.table("inl_bib").unwrap().len(), 1);
        assert_eq!(db.catalog.table("inl_book").unwrap().len(), 2);
        assert_eq!(db.catalog.table("inl_author").unwrap().len(), 3);
        let rebuilt = s.reconstruct(&db, 1).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), XML);
    }

    #[test]
    fn path_query_without_joins() {
        // /bib/book/title is one table: the scheme's whole point.
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(XML).unwrap()).unwrap();
        let title_col = s.mapping.tables["book"]
            .find_col(&["title".into()], &ColKind::Pcdata)
            .unwrap()
            .column
            .clone();
        let q = db
            .query(&format!(
                "SELECT {title_col} FROM inl_book WHERE doc = 1 ORDER BY id"
            ))
            .unwrap();
        let titles: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(titles, vec!["TCP/IP", "Data"]);
    }

    #[test]
    fn recursive_dtd_gets_tables() {
        // The tutorial's recursive example.
        let s = InlineScheme::from_dtd_text(
            r#"<!ELEMENT book (author)>
               <!ATTLIST book title CDATA #REQUIRED>
               <!ELEMENT author (book*)>
               <!ATTLIST author name CDATA #REQUIRED>"#,
        )
        .unwrap();
        assert!(s.mapping.is_tabled("book"));
        assert!(s.mapping.is_tabled("author"));
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        let xml = r#"<book title="a"><author name="x"><book title="b"><author name="y"/></book></author></book>"#;
        s.shred(&mut db, 1, &Document::parse(xml).unwrap()).unwrap();
        let rebuilt = s.reconstruct(&db, 1).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), xml);
    }

    #[test]
    fn shared_elements_get_tables() {
        // title referenced by both book and article: shared -> tabled.
        let s = InlineScheme::from_dtd_text(
            r#"<!ELEMENT lib (book*, article*)>
               <!ELEMENT book (title)>
               <!ELEMENT article (title)>
               <!ELEMENT title (#PCDATA)>"#,
        )
        .unwrap();
        assert!(s.mapping.is_tabled("title"));
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        let xml = "<lib><book><title>B</title></book><article><title>A</title></article></lib>";
        s.shred(&mut db, 1, &Document::parse(xml).unwrap()).unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            xml
        );
    }

    #[test]
    fn mixed_content_round_trips() {
        let s = InlineScheme::from_dtd_text(
            r#"<!ELEMENT doc (p*)>
               <!ELEMENT p (#PCDATA | em)*>
               <!ELEMENT em (#PCDATA)>"#,
        )
        .unwrap();
        assert!(s.mapping.is_tabled("p"));
        assert!(s.mapping.is_tabled("em")); // Many under mixed p
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        let xml = "<doc><p>hello <em>bold</em> world</p></doc>";
        s.shred(&mut db, 1, &Document::parse(xml).unwrap()).unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap()),
            xml
        );
    }

    #[test]
    fn nonconforming_document_rejected() {
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        // Two titles where the DTD allows one.
        let xml = r#"<bib><book year="1"><title>A</title><title>B</title><author><lastname>x</lastname></author></book></bib>"#;
        let err = s
            .shred(&mut db, 1, &Document::parse(xml).unwrap())
            .unwrap_err();
        assert!(matches!(err, ShredError::Unsupported(_)));
    }

    #[test]
    fn undeclared_root_rejected() {
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        let err = s
            .shred(&mut db, 1, &Document::parse("<other/>").unwrap())
            .unwrap_err();
        assert!(matches!(err, ShredError::Unsupported(_)));
    }

    #[test]
    fn optional_absent_vs_empty() {
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        // First book has an empty price, second has none.
        let xml = r#"<bib><book year="1"><title>T</title><author><lastname>l</lastname></author><price></price></book><book year="2"><title>U</title><author><lastname>m</lastname></author></book></bib>"#;
        s.shred(&mut db, 1, &Document::parse(xml).unwrap()).unwrap();
        let out = xmlpar::serialize::to_string(&s.reconstruct(&db, 1).unwrap());
        // Empty price survives as <price/>, the absent one stays absent.
        assert_eq!(out.matches("<price/>").count(), 1);
    }

    #[test]
    fn delete_document() {
        let s = scheme();
        let mut db = Database::new();
        s.install(&mut db).unwrap();
        s.shred(&mut db, 1, &Document::parse(XML).unwrap()).unwrap();
        let n = s.delete_document(&mut db, 1).unwrap();
        assert_eq!(n, 6);
        assert!(s.reconstruct(&db, 1).is_err());
    }

    #[test]
    fn cycle_detection_helper() {
        let dtd = xmlpar::dtd::parse_dtd_fragment(
            r#"<!ELEMENT a (b)><!ELEMENT b (a?)><!ELEMENT c (c?, d)><!ELEMENT d (#PCDATA)>"#,
        )
        .unwrap();
        let models = dtd.normalize();
        let cyc = cycle_elements(&models);
        assert!(cyc.contains("a"));
        assert!(cyc.contains("b"));
        assert!(cyc.contains("c"));
        assert!(!cyc.contains("d"));
    }
}
