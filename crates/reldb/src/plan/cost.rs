//! The unified cardinality and cost model.
//!
//! Before this module existed the optimizer had two independent estimators:
//! `reorder.rs` carried a private cardinality function for picking a join
//! order, and `physical.rs` inlined its own rows/ndv arithmetic for index
//! selection. The two could (and did) disagree about which access path is
//! cheap. Everything now routes through here: the join reorderer, index
//! selection, the anti-pattern analyzer, and the plan-quality gate all see
//! the same numbers.
//!
//! Two layers:
//!
//! - **Cardinality** ([`estimate`] for logical plans, the `rows` field of
//!   [`Cost`] for physical ones): table row counts from the catalog,
//!   equality on an indexed column at `rows / ndv` (ndv from the B+-tree's
//!   distinct-key count), half-bounded ranges at `rows / 3`, BETWEEN at
//!   `rows / 4`, and fallback constants for everything else. Crude, but
//!   consistent — and consistency is what join ordering and index choice
//!   actually need.
//!
//! - **Cost** ([`Cost`]): three unweighted resource volumes accumulated
//!   bottom-up — `scanned` (rows visited in heaps or index leaves),
//!   `probes` (B+-tree descents), and `sorted` (rows materialized for a
//!   sort, hash build, or interval-join buffer). [`Cost::total`] folds them
//!   into one scalar with fixed weights. Logical plans, which have no
//!   access paths yet, are costed C_out-style: every node charges its
//!   estimated output cardinality, so a join order that produces smaller
//!   intermediates always costs less.
//!
//! [`CostReport`] renders a physical plan with per-node cumulative costs in
//! a stable, diff-friendly format; the golden-plan gate in `crates/core`
//! snapshots it.

use std::fmt::Write as _;
use std::ops::Bound;

use crate::catalog::Catalog;
use crate::plan::expr::ScalarExpr;
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::split_conjuncts;
use crate::plan::physical::PhysicalPlan;
use crate::sql::ast::{BinOp, JoinKind};
use crate::table::Table;
use crate::value::Value;

/// Selectivity of a half-bounded range predicate (`col > x`).
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity of a bounded range (`col BETWEEN x AND y`).
pub const BETWEEN_SELECTIVITY: f64 = 1.0 / 4.0;
/// Equality on a column with no index (no ndv available).
pub const UNINDEXED_EQ_SELECTIVITY: f64 = 0.05;
/// Equality between two non-column expressions.
pub const GENERIC_EQ_SELECTIVITY: f64 = 0.1;
/// Any predicate the model does not understand.
pub const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Row-count guess for a table missing from the catalog.
pub const UNKNOWN_TABLE_ROWS: f64 = 1000.0;

/// Weight of one B+-tree descent relative to one scanned row.
const PROBE_WEIGHT: f64 = 4.0;
/// Weight of one materialized/sorted row relative to one scanned row.
const SORT_WEIGHT: f64 = 2.0;

/// Resource volumes a plan is estimated to consume, plus its output
/// cardinality. Accumulated bottom-up; `rows` is the node's own output
/// estimate while the volume fields are cumulative over the subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Estimated output rows of this (sub)plan.
    pub rows: f64,
    /// Rows visited in heap scans and index-leaf walks.
    pub scanned: f64,
    /// B+-tree descents (index scans and index nested-loop probes).
    pub probes: f64,
    /// Rows materialized for sorts, hash builds, and join buffers.
    pub sorted: f64,
}

impl Cost {
    /// A zero cost producing `rows` rows.
    pub fn rows(rows: f64) -> Cost {
        Cost {
            rows,
            scanned: 0.0,
            probes: 0.0,
            sorted: 0.0,
        }
    }

    /// Fold the volumes into a single comparable scalar.
    pub fn total(&self) -> f64 {
        self.scanned + PROBE_WEIGHT * self.probes + SORT_WEIGHT * self.sorted
    }

    /// Combine the resource volumes of `self` and `other` (output rows are
    /// taken from `self`; callers overwrite them per node).
    fn absorb(mut self, other: &Cost) -> Cost {
        self.scanned += other.scanned;
        self.probes += other.probes;
        self.sorted += other.sorted;
        self
    }
}

/// Estimated rows matched by an equality probe against an index with the
/// given distinct-key count.
pub fn eq_rows(total: f64, ndv: usize) -> f64 {
    total / ndv.max(1) as f64
}

/// Estimated rows matched by a half-bounded range scan.
pub fn range_rows(total: f64) -> f64 {
    total * RANGE_SELECTIVITY
}

/// Estimated rows matched by a bounded (BETWEEN) range scan.
pub fn between_rows(total: f64) -> f64 {
    total * BETWEEN_SELECTIVITY
}

/// Estimated output cardinality of a conditioned join of `l` × `r` rows.
pub fn join_rows(l: f64, r: f64) -> f64 {
    (l * r * 0.01).max(l.max(r) * 0.1).max(1.0)
}

/// Selectivity of one conjunct, with the scanned table (for ndv lookups)
/// when known.
pub fn conjunct_selectivity(table: Option<&Table>, c: &ScalarExpr) -> f64 {
    match c {
        ScalarExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (ScalarExpr::Column(i), ScalarExpr::Literal(_))
            | (ScalarExpr::Literal(_), ScalarExpr::Column(i)) => {
                match table.and_then(|t| t.index_on(&[*i])) {
                    Some(idx) => 1.0 / idx.tree.distinct_keys().max(1) as f64,
                    None => UNINDEXED_EQ_SELECTIVITY,
                }
            }
            _ => GENERIC_EQ_SELECTIVITY,
        },
        ScalarExpr::Binary {
            op: BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq,
            ..
        } => RANGE_SELECTIVITY,
        ScalarExpr::Between { .. } => BETWEEN_SELECTIVITY,
        ScalarExpr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Selectivity of a (possibly conjunctive) predicate over its input.
/// Ndv-based equality estimates apply only when the input is a base-table
/// scan; anything else falls back to the generic constants.
pub fn selectivity(input: &LogicalPlan, predicate: &ScalarExpr, catalog: &Catalog) -> f64 {
    let table = match input {
        LogicalPlan::Scan { table, .. } => catalog.table(table).ok(),
        _ => None,
    };
    let rows = table.map(|t| t.len().max(1) as f64).unwrap_or(4.0);
    raw_selectivity(input, predicate, catalog).max(1.0 / rows)
}

/// [`selectivity`] without the one-row floor. Cardinality estimates floor
/// at one row, but that floor erases the *ordering* between two highly
/// selective leaves (a point lookup and a root test both clamp to 1 row);
/// the raw product keeps them comparable for driver selection.
pub fn raw_selectivity(input: &LogicalPlan, predicate: &ScalarExpr, catalog: &Catalog) -> f64 {
    let table = match input {
        LogicalPlan::Scan { table, .. } => catalog.table(table).ok(),
        _ => None,
    };
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate, &mut conjuncts);
    let mut sel = 1.0f64;
    for c in &conjuncts {
        sel *= conjunct_selectivity(table, c);
    }
    sel
}

/// Driver-selection rank of a join-tree leaf: [`estimate`], except a
/// filtered scan keeps its unfloored fractional cardinality so that the
/// most selective of several one-row leaves still compares lowest. Use for
/// *ordering* leaves, never as a cardinality.
pub fn driver_rank(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            estimate(input, catalog) * raw_selectivity(input, predicate, catalog)
        }
        _ => estimate(plan, catalog),
    }
}

/// Cardinality estimate for a logical plan node.
pub fn estimate(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    match plan {
        LogicalPlan::Scan { table, .. } => catalog
            .table(table)
            .map(|t| t.len() as f64)
            .unwrap_or(UNKNOWN_TABLE_ROWS),
        LogicalPlan::Filter { input, predicate } => {
            let base = estimate(input, catalog);
            let sel = selectivity(input, predicate, catalog);
            (base * sel).max(1.0)
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input } => estimate(input, catalog),
        LogicalPlan::Limit { input, limit } => estimate(input, catalog).min(*limit as f64),
        LogicalPlan::Aggregate { .. } => 1.0,
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = estimate(left, catalog);
            let r = estimate(right, catalog);
            match (kind, on) {
                (JoinKind::Cross, None) => l * r,
                _ => join_rows(l, r),
            }
        }
        LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| estimate(p, catalog)).sum(),
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
    }
}

/// C_out-style cost of a logical plan: every node except Project charges
/// its estimated output cardinality to `scanned`, conditioned joins charge
/// their left (driver) cardinality — one probe/iteration per driving row
/// in left-deep execution — and cross joins charge the full pair count.
/// This is the metric the join reorderer minimizes; it needs no
/// access-path knowledge, is monotone in intermediate sizes, and rewards
/// putting the selective side on the left.
pub fn cost_logical(plan: &LogicalPlan, catalog: &Catalog) -> Cost {
    fn walk(plan: &LogicalPlan, catalog: &Catalog, acc: &mut f64) -> f64 {
        let rows = match plan {
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = walk(left, catalog, acc);
                let r = walk(right, catalog, acc);
                if *kind == JoinKind::Cross && on.is_none() {
                    // Charge the pairs a nested loop would enumerate.
                    *acc += l * r;
                } else {
                    // One probe per driving row.
                    *acc += l;
                }
                estimate_join(l, r, plan)
            }
            LogicalPlan::Filter { input, predicate } => {
                let base = walk(input, catalog, acc);
                (base * selectivity(input, predicate, catalog)).max(1.0)
            }
            // Projection is computed per-row by the consuming pipeline; it
            // materializes nothing and must cost nothing, or the column
            // restoring Project the reorderer wraps its candidates in
            // would bias the cost guard against every rewrite.
            LogicalPlan::Project { input, .. } => return walk(input, catalog, acc),
            LogicalPlan::Sort { input, .. } | LogicalPlan::Distinct { input } => {
                walk(input, catalog, acc)
            }
            LogicalPlan::Limit { input, limit } => walk(input, catalog, acc).min(*limit as f64),
            LogicalPlan::Aggregate { input, .. } => {
                walk(input, catalog, acc);
                1.0
            }
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| walk(p, catalog, acc)).sum(),
            _ => estimate(plan, catalog),
        };
        *acc += rows;
        rows
    }
    fn estimate_join(l: f64, r: f64, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Join {
                kind: JoinKind::Cross,
                on: None,
                ..
            } => l * r,
            _ => join_rows(l, r),
        }
    }
    let mut acc = 0.0;
    let rows = walk(plan, catalog, &mut acc);
    Cost {
        rows,
        scanned: acc,
        probes: 0.0,
        sorted: 0.0,
    }
}

/// One node of a [`CostReport`]: a display label plus the cumulative
/// [`Cost`] of the subtree rooted here.
#[derive(Debug, Clone)]
pub struct CostNode {
    /// Operator label, e.g. `IndexScan inode via inode_name`.
    pub label: String,
    /// Cumulative cost of this subtree (`rows` = this node's output).
    pub cost: Cost,
    /// Child nodes in plan order.
    pub children: Vec<CostNode>,
}

/// A physical plan annotated with per-node cumulative costs, rendered in a
/// stable format for golden snapshots.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Root node.
    pub root: CostNode,
}

impl CostReport {
    /// Total cost of the whole plan.
    pub fn total(&self) -> f64 {
        self.root.cost.total()
    }

    /// Render as an indented tree, one node per line:
    /// `Label  (rows=N scanned=N probes=N sorted=N)`.
    pub fn render(&self) -> String {
        fn fmt_num(x: f64) -> String {
            format!("{:.0}", x.round())
        }
        fn walk(n: &CostNode, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let _ = writeln!(
                out,
                "{pad}{}  (rows={} scanned={} probes={} sorted={})",
                n.label,
                fmt_num(n.cost.rows),
                fmt_num(n.cost.scanned),
                fmt_num(n.cost.probes),
                fmt_num(n.cost.sorted),
            );
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.root, 0, &mut out);
        let _ = writeln!(out, "total cost={:.0}", self.total().round());
        out
    }
}

/// Cumulative cost of a physical plan (root of [`report_physical`]).
pub fn cost_physical(catalog: &Catalog, plan: &PhysicalPlan) -> Cost {
    report_physical(catalog, plan).root.cost
}

/// Estimated rows matched by one descent of an index scan with the given
/// bounds, before residual filtering. Mirrors the candidate arithmetic of
/// index selection so the two always agree.
pub fn index_scan_rows(total: f64, ndv: usize, lower: &Bound<Value>, upper: &Bound<Value>) -> f64 {
    match (lower, upper) {
        (Bound::Included(a), Bound::Included(b)) if a == b => eq_rows(total, ndv),
        (Bound::Unbounded, Bound::Unbounded) => total,
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => range_rows(total),
        _ => between_rows(total),
    }
}

/// Build the per-node cost annotation for a physical plan.
pub fn report_physical(catalog: &Catalog, plan: &PhysicalPlan) -> CostReport {
    CostReport {
        root: cost_node(catalog, plan),
    }
}

/// Product of conjunct selectivities of an optional residual predicate.
fn residual_selectivity(table: Option<&Table>, predicate: Option<&ScalarExpr>) -> f64 {
    let Some(p) = predicate else { return 1.0 };
    let mut conjuncts = Vec::new();
    split_conjuncts(p, &mut conjuncts);
    conjuncts
        .iter()
        .map(|c| conjunct_selectivity(table, c))
        .product()
}

fn cost_node(catalog: &Catalog, plan: &PhysicalPlan) -> CostNode {
    match plan {
        PhysicalPlan::SeqScan { table } => {
            let rows = catalog
                .table(table)
                .map(|t| t.len() as f64)
                .unwrap_or(UNKNOWN_TABLE_ROWS);
            CostNode {
                label: format!("SeqScan {table}"),
                cost: Cost {
                    rows,
                    scanned: rows,
                    probes: 0.0,
                    sorted: 0.0,
                },
                children: Vec::new(),
            }
        }
        PhysicalPlan::IndexScan {
            table,
            index,
            lower,
            upper,
            residual,
        } => {
            let t = catalog.table(table).ok();
            let total = t
                .map(|t| t.len().max(1) as f64)
                .unwrap_or(UNKNOWN_TABLE_ROWS);
            let ndv = t
                .and_then(|t| t.indexes.iter().find(|i| i.name == *index))
                .map(|i| i.tree.distinct_keys())
                .unwrap_or(1);
            let matched = index_scan_rows(total, ndv, lower, upper);
            let rows = (matched * residual_selectivity(t, residual.as_ref())).max(1.0);
            CostNode {
                label: format!("IndexScan {table} via {index}"),
                cost: Cost {
                    rows,
                    scanned: matched,
                    probes: 1.0,
                    sorted: 0.0,
                },
                children: Vec::new(),
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            let child = cost_node(catalog, input);
            let table = scan_table(input).and_then(|n| catalog.table(n).ok());
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            let sel: f64 = conjuncts
                .iter()
                .map(|c| conjunct_selectivity(table, c))
                .product();
            let rows = (child.cost.rows * sel).max(1.0);
            CostNode {
                label: "Filter".into(),
                cost: Cost::rows(rows).absorb(&child.cost),
                children: vec![child],
            }
        }
        PhysicalPlan::Project { input, exprs } => {
            let child = cost_node(catalog, input);
            CostNode {
                label: format!("Project [{}]", exprs.len()),
                cost: Cost::rows(child.cost.rows).absorb(&child.cost),
                children: vec![child],
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            residual,
            ..
        } => {
            let l = cost_node(catalog, left);
            let r = cost_node(catalog, right);
            let rows = (join_rows(l.cost.rows, r.cost.rows)
                * residual_selectivity(None, residual.as_ref()))
            .max(1.0);
            let mut cost = Cost::rows(rows).absorb(&l.cost).absorb(&r.cost);
            // Build the hash table on the right, probe once per left row.
            cost.sorted += r.cost.rows;
            cost.probes += l.cost.rows;
            CostNode {
                label: format!("HashJoin {kind:?} keys={}", left_keys.len()),
                cost,
                children: vec![l, r],
            }
        }
        PhysicalPlan::IndexNestedLoopJoin {
            left,
            table,
            index,
            right_filter,
            residual,
            kind,
            ..
        } => {
            let l = cost_node(catalog, left);
            let t = catalog.table(table).ok();
            let total = t
                .map(|t| t.len().max(1) as f64)
                .unwrap_or(UNKNOWN_TABLE_ROWS);
            let ndv = t
                .and_then(|t| t.indexes.iter().find(|i| i.name == *index))
                .map(|i| i.tree.distinct_keys())
                .unwrap_or(1);
            let per_probe = eq_rows(total, ndv);
            let matched = l.cost.rows * per_probe;
            let rows = (matched
                * residual_selectivity(t, right_filter.as_ref())
                * residual_selectivity(None, residual.as_ref()))
            .max(1.0);
            let mut cost = Cost::rows(rows).absorb(&l.cost);
            cost.probes += l.cost.rows;
            cost.scanned += matched;
            CostNode {
                label: format!("IndexNestedLoopJoin {kind:?} inner={table} via {index}"),
                cost,
                children: vec![l],
            }
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = cost_node(catalog, left);
            let r = cost_node(catalog, right);
            let rows = match on {
                None => (l.cost.rows * r.cost.rows).max(1.0),
                Some(_) => join_rows(l.cost.rows, r.cost.rows),
            };
            let mut cost = Cost::rows(rows).absorb(&l.cost).absorb(&r.cost);
            // Every (left, right) pair is enumerated; the right side is
            // materialized once.
            cost.scanned += l.cost.rows * r.cost.rows;
            cost.sorted += r.cost.rows;
            CostNode {
                label: format!("NestedLoopJoin {kind:?}"),
                cost,
                children: vec![l, r],
            }
        }
        PhysicalPlan::IntervalJoin {
            left,
            right,
            right_key,
            residual,
            ..
        } => {
            let l = cost_node(catalog, left);
            let r = cost_node(catalog, right);
            let rows = (join_rows(l.cost.rows, r.cost.rows)
                * residual_selectivity(None, residual.as_ref()))
            .max(1.0);
            let mut cost = Cost::rows(rows).absorb(&l.cost).absorb(&r.cost);
            // Sort the right side once, binary-search it per left row, and
            // walk the matching window.
            cost.sorted += r.cost.rows;
            cost.probes += l.cost.rows;
            cost.scanned += rows;
            CostNode {
                label: format!("IntervalJoin right_key={right_key}"),
                cost,
                children: vec![l, r],
            }
        }
        PhysicalPlan::Sort { input, keys } => {
            let child = cost_node(catalog, input);
            let mut cost = Cost::rows(child.cost.rows).absorb(&child.cost);
            cost.sorted += child.cost.rows;
            CostNode {
                label: format!("Sort [{}]", keys.len()),
                cost,
                children: vec![child],
            }
        }
        PhysicalPlan::HashAggregate { input, aggs } => {
            let child = cost_node(catalog, input);
            CostNode {
                label: format!("HashAggregate aggs={}", aggs.len()),
                cost: Cost::rows(1.0).absorb(&child.cost),
                children: vec![child],
            }
        }
        PhysicalPlan::Limit { input, limit } => {
            let child = cost_node(catalog, input);
            let rows = child.cost.rows.min(*limit as f64);
            CostNode {
                label: format!("Limit {limit}"),
                cost: Cost::rows(rows).absorb(&child.cost),
                children: vec![child],
            }
        }
        PhysicalPlan::Distinct { input } => {
            let child = cost_node(catalog, input);
            let mut cost = Cost::rows(child.cost.rows).absorb(&child.cost);
            cost.sorted += child.cost.rows;
            CostNode {
                label: "Distinct".into(),
                cost,
                children: vec![child],
            }
        }
        PhysicalPlan::UnionAll { inputs } => {
            let children: Vec<CostNode> = inputs.iter().map(|i| cost_node(catalog, i)).collect();
            let rows: f64 = children.iter().map(|c| c.cost.rows).sum();
            let mut cost = Cost::rows(rows);
            for c in &children {
                cost = cost.absorb(&c.cost);
            }
            CostNode {
                label: format!("UnionAll [{}]", inputs.len()),
                cost,
                children,
            }
        }
        PhysicalPlan::Values { rows } => CostNode {
            label: format!("Values [{}]", rows.len()),
            cost: Cost::rows(rows.len() as f64),
            children: Vec::new(),
        },
    }
}

/// The base table under a physical scan (possibly behind nothing at all),
/// used to recover ndv context for residual predicates.
fn scan_table(plan: &PhysicalPlan) -> Option<&str> {
    match plan {
        PhysicalPlan::SeqScan { table } | PhysicalPlan::IndexScan { table, .. } => Some(table),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id INT, tag TEXT);
             CREATE INDEX t_tag ON t (tag);",
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..900)
            .map(|i| vec![Value::Int(i), Value::text(format!("g{}", i % 30))])
            .collect();
        db.bulk_insert("t", rows).unwrap();
        db
    }

    #[test]
    fn indexed_eq_uses_ndv() {
        let db = db();
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            cols: vec![],
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::lit("g3")),
            },
        };
        let est = estimate(&filtered, &db.catalog);
        assert_eq!(est, eq_rows(900.0, 30), "rows/ndv: {est}");
    }

    /// The number index selection uses to score an equality candidate and
    /// the number the logical estimator assigns to the same predicate must
    /// be identical — this is the contract that keeps the two halves of the
    /// optimizer in agreement.
    #[test]
    fn index_selection_and_logical_estimate_agree() {
        let db = db();
        let prepared = db.prepare("SELECT id FROM t WHERE tag = 'g7'").unwrap();
        let physical = prepared.physical();
        // Find the IndexScan the planner chose.
        fn find_index_scan(p: &PhysicalPlan) -> Option<&PhysicalPlan> {
            match p {
                PhysicalPlan::IndexScan { .. } => Some(p),
                PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::Limit { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::Distinct { input } => find_index_scan(input),
                _ => None,
            }
        }
        let scan = find_index_scan(physical).expect("index scan chosen");
        let phys_rows = cost_physical(&db.catalog, scan).rows;

        let logical = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                cols: vec![],
            }),
            predicate: ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::lit("g7")),
            },
        };
        assert_eq!(phys_rows, estimate(&logical, &db.catalog));
    }

    #[test]
    fn cost_logical_charges_intermediates() {
        let db = db();
        let scan = || LogicalPlan::Scan {
            table: "t".into(),
            cols: vec![],
        };
        let cross = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Cross,
            on: None,
        };
        let c = cost_logical(&cross, &db.catalog);
        assert!(c.total() >= 900.0 * 900.0, "cross join must be expensive");
        let single = cost_logical(&scan(), &db.catalog);
        assert!(single.total() < c.total());
    }

    #[test]
    fn report_renders_stably() {
        let db = db();
        let prepared = db
            .prepare("SELECT id FROM t WHERE tag = 'g1' ORDER BY id")
            .unwrap();
        let physical = prepared.physical();
        let report = report_physical(&db.catalog, physical);
        let text = report.render();
        assert!(text.contains("IndexScan t via t_tag"), "{text}");
        assert!(text.contains("rows=30"), "{text}");
        assert!(text
            .trim_end()
            .ends_with(&format!("total cost={:.0}", report.total().round())));
        // Rendering is deterministic.
        assert_eq!(text, report_physical(&db.catalog, physical).render());
    }
}
