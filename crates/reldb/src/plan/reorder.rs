//! Greedy join reordering.
//!
//! Flattens maximal inner/cross join trees into (leaves, conjuncts), picks
//! the leaf with the lowest estimated cardinality as the driver, then
//! greedily appends the cheapest *connected* leaf (one sharing a condition
//! with the set so far). The reordered left-deep tree is wrapped in a
//! Project that restores the original column order, so the rewrite is
//! invisible to the rest of the plan.
//!
//! All cardinality and cost numbers come from [`crate::plan::cost`] — the
//! same model index selection consults — so the two halves of the optimizer
//! cannot disagree about what is cheap. The greedy order is additionally
//! *cost-guarded*: the candidate tree is costed against the original
//! ([`cost::cost_logical`], a C_out-style metric), and if the rewrite does
//! not estimate at least as cheap, the original order is kept. Reordering
//! therefore never makes the estimated cost worse.

use std::collections::HashSet;

use crate::catalog::Catalog;
use crate::plan::cost;
use crate::plan::expr::ScalarExpr;
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::{conjoin, split_conjuncts};
use crate::sql::ast::JoinKind;

/// Reorder all maximal inner-join trees in the plan.
pub fn reorder_joins(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            kind: JoinKind::Inner | JoinKind::Cross,
            ..
        } => {
            // Cost guard: keep the original order unless the greedy
            // rewrite estimates at least as cheap.
            let original = plan.clone();
            let candidate = reorder_tree(plan, catalog);
            if cost::cost_logical(&candidate, catalog).total()
                <= cost::cost_logical(&original, catalog).total()
            {
                candidate
            } else {
                original
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(reorder_joins(*left, catalog)),
            right: Box::new(reorder_joins(*right, catalog)),
            kind,
            on,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(reorder_joins(*input, catalog)),
            predicate,
        },
        LogicalPlan::Project { input, exprs, cols } => LogicalPlan::Project {
            input: Box::new(reorder_joins(*input, catalog)),
            exprs,
            cols,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            cols,
        } => LogicalPlan::Aggregate {
            input: Box::new(reorder_joins(*input, catalog)),
            group_by,
            aggs,
            cols,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(reorder_joins(*input, catalog)),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(reorder_joins(*input, catalog)),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(reorder_joins(*input, catalog)),
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(|p| reorder_joins(p, catalog))
                .collect(),
        },
        leaf => leaf,
    }
}

/// Reorder one maximal inner-join tree.
fn reorder_tree(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    // 1. Flatten.
    let mut leaves: Vec<LogicalPlan> = Vec::new();
    let mut conds: Vec<ScalarExpr> = Vec::new();
    flatten(plan, catalog, &mut leaves, &mut conds);
    if leaves.len() <= 1 {
        // A single leaf: nothing to reorder. (Zero leaves cannot happen --
        // flatten always produces at least one -- but an empty Values leaf
        // is a safe stand-in rather than a panic.)
        let tree = match leaves.pop() {
            Some(t) => t,
            None => {
                return LogicalPlan::Values {
                    rows: Vec::new(),
                    cols: Vec::new(),
                }
            }
        };
        return match conjoin(conds) {
            Some(p) => LogicalPlan::Filter {
                input: Box::new(tree),
                predicate: p,
            },
            None => tree,
        };
    }

    // 2. Leaf metadata: original start offsets and arities.
    let arities: Vec<usize> = leaves.iter().map(|l| l.schema().len()).collect();
    let mut starts = Vec::with_capacity(leaves.len());
    let mut acc = 0;
    for a in &arities {
        starts.push(acc);
        acc += a;
    }
    let leaf_of = |col: usize| -> usize {
        match starts.binary_search(&col) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    // 3. Which leaves does each condition touch?
    let cond_leaves: Vec<HashSet<usize>> = conds
        .iter()
        .map(|c| {
            let mut used = Vec::new();
            c.columns_used(&mut used);
            used.iter().map(|&u| leaf_of(u)).collect()
        })
        .collect();

    // 4. Rank leaves (shared model in `plan::cost`). `driver_rank` keeps
    //    the unfloored fractional cardinality of filtered scans, so the
    //    most selective of several ~one-row leaves (e.g. a value-index
    //    point lookup vs. a root test) still wins the driver seat.
    let est: Vec<f64> = leaves
        .iter()
        .map(|l| cost::driver_rank(l, catalog))
        .collect();

    // 5. Greedy order: cheapest leaf first, then cheapest connected leaf.
    let n = leaves.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed: HashSet<usize> = HashSet::new();
    // `min_by` over the non-empty candidate range always yields a leaf;
    // the fallbacks below keep this function panic-free regardless.
    let first = (0..n)
        .min_by(|&a, &b| est[a].total_cmp(&est[b]))
        .unwrap_or(0);
    order.push(first);
    placed.insert(first);
    while order.len() < n {
        let connected = |cand: usize| {
            cond_leaves.iter().any(|ls| {
                ls.contains(&cand) && ls.iter().any(|l| placed.contains(l)) && ls.len() > 1
            })
        };
        let next = (0..n).filter(|i| !placed.contains(i)).min_by(|&a, &b| {
            // Connected leaves strictly before disconnected ones.
            let ka = (!connected(a), est[a]);
            let kb = (!connected(b), est[b]);
            ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        let Some(next) = next else { break };
        order.push(next);
        placed.insert(next);
    }
    // No leaf may be dropped: append any stragglers in index order.
    for i in 0..n {
        if placed.insert(i) {
            order.push(i);
        }
    }
    // 6. New layout offsets.
    let mut new_starts = vec![0usize; n];
    let mut acc = 0;
    for &leaf in &order {
        new_starts[leaf] = acc;
        acc += arities[leaf];
    }
    let remap_col = |col: usize| -> usize {
        let l = leaf_of(col);
        new_starts[l] + (col - starts[l])
    };

    // 7. Build the left-deep tree, attaching each condition at the first
    //    join where all its leaves are available.
    let mut leaf_slots: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    let mut remaining: Vec<(ScalarExpr, HashSet<usize>)> = conds
        .into_iter()
        .zip(cond_leaves)
        // The remap closure is total, so remap never returns None; keep
        // the condition unmapped rather than panicking if it ever did.
        .map(|(c, ls)| {
            let mapped = c.remap(&|o| Some(remap_col(o))).unwrap_or(c);
            (mapped, ls)
        })
        .collect();
    let mut available: HashSet<usize> = HashSet::new();
    let driver = order.first().copied().unwrap_or(0);
    available.insert(driver);
    let Some(tree) = leaf_slots.get_mut(driver).and_then(Option::take) else {
        // Unreachable: `order` indexes into `leaf_slots` by construction.
        return LogicalPlan::Values {
            rows: Vec::new(),
            cols: Vec::new(),
        };
    };
    let mut tree = tree;
    // Single-leaf conditions on the driver attach as a filter.
    tree = attach_ready(tree, &mut remaining, &available, true);
    for &leaf in order.iter().skip(1) {
        let Some(right) = leaf_slots.get_mut(leaf).and_then(Option::take) else {
            continue;
        };
        available.insert(leaf);
        let mut on_parts = Vec::new();
        remaining.retain(|(c, ls)| {
            if ls.iter().all(|l| available.contains(l)) {
                on_parts.push(c.clone());
                false
            } else {
                true
            }
        });
        let on = conjoin(on_parts);
        let kind = if on.is_some() {
            JoinKind::Inner
        } else {
            JoinKind::Cross
        };
        tree = LogicalPlan::Join {
            left: Box::new(tree),
            right: Box::new(right),
            kind,
            on,
        };
    }
    debug_assert!(remaining.is_empty(), "conditions left unattached");

    // 8. Restore the original column order.
    let exprs: Vec<ScalarExpr> = (0..acc).map(|o| ScalarExpr::Column(remap_col(o))).collect();
    // Recompute the original output names from the reordered tree.
    let new_schema = tree.schema();
    let cols = (0..acc).map(|o| new_schema[remap_col(o)].clone()).collect();
    LogicalPlan::Project {
        input: Box::new(tree),
        exprs,
        cols,
    }
}

/// Attach single-side conditions that are already satisfiable.
fn attach_ready(
    plan: LogicalPlan,
    remaining: &mut Vec<(ScalarExpr, HashSet<usize>)>,
    available: &HashSet<usize>,
    _driver: bool,
) -> LogicalPlan {
    let mut ready = Vec::new();
    remaining.retain(|(c, ls)| {
        if ls.iter().all(|l| available.contains(l)) {
            ready.push(c.clone());
            false
        } else {
            true
        }
    });
    match conjoin(ready) {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

/// Collapse a join tree into leaves + shifted conjuncts (offsets stay in
/// the original concatenated layout).
fn flatten(
    plan: LogicalPlan,
    catalog: &Catalog,
    leaves: &mut Vec<LogicalPlan>,
    conds: &mut Vec<ScalarExpr>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
        } => {
            flatten(*left, catalog, leaves, conds);
            // Offsets in `on` are relative to (left ++ right); left's
            // flattened leaves occupy the same range, so offsets transfer.
            flatten(*right, catalog, leaves, conds);
            if let Some(on) = on {
                split_conjuncts(&on, conds);
            }
        }
        other => {
            // Recurse into non-join structure, then treat it as a leaf.
            leaves.push(reorder_joins(other, catalog));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::plan::cost::{cost_logical, estimate};
    use crate::sql::ast::BinOp;
    use crate::value::Value;

    fn db_with_skew() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE big (id INT, tag TEXT);
             CREATE INDEX big_tag ON big (tag);
             CREATE TABLE small (id INT, label TEXT);
             CREATE INDEX small_label ON small (label);",
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000)
            .map(|i| vec![Value::Int(i), Value::text(format!("t{}", i % 500))])
            .collect();
        db.bulk_insert("big", rows).unwrap();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i), Value::text(format!("l{i}"))])
            .collect();
        db.bulk_insert("small", rows).unwrap();
        db
    }

    #[test]
    fn selective_leaf_becomes_driver() {
        let db = db_with_skew();
        // small.label='l3' (1 row) should drive, not big (3000 rows).
        let prepared = db
            .prepare(
                "SELECT big.id FROM big, small \
                 WHERE big.id = small.id AND small.label = 'l3'",
            )
            .unwrap();
        // The leftmost (deepest-first) leaf of the join tree must be small.
        fn leftmost_scan(p: &LogicalPlan) -> Option<&str> {
            match p {
                LogicalPlan::Scan { table, .. } => Some(table),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. } => leftmost_scan(input),
                LogicalPlan::Join { left, .. } => leftmost_scan(left),
                _ => None,
            }
        }
        let logical = prepared.logical();
        assert_eq!(leftmost_scan(logical), Some("small"), "{logical:?}");
    }

    #[test]
    fn reordered_results_agree_with_unordered() {
        let with = db_with_skew();
        let mut without = db_with_skew();
        without.optimizer.join_reorder = false;
        for sql in [
            "SELECT big.id, small.label FROM big, small \
             WHERE big.id = small.id ORDER BY big.id",
            "SELECT b.tag, COUNT(*) FROM big b, small s, small s2 \
             WHERE b.id = s.id AND s.id = s2.id AND s2.label = 'l7' \
             GROUP BY b.tag ORDER BY 1",
            "SELECT big.id FROM big, small WHERE big.id < 5 AND small.id < 5 ORDER BY 1",
        ] {
            let a = with.query(sql).unwrap();
            let b = without.query(sql).unwrap();
            assert_eq!(a.rows, b.rows, "{sql}");
        }
    }

    #[test]
    fn estimates_reflect_filters() {
        let db = db_with_skew();
        let scan = LogicalPlan::Scan {
            table: "big".into(),
            cols: vec![],
        };
        let base = estimate(&scan, &db.catalog);
        assert_eq!(base, 3000.0);
        let filtered = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::lit("t3")),
            },
        };
        let est = estimate(&filtered, &db.catalog);
        assert!(est < 10.0, "indexed eq should be selective: {est}");
    }

    #[test]
    fn reorder_never_raises_estimated_cost() {
        let db = db_with_skew();
        for sql in [
            "SELECT big.id FROM big, small WHERE big.id = small.id AND small.label = 'l3'",
            "SELECT big.id FROM big, small WHERE big.id = small.id",
            "SELECT big.id FROM small, big WHERE big.id = small.id AND big.tag = 't1'",
        ] {
            let stmt = crate::sql::parse_statement(sql).unwrap();
            let crate::sql::ast::Statement::Select(sel) = stmt else {
                panic!("not a select")
            };
            let bound = crate::plan::bind_select(&db.catalog, &sel).unwrap();
            let opts = crate::plan::OptimizerOptions {
                join_reorder: false,
                ..Default::default()
            };
            let unordered = crate::plan::optimize(bound, &opts, &db.catalog);
            let reordered = reorder_joins(unordered.clone(), &db.catalog);
            let before = cost_logical(&unordered, &db.catalog).total();
            let after = cost_logical(&reordered, &db.catalog).total();
            assert!(after <= before, "{sql}: {after} > {before}");
        }
    }

    #[test]
    fn cross_products_ordered_last() {
        let db = db_with_skew();
        // A three-way with one disconnected leaf must still produce the
        // same row multiset.
        let with = db_with_skew();
        let q = "SELECT COUNT(*) FROM small s1, small s2 WHERE s1.label = 'l1'";
        let a = with.query(q).unwrap();
        assert_eq!(a.scalar().and_then(Value::as_int), Some(30));
        let _ = db;
    }
}
