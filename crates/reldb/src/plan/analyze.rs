//! Plan anti-pattern detection.
//!
//! `plan::validate` proves a physical plan is *well-typed*; this pass asks
//! whether it is *any good*. Each rule encodes a shape that executes
//! correctly but throws away performance the catalog says was available:
//!
//! - `cartesian-product`: a nested-loop join with no condition whose sides
//!   both estimate more than one row.
//! - `full-scan-indexed`: a filter over a sequential scan where a sargable
//!   conjunct (as judged by the same classifier index selection uses)
//!   matches the leading column of an existing index.
//! - `nl-join-unindexed`: a conditioned nested-loop join carrying an
//!   equi-key pair — a hash or index nested-loop join was available and
//!   the planner still enumerated every pair.
//! - `redundant-sort`: a sort feeding a consumer that destroys or redoes
//!   the order (another sort, or a hash aggregate).
//! - `estimated-blowup`: a join whose estimated output exceeds a
//!   configurable multiple of its combined input sizes.
//!
//! Findings reuse [`Diagnostic`]: severity, stable rule name, and a
//! node-path provenance string (`Project > HashJoin > SeqScan edge`). On a
//! healthy plan — default optimizer knobs, the indexes the mapping schemes
//! create — every rule is silent; `planlint` enforces exactly that over
//! the benchmark workload.

use crate::catalog::Catalog;
use crate::plan::cost;
use crate::plan::expr::ScalarExpr;
use crate::plan::physical::{classify_bound, PhysicalPlan};
use crate::plan::validate::{Diagnostic, Severity};
use crate::sql::ast::BinOp;

/// Analyzer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerOptions {
    /// A join estimating more than `blowup_factor × (left + right + 1)`
    /// output rows is reported.
    pub blowup_factor: f64,
}

impl Default for AnalyzerOptions {
    fn default() -> AnalyzerOptions {
        AnalyzerOptions {
            blowup_factor: 1000.0,
        }
    }
}

/// Run every anti-pattern rule over a physical plan.
pub fn analyze_physical(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    opts: &AnalyzerOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    walk(catalog, plan, opts, &mut path, &mut out);
    out
}

/// Short operator name for provenance paths.
fn op_name(plan: &PhysicalPlan) -> String {
    match plan {
        PhysicalPlan::SeqScan { table } => format!("SeqScan {table}"),
        PhysicalPlan::IndexScan { table, index, .. } => {
            format!("IndexScan {table} via {index}")
        }
        PhysicalPlan::Filter { .. } => "Filter".into(),
        PhysicalPlan::Project { .. } => "Project".into(),
        PhysicalPlan::HashJoin { .. } => "HashJoin".into(),
        PhysicalPlan::IndexNestedLoopJoin { table, .. } => {
            format!("IndexNestedLoopJoin {table}")
        }
        PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin".into(),
        PhysicalPlan::IntervalJoin { .. } => "IntervalJoin".into(),
        PhysicalPlan::Sort { .. } => "Sort".into(),
        PhysicalPlan::HashAggregate { .. } => "HashAggregate".into(),
        PhysicalPlan::Limit { .. } => "Limit".into(),
        PhysicalPlan::Distinct { .. } => "Distinct".into(),
        PhysicalPlan::UnionAll { .. } => "UnionAll".into(),
        PhysicalPlan::Values { .. } => "Values".into(),
    }
}

fn walk(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    opts: &AnalyzerOptions,
    path: &mut Vec<String>,
    out: &mut Vec<Diagnostic>,
) {
    path.push(op_name(plan));
    check_node(catalog, plan, opts, path, out);
    match plan {
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => walk(catalog, input, opts, path, out),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. }
        | PhysicalPlan::IntervalJoin { left, right, .. } => {
            walk(catalog, left, opts, path, out);
            walk(catalog, right, opts, path, out);
        }
        PhysicalPlan::IndexNestedLoopJoin { left, .. } => walk(catalog, left, opts, path, out),
        PhysicalPlan::UnionAll { inputs } => {
            for i in inputs {
                walk(catalog, i, opts, path, out);
            }
        }
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScan { .. }
        | PhysicalPlan::Values { .. } => {}
    }
    path.pop();
}

fn diag(path: &[String], rule: &'static str, severity: Severity, message: String) -> Diagnostic {
    Diagnostic {
        severity,
        rule,
        node: path.join(" > "),
        message,
    }
}

fn rows(catalog: &Catalog, plan: &PhysicalPlan) -> f64 {
    cost::cost_physical(catalog, plan).rows
}

fn check_node(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    opts: &AnalyzerOptions,
    path: &[String],
    out: &mut Vec<Diagnostic>,
) {
    match plan {
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            on,
            kind,
            ..
        } => {
            let l = rows(catalog, left);
            let r = rows(catalog, right);
            match on {
                None => {
                    // A cross join with a single-row side is a legitimate
                    // plan (e.g. a constant driver); anything larger
                    // enumerates l×r pairs for no reason.
                    if l > 1.0 && r > 1.0 {
                        out.push(diag(
                            path,
                            "cartesian-product",
                            Severity::Warning,
                            format!(
                                "unconditioned {kind:?} join enumerates \
                                 ~{l:.0} × ~{r:.0} pairs"
                            ),
                        ));
                    }
                }
                Some(cond) => {
                    if has_equi_pair(cond, left_arity_of(left)) {
                        out.push(diag(
                            path,
                            "nl-join-unindexed",
                            Severity::Warning,
                            format!(
                                "nested-loop join (~{l:.0} × ~{r:.0} pairs) carries an \
                                 equi-key condition; a hash or index nested-loop join \
                                 was available"
                            ),
                        ));
                    }
                    blowup(catalog, plan, l, r, opts, path, out);
                }
            }
        }
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::IntervalJoin { left, right, .. } => {
            let l = rows(catalog, left);
            let r = rows(catalog, right);
            blowup(catalog, plan, l, r, opts, path, out);
        }
        PhysicalPlan::Filter { input, predicate } => {
            if let PhysicalPlan::SeqScan { table } = &**input {
                if let Some(index) = sargable_index(catalog, table, predicate) {
                    out.push(diag(
                        path,
                        "full-scan-indexed",
                        Severity::Warning,
                        format!(
                            "sequential scan of {table} although a sargable conjunct \
                             matches index {index}"
                        ),
                    ));
                }
            }
        }
        PhysicalPlan::Sort { input, .. } => {
            if matches!(strip_unary(input), PhysicalPlan::Sort { .. }) {
                out.push(diag(
                    path,
                    "redundant-sort",
                    Severity::Warning,
                    "sort input is already sorted by an inner sort that this node \
                     re-orders"
                        .into(),
                ));
            }
        }
        PhysicalPlan::HashAggregate { input, .. } => {
            if matches!(strip_unary(input), PhysicalPlan::Sort { .. }) {
                out.push(diag(
                    path,
                    "redundant-sort",
                    Severity::Warning,
                    "sorted input feeds a hash aggregate, which does not preserve \
                     order"
                        .into(),
                ));
            }
        }
        _ => {}
    }
}

/// Peel Project/Filter/Limit wrappers to see the shape underneath.
fn strip_unary(plan: &PhysicalPlan) -> &PhysicalPlan {
    match plan {
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Limit { input, .. } => strip_unary(input),
        other => other,
    }
}

/// Output arity of a physical subtree, for splitting join conditions into
/// sides. Physical nodes do not carry schemas, so this re-derives width
/// from shape; `None` when unknown (conservatively disables the rule).
fn left_arity_of(plan: &PhysicalPlan) -> Option<usize> {
    match plan {
        PhysicalPlan::Project { exprs, .. } => Some(exprs.len()),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => left_arity_of(input),
        PhysicalPlan::Values { rows } => rows.first().map(Vec::len),
        _ => None,
    }
}

/// Does the condition contain `Column(i) = Column(j)` with the operands on
/// opposite sides of the join? When the left arity is unknown, any
/// column-to-column equality counts — a conditioned nested loop whose
/// condition equates two columns had a better operator available.
fn has_equi_pair(cond: &ScalarExpr, left_arity: Option<usize>) -> bool {
    let mut conjuncts = Vec::new();
    crate::plan::optimizer::split_conjuncts(cond, &mut conjuncts);
    conjuncts.iter().any(|c| {
        if let ScalarExpr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        {
            if let (ScalarExpr::Column(i), ScalarExpr::Column(j)) = (&**left, &**right) {
                return match left_arity {
                    Some(a) => (*i < a) != (*j < a),
                    None => i != j,
                };
            }
        }
        false
    })
}

/// The name of an index whose leading column is constrained by a sargable
/// conjunct of `predicate`, if any. Uses the exact classifier index
/// selection uses, so this fires only when an index scan was truly on the
/// table.
fn sargable_index(catalog: &Catalog, table: &str, predicate: &ScalarExpr) -> Option<String> {
    let t = catalog.table(table).ok()?;
    let mut conjuncts = Vec::new();
    crate::plan::optimizer::split_conjuncts(predicate, &mut conjuncts);
    for index in &t.indexes {
        let Some(&lead) = index.columns.first() else {
            continue;
        };
        if conjuncts.iter().any(|c| classify_bound(c, lead).is_some()) {
            return Some(index.name.clone());
        }
    }
    None
}

fn blowup(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    l: f64,
    r: f64,
    opts: &AnalyzerOptions,
    path: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let est = rows(catalog, plan);
    let limit = opts.blowup_factor * (l + r + 1.0);
    if est > limit {
        out.push(diag(
            path,
            "estimated-blowup",
            Severity::Warning,
            format!(
                "join estimates ~{est:.0} output rows from ~{l:.0} × ~{r:.0} \
                 inputs (threshold {limit:.0})"
            ),
        ));
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
            "CREATE TABLE a (id INT, tag TEXT);
             CREATE INDEX a_tag ON a (tag);
             CREATE TABLE b (id INT, ref INT);",
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Int(i), Value::text(format!("t{}", i % 10))])
            .collect();
        db.bulk_insert("a", rows).unwrap();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Int(i), Value::Int(i % 50)])
            .collect();
        db.bulk_insert("b", rows).unwrap();
        db
    }

    fn findings(db: &Database, plan: &PhysicalPlan) -> Vec<&'static str> {
        analyze_physical(&db.catalog, plan, &AnalyzerOptions::default())
            .iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn healthy_plans_are_silent() {
        let db = db();
        for sql in [
            "SELECT id FROM a WHERE tag = 't3'",
            "SELECT a.id FROM a, b WHERE a.id = b.ref AND a.tag = 't1'",
            "SELECT id FROM a ORDER BY id",
        ] {
            let prepared = db.prepare(sql).unwrap();
            assert_eq!(
                findings(&db, prepared.physical()),
                Vec::<&str>::new(),
                "{sql}"
            );
        }
    }

    #[test]
    fn cartesian_product_detected() {
        let db = db();
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan { table: "a".into() }),
            right: Box::new(PhysicalPlan::SeqScan { table: "b".into() }),
            kind: crate::sql::ast::JoinKind::Cross,
            on: None,
            right_arity: 2,
        };
        let ds = analyze_physical(&db.catalog, &plan, &AnalyzerOptions::default());
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "cartesian-product");
        assert!(ds[0].node.contains("NestedLoopJoin"), "{}", ds[0].node);
    }

    #[test]
    fn single_row_cross_join_allowed() {
        let db = db();
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::Values {
                rows: vec![vec![ScalarExpr::lit(1i64)]],
            }),
            right: Box::new(PhysicalPlan::SeqScan { table: "b".into() }),
            kind: crate::sql::ast::JoinKind::Cross,
            on: None,
            right_arity: 2,
        };
        assert!(findings(&db, &plan).is_empty());
    }

    #[test]
    fn full_scan_with_index_detected() {
        let mut db = db();
        db.physical.use_indexes = false;
        let prepared = db.prepare("SELECT id FROM a WHERE tag = 't3'").unwrap();
        let physical = prepared.physical();
        assert!(
            findings(&db, physical).contains(&"full-scan-indexed"),
            "{physical:?}"
        );
    }

    #[test]
    fn unindexed_nl_join_detected() {
        let mut db = db();
        db.physical.use_hash_join = false;
        db.physical.use_index_nl_join = false;
        let prepared = db
            .prepare("SELECT a.id FROM a, b WHERE a.id = b.ref")
            .unwrap();
        let physical = prepared.physical();
        assert!(
            findings(&db, physical).contains(&"nl-join-unindexed"),
            "{physical:?}"
        );
    }

    #[test]
    fn redundant_sort_detected() {
        let db = db();
        let inner = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan { table: "a".into() }),
            keys: vec![(ScalarExpr::Column(0), true)],
        };
        let outer = PhysicalPlan::Sort {
            input: Box::new(inner),
            keys: vec![(ScalarExpr::Column(1), true)],
        };
        assert_eq!(findings(&db, &outer), vec!["redundant-sort"]);
    }

    #[test]
    fn blowup_threshold_is_configurable() {
        let db = db();
        let prepared = db
            .prepare("SELECT a.id FROM a, b WHERE a.id = b.ref")
            .unwrap();
        let strict = AnalyzerOptions {
            blowup_factor: 0.0001,
        };
        let ds = analyze_physical(&db.catalog, prepared.physical(), &strict);
        assert!(ds.iter().any(|d| d.rule == "estimated-blowup"), "{ds:?}");
    }
}
