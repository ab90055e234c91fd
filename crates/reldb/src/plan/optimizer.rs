//! Logical-plan rewrites: predicate pushdown and join-condition folding.
//!
//! The optimizer runs before physical planning. Its rewrites are the ones
//! the tutorial's RDBMS back end would be expected to do for shredded-XML
//! SQL: pushing label/value predicates below the join chain so that index
//! scans apply, and turning cross products with filter conjuncts into real
//! joins.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::plan::expr::ScalarExpr;
use crate::plan::logical::LogicalPlan;
use crate::plan::reorder::reorder_joins;
use crate::sql::ast::{BinOp, JoinKind};

/// Optimizer configuration (ablation knobs for the benchmarks).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Push filter conjuncts through joins toward scans.
    pub predicate_pushdown: bool,
    /// Reorder inner-join trees greedily by estimated cardinality.
    pub join_reorder: bool,
}

impl Default for OptimizerOptions {
    fn default() -> OptimizerOptions {
        OptimizerOptions {
            predicate_pushdown: true,
            join_reorder: true,
        }
    }
}

/// Run all enabled rewrites.
pub fn optimize(plan: LogicalPlan, opts: &OptimizerOptions, catalog: &Catalog) -> LogicalPlan {
    let plan = if opts.predicate_pushdown {
        push_filters(plan)
    } else {
        plan
    };
    if opts.join_reorder {
        reorder_joins(plan, catalog)
    } else {
        plan
    }
}

/// Run all enabled rewrites, re-validating the plan after each one in
/// debug builds so every rewrite is proven invariant-preserving. Release
/// builds skip the per-stage checks (the caller validates the bound plan
/// once before optimizing).
pub fn optimize_checked(
    plan: LogicalPlan,
    opts: &OptimizerOptions,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    let plan = if opts.predicate_pushdown {
        let rewritten = push_filters(plan);
        check_stage(&rewritten, catalog, "predicate pushdown")?;
        rewritten
    } else {
        plan
    };
    if opts.join_reorder {
        let rewritten = reorder_joins(plan, catalog);
        check_stage(&rewritten, catalog, "join reorder")?;
        Ok(rewritten)
    } else {
        Ok(plan)
    }
}

#[cfg(debug_assertions)]
fn check_stage(plan: &LogicalPlan, catalog: &Catalog, stage: &str) -> Result<()> {
    use crate::error::DbError;
    crate::plan::validate::ensure_valid_logical(catalog, plan).map_err(|e| {
        DbError::Validation(format!(
            "optimizer stage '{stage}' produced an invalid plan: {e}"
        ))
    })
}

#[cfg(not(debug_assertions))]
fn check_stage(_plan: &LogicalPlan, _catalog: &Catalog, _stage: &str) -> Result<()> {
    Ok(())
}

/// Split a predicate into its top-level AND conjuncts.
pub fn split_conjuncts(e: &ScalarExpr, out: &mut Vec<ScalarExpr>) {
    if let ScalarExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// AND together a list of conjuncts (None for the empty list).
pub fn conjoin(mut parts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = ScalarExpr::Binary {
            op: BinOp::And,
            left: Box::new(p),
            right: Box::new(acc),
        };
    }
    Some(acc)
}

fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_filters(*input);
            let mut conjuncts = Vec::new();
            split_conjuncts(&predicate, &mut conjuncts);
            push_conjuncts_into(input, conjuncts)
        }
        LogicalPlan::Project { input, exprs, cols } => LogicalPlan::Project {
            input: Box::new(push_filters(*input)),
            exprs,
            cols,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => LogicalPlan::Join {
            left: Box::new(push_filters(*left)),
            right: Box::new(push_filters(*right)),
            kind,
            on,
        },
        LogicalPlan::Aggregate { input, aggs, cols } => LogicalPlan::Aggregate {
            input: Box::new(push_filters(*input)),
            aggs,
            cols,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_filters(*input)),
            keys,
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(push_filters(*input)),
            limit,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(push_filters(*input)),
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(push_filters).collect(),
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    }
}

/// Push a set of conjuncts as far down into `plan` as they can go,
/// attaching what cannot move as a Filter on top.
fn push_conjuncts_into(plan: LogicalPlan, conjuncts: Vec<ScalarExpr>) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } if matches!(kind, JoinKind::Inner | JoinKind::Cross) => {
            let left_arity = left.schema().len();
            let right_arity = right.schema().len();
            let mut to_left: Vec<ScalarExpr> = Vec::new();
            let mut to_right: Vec<ScalarExpr> = Vec::new();
            let mut stay: Vec<ScalarExpr> = Vec::new();
            for c in conjuncts {
                let mut used = Vec::new();
                c.columns_used(&mut used);
                if used.iter().all(|&i| i < left_arity) {
                    to_left.push(c);
                } else if used.iter().all(|&i| i >= left_arity) {
                    // checked_sub makes the remap partial: a column that
                    // somehow is not on the right keeps the conjunct at
                    // the join instead of panicking.
                    match c.remap(&|i| i.checked_sub(left_arity)) {
                        Some(shifted) => to_right.push(shifted),
                        None => stay.push(c),
                    }
                } else {
                    stay.push(c);
                }
            }
            let _ = right_arity;
            let left = push_conjuncts_into(*left, to_left);
            let right = push_conjuncts_into(*right, to_right);
            // Fold multi-side conjuncts into the join condition; a cross
            // join that gains a condition becomes an inner join.
            let mut on_parts = Vec::new();
            if let Some(on) = on {
                split_conjuncts(&on, &mut on_parts);
            }
            on_parts.extend(stay);
            let new_on = conjoin(on_parts);
            let kind = if kind == JoinKind::Cross && new_on.is_some() {
                JoinKind::Inner
            } else {
                kind
            };
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on: new_on,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Left,
            on,
        } => {
            // For LEFT joins only left-side conjuncts can move (they cannot
            // change which left rows survive null-extension... they can,
            // but filtering left rows earlier is semantics-preserving;
            // right-side and mixed conjuncts must stay above).
            let left_arity = left.schema().len();
            let mut to_left = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                let mut used = Vec::new();
                c.columns_used(&mut used);
                if used.iter().all(|&i| i < left_arity) {
                    to_left.push(c);
                } else {
                    stay.push(c);
                }
            }
            let joined = LogicalPlan::Join {
                left: Box::new(push_conjuncts_into(*left, to_left)),
                right: Box::new(push_filters(*right)),
                kind: JoinKind::Left,
                on,
            };
            wrap_filter(joined, stay)
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut all = conjuncts;
            split_conjuncts(&predicate, &mut all);
            push_conjuncts_into(*input, all)
        }
        other => wrap_filter(other, conjuncts),
    }
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<ScalarExpr>) -> LogicalPlan {
    match conjoin(conjuncts) {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::logical::bind_select;
    use crate::schema::{Column, Schema};
    use crate::sql::parser::parse_statement;
    use crate::sql::Statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for t in ["a", "b"] {
            c.create_table(
                t,
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("v", DataType::Text),
                ])
                .unwrap(),
            )
            .unwrap();
        }
        c
    }

    fn opt(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let plan = bind_select(&catalog(), &sel).unwrap();
        optimize(
            plan,
            &OptimizerOptions {
                join_reorder: false,
                ..Default::default()
            },
            &catalog(),
        )
    }

    fn contains_filter_over_scan(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::Filter { input, .. } => {
                matches!(**input, LogicalPlan::Scan { .. }) || contains_filter_over_scan(input)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => contains_filter_over_scan(input),
            LogicalPlan::Join { left, right, .. } => {
                contains_filter_over_scan(left) || contains_filter_over_scan(right)
            }
            LogicalPlan::UnionAll { inputs } => inputs.iter().any(contains_filter_over_scan),
            _ => false,
        }
    }

    #[test]
    fn pushes_single_side_conjunct_to_scan() {
        let p = opt("SELECT * FROM a JOIN b ON a.id = b.id WHERE a.v = 'x'");
        assert!(contains_filter_over_scan(&p), "{p:?}");
    }

    #[test]
    fn cross_join_with_equi_filter_becomes_inner() {
        let p = opt("SELECT * FROM a, b WHERE a.id = b.id");
        fn find_join(p: &LogicalPlan) -> Option<(JoinKind, bool)> {
            match p {
                LogicalPlan::Join { kind, on, .. } => Some((*kind, on.is_some())),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. } => find_join(input),
                _ => None,
            }
        }
        let (kind, has_on) = find_join(&p).unwrap();
        assert_eq!(kind, JoinKind::Inner);
        assert!(has_on);
    }

    #[test]
    fn left_join_keeps_right_side_predicates_above() {
        let p = opt("SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE b.v = 'x'");
        // The b.v conjunct must remain in a Filter *above* the join.
        fn filter_above_join(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Filter { input, .. } => {
                    matches!(**input, LogicalPlan::Join { .. })
                }
                LogicalPlan::Project { input, .. } => filter_above_join(input),
                _ => false,
            }
        }
        assert!(filter_above_join(&p), "{p:?}");
    }

    #[test]
    fn conjoin_and_split_roundtrip() {
        let a = ScalarExpr::lit(true);
        let b = ScalarExpr::lit(false);
        let c = ScalarExpr::lit(1i64);
        let joined = conjoin(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let mut parts = Vec::new();
        split_conjuncts(&joined, &mut parts);
        assert_eq!(parts, vec![a, b, c]);
        assert_eq!(conjoin(vec![]), None);
    }
}
