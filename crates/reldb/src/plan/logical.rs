//! Logical plans and the binder (AST → bound plan).

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::plan::expr::{AggFunc, ScalarExpr, ScalarFunc};
use crate::sql::ast::{Expr, JoinKind, SelectItem, SelectStmt, TableRef};
use crate::value::Value;

/// A named output column of a plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputCol {
    /// Qualifier (table alias) the column is reachable under, if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl OutputCol {
    /// Unqualified column.
    pub fn bare(name: impl Into<String>) -> OutputCol {
        OutputCol {
            qualifier: None,
            name: name.into(),
        }
    }
}

/// A bound logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Full scan of a base table.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Output columns (qualified by the table alias).
        cols: Vec<OutputCol>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate (kept when TRUE).
        predicate: ScalarExpr,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Projected expressions.
        exprs: Vec<ScalarExpr>,
        /// Output names.
        cols: Vec<OutputCol>,
    },
    /// Join of two inputs; output is left columns then right columns.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition over the concatenated row.
        on: Option<ScalarExpr>,
    },
    /// Single-group aggregation: one output row of aggregate values.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Aggregates (function, argument).
        aggs: Vec<(AggFunc, Option<ScalarExpr>)>,
        /// Output names.
        cols: Vec<OutputCol>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Sort keys with ascending flags.
        keys: Vec<(ScalarExpr, bool)>,
    },
    /// LIMIT.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        limit: u64,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input.
        input: Box<LogicalPlan>,
    },
    /// Concatenation of same-arity inputs.
    UnionAll {
        /// Inputs.
        inputs: Vec<LogicalPlan>,
    },
    /// Literal rows (also models `SELECT ...` with no FROM via one empty row).
    Values {
        /// Row expressions.
        rows: Vec<Vec<ScalarExpr>>,
        /// Output names.
        cols: Vec<OutputCol>,
    },
}

impl LogicalPlan {
    /// The plan's output columns.
    pub fn schema(&self) -> Vec<OutputCol> {
        match self {
            LogicalPlan::Scan { cols, .. }
            | LogicalPlan::Project { cols, .. }
            | LogicalPlan::Aggregate { cols, .. }
            | LogicalPlan::Values { cols, .. } => cols.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Join { left, right, .. } => {
                let mut out = left.schema();
                out.extend(right.schema());
                out
            }
            LogicalPlan::UnionAll { inputs } => {
                inputs.first().map(|p| p.schema()).unwrap_or_default()
            }
        }
    }

    /// Count of join nodes in the plan (experiment E6's metric).
    pub fn join_count(&self) -> usize {
        match self {
            LogicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.join_count(),
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(Self::join_count).sum(),
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => 0,
        }
    }
}

/// Name-resolution scope.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    cols: Vec<OutputCol>,
}

impl Scope {
    /// Scope over a plan's output.
    pub fn of(plan: &LogicalPlan) -> Scope {
        Scope {
            cols: plan.schema(),
        }
    }

    /// Resolve a column reference to an offset.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let mut hit = None;
        for (i, c) in self.cols.iter().enumerate() {
            let q_ok = match qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(&q.to_ascii_lowercase()),
            };
            if q_ok && c.name == name {
                if hit.is_some() {
                    return Err(DbError::Binding(format!("ambiguous column {name:?}")));
                }
                hit = Some(i);
            }
        }
        hit.ok_or_else(|| match qualifier {
            Some(q) => DbError::Binding(format!("no column {q}.{name}")),
            None => DbError::Binding(format!("no column {name:?}")),
        })
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn cols(&self) -> &[OutputCol] {
        &self.cols
    }
}

/// Bind a SELECT statement to a logical plan.
pub fn bind_select(catalog: &Catalog, stmt: &SelectStmt) -> Result<LogicalPlan> {
    // UNION ALL chain: bind each arm; ORDER BY / LIMIT of the final arm
    // apply to the whole union.
    if stmt.union_all.is_some() {
        let mut arms: Vec<&SelectStmt> = Vec::new();
        let mut cur = Some(stmt);
        let mut tail_order: &[(Expr, bool)] = &[];
        let mut tail_limit = None;
        while let Some(s) = cur {
            arms.push(s);
            if s.union_all.is_none() {
                tail_order = &s.order_by;
                tail_limit = s.limit;
            }
            cur = s.union_all.as_deref();
        }
        let mut plans = Vec::new();
        for arm in &arms {
            let mut solo = (*arm).clone();
            solo.union_all = None;
            solo.order_by = Vec::new();
            solo.limit = None;
            plans.push(bind_select(catalog, &solo)?);
        }
        let Some((first, rest)) = plans.split_first() else {
            return Err(DbError::Binding("UNION ALL with no arms".into()));
        };
        let arity = first.schema().len();
        for p in rest {
            if p.schema().len() != arity {
                return Err(DbError::Binding("UNION ALL arms differ in arity".into()));
            }
        }
        let mut plan = LogicalPlan::UnionAll { inputs: plans };
        plan = apply_order_limit(plan, tail_order, tail_limit)?;
        return Ok(plan);
    }

    // FROM.
    let mut plan = match &stmt.from {
        Some(tr) => bind_table_ref(catalog, tr)?,
        None => LogicalPlan::Values {
            rows: vec![Vec::new()],
            cols: Vec::new(),
        },
    };

    // WHERE.
    if let Some(pred) = &stmt.predicate {
        let scope = Scope::of(&plan);
        let bound = bind_expr(pred, &scope)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: bound,
        };
    }

    // Aggregation: a single group, so every projection must be an
    // aggregate (or an expression over aggregates).
    let has_aggs = stmt.projections.iter().any(|p| match p {
        SelectItem::Expr { expr, .. } => contains_agg(expr),
        SelectItem::Wildcard => false,
    });

    let (exprs, names) = if has_aggs {
        let input_scope = Scope::of(&plan);
        let mut aggs = Vec::new();
        let mut proj_exprs = Vec::new();
        let mut proj_names = Vec::new();
        for (i, item) in stmt.projections.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Unsupported(
                    "wildcard projection beside an aggregate".into(),
                ));
            };
            proj_exprs.push(bind_agg_expr(expr, &input_scope, &mut aggs)?);
            proj_names.push(OutputCol::bare(
                alias.clone().unwrap_or_else(|| derive_name(expr, i)),
            ));
        }
        // Aggregate output names a0..am (internal).
        let cols = (0..aggs.len())
            .map(|i| OutputCol::bare(format!("a{i}")))
            .collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            aggs,
            cols,
        };
        (proj_exprs, proj_names)
    } else {
        // Plain projection.
        let scope = Scope::of(&plan);
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (i, item) in stmt.projections.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (j, c) in scope.cols().iter().enumerate() {
                        exprs.push(ScalarExpr::Column(j));
                        names.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(bind_expr(expr, &scope)?);
                    names.push(OutputCol::bare(
                        alias.clone().unwrap_or_else(|| derive_name(expr, i)),
                    ));
                }
            }
        }
        (exprs, names)
    };

    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        cols: names,
    };

    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    plan = apply_order_limit(plan, &stmt.order_by, stmt.limit)?;
    Ok(plan)
}

fn apply_order_limit(
    mut plan: LogicalPlan,
    order_by: &[(Expr, bool)],
    limit: Option<u64>,
) -> Result<LogicalPlan> {
    if !order_by.is_empty() {
        let scope = Scope::of(&plan);
        let visible = scope.len();
        let mut keys: Vec<(ScalarExpr, bool)> = Vec::new();
        // Keys that don't bind to the projection output fall back to the
        // projection *input*: they are appended as hidden projection
        // columns, used for sorting, and stripped afterwards.
        let mut hidden: Vec<(usize, Expr, bool)> = Vec::new();
        for (pos, (e, asc)) in order_by.iter().enumerate() {
            // Ordinal form: ORDER BY 2.
            if let Expr::Literal(Value::Int(n)) = e {
                let i = *n as usize;
                if i == 0 || i > visible {
                    return Err(DbError::Binding(format!(
                        "ORDER BY position {n} out of range"
                    )));
                }
                keys.push((ScalarExpr::Column(i - 1), *asc));
                continue;
            }
            match bind_expr(e, &scope) {
                Ok(k) => keys.push((k, *asc)),
                Err(err) => {
                    if matches!(plan, LogicalPlan::Project { .. }) {
                        // Placeholder; resolved below against the input.
                        keys.push((ScalarExpr::Column(usize::MAX), *asc));
                        hidden.push((pos, e.clone(), *asc));
                    } else {
                        return Err(err);
                    }
                }
            }
        }
        if !hidden.is_empty() {
            let LogicalPlan::Project {
                input,
                mut exprs,
                mut cols,
            } = plan
            else {
                // Hidden sort keys are only collected when the plan root is
                // a projection; anything else is a binder bug.
                return Err(DbError::Binding(
                    "ORDER BY on unprojected expressions requires a projection".into(),
                ));
            };
            let input_scope = Scope::of(&input);
            for (i, (pos, e, _)) in hidden.iter().enumerate() {
                let bound = bind_expr(e, &input_scope)?;
                exprs.push(bound);
                cols.push(OutputCol::bare(format!("__sort{i}")));
                keys[*pos].0 = ScalarExpr::Column(visible + i);
            }
            let projected = LogicalPlan::Project {
                input,
                exprs,
                cols: cols.clone(),
            };
            let sorted = LogicalPlan::Sort {
                input: Box::new(projected),
                keys,
            };
            // Strip the hidden sort columns.
            let strip_exprs = (0..visible).map(ScalarExpr::Column).collect();
            let strip_cols = cols[..visible].to_vec();
            plan = LogicalPlan::Project {
                input: Box::new(sorted),
                exprs: strip_exprs,
                cols: strip_cols,
            };
        } else {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
    }
    if let Some(limit) = limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit,
        };
    }
    Ok(plan)
}

/// Bind a FROM item.
pub fn bind_table_ref(catalog: &Catalog, tr: &TableRef) -> Result<LogicalPlan> {
    match tr {
        TableRef::Table { name, alias } => {
            let table = catalog.table(name)?;
            let q = alias.clone().unwrap_or_else(|| name.to_ascii_lowercase());
            let cols = table
                .schema
                .columns
                .iter()
                .map(|c| OutputCol {
                    qualifier: Some(q.clone()),
                    name: c.name.clone(),
                })
                .collect();
            Ok(LogicalPlan::Scan {
                table: name.to_ascii_lowercase(),
                cols,
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = bind_table_ref(catalog, left)?;
            let r = bind_table_ref(catalog, right)?;
            let joined = LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: *kind,
                on: None,
            };
            let scope = Scope::of(&joined);
            let bound_on = match on {
                Some(e) => Some(bind_expr(e, &scope)?),
                None => None,
            };
            let LogicalPlan::Join {
                left, right, kind, ..
            } = joined
            else {
                return Err(DbError::Binding("join binding lost its join node".into()));
            };
            Ok(LogicalPlan::Join {
                left,
                right,
                kind,
                on: bound_on,
            })
        }
    }
}

/// Bind an expression with no aggregate context.
pub fn bind_expr(e: &Expr, scope: &Scope) -> Result<ScalarExpr> {
    match e {
        Expr::Column { qualifier, name } => Ok(ScalarExpr::Column(
            scope.resolve(qualifier.as_deref(), name)?,
        )),
        Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
        Expr::Binary { op, left, right } => Ok(ScalarExpr::Binary {
            op: *op,
            left: Box::new(bind_expr(left, scope)?),
            right: Box::new(bind_expr(right, scope)?),
        }),
        Expr::Unary { op, expr } => Ok(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(bind_expr(expr, scope)?),
        }),
        Expr::Function { name, args } => {
            if AggFunc::by_name(name).is_some() {
                return Err(DbError::Binding(format!(
                    "aggregate {name}() not allowed here"
                )));
            }
            let func = ScalarFunc::by_name(name).ok_or_else(|| {
                DbError::Unsupported(format!("function {name}() is outside the SQL subset"))
            })?;
            Ok(ScalarExpr::Call {
                func,
                args: args
                    .iter()
                    .map(|a| bind_expr(a, scope))
                    .collect::<Result<_>>()?,
            })
        }
        Expr::Star => Err(DbError::Binding("'*' only allowed in COUNT(*)".into())),
        Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
            expr: Box::new(bind_expr(expr, scope)?),
            negated: *negated,
        }),
        Expr::Between { expr, low, high } => Ok(ScalarExpr::Between {
            expr: Box::new(bind_expr(expr, scope)?),
            low: Box::new(bind_expr(low, scope)?),
            high: Box::new(bind_expr(high, scope)?),
        }),
        Expr::InList { expr, list } => Ok(ScalarExpr::InList {
            expr: Box::new(bind_expr(expr, scope)?),
            list: list
                .iter()
                .map(|x| bind_expr(x, scope))
                .collect::<Result<_>>()?,
        }),
        Expr::Like { expr, pattern } => Ok(ScalarExpr::Like {
            expr: Box::new(bind_expr(expr, scope)?),
            pattern: Box::new(bind_expr(pattern, scope)?),
        }),
    }
}

/// Bind a projection expression in aggregate context: aggregate calls
/// become references to the Aggregate node's output (deduplicated into
/// `aggs`), and a column outside an aggregate is rejected — the single
/// group has no row to take it from.
fn bind_agg_expr(
    e: &Expr,
    input_scope: &Scope,
    aggs: &mut Vec<(AggFunc, Option<ScalarExpr>)>,
) -> Result<ScalarExpr> {
    match e {
        Expr::Function { name, args } if AggFunc::by_name(name).is_some() => {
            let Some(mut func) = AggFunc::by_name(name) else {
                return Err(DbError::Binding(format!("unknown aggregate {name:?}")));
            };
            let arg = match args.as_slice() {
                [Expr::Star] | [] if func == AggFunc::Count => {
                    func = AggFunc::CountStar;
                    None
                }
                [a] => Some(bind_expr(a, input_scope)?),
                _ => {
                    return Err(DbError::Binding(format!(
                        "{name}() takes exactly one argument"
                    )))
                }
            };
            let slot = match aggs.iter().position(|(f, a)| *f == func && *a == arg) {
                Some(i) => i,
                None => {
                    aggs.push((func, arg));
                    aggs.len() - 1
                }
            };
            Ok(ScalarExpr::Column(slot))
        }
        Expr::Column { name, .. } => Err(DbError::Binding(format!(
            "column {name:?} must appear inside an aggregate"
        ))),
        Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
        Expr::Binary { op, left, right } => Ok(ScalarExpr::Binary {
            op: *op,
            left: Box::new(bind_agg_expr(left, input_scope, aggs)?),
            right: Box::new(bind_agg_expr(right, input_scope, aggs)?),
        }),
        Expr::Unary { op, expr } => Ok(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(bind_agg_expr(expr, input_scope, aggs)?),
        }),
        Expr::Function { .. }
        | Expr::Star
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::Like { .. } => Err(DbError::Unsupported(
            "an aggregate projection takes aggregates, literals and + / - only".into(),
        )),
    }
}

fn contains_agg(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args } => {
            AggFunc::by_name(name).is_some() || args.iter().any(contains_agg)
        }
        Expr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        Expr::Unary { expr, .. } => contains_agg(expr),
        Expr::IsNull { expr, .. } => contains_agg(expr),
        Expr::Between {
            expr, low, high, ..
        } => contains_agg(expr) || contains_agg(low) || contains_agg(high),
        Expr::InList { expr, list, .. } => contains_agg(expr) || list.iter().any(contains_agg),
        Expr::Like { expr, pattern, .. } => contains_agg(expr) || contains_agg(pattern),
        Expr::Column { .. } | Expr::Literal(_) | Expr::Star => false,
    }
}

fn derive_name(e: &Expr, ordinal: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("col{ordinal}"),
    }
}

/// Pretty-print a logical plan as an indented tree (EXPLAIN output).
pub fn explain_plan(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    fmt_plan(plan, 0, &mut out);
    out
}

fn fmt_plan(plan: &LogicalPlan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match plan {
        LogicalPlan::Scan { table, .. } => {
            out.push_str(&format!("{pad}Scan {table}\n"));
        }
        LogicalPlan::Filter { input, predicate } => {
            out.push_str(&format!("{pad}Filter {predicate:?}\n"));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            out.push_str(&format!("{pad}Project [{} exprs]\n", exprs.len()));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            out.push_str(&format!("{pad}Join {kind:?} on={on:?}\n"));
            fmt_plan(left, depth + 1, out);
            fmt_plan(right, depth + 1, out);
        }
        LogicalPlan::Aggregate { input, aggs, .. } => {
            out.push_str(&format!("{pad}Aggregate aggs={}\n", aggs.len()));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::Sort { input, keys } => {
            out.push_str(&format!("{pad}Sort [{} keys]\n", keys.len()));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::Limit { input, limit } => {
            out.push_str(&format!("{pad}Limit {limit}\n"));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::Distinct { input } => {
            out.push_str(&format!("{pad}Distinct\n"));
            fmt_plan(input, depth + 1, out);
        }
        LogicalPlan::UnionAll { inputs } => {
            out.push_str(&format!("{pad}UnionAll [{}]\n", inputs.len()));
            for i in inputs {
                fmt_plan(i, depth + 1, out);
            }
        }
        LogicalPlan::Values { rows, .. } => {
            out.push_str(&format!("{pad}Values [{} rows]\n", rows.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::sql::parser::parse_statement;
    use crate::sql::Statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "edge",
            Schema::new(vec![
                Column::not_null("src", DataType::Int),
                Column::new("ord", DataType::Int),
                Column::new("label", DataType::Text),
                Column::new("tgt", DataType::Int),
                Column::new("val", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "node",
            Schema::new(vec![
                Column::not_null("pre", DataType::Int),
                Column::new("size", DataType::Int),
                Column::new("name", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        bind_select(&catalog(), &sel)
    }

    #[test]
    fn simple_scan_project() {
        let p = bind("SELECT label, tgt FROM edge").unwrap();
        let schema = p.schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema[0].name, "label");
    }

    #[test]
    fn wildcard_expands() {
        let p = bind("SELECT * FROM edge").unwrap();
        assert_eq!(p.schema().len(), 5);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(matches!(
            bind("SELECT nope FROM edge"),
            Err(DbError::Binding(_))
        ));
    }

    #[test]
    fn ambiguity_detected() {
        // Self-join: `label` exists on both sides.
        let err = bind("SELECT label FROM edge e1 JOIN edge e2 ON e1.tgt = e2.src").unwrap_err();
        assert!(matches!(err, DbError::Binding(m) if m.contains("ambiguous")));
    }

    #[test]
    fn aliases_rename_scope() {
        assert!(bind("SELECT e1.label FROM edge e1").is_ok());
        assert!(bind("SELECT edge.label FROM edge e1").is_err());
    }

    #[test]
    fn aggregate_binding_and_rewrite() {
        let p = bind("SELECT COUNT(*), MAX(tgt), COUNT(*) + 1 FROM edge").unwrap();
        // Shape: Project(Aggregate(Scan)).
        let LogicalPlan::Project { input, .. } = &p else {
            panic!("{p:?}")
        };
        let LogicalPlan::Aggregate { aggs, .. } = &**input else {
            panic!()
        };
        // COUNT(*) is shared between the two projections that use it.
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn bare_column_beside_aggregate_rejected() {
        let err = bind("SELECT tgt, COUNT(*) FROM edge").unwrap_err();
        assert!(matches!(err, DbError::Binding(_)));
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        assert!(bind("SELECT label AS l FROM edge ORDER BY l").is_ok());
        assert!(bind("SELECT label FROM edge ORDER BY 1 DESC").is_ok());
        assert!(bind("SELECT label FROM edge ORDER BY 2").is_err());
    }

    #[test]
    fn union_arity_checked() {
        assert!(bind("SELECT src FROM edge UNION ALL SELECT pre FROM node").is_ok());
        assert!(bind("SELECT src, tgt FROM edge UNION ALL SELECT pre FROM node").is_err());
    }

    #[test]
    fn scalar_select_without_from() {
        let p = bind("SELECT 1 + 2 AS three").unwrap();
        assert_eq!(p.schema()[0].name, "three");
    }

    #[test]
    fn join_count_metric() {
        let p = bind(
            "SELECT e1.val FROM edge e1 JOIN edge e2 ON e1.src = e2.tgt \
             JOIN edge e3 ON e2.src = e3.tgt",
        )
        .unwrap();
        assert_eq!(p.join_count(), 2);
    }

    #[test]
    fn aggregates_not_allowed_in_where() {
        let err = bind("SELECT label FROM edge WHERE COUNT(*) > 1").unwrap_err();
        assert!(matches!(err, DbError::Binding(_)));
    }
}
