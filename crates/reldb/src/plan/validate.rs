//! Plan validator: typechecks logical and physical plans against the catalog.
//!
//! The binder produces offset-based plans, and the optimizer and physical
//! planner rewrite them; a bug in any of those layers silently yields wrong
//! results or a runtime panic deep inside an operator. This pass re-derives
//! the column types of every plan node from the catalog and checks, per
//! node:
//!
//! - every column reference resolves (offset within the input arity);
//! - comparisons, joins and arithmetic agree on operand types;
//! - aggregate arguments suit their function and output arity is consistent;
//! - UNION ALL arms agree in arity and column types;
//! - accidental cartesian products are flagged (cross join without a
//!   condition, or a condition touching only one side).
//!
//! Violations that would make a plan wrong are [`Severity::Error`];
//! suspicious-but-executable shapes (cartesian products, constant-true
//! predicates) are [`Severity::Warning`]. [`ensure_valid_logical`] /
//! [`ensure_valid_physical`] turn the first error into a
//! [`DbError::Validation`] so `Database::execute` can reject the plan before
//! any operator runs.

use std::fmt;
use std::ops::Bound;

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::plan::expr::{AggFunc, ScalarExpr, ScalarFunc};
use crate::plan::logical::LogicalPlan;
use crate::plan::physical::PhysicalPlan;
use crate::sql::ast::{BinOp, JoinKind, UnOp};
use crate::value::{DataType, Value};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable (e.g. cartesian product).
    Warning,
    /// The plan is wrong; executing it would misbehave.
    Error,
}

/// One validator finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable rule name (e.g. `column-range`, `type-mismatch`).
    pub rule: &'static str,
    /// Plan-node path from the root, e.g. `Project > Filter > Join`.
    pub node: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}] at {}: {}", self.rule, self.node, self.message)
    }
}

/// Inferred type of a plan column or expression. `Any` covers NULL
/// literals and values whose type is only known at runtime (e.g. `NUM()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Float,
    Text,
    Bool,
    Any,
}

impl Ty {
    fn of_value(v: &Value) -> Ty {
        match v.data_type() {
            None => Ty::Any,
            Some(DataType::Int) => Ty::Int,
            Some(DataType::Float) => Ty::Float,
            Some(DataType::Text) => Ty::Text,
            Some(DataType::Bool) => Ty::Bool,
        }
    }

    fn of_data_type(ty: DataType) -> Ty {
        match ty {
            DataType::Int => Ty::Int,
            DataType::Float => Ty::Float,
            DataType::Text => Ty::Text,
            DataType::Bool => Ty::Bool,
        }
    }

    fn is_numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Any)
    }

    fn is_textual(self) -> bool {
        matches!(self, Ty::Text | Ty::Any)
    }

    /// Usable where SQL wants a truth value (numbers are truthy).
    fn is_boolish(self) -> bool {
        matches!(self, Ty::Bool | Ty::Int | Ty::Float | Ty::Any)
    }

    /// Whether two types can be meaningfully compared.
    fn comparable(self, other: Ty) -> bool {
        self == Ty::Any
            || other == Ty::Any
            || self == other
            || (matches!(self, Ty::Int | Ty::Float) && matches!(other, Ty::Int | Ty::Float))
    }

    /// Common type of two compatible inputs (UNION ALL / COALESCE).
    fn unify(self, other: Ty) -> Ty {
        match (self, other) {
            (a, b) if a == b => a,
            (Ty::Any, b) => b,
            (a, Ty::Any) => a,
            (Ty::Int, Ty::Float) | (Ty::Float, Ty::Int) => Ty::Float,
            _ => Ty::Any,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ty::Int => "INT",
            Ty::Float => "FLOAT",
            Ty::Text => "TEXT",
            Ty::Bool => "BOOL",
            Ty::Any => "ANY",
        })
    }
}

struct Ctx<'a> {
    catalog: &'a Catalog,
    path: Vec<&'static str>,
    diags: Vec<Diagnostic>,
}

impl<'a> Ctx<'a> {
    fn new(catalog: &'a Catalog) -> Ctx<'a> {
        Ctx {
            catalog,
            path: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn node_path(&self) -> String {
        if self.path.is_empty() {
            "<root>".to_string()
        } else {
            self.path.join(" > ")
        }
    }

    fn error(&mut self, rule: &'static str, message: String) {
        let node = self.node_path();
        self.diags.push(Diagnostic {
            severity: Severity::Error,
            rule,
            node,
            message,
        });
    }

    fn warn(&mut self, rule: &'static str, message: String) {
        let node = self.node_path();
        self.diags.push(Diagnostic {
            severity: Severity::Warning,
            rule,
            node,
            message,
        });
    }

    fn scan_types(&mut self, table: &str) -> Option<Vec<Ty>> {
        match self.catalog.table(table) {
            Ok(t) => Some(
                t.schema
                    .columns
                    .iter()
                    .map(|c| Ty::of_data_type(c.ty))
                    .collect(),
            ),
            Err(_) => {
                self.error(
                    "unknown-table",
                    format!("no table {table:?} in the catalog"),
                );
                None
            }
        }
    }
}

/// Validate a logical plan; returns all findings (possibly empty).
pub fn validate_logical(catalog: &Catalog, plan: &LogicalPlan) -> Vec<Diagnostic> {
    let mut ctx = Ctx::new(catalog);
    logical_types(plan, &mut ctx);
    ctx.diags
}

/// Validate a physical plan; returns all findings (possibly empty).
pub fn validate_physical(catalog: &Catalog, plan: &PhysicalPlan) -> Vec<Diagnostic> {
    let mut ctx = Ctx::new(catalog);
    physical_types(plan, &mut ctx);
    ctx.diags
}

/// Reject a logical plan whose validation produced any error.
pub fn ensure_valid_logical(catalog: &Catalog, plan: &LogicalPlan) -> Result<()> {
    first_error(validate_logical(catalog, plan))
}

/// Reject a physical plan whose validation produced any error.
pub fn ensure_valid_physical(catalog: &Catalog, plan: &PhysicalPlan) -> Result<()> {
    first_error(validate_physical(catalog, plan))
}

fn first_error(diags: Vec<Diagnostic>) -> Result<()> {
    match diags.into_iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(DbError::Validation(d.to_string())),
        None => Ok(()),
    }
}

/// Derive the output column types of a logical node, recording diagnostics
/// along the way. `None` means the schema could not be derived (an error
/// was already recorded); dependent checks are skipped to avoid cascades.
fn logical_types(plan: &LogicalPlan, ctx: &mut Ctx<'_>) -> Option<Vec<Ty>> {
    match plan {
        LogicalPlan::Scan { table, cols } => {
            ctx.path.push("Scan");
            let tys = ctx.scan_types(table);
            if let Some(tys) = &tys {
                if tys.len() != cols.len() {
                    ctx.error(
                        "schema-arity",
                        format!(
                            "Scan of {table:?} declares {} output columns but the table has {}",
                            cols.len(),
                            tys.len()
                        ),
                    );
                }
            }
            ctx.path.pop();
            tys
        }
        LogicalPlan::Filter { input, predicate } => {
            ctx.path.push("Filter");
            let tys = logical_types(input, ctx);
            if let Some(tys) = &tys {
                check_predicate(predicate, tys, ctx);
            }
            ctx.path.pop();
            tys
        }
        LogicalPlan::Project { input, exprs, cols } => {
            ctx.path.push("Project");
            let input_tys = logical_types(input, ctx);
            if exprs.len() != cols.len() {
                ctx.error(
                    "schema-arity",
                    format!(
                        "Project has {} expressions but {} output names",
                        exprs.len(),
                        cols.len()
                    ),
                );
            }
            let out = input_tys
                .as_ref()
                .map(|tys| exprs.iter().map(|e| type_expr(e, tys, ctx)).collect());
            ctx.path.pop();
            out
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            ctx.path.push("Join");
            let lt = logical_types(left, ctx);
            let rt = logical_types(right, ctx);
            let out = match (lt, rt) {
                (Some(mut l), Some(r)) => {
                    let left_arity = l.len();
                    l.extend(r);
                    check_join_condition(*kind, on.as_ref(), left_arity, &l, ctx);
                    Some(l)
                }
                _ => None,
            };
            ctx.path.pop();
            out
        }
        LogicalPlan::Aggregate { input, aggs, cols } => {
            ctx.path.push("Aggregate");
            let input_tys = logical_types(input, ctx);
            if cols.len() != aggs.len() {
                ctx.error(
                    "schema-arity",
                    format!(
                        "Aggregate declares {} output columns but produces {} aggregates",
                        cols.len(),
                        aggs.len()
                    ),
                );
            }
            let out = input_tys.as_ref().map(|tys| {
                aggs.iter()
                    .map(|(func, arg)| type_agg(*func, arg.as_ref(), tys, ctx))
                    .collect()
            });
            ctx.path.pop();
            out
        }
        LogicalPlan::Sort { input, keys } => {
            ctx.path.push("Sort");
            let tys = logical_types(input, ctx);
            if let Some(tys) = &tys {
                for (k, _) in keys {
                    type_expr(k, tys, ctx);
                }
            }
            ctx.path.pop();
            tys
        }
        LogicalPlan::Limit { input, .. } => logical_types(input, ctx),
        LogicalPlan::Distinct { input } => logical_types(input, ctx),
        LogicalPlan::UnionAll { inputs } => {
            ctx.path.push("UnionAll");
            if inputs.is_empty() {
                ctx.error("schema-arity", "UNION ALL with no inputs".to_string());
                ctx.path.pop();
                return None;
            }
            let arm_tys: Vec<Option<Vec<Ty>>> =
                inputs.iter().map(|i| logical_types(i, ctx)).collect();
            let mut unified: Option<Vec<Ty>> = None;
            for (arm, tys) in arm_tys.into_iter().enumerate() {
                let Some(tys) = tys else { continue };
                match &mut unified {
                    None => unified = Some(tys),
                    Some(u) => {
                        if u.len() != tys.len() {
                            ctx.error(
                                "union-arity",
                                format!(
                                    "UNION ALL arm {arm} has arity {} but arm 0 has {}",
                                    tys.len(),
                                    u.len()
                                ),
                            );
                            continue;
                        }
                        for (i, (a, b)) in u.iter_mut().zip(tys).enumerate() {
                            if !a.comparable(b) {
                                ctx.error(
                                    "union-types",
                                    format!(
                                        "UNION ALL column {i} mixes {a} (arm 0) \
                                         with {b} (arm {arm})"
                                    ),
                                );
                            }
                            *a = a.unify(b);
                        }
                    }
                }
            }
            ctx.path.pop();
            unified
        }
        LogicalPlan::Values { rows, cols } => {
            ctx.path.push("Values");
            let empty: Vec<Ty> = Vec::new();
            let mut out = vec![Ty::Any; cols.len()];
            for (rix, row) in rows.iter().enumerate() {
                if row.len() != cols.len() {
                    ctx.error(
                        "schema-arity",
                        format!(
                            "Values row {rix} has {} expressions but {} output names",
                            row.len(),
                            cols.len()
                        ),
                    );
                    continue;
                }
                for (i, e) in row.iter().enumerate() {
                    let t = type_expr(e, &empty, ctx);
                    out[i] = out[i].unify(t);
                }
            }
            ctx.path.pop();
            Some(out)
        }
    }
}

/// A join must have a condition unless it is CROSS; a condition that never
/// relates the two sides makes the join a disguised cartesian product.
fn check_join_condition(
    kind: JoinKind,
    on: Option<&ScalarExpr>,
    left_arity: usize,
    concat: &[Ty],
    ctx: &mut Ctx<'_>,
) {
    let right_arity = concat.len() - left_arity;
    match on {
        None => {
            if kind != JoinKind::Cross {
                ctx.error(
                    "join-condition",
                    format!("{kind:?} join has no ON condition"),
                );
            } else if left_arity > 0 && right_arity > 0 {
                ctx.warn(
                    "cartesian-product",
                    "cross join without a condition produces a cartesian product".to_string(),
                );
            }
        }
        Some(on) => {
            check_predicate(on, concat, ctx);
            if left_arity > 0 && right_arity > 0 {
                let mut used = Vec::new();
                on.columns_used(&mut used);
                let touches_left = used.iter().any(|&i| i < left_arity);
                let touches_right = used.iter().any(|&i| i >= left_arity);
                if !(touches_left && touches_right) {
                    ctx.warn(
                        "cartesian-product",
                        format!(
                            "join condition references only {} side; the join \
                             degenerates to a cartesian product",
                            if touches_left {
                                "the left"
                            } else {
                                "the right"
                            }
                        ),
                    );
                }
            }
        }
    }
}

/// A predicate must produce a truth value; a TEXT-typed predicate is
/// always truthy and almost certainly a bug.
fn check_predicate(pred: &ScalarExpr, input: &[Ty], ctx: &mut Ctx<'_>) {
    let t = type_expr(pred, input, ctx);
    if !t.is_boolish() {
        ctx.warn(
            "predicate-type",
            format!("predicate has type {t}, which is always true"),
        );
    }
}

fn type_agg(func: AggFunc, arg: Option<&ScalarExpr>, input: &[Ty], ctx: &mut Ctx<'_>) -> Ty {
    let arg_ty = arg.map(|a| type_expr(a, input, ctx));
    match (func, arg_ty) {
        (AggFunc::CountStar, None) => Ty::Int,
        (AggFunc::CountStar, Some(_)) => {
            ctx.error("agg-arg", "COUNT(*) takes no argument".to_string());
            Ty::Int
        }
        (_, None) => {
            ctx.error("agg-arg", format!("{func:?} requires an argument"));
            Ty::Any
        }
        (AggFunc::Count, Some(_)) => Ty::Int,
        (AggFunc::Max, Some(t)) => t,
    }
}

/// Infer an expression's type over `input`, recording any diagnostics.
fn type_expr(e: &ScalarExpr, input: &[Ty], ctx: &mut Ctx<'_>) -> Ty {
    match e {
        ScalarExpr::Column(i) => match input.get(*i) {
            Some(t) => *t,
            None => {
                ctx.error(
                    "column-range",
                    format!(
                        "column reference #{i} is out of range (input arity {})",
                        input.len()
                    ),
                );
                Ty::Any
            }
        },
        ScalarExpr::Literal(v) => Ty::of_value(v),
        ScalarExpr::Binary { op, left, right } => {
            let l = type_expr(left, input, ctx);
            let r = type_expr(right, input, ctx);
            type_binary(*op, l, r, ctx)
        }
        ScalarExpr::Unary { op, expr } => {
            let t = type_expr(expr, input, ctx);
            match op {
                UnOp::Not => {
                    if !t.is_boolish() {
                        ctx.warn(
                            "predicate-type",
                            format!("NOT applied to {t}, which is always true"),
                        );
                    }
                    Ty::Bool
                }
                UnOp::Neg => {
                    if !t.is_numeric() {
                        ctx.error("type-mismatch", format!("cannot negate {t}"));
                    }
                    t
                }
            }
        }
        ScalarExpr::Call { func, args } => type_call(*func, args, input, ctx),
        ScalarExpr::IsNull { expr, .. } => {
            type_expr(expr, input, ctx);
            Ty::Bool
        }
        ScalarExpr::Between {
            expr, low, high, ..
        } => {
            let t = type_expr(expr, input, ctx);
            let lo = type_expr(low, input, ctx);
            let hi = type_expr(high, input, ctx);
            for (bound, b) in [("lower", lo), ("upper", hi)] {
                if !t.comparable(b) {
                    ctx.error(
                        "type-mismatch",
                        format!("BETWEEN compares {t} with {bound} bound of type {b}"),
                    );
                }
            }
            Ty::Bool
        }
        ScalarExpr::InList { expr, list, .. } => {
            let t = type_expr(expr, input, ctx);
            for cand in list {
                let c = type_expr(cand, input, ctx);
                if !t.comparable(c) {
                    ctx.error(
                        "type-mismatch",
                        format!("IN list compares {t} with candidate of type {c}"),
                    );
                }
            }
            Ty::Bool
        }
        ScalarExpr::Like { expr, pattern, .. } => {
            let t = type_expr(expr, input, ctx);
            let p = type_expr(pattern, input, ctx);
            if !t.is_textual() || !p.is_textual() {
                ctx.error(
                    "type-mismatch",
                    format!("LIKE requires text operands, got {t} LIKE {p}"),
                );
            }
            Ty::Bool
        }
    }
}

fn type_binary(op: BinOp, l: Ty, r: Ty, ctx: &mut Ctx<'_>) -> Ty {
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            if !l.comparable(r) {
                ctx.error(
                    "type-mismatch",
                    format!("comparison between incompatible types {l} and {r}"),
                );
            }
            Ty::Bool
        }
        BinOp::And | BinOp::Or => {
            for t in [l, r] {
                if !t.is_boolish() {
                    ctx.warn(
                        "predicate-type",
                        format!("logical operand has type {t}, which is always true"),
                    );
                }
            }
            Ty::Bool
        }
        BinOp::Add | BinOp::Sub => {
            for t in [l, r] {
                if !t.is_numeric() {
                    ctx.error("type-mismatch", format!("arithmetic on {t}"));
                }
            }
            match (l, r) {
                (Ty::Int, Ty::Int) => Ty::Int,
                (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
                _ => Ty::Any,
            }
        }
        // Concatenation stringifies any non-NULL operand.
        BinOp::Concat => Ty::Text,
    }
}

fn type_call(func: ScalarFunc, args: &[ScalarExpr], input: &[Ty], ctx: &mut Ctx<'_>) -> Ty {
    for a in args {
        type_expr(a, input, ctx);
    }
    if args.len() != 1 {
        ctx.error(
            "call-arity",
            format!("{func:?} expects 1 argument(s), got {}", args.len()),
        );
    }
    // The only function, NUM(), parses text at runtime; its result type is
    // dynamic.
    Ty::Any
}

/// Derive the output column types of a physical node, checking the same
/// invariants plus access-path facts: referenced tables and indexes exist,
/// stored arities agree with the operators' expectations.
fn physical_types(plan: &PhysicalPlan, ctx: &mut Ctx<'_>) -> Option<Vec<Ty>> {
    match plan {
        PhysicalPlan::SeqScan { table } => {
            ctx.path.push("SeqScan");
            let tys = ctx.scan_types(table);
            ctx.path.pop();
            tys
        }
        PhysicalPlan::IndexScan {
            table,
            index,
            lower,
            upper,
            residual,
        } => {
            ctx.path.push("IndexScan");
            let tys = ctx.scan_types(table);
            if let Some(tys) = &tys {
                check_index(table, index, tys, &[lower, upper], ctx);
                if let Some(r) = residual {
                    check_predicate(r, tys, ctx);
                }
            }
            ctx.path.pop();
            tys
        }
        PhysicalPlan::Filter { input, predicate } => {
            ctx.path.push("Filter");
            let tys = physical_types(input, ctx);
            if let Some(tys) = &tys {
                check_predicate(predicate, tys, ctx);
            }
            ctx.path.pop();
            tys
        }
        PhysicalPlan::Project { input, exprs } => {
            ctx.path.push("Project");
            let input_tys = physical_types(input, ctx);
            let out = input_tys
                .as_ref()
                .map(|tys| exprs.iter().map(|e| type_expr(e, tys, ctx)).collect());
            ctx.path.pop();
            out
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            right_arity,
            ..
        } => {
            ctx.path.push("HashJoin");
            let lt = physical_types(left, ctx);
            let rt = physical_types(right, ctx);
            if left_keys.len() != right_keys.len() {
                ctx.error(
                    "join-keys",
                    format!(
                        "hash join has {} left keys but {} right keys",
                        left_keys.len(),
                        right_keys.len()
                    ),
                );
            }
            let out = match (lt, rt) {
                (Some(mut l), Some(r)) => {
                    if r.len() != *right_arity {
                        ctx.error(
                            "schema-arity",
                            format!(
                                "hash join records right arity {right_arity} but the \
                                 right input produces {}",
                                r.len()
                            ),
                        );
                    }
                    for (lk, rk) in left_keys.iter().zip(right_keys) {
                        let a = type_expr(lk, &l, ctx);
                        let b = type_expr(rk, &r, ctx);
                        if !a.comparable(b) {
                            ctx.error("type-mismatch", format!("join key compares {a} with {b}"));
                        }
                    }
                    l.extend(r);
                    if let Some(res) = residual {
                        check_predicate(res, &l, ctx);
                    }
                    Some(l)
                }
                _ => None,
            };
            ctx.path.pop();
            out
        }
        PhysicalPlan::IndexNestedLoopJoin {
            left,
            table,
            index,
            left_key,
            right_filter,
            residual,
            right_arity,
            ..
        } => {
            ctx.path.push("IndexNestedLoopJoin");
            let lt = physical_types(left, ctx);
            let tt = ctx.scan_types(table);
            let out = match (lt, tt) {
                (Some(mut l), Some(t)) => {
                    check_index(table, index, &t, &[], ctx);
                    if t.len() != *right_arity {
                        ctx.error(
                            "schema-arity",
                            format!(
                                "index join records right arity {right_arity} but \
                                 {table:?} has {} columns",
                                t.len()
                            ),
                        );
                    }
                    type_expr(left_key, &l, ctx);
                    if let Some(f) = right_filter {
                        check_predicate(f, &t, ctx);
                    }
                    l.extend(t);
                    if let Some(res) = residual {
                        check_predicate(res, &l, ctx);
                    }
                    Some(l)
                }
                _ => None,
            };
            ctx.path.pop();
            out
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            right_arity,
        } => {
            ctx.path.push("NestedLoopJoin");
            let lt = physical_types(left, ctx);
            let rt = physical_types(right, ctx);
            let out = match (lt, rt) {
                (Some(mut l), Some(r)) => {
                    if r.len() != *right_arity {
                        ctx.error(
                            "schema-arity",
                            format!(
                                "nested-loop join records right arity {right_arity} \
                                 but the right input produces {}",
                                r.len()
                            ),
                        );
                    }
                    let left_arity = l.len();
                    l.extend(r);
                    check_join_condition(*kind, on.as_ref(), left_arity, &l, ctx);
                    Some(l)
                }
                _ => None,
            };
            ctx.path.pop();
            out
        }
        PhysicalPlan::IntervalJoin {
            left,
            right,
            right_key,
            lo,
            hi,
            residual,
            ..
        } => {
            ctx.path.push("IntervalJoin");
            let lt = physical_types(left, ctx);
            let rt = physical_types(right, ctx);
            let out = match (lt, rt) {
                (Some(mut l), Some(r)) => {
                    let key_ty = match r.get(*right_key) {
                        Some(t) => *t,
                        None => {
                            ctx.error(
                                "column-range",
                                format!(
                                    "interval-join key #{right_key} is out of range \
                                     (right arity {})",
                                    r.len()
                                ),
                            );
                            Ty::Any
                        }
                    };
                    for (name, b) in [("lower", lo), ("upper", hi)] {
                        let t = type_expr(b, &l, ctx);
                        if !key_ty.comparable(t) {
                            ctx.error(
                                "type-mismatch",
                                format!(
                                    "interval-join {name} bound has type {t}, key \
                                     column has type {key_ty}"
                                ),
                            );
                        }
                    }
                    l.extend(r);
                    if let Some(res) = residual {
                        check_predicate(res, &l, ctx);
                    }
                    Some(l)
                }
                _ => None,
            };
            ctx.path.pop();
            out
        }
        PhysicalPlan::Sort { input, keys } => {
            ctx.path.push("Sort");
            let tys = physical_types(input, ctx);
            if let Some(tys) = &tys {
                for (k, _) in keys {
                    type_expr(k, tys, ctx);
                }
            }
            ctx.path.pop();
            tys
        }
        PhysicalPlan::HashAggregate { input, aggs } => {
            ctx.path.push("HashAggregate");
            let input_tys = physical_types(input, ctx);
            let out = input_tys.as_ref().map(|tys| {
                aggs.iter()
                    .map(|(func, arg)| type_agg(*func, arg.as_ref(), tys, ctx))
                    .collect()
            });
            ctx.path.pop();
            out
        }
        PhysicalPlan::Limit { input, .. } => physical_types(input, ctx),
        PhysicalPlan::Distinct { input } => physical_types(input, ctx),
        PhysicalPlan::UnionAll { inputs } => {
            ctx.path.push("UnionAll");
            let mut unified: Option<Vec<Ty>> = None;
            for (arm, input) in inputs.iter().enumerate() {
                let Some(tys) = physical_types(input, ctx) else {
                    continue;
                };
                match &mut unified {
                    None => unified = Some(tys),
                    Some(u) => {
                        if u.len() != tys.len() {
                            ctx.error(
                                "union-arity",
                                format!(
                                    "UNION ALL arm {arm} has arity {} but arm 0 has {}",
                                    tys.len(),
                                    u.len()
                                ),
                            );
                            continue;
                        }
                        for (a, b) in u.iter_mut().zip(tys) {
                            *a = a.unify(b);
                        }
                    }
                }
            }
            ctx.path.pop();
            unified
        }
        PhysicalPlan::Values { rows } => {
            ctx.path.push("Values");
            let empty: Vec<Ty> = Vec::new();
            let arity = rows.first().map(Vec::len).unwrap_or(0);
            let mut out = vec![Ty::Any; arity];
            for (rix, row) in rows.iter().enumerate() {
                if row.len() != arity {
                    ctx.error(
                        "schema-arity",
                        format!(
                            "Values row {rix} has {} expressions but row 0 has {arity}",
                            row.len()
                        ),
                    );
                    continue;
                }
                for (i, e) in row.iter().enumerate() {
                    let t = type_expr(e, &empty, ctx);
                    out[i] = out[i].unify(t);
                }
            }
            ctx.path.pop();
            Some(out)
        }
    }
}

/// The named index must exist on the table, and any scan bounds must be
/// comparable with its leading key column.
fn check_index(
    table: &str,
    index: &str,
    table_tys: &[Ty],
    bounds: &[&Bound<Value>],
    ctx: &mut Ctx<'_>,
) {
    let Ok(t) = ctx.catalog.table(table) else {
        return;
    };
    let Some(idx) = t.indexes.iter().find(|i| i.name == index) else {
        ctx.error(
            "unknown-index",
            format!("no index {index:?} on table {table:?}"),
        );
        return;
    };
    let Some(&lead) = idx.columns.first() else {
        ctx.error(
            "unknown-index",
            format!("index {index:?} has no key columns"),
        );
        return;
    };
    let Some(&lead_ty) = table_tys.get(lead) else {
        ctx.error(
            "column-range",
            format!(
                "index {index:?} leads on column #{lead}, out of range for \
                 {table:?} (arity {})",
                table_tys.len()
            ),
        );
        return;
    };
    for b in bounds {
        let v = match b {
            Bound::Included(v) | Bound::Excluded(v) => v,
            Bound::Unbounded => continue,
        };
        let vt = Ty::of_value(v);
        if !lead_ty.comparable(vt) {
            ctx.error(
                "type-mismatch",
                format!(
                    "index scan bound of type {vt} is not comparable with key \
                     column of type {lead_ty}"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::{bind_select, OutputCol};
    use crate::plan::optimizer::{optimize, OptimizerOptions};
    use crate::plan::physical::{plan_physical, PhysicalOptions};
    use crate::schema::{Column, Schema};
    use crate::sql::parser::parse_statement;
    use crate::sql::Statement;

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
        c
    }

    fn bound(sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        bind_select(&catalog(), &sel).unwrap()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn bound_queries_validate_clean() {
        for sql in [
            "SELECT label, tgt FROM edge WHERE src = 3",
            "SELECT e1.val FROM edge e1 JOIN edge e2 ON e1.tgt = e2.src WHERE e2.label = 'a'",
            "SELECT COUNT(*), MAX(tgt) FROM edge WHERE label IN ('a', 'b')",
            "SELECT src FROM edge UNION ALL SELECT tgt FROM edge ORDER BY 1 LIMIT 3",
            "SELECT DISTINCT label FROM edge WHERE val LIKE 'x%' AND NUM(val) > 2",
            "SELECT 1 + 2 AS three",
        ] {
            let plan = bound(sql);
            let diags = validate_logical(&catalog(), &plan);
            assert!(diags.is_empty(), "{sql}: {diags:?}");
        }
    }

    #[test]
    fn optimized_and_physical_plans_validate_clean() {
        let cat = catalog();
        let plan = bound(
            "SELECT e1.val FROM edge e1, edge e2 \
             WHERE e1.tgt = e2.src AND e2.label = 'a' AND e1.src > 0",
        );
        let opt = optimize(plan, &OptimizerOptions::default(), &cat);
        let diags = validate_logical(&cat, &opt);
        assert!(errors(&diags).is_empty(), "{diags:?}");
        let phys = plan_physical(&cat, &opt, &PhysicalOptions::default()).unwrap();
        let diags = validate_physical(&cat, &phys);
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_table_rejected() {
        let plan = LogicalPlan::Scan {
            table: "ghost".into(),
            cols: vec![OutputCol::bare("x")],
        };
        let diags = validate_logical(&catalog(), &plan);
        assert_eq!(errors(&diags).len(), 1);
        assert_eq!(diags[0].rule, "unknown-table");
        assert!(ensure_valid_logical(&catalog(), &plan).is_err());
    }

    #[test]
    fn out_of_range_column_rejected() {
        let scan = bound("SELECT * FROM edge");
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::col(99)),
                right: Box::new(ScalarExpr::lit(1i64)),
            },
        };
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "column-range"), "{diags:?}");
        let err = ensure_valid_logical(&catalog(), &plan).unwrap_err();
        assert!(matches!(err, DbError::Validation(m) if m.contains("out of range")));
    }

    #[test]
    fn type_mismatched_join_rejected() {
        // label (TEXT) joined against tgt (INT).
        let scan = |alias: &str| {
            let Statement::Select(sel) =
                parse_statement(&format!("SELECT * FROM edge {alias}")).unwrap()
            else {
                panic!()
            };
            bind_select(&catalog(), &sel).unwrap()
        };
        let plan = LogicalPlan::Join {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            kind: crate::sql::ast::JoinKind::Inner,
            on: Some(ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::col(2)), // a.label TEXT
                right: Box::new(ScalarExpr::col(5 + 3)), // b.tgt INT
            }),
        };
        let diags = validate_logical(&catalog(), &plan);
        let errs = errors(&diags);
        assert!(
            errs.iter().any(|d| d.rule == "type-mismatch"
                && d.message.contains("TEXT")
                && d.message.contains("INT")),
            "{diags:?}"
        );
    }

    #[test]
    fn cartesian_product_flagged() {
        let plan = bound("SELECT * FROM edge a, edge b");
        let diags = validate_logical(&catalog(), &plan);
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.rule == "cartesian-product"),
            "{diags:?}"
        );
        // One-sided condition is still a cartesian product.
        let plan = bound("SELECT * FROM edge a JOIN edge b ON a.src = a.tgt");
        let diags = validate_logical(&catalog(), &plan);
        assert!(
            diags.iter().any(|d| d.rule == "cartesian-product"),
            "{diags:?}"
        );
        // A real join key silences the warning.
        let plan = bound("SELECT * FROM edge a JOIN edge b ON a.src = b.tgt");
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let a = bound("SELECT src, tgt FROM edge");
        let b = bound("SELECT src FROM edge");
        let plan = LogicalPlan::UnionAll { inputs: vec![a, b] };
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "union-arity"), "{diags:?}");
    }

    #[test]
    fn union_type_mismatch_rejected() {
        let a = bound("SELECT src FROM edge");
        let b = bound("SELECT label FROM edge");
        let plan = LogicalPlan::UnionAll { inputs: vec![a, b] };
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "union-types"), "{diags:?}");
    }

    #[test]
    fn aggregate_arity_and_args_checked() {
        let scan = bound("SELECT * FROM edge");
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan.clone()),
            aggs: vec![
                (AggFunc::CountStar, Some(ScalarExpr::col(2))), // COUNT(*) with an argument
                (AggFunc::Max, Some(ScalarExpr::col(2))),
            ],
            cols: vec![OutputCol::bare("a0")], // missing the second output name
        };
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "schema-arity"), "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "agg-arg"), "{diags:?}");
    }

    #[test]
    fn like_on_int_rejected() {
        let plan = bound("SELECT * FROM edge");
        let plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: ScalarExpr::Like {
                expr: Box::new(ScalarExpr::col(0)), // src INT
                pattern: Box::new(ScalarExpr::lit("x%")),
            },
        };
        let diags = validate_logical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "type-mismatch"), "{diags:?}");
    }

    #[test]
    fn physical_unknown_index_rejected() {
        let plan = PhysicalPlan::IndexScan {
            table: "edge".into(),
            index: "no_such_index".into(),
            lower: Bound::Unbounded,
            upper: Bound::Unbounded,
            residual: None,
        };
        let diags = validate_physical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "unknown-index"), "{diags:?}");
        assert!(ensure_valid_physical(&catalog(), &plan).is_err());
    }

    #[test]
    fn physical_arity_drift_rejected() {
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: "edge".into(),
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: "edge".into(),
            }),
            kind: crate::sql::ast::JoinKind::Inner,
            on: Some(ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(ScalarExpr::col(0)),
                right: Box::new(ScalarExpr::col(5)),
            }),
            right_arity: 3, // actual right arity is 5
        };
        let diags = validate_physical(&catalog(), &plan);
        assert!(diags.iter().any(|d| d.rule == "schema-arity"), "{diags:?}");
    }

    #[test]
    fn diagnostics_render_with_rule_and_path() {
        let plan = LogicalPlan::Scan {
            table: "ghost".into(),
            cols: vec![],
        };
        let diags = validate_logical(&catalog(), &plan);
        let text = diags[0].to_string();
        assert!(text.contains("error[unknown-table]"), "{text}");
        assert!(text.contains("Scan"), "{text}");
    }
}
