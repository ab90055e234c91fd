//! Physical plans: operator/access-path selection.

use std::ops::Bound;

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::plan::cost;
use crate::plan::expr::{AggFunc, ScalarExpr};
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::{conjoin, split_conjuncts};
use crate::sql::ast::{BinOp, JoinKind};
use crate::value::Value;

/// A physical (executable) plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Sequential heap scan.
    SeqScan {
        /// Table name.
        table: String,
    },
    /// B+-tree index range scan on the index's leading column.
    IndexScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Lower bound on the leading key column.
        lower: Bound<Value>,
        /// Upper bound on the leading key column.
        upper: Bound<Value>,
        /// Residual predicate applied to fetched rows.
        residual: Option<ScalarExpr>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: ScalarExpr,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Expressions over the input row.
        exprs: Vec<ScalarExpr>,
    },
    /// Hash join on equi-key columns.
    HashJoin {
        /// Probe (left) input.
        left: Box<PhysicalPlan>,
        /// Build (right) input.
        right: Box<PhysicalPlan>,
        /// Inner or Left.
        kind: JoinKind,
        /// Key expressions over the left row.
        left_keys: Vec<ScalarExpr>,
        /// Key expressions over the right row.
        right_keys: Vec<ScalarExpr>,
        /// Residual condition over the concatenated row.
        residual: Option<ScalarExpr>,
        /// Right input arity (for null extension).
        right_arity: usize,
    },
    /// Index nested-loop join: for each outer row, probe a B+-tree index
    /// on the inner base table (the workhorse for parent/child chains over
    /// shredded XML).
    IndexNestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner base table.
        table: String,
        /// Index on the inner table (leading column = join key).
        index: String,
        /// Key expression over the outer row.
        left_key: ScalarExpr,
        /// Filter applied to fetched inner rows (their own predicate).
        right_filter: Option<ScalarExpr>,
        /// Residual join condition over the concatenated row.
        residual: Option<ScalarExpr>,
        /// Inner or Left.
        kind: JoinKind,
        /// Inner arity (for null extension).
        right_arity: usize,
    },
    /// Nested-loop join (arbitrary condition).
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (materialized).
        right: Box<PhysicalPlan>,
        /// Inner or Left or Cross.
        kind: JoinKind,
        /// Condition over the concatenated row.
        on: Option<ScalarExpr>,
        /// Right input arity (for null extension).
        right_arity: usize,
    },
    /// Sort-based interval (containment/"structural") join: for each left
    /// row, emits right rows whose `right_key` column falls in
    /// `[lo(left), hi(left)]`. The right side is sorted once; candidates
    /// are found by binary search. This is the engine's stand-in for the
    /// structural-join operators of Al-Khalifa et al. / Grust.
    IntervalJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (materialized and sorted by `right_key`).
        right: Box<PhysicalPlan>,
        /// Column offset in the right row holding the point value.
        right_key: usize,
        /// Lower bound expression over the left row.
        lo: ScalarExpr,
        /// Upper bound expression over the left row.
        hi: ScalarExpr,
        /// Exclude the lower endpoint.
        lo_strict: bool,
        /// Exclude the upper endpoint.
        hi_strict: bool,
        /// Residual condition over the concatenated row.
        residual: Option<ScalarExpr>,
    },
    /// Full sort.
    Sort {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Keys with ascending flags.
        keys: Vec<(ScalarExpr, bool)>,
    },
    /// Single-group aggregation: one row of aggregate values.
    HashAggregate {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Aggregates.
        aggs: Vec<(AggFunc, Option<ScalarExpr>)>,
    },
    /// LIMIT.
    Limit {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Max rows.
        limit: u64,
    },
    /// Hash-based duplicate elimination.
    Distinct {
        /// Input.
        input: Box<PhysicalPlan>,
    },
    /// Concatenation.
    UnionAll {
        /// Inputs.
        inputs: Vec<PhysicalPlan>,
    },
    /// Literal rows.
    Values {
        /// Row expressions (evaluated against an empty row).
        rows: Vec<Vec<ScalarExpr>>,
    },
}

/// Physical-planner options (benchmark ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct PhysicalOptions {
    /// Use B+-tree indexes for eligible scans.
    pub use_indexes: bool,
    /// Use hash joins for equi-joins (else nested loops).
    pub use_hash_join: bool,
    /// Use the interval (structural) join for containment patterns.
    pub use_interval_join: bool,
    /// Use index nested-loop joins when the inner side is an indexed base
    /// table.
    pub use_index_nl_join: bool,
}

impl Default for PhysicalOptions {
    fn default() -> PhysicalOptions {
        PhysicalOptions {
            use_indexes: true,
            use_hash_join: true,
            use_interval_join: true,
            use_index_nl_join: true,
        }
    }
}

/// Lower a logical plan to a physical plan.
pub fn plan_physical(
    catalog: &Catalog,
    plan: &LogicalPlan,
    opts: &PhysicalOptions,
) -> Result<PhysicalPlan> {
    match plan {
        LogicalPlan::Scan { table, .. } => Ok(PhysicalPlan::SeqScan {
            table: table.clone(),
        }),
        LogicalPlan::Filter { input, predicate } => {
            // Index selection opportunity: Filter directly over a Scan.
            if let LogicalPlan::Scan { table, .. } = &**input {
                if opts.use_indexes {
                    if let Some(phys) = try_index_scan(catalog, table, predicate)? {
                        return Ok(phys);
                    }
                }
            }
            Ok(PhysicalPlan::Filter {
                input: Box::new(plan_physical(catalog, input, opts)?),
                predicate: predicate.clone(),
            })
        }
        LogicalPlan::Project { input, exprs, .. } => Ok(PhysicalPlan::Project {
            input: Box::new(plan_physical(catalog, input, opts)?),
            exprs: exprs.clone(),
        }),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => plan_join(catalog, left, right, *kind, on.as_ref(), opts),
        LogicalPlan::Aggregate { input, aggs, .. } => Ok(PhysicalPlan::HashAggregate {
            input: Box::new(plan_physical(catalog, input, opts)?),
            aggs: aggs.clone(),
        }),
        LogicalPlan::Sort { input, keys } => Ok(PhysicalPlan::Sort {
            input: Box::new(plan_physical(catalog, input, opts)?),
            keys: keys.clone(),
        }),
        LogicalPlan::Limit { input, limit } => Ok(PhysicalPlan::Limit {
            input: Box::new(plan_physical(catalog, input, opts)?),
            limit: *limit,
        }),
        LogicalPlan::Distinct { input } => Ok(PhysicalPlan::Distinct {
            input: Box::new(plan_physical(catalog, input, opts)?),
        }),
        LogicalPlan::UnionAll { inputs } => Ok(PhysicalPlan::UnionAll {
            inputs: inputs
                .iter()
                .map(|i| plan_physical(catalog, i, opts))
                .collect::<Result<_>>()?,
        }),
        LogicalPlan::Values { rows, .. } => Ok(PhysicalPlan::Values { rows: rows.clone() }),
    }
}

/// Try to satisfy `predicate` over `table` with an index range scan.
fn try_index_scan(
    catalog: &Catalog,
    table: &str,
    predicate: &ScalarExpr,
) -> Result<Option<PhysicalPlan>> {
    let t = catalog.table(table)?;
    if t.indexes.is_empty() {
        return Ok(None);
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate, &mut conjuncts);

    // Pick the index with the lowest *estimated* result cardinality. All
    // numbers come from `plan::cost` — the same model the join reorderer
    // uses — so index choice and join order cannot disagree.
    let total = t.len().max(1) as f64;
    // (index position, lower, upper, residual conjuncts, estimated rows)
    type Candidate = (usize, Bound<Value>, Bound<Value>, Vec<ScalarExpr>, f64);
    let mut best: Option<Candidate> = None;
    for (ix, index) in t.indexes.iter().enumerate() {
        let Some(&lead) = index.columns.first() else {
            continue;
        };
        let mut lower = Bound::Unbounded;
        let mut upper = Bound::Unbounded;
        let mut residual = Vec::new();
        let mut est: Option<f64> = None;
        for c in &conjuncts {
            match classify_bound(c, lead) {
                Some(BoundKind::Eq(v)) => {
                    lower = Bound::Included(v.clone());
                    upper = Bound::Included(v);
                    // ndv of the composite key lower-bounds the leading
                    // column's ndv, so this over-estimates selectivity for
                    // multi-column indexes — a conservative tie-breaker
                    // favoring single-column indexes.
                    let e = cost::eq_rows(total, index.tree.distinct_keys());
                    est = Some(est.unwrap_or(total).min(e));
                }
                Some(BoundKind::Lower(v, strict)) => {
                    lower = if strict {
                        Bound::Excluded(v)
                    } else {
                        Bound::Included(v)
                    };
                    est = Some(est.unwrap_or(total).min(cost::range_rows(total)));
                }
                Some(BoundKind::Upper(v, strict)) => {
                    upper = if strict {
                        Bound::Excluded(v)
                    } else {
                        Bound::Included(v)
                    };
                    est = Some(est.unwrap_or(total).min(cost::range_rows(total)));
                }
                Some(BoundKind::Range(lo, hi)) => {
                    lower = Bound::Included(lo);
                    upper = Bound::Included(hi);
                    est = Some(est.unwrap_or(total).min(cost::between_rows(total)));
                }
                None => residual.push(c.clone()),
            }
        }
        if let Some(e) = est {
            if best.as_ref().map(|b| e < b.4).unwrap_or(true) {
                best = Some((ix, lower, upper, residual, e));
            }
        }
    }
    Ok(
        best.map(|(ix, lower, upper, residual, _)| PhysicalPlan::IndexScan {
            table: table.to_string(),
            index: t.indexes[ix].name.clone(),
            lower,
            upper,
            residual: conjoin(residual),
        }),
    )
}

/// How a conjunct constrains a single column (shared with `plan::analyze`
/// so the full-scan rule agrees with index selection about sargability).
pub(crate) enum BoundKind {
    /// `col = v`.
    Eq(Value),
    /// `col > v` / `col >= v` (strict flag).
    Lower(Value, bool),
    /// `col < v` / `col <= v` (strict flag).
    Upper(Value, bool),
    /// `col BETWEEN lo AND hi`.
    Range(Value, Value),
}

/// Classify a conjunct as a bound on column `col`, if it is one.
pub(crate) fn classify_bound(c: &ScalarExpr, col: usize) -> Option<BoundKind> {
    match c {
        ScalarExpr::Binary { op, left, right } => {
            let (colref, lit, flipped) = match (&**left, &**right) {
                (ScalarExpr::Column(i), ScalarExpr::Literal(v)) => (*i, v.clone(), false),
                (ScalarExpr::Literal(v), ScalarExpr::Column(i)) => (*i, v.clone(), true),
                _ => return None,
            };
            if colref != col || lit.is_null() {
                return None;
            }
            let op = if flipped { flip(*op)? } else { *op };
            match op {
                BinOp::Eq => Some(BoundKind::Eq(lit)),
                BinOp::Gt => Some(BoundKind::Lower(lit, true)),
                BinOp::GtEq => Some(BoundKind::Lower(lit, false)),
                BinOp::Lt => Some(BoundKind::Upper(lit, true)),
                BinOp::LtEq => Some(BoundKind::Upper(lit, false)),
                _ => None,
            }
        }
        ScalarExpr::Between { expr, low, high } => match (&**expr, &**low, &**high) {
            (ScalarExpr::Column(i), ScalarExpr::Literal(lo), ScalarExpr::Literal(hi))
                if *i == col && !lo.is_null() && !hi.is_null() =>
            {
                Some(BoundKind::Range(lo.clone(), hi.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        _ => return None,
    })
}

fn plan_join(
    catalog: &Catalog,
    left: &LogicalPlan,
    right: &LogicalPlan,
    kind: JoinKind,
    on: Option<&ScalarExpr>,
    opts: &PhysicalOptions,
) -> Result<PhysicalPlan> {
    let left_arity = left.schema().len();
    let right_arity = right.schema().len();
    let l = plan_physical(catalog, left, opts)?;
    let r = plan_physical(catalog, right, opts)?;

    let Some(on) = on else {
        if kind != JoinKind::Cross {
            return Err(DbError::Unsupported("non-cross join without ON".into()));
        }
        return Ok(PhysicalPlan::NestedLoopJoin {
            left: Box::new(l),
            right: Box::new(r),
            kind,
            on: None,
            right_arity,
        });
    };

    let mut conjuncts = Vec::new();
    split_conjuncts(on, &mut conjuncts);

    // Extract equi-key pairs: Column(i) = Column(j) with i, j on opposite sides.
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut rest = Vec::new();
    for c in conjuncts {
        if let ScalarExpr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = &c
        {
            if let (ScalarExpr::Column(i), ScalarExpr::Column(j)) = (&**a, &**b) {
                let (i, j) = (*i, *j);
                if i < left_arity && j >= left_arity {
                    left_keys.push(ScalarExpr::Column(i));
                    right_keys.push(ScalarExpr::Column(j - left_arity));
                    continue;
                }
                if j < left_arity && i >= left_arity {
                    left_keys.push(ScalarExpr::Column(j));
                    right_keys.push(ScalarExpr::Column(i - left_arity));
                    continue;
                }
            }
        }
        rest.push(c);
    }

    // Interval containment takes precedence: a BETWEEN/inequality window
    // over the join is far more selective than incidental equi-conditions
    // (typically `doc = doc`), which become residuals of the interval join.
    if opts.use_interval_join && kind == JoinKind::Inner {
        let mut equi_residuals = Vec::new();
        for (lk, rk) in left_keys.iter().zip(&right_keys) {
            let shifted = rk
                .remap(&|i| Some(i + left_arity))
                .ok_or_else(|| DbError::Runtime("join key remap failed".into()))?;
            equi_residuals.push(ScalarExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(lk.clone()),
                right: Box::new(shifted),
            });
        }
        let mut all_conds = rest.clone();
        all_conds.extend(equi_residuals);
        if let Some(ij) = try_interval_join(l.clone(), r.clone(), &all_conds, left_arity) {
            return Ok(ij);
        }
    }

    // Index nested-loop: inner side is a (possibly filtered) base-table
    // scan with an index whose leading column is one of the join keys.
    if opts.use_index_nl_join
        && !left_keys.is_empty()
        && matches!(kind, JoinKind::Inner | JoinKind::Left)
    {
        let (table, right_filter) = match right {
            LogicalPlan::Scan { table, .. } => (Some(table.clone()), None),
            LogicalPlan::Filter { input, predicate } => match &**input {
                LogicalPlan::Scan { table, .. } => (Some(table.clone()), Some(predicate.clone())),
                _ => (None, None),
            },
            _ => (None, None),
        };
        if let Some(table) = table {
            let tt = catalog.table(&table)?;
            for (i, rk) in right_keys.iter().enumerate() {
                let ScalarExpr::Column(j) = rk else { continue };
                let Some(index) = tt.index_on(&[*j]) else {
                    continue;
                };
                // The chosen key pair becomes the probe; the rest join as
                // residual equalities over the concatenated row.
                let mut residual_parts = rest.clone();
                for (k, (lk2, rk2)) in left_keys.iter().zip(&right_keys).enumerate() {
                    if k == i {
                        continue;
                    }
                    let shifted = rk2
                        .remap(&|c| Some(c + left_arity))
                        .ok_or_else(|| DbError::Runtime("join key remap failed".into()))?;
                    residual_parts.push(ScalarExpr::Binary {
                        op: BinOp::Eq,
                        left: Box::new(lk2.clone()),
                        right: Box::new(shifted),
                    });
                }
                return Ok(PhysicalPlan::IndexNestedLoopJoin {
                    left: Box::new(l),
                    table,
                    index: index.name.clone(),
                    left_key: left_keys[i].clone(),
                    right_filter,
                    residual: conjoin(residual_parts),
                    kind,
                    right_arity,
                });
            }
        }
    }

    if opts.use_hash_join
        && !left_keys.is_empty()
        && matches!(kind, JoinKind::Inner | JoinKind::Left)
    {
        return Ok(PhysicalPlan::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            kind,
            left_keys,
            right_keys,
            residual: conjoin(rest),
            right_arity,
        });
    }

    // Fall back to nested loops with the full original condition.
    let mut all = Vec::new();
    for (lk, rk) in left_keys.into_iter().zip(right_keys) {
        let shifted = rk
            .remap(&|i| Some(i + left_arity))
            .ok_or_else(|| DbError::Runtime("join key remap failed".into()))?;
        all.push(ScalarExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(lk),
            right: Box::new(shifted),
        });
    }
    all.extend(rest);
    Ok(PhysicalPlan::NestedLoopJoin {
        left: Box::new(l),
        right: Box::new(r),
        kind,
        on: conjoin(all),
        right_arity,
    })
}

/// Detect `right_col >= lo(left) AND right_col <= hi(left)` (or BETWEEN)
/// among conjuncts, yielding an IntervalJoin. Remaining conjuncts become
/// the residual.
fn try_interval_join(
    l: PhysicalPlan,
    r: PhysicalPlan,
    conjuncts: &[ScalarExpr],
    left_arity: usize,
) -> Option<PhysicalPlan> {
    // Locate a BETWEEN over a right column with both bounds from the left.
    let side_ok = |e: &ScalarExpr, left_side: bool| -> bool {
        let mut used = Vec::new();
        e.columns_used(&mut used);
        if left_side {
            used.iter().all(|&i| i < left_arity)
        } else {
            used.iter().all(|&i| i >= left_arity)
        }
    };
    for (k, c) in conjuncts.iter().enumerate() {
        if let ScalarExpr::Between { expr, low, high } = c {
            if let ScalarExpr::Column(i) = **expr {
                if i >= left_arity && side_ok(low, true) && side_ok(high, true) {
                    let residual: Vec<ScalarExpr> = conjuncts
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != k)
                        .map(|(_, e)| e.clone())
                        .collect();
                    return Some(PhysicalPlan::IntervalJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        right_key: i - left_arity,
                        lo: (**low).clone(),
                        hi: (**high).clone(),
                        lo_strict: false,
                        hi_strict: false,
                        residual: conjoin(residual),
                    });
                }
            }
        }
    }
    // Pair of inequalities: right_col > lo(left) / right_col < hi(left).
    let mut lo_found: Option<(usize, ScalarExpr, bool, usize)> = None;
    let mut hi_found: Option<(usize, ScalarExpr, bool, usize)> = None;
    for (k, c) in conjuncts.iter().enumerate() {
        let ScalarExpr::Binary {
            op,
            left: a,
            right: b,
        } = c
        else {
            continue;
        };
        // Normalize to: right_col OP left_expr.
        let (col, expr, op) = match (&**a, &**b) {
            (ScalarExpr::Column(i), e) if *i >= left_arity && side_ok(e, true) => {
                (*i - left_arity, e.clone(), *op)
            }
            (e, ScalarExpr::Column(i)) if *i >= left_arity && side_ok(e, true) => {
                (*i - left_arity, e.clone(), flip(*op)?)
            }
            _ => continue,
        };
        match op {
            BinOp::Gt => lo_found = Some((col, expr, true, k)),
            BinOp::GtEq => lo_found = Some((col, expr, false, k)),
            BinOp::Lt => hi_found = Some((col, expr, true, k)),
            BinOp::LtEq => hi_found = Some((col, expr, false, k)),
            _ => continue,
        }
    }
    if let (Some((lc, lo, lo_strict, lk)), Some((hc, hi, hi_strict, hk))) = (lo_found, hi_found) {
        if lc == hc && lk != hk {
            let residual: Vec<ScalarExpr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != lk && *j != hk)
                .map(|(_, e)| e.clone())
                .collect();
            return Some(PhysicalPlan::IntervalJoin {
                left: Box::new(l),
                right: Box::new(r),
                right_key: lc,
                lo,
                hi,
                lo_strict,
                hi_strict,
                residual: conjoin(residual),
            });
        }
    }
    None
}

/// Pretty-print a physical plan as an indented tree.
pub fn explain_physical(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    fmt(plan, 0, &mut out);
    out
}

fn fmt(plan: &PhysicalPlan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match plan {
        PhysicalPlan::SeqScan { table } => out.push_str(&format!("{pad}SeqScan {table}\n")),
        PhysicalPlan::IndexScan {
            table,
            index,
            lower,
            upper,
            residual,
        } => {
            out.push_str(&format!(
                "{pad}IndexScan {table} via {index} [{lower:?} .. {upper:?}] residual={}\n",
                residual.is_some()
            ));
        }
        PhysicalPlan::Filter { input, predicate } => {
            out.push_str(&format!("{pad}Filter {predicate:?}\n"));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::Project { input, exprs } => {
            out.push_str(&format!("{pad}Project [{}]\n", exprs.len()));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            ..
        } => {
            out.push_str(&format!(
                "{pad}HashJoin {kind:?} keys={}\n",
                left_keys.len()
            ));
            fmt(left, depth + 1, out);
            fmt(right, depth + 1, out);
        }
        PhysicalPlan::NestedLoopJoin {
            left, right, kind, ..
        } => {
            out.push_str(&format!("{pad}NestedLoopJoin {kind:?}\n"));
            fmt(left, depth + 1, out);
            fmt(right, depth + 1, out);
        }
        PhysicalPlan::IndexNestedLoopJoin {
            left,
            table,
            index,
            kind,
            ..
        } => {
            out.push_str(&format!(
                "{pad}IndexNestedLoopJoin {kind:?} inner={table} via {index}\n"
            ));
            fmt(left, depth + 1, out);
        }
        PhysicalPlan::IntervalJoin {
            left,
            right,
            right_key,
            ..
        } => {
            out.push_str(&format!("{pad}IntervalJoin right_key={right_key}\n"));
            fmt(left, depth + 1, out);
            fmt(right, depth + 1, out);
        }
        PhysicalPlan::Sort { input, keys } => {
            out.push_str(&format!("{pad}Sort [{}]\n", keys.len()));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::HashAggregate { input, aggs } => {
            out.push_str(&format!("{pad}HashAggregate aggs={}\n", aggs.len()));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::Limit { input, limit } => {
            out.push_str(&format!("{pad}Limit {limit}\n"));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::Distinct { input } => {
            out.push_str(&format!("{pad}Distinct\n"));
            fmt(input, depth + 1, out);
        }
        PhysicalPlan::UnionAll { inputs } => {
            out.push_str(&format!("{pad}UnionAll [{}]\n", inputs.len()));
            for i in inputs {
                fmt(i, depth + 1, out);
            }
        }
        PhysicalPlan::Values { rows } => {
            out.push_str(&format!("{pad}Values [{}]\n", rows.len()));
        }
    }
}
