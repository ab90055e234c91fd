//! Volcano-style executor: each operator is a pull iterator over rows.
//!
//! Plans run through [`Prepared::run`](crate::db::Prepared::run).
//! Execution can optionally be *profiled*: the builder then wraps every
//! operator with a rows/wall-time shim and hands each one a [`Meter`] for
//! operator-specific counters, producing an [`ExecProfile`] tree
//! (estimated vs. actual cardinality per node) after the run.

mod aggregate;
mod join;
mod profile;

use std::ops::Bound;
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::plan::cost::{report_physical, CostNode};
use crate::plan::expr::{value_to_bool, ScalarExpr};
use crate::plan::physical::PhysicalPlan;
use crate::value::{Row, Value};

pub use aggregate::HashAggregateExec;
pub use join::{HashJoinExec, IndexNestedLoopJoinExec, IntervalJoinExec, NestedLoopJoinExec};
pub use profile::{row_data_bytes, ExecProfile, Meter, OpStats, ProfileHandle, ProfileRollup};
pub use xmlrel_obs::cancel::CancelToken;

use profile::ProfiledExec;

/// A pull-based operator.
pub trait Executor {
    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;
}

/// A wall-clock execution deadline.
///
/// Operators poll it cooperatively (via [`Meter::poll`]) and abort with
/// [`DbError::DeadlineExceeded`] once it passes; a query never blocks past
/// its deadline by more than one polling stride of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline(Instant::now() + budget)
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_millis(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// A deadline at an absolute instant.
    pub fn at(when: Instant) -> Deadline {
        Deadline(when)
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.0
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// Configurable execution resource limits. `None` means unlimited; the
/// default is fully unlimited. Exceeding a limit aborts the query with
/// [`DbError::ResourceExhausted`], [`DbError::DeadlineExceeded`], or
/// [`DbError::Cancelled`] instead of exhausting memory or hanging.
#[derive(Debug, Clone, Default)]
pub struct ExecLimits {
    /// Cap on rows materialized into a query result.
    pub max_rows: Option<usize>,
    /// Cap on rows buffered inside any single materializing operator
    /// (sort buffers, hash-join build sides, nested-loop and interval-join
    /// inner rows, DISTINCT sets).
    pub max_intermediate_rows: Option<usize>,
    /// Wall-clock deadline for the whole execution; polled inside every
    /// blocking operator loop.
    pub deadline: Option<Deadline>,
    /// Cooperative cancellation flag; polled alongside the deadline.
    pub cancel: Option<CancelToken>,
}

impl ExecLimits {
    /// These limits with a deadline `ms` milliseconds from now.
    pub fn with_timeout_ms(mut self, ms: u64) -> ExecLimits {
        self.deadline = Some(Deadline::after_millis(ms));
        self
    }

    /// These limits observing `token` for cancellation.
    pub fn with_cancel(mut self, token: &CancelToken) -> ExecLimits {
        self.cancel = Some(token.clone());
        self
    }

    /// Unstrided cancel/deadline check for phase boundaries (commit,
    /// bulk-insert batches, translate/publish steps). `op` names the
    /// phase in the resulting error. Operator loops use the strided
    /// [`Meter::poll`] instead.
    pub fn poll(&self, op: &str) -> Result<()> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(cancel_trip(op));
            }
        }
        if let Some(d) = &self.deadline {
            if d.expired() {
                return Err(deadline_trip(op));
            }
        }
        Ok(())
    }
}

/// Build the [`DbError::Cancelled`] for `op` and bump the trip counter.
pub(crate) fn cancel_trip(op: &str) -> DbError {
    xmlrel_obs::metrics::counter_inc("queries_cancelled_total");
    DbError::Cancelled(format!("{op} observed cancellation"))
}

/// Build the [`DbError::DeadlineExceeded`] for `op` and bump the trip
/// counter.
pub(crate) fn deadline_trip(op: &str) -> DbError {
    xmlrel_obs::metrics::counter_inc("queries_timed_out_total");
    DbError::DeadlineExceeded(format!("{op} exceeded the query deadline"))
}

/// Build an executor tree for a physical plan, enforcing `limits` in
/// every operator. With `profiled`, every operator is also wrapped with a
/// rows/wall-time recorder and metered for probes, comparisons, and buffer
/// bytes; the returned [`ProfileHandle`] snapshots into an [`ExecProfile`]
/// whose estimates come from the same cost model as `EXPLAIN`.
pub(crate) fn build<'a>(
    plan: &'a PhysicalPlan,
    catalog: &'a Catalog,
    limits: &ExecLimits,
    profiled: bool,
) -> Result<(Box<dyn Executor + 'a>, Option<ProfileHandle>)> {
    let report = profiled.then(|| report_physical(catalog, plan));
    build_node(plan, catalog, limits, report.as_ref().map(|r| &r.root))
}

/// Recursive builder shared by the plain and profiled paths. When `cost`
/// is present the node is profiled, using the cost node's label and
/// estimated cardinality (the cost tree mirrors the plan tree exactly).
fn build_node<'a>(
    plan: &'a PhysicalPlan,
    catalog: &'a Catalog,
    limits: &ExecLimits,
    cost: Option<&CostNode>,
) -> Result<(Box<dyn Executor + 'a>, Option<ProfileHandle>)> {
    let meter = Meter::new(limits, cost.is_some());
    let mut kids: Vec<ProfileHandle> = Vec::new();
    let mut next_child = 0usize;
    let exec: Box<dyn Executor + 'a> = {
        let kids = &mut kids;
        let next_child = &mut next_child;
        let mut build = move |p: &'a PhysicalPlan| -> Result<Box<dyn Executor + 'a>> {
            let child_cost = cost.and_then(|c| c.children.get(*next_child));
            *next_child += 1;
            let (e, h) = build_node(p, catalog, limits, child_cost)?;
            if let Some(h) = h {
                kids.push(h);
            }
            Ok(e)
        };
        match plan {
            PhysicalPlan::SeqScan { table } => {
                let t = catalog.table(table)?;
                Box::new(SeqScanExec {
                    iter: Box::new(t.scan().map(|(_, r)| r)),
                    meter: meter.clone(),
                })
            }
            PhysicalPlan::IndexScan {
                table,
                index,
                lower,
                upper,
                residual,
            } => {
                let t = catalog.table(table)?;
                let idx = t
                    .indexes
                    .iter()
                    .find(|i| i.name == *index)
                    .ok_or_else(|| DbError::Binding(format!("no index {index:?}")))?;
                // The tree keys are composite; bound on the leading column only.
                let to_key = |b: &Bound<Value>, lower_side: bool| -> Bound<Vec<Value>> {
                    match b {
                        Bound::Unbounded => Bound::Unbounded,
                        Bound::Included(v) => {
                            if lower_side {
                                Bound::Included(vec![v.clone()])
                            } else {
                                // Inclusive upper on a composite prefix: extend
                                // with a maximal sentinel so all suffixes match.
                                Bound::Included(max_key_after(v.clone(), idx.columns.len()))
                            }
                        }
                        Bound::Excluded(v) => {
                            if lower_side {
                                Bound::Excluded(max_key_after(v.clone(), idx.columns.len()))
                            } else {
                                Bound::Excluded(vec![v.clone()])
                            }
                        }
                    }
                };
                let lo = to_key(lower, true);
                let hi = to_key(upper, false);
                let mut rids = Vec::new();
                meter.probe();
                for (_, postings) in idx.tree.range(bound_ref(&lo), bound_ref(&hi)) {
                    rids.extend_from_slice(postings);
                }
                meter.buffered_bytes(rids.len() as u64 * 8);
                Box::new(IndexScanExec {
                    table: t,
                    rids,
                    pos: 0,
                    residual: residual.as_ref(),
                    meter: meter.clone(),
                })
            }
            PhysicalPlan::Filter { input, predicate } => Box::new(FilterExec {
                input: build(input)?,
                predicate,
                meter: meter.clone(),
            }),
            PhysicalPlan::Project { input, exprs } => Box::new(ProjectExec {
                input: build(input)?,
                exprs,
            }),
            PhysicalPlan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                right_arity,
            } => Box::new(HashJoinExec::new(
                build(left)?,
                build(right)?,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                *right_arity,
                meter.clone(),
            )),
            PhysicalPlan::IndexNestedLoopJoin {
                left,
                table,
                index,
                left_key,
                right_filter,
                residual,
                kind,
                right_arity,
            } => {
                let t = catalog.table(table)?;
                let idx = t
                    .indexes
                    .iter()
                    .find(|i| i.name == *index)
                    .ok_or_else(|| DbError::Binding(format!("no index {index:?}")))?;
                Box::new(IndexNestedLoopJoinExec::new(
                    build(left)?,
                    t,
                    idx,
                    left_key,
                    right_filter.as_ref(),
                    residual.as_ref(),
                    *kind,
                    *right_arity,
                    meter.clone(),
                ))
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
                right_arity,
            } => Box::new(NestedLoopJoinExec::new(
                build(left)?,
                build(right)?,
                *kind,
                on.as_ref(),
                *right_arity,
                meter.clone(),
            )),
            PhysicalPlan::IntervalJoin {
                left,
                right,
                right_key,
                lo,
                hi,
                lo_strict,
                hi_strict,
                residual,
            } => Box::new(IntervalJoinExec::new(
                build(left)?,
                build(right)?,
                *right_key,
                lo,
                hi,
                *lo_strict,
                *hi_strict,
                residual.as_ref(),
                meter.clone(),
            )),
            PhysicalPlan::Sort { input, keys } => Box::new(SortExec {
                input: Some(build(input)?),
                keys,
                sorted: Vec::new(),
                pos: 0,
                meter: meter.clone(),
            }),
            PhysicalPlan::HashAggregate { input, aggs } => {
                Box::new(HashAggregateExec::new(build(input)?, aggs, meter.clone()))
            }
            PhysicalPlan::Limit { input, limit } => Box::new(LimitExec {
                input: build(input)?,
                remaining: *limit,
            }),
            PhysicalPlan::Distinct { input } => Box::new(DistinctExec {
                input: build(input)?,
                seen: std::collections::HashSet::new(),
                meter: meter.clone(),
            }),
            PhysicalPlan::UnionAll { inputs } => {
                let mut execs = Vec::new();
                for i in inputs {
                    execs.push(build(i)?);
                }
                execs.reverse();
                Box::new(UnionAllExec {
                    pending: execs,
                    current: None,
                    meter: meter.clone(),
                })
            }
            PhysicalPlan::Values { rows } => Box::new(ValuesExec { rows, pos: 0 }),
        }
    };
    match cost {
        None => Ok((exec, None)),
        Some(c) => {
            let cell = meter
                .cell()
                .ok_or_else(|| DbError::Runtime("profiled meter has no cell".into()))?;
            let exec: Box<dyn Executor + 'a> = Box::new(ProfiledExec {
                inner: exec,
                cell: cell.clone(),
            });
            Ok((
                exec,
                Some(ProfileHandle {
                    label: c.label.clone(),
                    est_rows: c.cost.rows,
                    cell,
                    children: kids,
                }),
            ))
        }
    }
}

fn bound_ref(b: &Bound<Vec<Value>>) -> Bound<&Vec<Value>> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

/// A composite key that sorts after every key starting with `v` when the
/// index has `arity` columns: `[v, Text(max), Text(max), ...]`.
fn max_key_after(v: Value, arity: usize) -> Vec<Value> {
    let mut key = vec![v];
    for _ in 1..arity {
        key.push(Value::Text("\u{10FFFF}\u{10FFFF}".into()));
    }
    key
}

// ---- leaf and unary operators --------------------------------------------

struct SeqScanExec<'a> {
    iter: Box<dyn Iterator<Item = &'a Row> + 'a>,
    meter: Meter,
}

impl Executor for SeqScanExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        self.meter.poll("SeqScan")?;
        Ok(self.iter.next().cloned())
    }
}

struct IndexScanExec<'a> {
    table: &'a crate::table::Table,
    rids: Vec<usize>,
    pos: usize,
    residual: Option<&'a ScalarExpr>,
    meter: Meter,
}

impl Executor for IndexScanExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        while self.pos < self.rids.len() {
            self.meter.poll("IndexScan")?;
            let rid = self.rids[self.pos];
            self.pos += 1;
            let Some(row) = self.table.get(rid) else {
                continue;
            };
            if let Some(res) = self.residual {
                self.meter.comparisons(1);
                if value_to_bool(&res.eval(row)?) != Some(true) {
                    continue;
                }
            }
            return Ok(Some(row.clone()));
        }
        Ok(None)
    }
}

struct FilterExec<'a> {
    input: Box<dyn Executor + 'a>,
    predicate: &'a ScalarExpr,
    meter: Meter,
}

impl Executor for FilterExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            self.meter.poll("Filter")?;
            self.meter.comparisons(1);
            if value_to_bool(&self.predicate.eval(&row)?) == Some(true) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct ProjectExec<'a> {
    input: Box<dyn Executor + 'a>,
    exprs: &'a [ScalarExpr],
}

impl Executor for ProjectExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in self.exprs {
                    out.push(e.eval(&row)?);
                }
                Ok(Some(out))
            }
        }
    }
}

struct SortExec<'a> {
    input: Option<Box<dyn Executor + 'a>>,
    keys: &'a [(ScalarExpr, bool)],
    sorted: Vec<Row>,
    pos: usize,
    meter: Meter,
}

impl Executor for SortExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut rows: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(row) = input.next()? {
                self.meter.poll("Sort")?;
                let mut key = Vec::with_capacity(self.keys.len());
                for (e, _) in self.keys {
                    key.push(e.eval(&row)?);
                }
                self.meter.buffered_row(&row);
                rows.push((key, row));
                self.meter.admit("Sort", rows.len())?;
            }
            let keys = self.keys;
            let mut comparisons = 0u64;
            rows.sort_by(|(ka, _), (kb, _)| {
                comparisons += 1;
                for (i, (_, asc)) in keys.iter().enumerate() {
                    let ord = ka[i].cmp(&kb[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.meter.comparisons(comparisons);
            self.sorted = rows.into_iter().map(|(_, r)| r).collect();
        }
        if self.pos < self.sorted.len() {
            let r = std::mem::take(&mut self.sorted[self.pos]);
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

struct LimitExec<'a> {
    input: Box<dyn Executor + 'a>,
    remaining: u64,
}

impl Executor for LimitExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.input.next()
    }
}

struct DistinctExec<'a> {
    input: Box<dyn Executor + 'a>,
    seen: std::collections::HashSet<Row>,
    meter: Meter,
}

impl Executor for DistinctExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            self.meter.poll("Distinct")?;
            self.meter.probe();
            if self.seen.insert(row.clone()) {
                self.meter.buffered_row(&row);
                self.meter.admit("Distinct", self.seen.len())?;
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct UnionAllExec<'a> {
    /// Remaining inputs in reverse order (pop from the back).
    pending: Vec<Box<dyn Executor + 'a>>,
    current: Option<Box<dyn Executor + 'a>>,
    meter: Meter,
}

impl Executor for UnionAllExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            self.meter.poll("UnionAll")?;
            if let Some(cur) = &mut self.current {
                if let Some(row) = cur.next()? {
                    return Ok(Some(row));
                }
                self.current = None;
            }
            match self.pending.pop() {
                Some(next) => self.current = Some(next),
                None => return Ok(None),
            }
        }
    }
}

struct ValuesExec<'a> {
    rows: &'a [Vec<ScalarExpr>],
    pos: usize,
}

impl Executor for ValuesExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let exprs = &self.rows[self.pos];
        self.pos += 1;
        let empty: Row = Vec::new();
        let mut out = Vec::with_capacity(exprs.len());
        for e in exprs {
            out.push(e.eval(&empty)?);
        }
        Ok(Some(out))
    }
}
