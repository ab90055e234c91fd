//! Per-operator runtime statistics.
//!
//! A profiled execution wraps every operator in the tree with a thin
//! [`Executor`] shim that counts produced rows and inclusive wall time,
//! while the operators themselves report work-specific counters — index
//! probes, predicate comparisons, buffered bytes — through a [`Meter`].
//! After the run, [`ProfileHandle::snapshot`] freezes the counters into an
//! [`ExecProfile`] tree mirroring the plan shape, each node annotated with
//! the optimizer's *estimated* cardinality so estimated-vs-actual (and the
//! q-error of the PR-3 cost model) can be rendered side by side.
//!
//! Counters live in `Arc<Mutex<…>>` cells shared between the wrapper and
//! the operator, so a profiled executor tree — and the [`ProfileHandle`]
//! observing it — is `Send + Sync` and can run on any serving thread.
//! Profiling is opt-in per query and each cell is touched by exactly one
//! executor thread, so the mutexes are uncontended in practice; they exist
//! to make the sharing sound, not to coordinate.

use std::sync::atomic::{AtomicU64, Ordering};
// Per-operator stats cells are touched on a POLL_STRIDE hot path by
// exactly one thread; timed-wrapper bookkeeping would distort the very
// numbers these cells exist to measure, so they stay raw.
// lint:allow(no-untimed-lock): uncontended per-operator hot cells
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::error::{DbError, Result};
use crate::exec::{cancel_trip, deadline_trip, CancelToken, Deadline, ExecLimits, Executor};
use crate::value::{Row, Value};

/// How many [`Meter::poll`] calls elapse between wall-clock reads. The
/// cancel flag (an atomic load) is checked on every call; `Instant::now`
/// only every `POLL_STRIDE`-th call, starting with the first, so a
/// pre-expired deadline trips on the first row and a live one costs one
/// clock read per stride of rows.
const POLL_STRIDE: u64 = 64;

/// Counters recorded by one operator during one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows this operator produced.
    pub rows_out: u64,
    /// Index/hash-table lookups performed (one per descent or probe).
    pub probes: u64,
    /// Predicate/key comparisons evaluated.
    pub comparisons: u64,
    /// Bytes buffered in sort/build/materialization buffers (data bytes:
    /// eight per value plus text payload, so the number is
    /// platform-independent).
    pub buffered_bytes: u64,
    /// Inclusive wall time spent inside this subtree, in nanoseconds.
    pub wall_nanos: u64,
    /// Set when an [`ExecLimits`](crate::exec::ExecLimits) cap fired in
    /// this operator: the full diagnostic (operator, limit, observed size).
    pub limit_trip: Option<String>,
}

/// Approximate data footprint of a buffered row: eight bytes per value
/// plus text payload. Deliberately ignores allocator overhead and enum
/// layout so profiles compare across platforms.
pub fn row_data_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| {
            8 + match v {
                Value::Text(s) => s.len() as u64,
                _ => 0,
            }
        })
        .sum()
}

/// The shared counter cell behind one profiled operator.
pub(crate) type StatsCell = Arc<Mutex<OpStats>>; // lint:allow(no-untimed-lock): uncontended hot cell

/// Lock a stats cell, recovering from poisoning: the counters are plain
/// data, so a panic mid-update leaves them merely stale, never invalid.
// lint:allow(no-untimed-lock): same uncontended per-operator cell as above
fn stats(cell: &Mutex<OpStats>) -> MutexGuard<'_, OpStats> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-operator instrument handed to executors at build time. Carries
/// the `max_intermediate_rows` cap, the deadline, and the cancel token so
/// limit/deadline trips are attributed to the operator that fired them;
/// counter updates are no-ops when the operator is not being profiled.
#[derive(Default)]
pub struct Meter {
    cap: Option<usize>,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    tick: AtomicU64,
    cell: Option<StatsCell>,
}

impl Clone for Meter {
    fn clone(&self) -> Meter {
        Meter {
            cap: self.cap,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            cell: self.cell.clone(),
        }
    }
}

impl Meter {
    /// A meter enforcing `limits`; records counters only when `profiled`.
    pub fn new(limits: &ExecLimits, profiled: bool) -> Meter {
        Meter {
            cap: limits.max_intermediate_rows,
            deadline: limits.deadline,
            cancel: limits.cancel.clone(),
            tick: AtomicU64::new(0),
            cell: profiled.then(StatsCell::default),
        }
    }

    /// Cooperative cancellation/deadline check for blocking operator
    /// loops. Fails with [`DbError::Cancelled`] when the query's
    /// [`CancelToken`] has tripped, and with [`DbError::DeadlineExceeded`]
    /// once the wall-clock deadline passes (checked every
    /// `POLL_STRIDE`-th call to keep the hot loop cheap). The diagnostic
    /// names `op` and is recorded into the profile when one is being
    /// collected.
    pub fn poll(&self, op: &str) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.record_trip(cancel_trip(op)));
            }
        }
        if let Some(d) = &self.deadline {
            let t = self.tick.fetch_add(1, Ordering::Relaxed);
            if t.is_multiple_of(POLL_STRIDE) && d.expired() {
                return Err(self.record_trip(deadline_trip(op)));
            }
        }
        Ok(())
    }

    /// Record a trip diagnostic into the profile cell, pass the error on.
    fn record_trip(&self, err: DbError) -> DbError {
        if let Some(c) = &self.cell {
            stats(c).limit_trip = Some(err.to_string());
        }
        err
    }

    pub(crate) fn cell(&self) -> Option<StatsCell> {
        self.cell.clone()
    }

    /// Count one index/hash probe.
    pub fn probe(&self) {
        if let Some(c) = &self.cell {
            stats(c).probes += 1;
        }
    }

    /// Count `n` predicate/key comparisons.
    pub fn comparisons(&self, n: u64) {
        if let Some(c) = &self.cell {
            stats(c).comparisons += n;
        }
    }

    /// Account a row entering a materialization buffer.
    pub fn buffered_row(&self, row: &Row) {
        if let Some(c) = &self.cell {
            stats(c).buffered_bytes += row_data_bytes(row);
        }
    }

    /// Account raw buffered bytes (e.g. an index scan's rid list).
    pub fn buffered_bytes(&self, n: u64) {
        if let Some(c) = &self.cell {
            stats(c).buffered_bytes += n;
        }
    }

    /// Fail with [`DbError::ResourceExhausted`] once `op`'s buffer holds
    /// more than the configured `max_intermediate_rows`. The diagnostic
    /// names the operator and the limit that fired, and is also recorded
    /// into the profile when one is being collected.
    pub fn admit(&self, op: &str, len: usize) -> Result<()> {
        match self.cap {
            Some(max) if len > max => {
                let msg =
                    format!("{op} buffered {len} rows, exceeding max_intermediate_rows = {max}");
                if let Some(c) = &self.cell {
                    stats(c).limit_trip = Some(msg.clone());
                }
                xmlrel_obs::metrics::counter_inc("exec_limit_trips_total");
                Err(DbError::ResourceExhausted(msg))
            }
            _ => Ok(()),
        }
    }
}

/// Wrapper measuring rows-out and inclusive wall time of one operator.
pub(crate) struct ProfiledExec<'a> {
    pub(crate) inner: Box<dyn Executor + 'a>,
    pub(crate) cell: StatsCell,
}

impl Executor for ProfiledExec<'_> {
    fn next(&mut self) -> Result<Option<Row>> {
        let start = Instant::now();
        let result = self.inner.next();
        let mut s = stats(&self.cell);
        s.wall_nanos += start.elapsed().as_nanos() as u64;
        if matches!(result, Ok(Some(_))) {
            s.rows_out += 1;
        }
        result
    }
}

/// Live handle onto one profiled operator (and its children), produced by
/// a profiled [`Prepared::run`](crate::db::Prepared::run). Counters keep
/// updating while the executor runs; [`snapshot`] freezes them.
///
/// [`snapshot`]: ProfileHandle::snapshot
pub struct ProfileHandle {
    pub(crate) label: String,
    pub(crate) est_rows: f64,
    pub(crate) cell: StatsCell,
    pub(crate) children: Vec<ProfileHandle>,
}

impl ProfileHandle {
    /// Freeze the counters into an owned [`ExecProfile`] tree.
    pub fn snapshot(&self) -> ExecProfile {
        let children: Vec<ExecProfile> = self.children.iter().map(|c| c.snapshot()).collect();
        let rows_in = children.iter().map(|c| c.stats.rows_out).sum();
        ExecProfile {
            label: self.label.clone(),
            est_rows: self.est_rows,
            rows_in,
            stats: stats(&self.cell).clone(),
            children,
        }
    }
}

/// What one operator actually did, with the optimizer's estimate alongside:
/// one node per physical operator, tree shape identical to the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Operator label, identical to the cost report's (`SeqScan elem`,
    /// `HashJoin Inner keys=1`, …).
    pub label: String,
    /// The cost model's estimated output cardinality for this node.
    pub est_rows: f64,
    /// Rows consumed from child operators (sum of children's `rows_out`).
    pub rows_in: u64,
    /// Runtime counters.
    pub stats: OpStats,
    /// Child profiles in plan order.
    pub children: Vec<ExecProfile>,
}

/// Aggregated counters over a whole profile tree (for bench rollups).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileRollup {
    /// Number of operators in the plan.
    pub operators: u64,
    /// Rows produced by the root.
    pub root_rows: u64,
    /// Total probes across all operators.
    pub probes: u64,
    /// Total comparisons across all operators.
    pub comparisons: u64,
    /// Total buffered bytes across all operators.
    pub buffered_bytes: u64,
    /// Largest per-node q-error (estimated vs. actual cardinality).
    pub max_q_error: f64,
}

impl ExecProfile {
    /// The q-error of this node: `max(est/actual, actual/est)`, both sides
    /// floored at one row so empty results don't divide by zero. 1.0 is a
    /// perfect estimate.
    pub fn q_error(&self) -> f64 {
        let est = self.est_rows.max(1.0);
        let actual = (self.stats.rows_out as f64).max(1.0);
        (est / actual).max(actual / est)
    }

    /// q-errors of every node in the tree, pre-order.
    pub fn q_errors(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.visit(&mut |n| out.push(n.q_error()));
        out
    }

    /// `(median, max)` q-error over the tree.
    pub fn q_error_summary(&self) -> (f64, f64) {
        let mut errs = self.q_errors();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = errs[errs.len() / 2];
        let max = errs.last().copied().unwrap_or(1.0);
        (median, max)
    }

    /// Visit every node, pre-order.
    pub fn visit<F: FnMut(&ExecProfile)>(&self, f: &mut F) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Sum the counters over the whole tree.
    pub fn rollup(&self) -> ProfileRollup {
        let mut r = ProfileRollup {
            root_rows: self.stats.rows_out,
            max_q_error: 1.0,
            ..ProfileRollup::default()
        };
        self.visit(&mut |n| {
            r.operators += 1;
            r.probes += n.stats.probes;
            r.comparisons += n.stats.comparisons;
            r.buffered_bytes += n.stats.buffered_bytes;
            r.max_q_error = r.max_q_error.max(n.q_error());
        });
        r
    }

    /// Any limit-trip diagnostic recorded in the tree (the first, if any).
    pub fn limit_trip(&self) -> Option<String> {
        let mut found = None;
        self.visit(&mut |n| {
            if found.is_none() {
                found.clone_from(&n.stats.limit_trip);
            }
        });
        found
    }

    /// Render the tree with estimated vs. actual per operator, plus a
    /// closing q-error summary line. `with_time` includes per-node wall
    /// time; disable it for deterministic (golden) output.
    pub fn render(&self, with_time: bool) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, with_time);
        let (median, max) = self.q_error_summary();
        out.push_str(&format!(
            "q-error: median={median:.2} max={max:.2} over {} operators\n",
            self.q_errors().len()
        ));
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, with_time: bool) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{}  (est={} act={} in={} probes={} cmp={} buf={}B",
            self.label,
            fmt_est(self.est_rows),
            self.stats.rows_out,
            self.rows_in,
            self.stats.probes,
            self.stats.comparisons,
            self.stats.buffered_bytes
        ));
        if with_time {
            out.push_str(&format!(
                " time={:.3}ms",
                self.stats.wall_nanos as f64 / 1_000_000.0
            ));
        }
        out.push(')');
        if let Some(trip) = &self.stats.limit_trip {
            out.push_str(&format!(" !limit: {trip}"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, with_time);
        }
    }
}

/// Estimates render like the cost report: rounded to a whole row.
fn fmt_est(v: f64) -> String {
    format!("{:.0}", v.max(0.0))
}
