//! The `Database` façade: parse → bind → optimize → plan → execute.

use xmlrel_obs::{metrics, trace};

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::exec::{build, ExecLimits, ExecProfile, Meter};
use crate::plan::expr::value_to_bool;
use crate::plan::logical::{bind_expr, bind_select, LogicalPlan, OutputCol, Scope};
use crate::plan::optimizer::{optimize_checked, OptimizerOptions};
use crate::plan::physical::{explain_physical, plan_physical, PhysicalOptions, PhysicalPlan};
use crate::plan::validate::ensure_valid_logical;
use crate::schema::{Column, Schema};
use crate::snapshot::{encode_snapshot, parse_snapshot_gen, snapshot_file, SNAPSHOT_TMP};
use crate::sql::ast::{ColumnDef, Expr, Statement};
use crate::sql::parser::{parse_script, parse_statement};
use crate::storage::{FileBackend, StorageBackend};
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::{encode_frame, read_frames, WalRecord, WAL_FILE};

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// Rows from a SELECT (or EXPLAIN).
    Rows(QueryResult),
    /// Row count from DDL/DML.
    Affected(usize),
}

impl ExecResult {
    /// Unwrap the rows of a SELECT result.
    pub fn rows(self) -> QueryResult {
        match self {
            ExecResult::Rows(q) => q,
            ExecResult::Affected(n) => QueryResult {
                columns: vec!["affected".into()],
                rows: vec![vec![Value::Int(n as i64)]],
            },
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a 1×1 result.
    pub fn scalar(&self) -> Option<&Value> {
        match self.rows.as_slice() {
            [row] => match row.as_slice() {
                [v] => Some(v),
                _ => None,
            },
            _ => None,
        }
    }

    /// A column's values by name.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| &r[i]).collect())
    }
}

/// Durability state of a persistent database: the backend, plus the
/// generation stamped into WAL frames (matching the current snapshot).
#[derive(Debug)]
struct Durability {
    backend: Box<dyn StorageBackend>,
    gen: u64,
    /// Set after a failed commit: memory and disk have diverged, so
    /// further writes are refused until the database is reopened.
    poisoned: bool,
}

/// Bounded retry-with-backoff for transient storage faults.
///
/// Applied only to idempotent steps of the durability protocol — the WAL
/// fsync after a successful append, and the whole-file snapshot-tmp
/// write+sync (re-running either repeats the same bytes). A WAL *append*
/// is never retried: after a torn append the retry could duplicate frame
/// bytes, so append failures poison immediately as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            backoff_ms: 1,
        }
    }
}

/// Run `op` under `policy`, retrying transient [`DbError::Io`] failures
/// with doubling backoff. Non-IO errors (e.g. [`DbError::Corrupt`]) are
/// never retried. Each retry bumps the `storage_retries_total` counter.
fn retry_io(policy: RetryPolicy, mut op: impl FnMut() -> Result<()>) -> Result<()> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) => {
                attempt += 1;
                if attempt >= policy.attempts.max(1) || !matches!(e, DbError::Io(_)) {
                    return Err(e);
                }
                metrics::counter_inc("storage_retries_total");
                std::thread::sleep(std::time::Duration::from_millis(
                    policy.backoff_ms << (attempt - 1).min(16),
                ));
            }
        }
    }
}

/// A point-in-time durability/health summary of a [`Database`], cheap to
/// compute and safe to render on a monitoring endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStatus {
    /// Whether writes persist (a storage backend is attached).
    pub durable: bool,
    /// Generation of the current snapshot (0 before the first
    /// checkpoint; meaningless for in-memory databases).
    pub snapshot_generation: u64,
    /// True after a failed commit left memory ahead of disk; the
    /// database refuses further writes until reopened.
    pub poisoned: bool,
    /// Number of tables in the catalog.
    pub tables: usize,
}

/// An embedded relational database.
#[derive(Debug, Default)]
pub struct Database {
    /// The catalog (exposed for storage accounting and direct bulk loads).
    pub catalog: Catalog,
    /// Logical optimizer knobs.
    pub optimizer: OptimizerOptions,
    /// Physical planner knobs.
    pub physical: PhysicalOptions,
    /// Execution resource limits (unlimited by default).
    pub limits: ExecLimits,
    /// Retry policy for transient storage faults in the WAL/snapshot
    /// write path.
    pub retry: RetryPolicy,
    /// Durable storage; `None` for a purely in-memory database.
    durability: Option<Durability>,
    /// Commit counter: bumped once per committed mutation, so two
    /// databases (or a database and its snapshot) with equal epochs hold
    /// the same logical state.
    epoch: u64,
    /// Set on handles produced by [`Database::snapshot`]: the catalog is a
    /// point-in-time copy and all mutations are refused.
    pinned: bool,
}

impl Database {
    /// An empty database with default options.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open (or create) a durable database in a directory on disk,
    /// recovering from the latest snapshot plus the write-ahead log.
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Database> {
        Database::open_with_backend(Box::new(FileBackend::open(path)?))
    }

    /// Open (or create) a durable database over any storage backend.
    ///
    /// Recovery: load the highest-generation snapshot that validates,
    /// then replay WAL frames of that generation in order. Replay stops at
    /// the first torn, checksum-failing, or stale-generation frame and
    /// truncates the log there, so the database always comes back at a
    /// committed statement boundary — never mid-statement, never with a
    /// panic on damaged bytes.
    pub fn open_with_backend(mut backend: Box<dyn StorageBackend>) -> Result<Database> {
        // 1. Latest valid snapshot (ignore `snapshot.tmp` and damaged files).
        let mut gens: Vec<u64> = backend
            .list()?
            .iter()
            .filter_map(|n| parse_snapshot_gen(n))
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        let any_snapshot = !gens.is_empty();
        let mut gen = 0;
        let mut catalog = Catalog::new();
        let mut loaded = false;
        for g in gens {
            if let Some(buf) = backend.read(&snapshot_file(g))? {
                if let Ok((file_gen, c)) = crate::snapshot::decode_snapshot(&buf) {
                    if file_gen == g {
                        gen = g;
                        catalog = c;
                        loaded = true;
                        break;
                    }
                }
            }
        }
        // A snapshot was published but none decodes: the data existed and
        // is now unreadable. Refuse to present an empty database.
        if any_snapshot && !loaded {
            return Err(DbError::Corrupt(
                "no snapshot file decodes cleanly; refusing to open as empty".into(),
            ));
        }
        // 2. Replay the WAL prefix belonging to that snapshot.
        let wal_buf = backend.read(WAL_FILE)?.unwrap_or_default();
        let (frames, _) = read_frames(&wal_buf);
        let mut keep = 0usize;
        for frame in frames {
            if frame.gen != gen {
                // Written against an older snapshot whose effects the
                // current snapshot already contains; replaying would
                // double-apply.
                break;
            }
            apply_records(&mut catalog, &frame.records)?;
            keep = frame.end;
        }
        // 3. Drop everything past the last replayable frame.
        if keep < wal_buf.len() {
            backend.truncate(WAL_FILE, keep as u64)?;
        }
        Ok(Database {
            catalog,
            durability: Some(Durability {
                backend,
                gen,
                poisoned: false,
            }),
            ..Database::default()
        })
    }

    /// Whether this database persists its writes.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The commit epoch: bumped once per committed mutation. Reads through
    /// a [`snapshot`](Database::snapshot) report the epoch the snapshot
    /// was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this handle is a read-only point-in-time snapshot.
    pub fn is_snapshot(&self) -> bool {
        self.pinned
    }

    /// A read-only point-in-time snapshot of this database.
    ///
    /// Cheap: the catalog clone shares every table behind an `Arc`
    /// (copy-on-write — see [`Catalog`] docs), and the durability layer is
    /// not carried over, so a snapshot can be taken per query and dropped
    /// when the query finishes. The snapshot keeps answering reads at its
    /// epoch no matter what later commits do to the parent; any mutation
    /// through it fails with [`DbError::ReadOnlySnapshot`].
    pub fn snapshot(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            optimizer: self.optimizer,
            physical: self.physical,
            limits: self.limits.clone(),
            retry: self.retry,
            durability: None,
            epoch: self.epoch,
            pinned: true,
        }
    }

    /// Durability/health summary for monitoring (`/healthz`).
    pub fn status(&self) -> DbStatus {
        DbStatus {
            durable: self.durability.is_some(),
            snapshot_generation: self.durability.as_ref().map_or(0, |d| d.gen),
            poisoned: self.durability.as_ref().is_some_and(|d| d.poisoned),
            tables: self.catalog.table_names().len(),
        }
    }

    /// Serialize the catalog to a new snapshot and truncate the WAL.
    ///
    /// Protocol: write `snapshot.tmp`, fsync, rename to
    /// `snapshot.<gen+1>`, truncate the log, delete the old snapshot. A
    /// crash anywhere in between leaves a recoverable state (see the
    /// `snapshot` module docs). No-op for in-memory databases.
    pub fn checkpoint(&mut self) -> Result<()> {
        let _span = trace::span("checkpoint", "storage");
        let started = std::time::Instant::now();
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        if d.poisoned {
            return Err(DbError::Io(
                "durability poisoned by an earlier failed commit; reopen the database".into(),
            ));
        }
        let next_gen = d.gen + 1;
        let bytes = encode_snapshot(next_gen, &self.catalog)?;
        // Writing + syncing the tmp file is idempotent (same bytes, not
        // yet published), so transient IO faults are retried here.
        retry_io(self.retry, || {
            d.backend.write(SNAPSHOT_TMP, &bytes)?;
            d.backend.sync(SNAPSHOT_TMP)
        })?;
        let published = snapshot_file(next_gen);
        d.backend.rename(SNAPSHOT_TMP, &published)?;
        // The snapshot is now published: recovery will prefer it over both
        // the old snapshot and the old-generation WAL frames. Any failure
        // past this point leaves the in-memory bookkeeping out of step with
        // disk, so treat it like a failed commit and poison until reopen.
        let old = snapshot_file(d.gen);
        let res = d
            .backend
            .sync(&published)
            .and_then(|()| d.backend.truncate(WAL_FILE, 0))
            .and_then(|()| d.backend.remove(&old));
        match res {
            Ok(()) => {
                d.gen = next_gen;
                metrics::counter_inc("snapshots_total");
                metrics::observe_us("snapshot_duration_us", started.elapsed().as_micros() as u64);
                Ok(())
            }
            Err(e) => {
                d.poisoned = true;
                Err(e)
            }
        }
    }

    /// Append one statement's records to the WAL and flush. Called after
    /// the in-memory mutation succeeded; a failure here poisons the
    /// durability state (memory is ahead of disk) until reopen.
    fn commit(&mut self, records: Vec<WalRecord>) -> Result<()> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        if records.is_empty() {
            return Ok(());
        }
        // The in-memory mutation already happened; any failure from here
        // on (including an unencodable frame) leaves memory ahead of disk.
        // The append is never retried (a torn append followed by a second
        // append would duplicate frame bytes); the fsync is idempotent and
        // retried for transient faults.
        let retry = self.retry;
        let res = encode_frame(d.gen, &records).and_then(|frame| {
            metrics::counter_add("wal_bytes_total", frame.len() as u64);
            metrics::counter_inc("wal_frames_total");
            d.backend
                .append(WAL_FILE, &frame)
                .and_then(|()| retry_io(retry, || d.backend.sync(WAL_FILE)))
        });
        if res.is_err() {
            d.poisoned = true;
        }
        res
    }

    /// Refuse mutations once a commit has failed (the in-memory state is
    /// ahead of the log, and writing more would corrupt the sequence) or
    /// when this handle is a pinned read-only snapshot.
    fn check_writable(&self) -> Result<()> {
        if self.pinned {
            return Err(DbError::ReadOnlySnapshot(
                "this handle is a point-in-time snapshot; run mutations on the live database"
                    .into(),
            ));
        }
        match &self.durability {
            Some(d) if d.poisoned => Err(DbError::Io(
                "durability poisoned by an earlier failed commit; reopen the database".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let _span = trace::span("db.execute", "sql");
        self.execute_stmt(&parse(sql)?)
    }

    /// Execute a semicolon-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecResult> {
        let _span = trace::span("db.execute_script", "sql");
        let stmts = {
            let _parse = trace::span("sql.parse", "sql");
            parse_script(sql)?
        };
        let mut last = ExecResult::Affected(0);
        for s in &stmts {
            last = self.execute_stmt(s)?;
        }
        Ok(last)
    }

    /// Parse and plan one read statement — `SELECT` or `EXPLAIN [ANALYZE]
    /// SELECT` — for [`Prepared::run`]. Any other statement is rejected
    /// before anything runs. The statement's `db.query` trace span opens
    /// here and closes when the [`Prepared`] drops, so its `sql.parse`,
    /// `plan` and `execute` spans all nest below it.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        let span = trace::span("db.query", "sql");
        self.prepare_stmt(&parse(sql)?, span)
    }

    /// Run a read statement under the database-wide limits and materialize
    /// its rows: [`prepare`](Database::prepare) plus [`Prepared::run`].
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let span = trace::span("db.query", "sql");
        self.query_stmt(&parse(sql)?, span)
    }

    /// [`query`](Database::query) on a parsed statement traced by `span`.
    fn query_stmt(&self, stmt: &Statement, span: trace::Span) -> Result<QueryResult> {
        let prepared = self.prepare_stmt(stmt, span)?;
        let mut rows = Vec::new();
        prepared
            .run(&self.limits, false, |row| {
                rows.push(row);
                Ok(())
            })
            .0?;
        Ok(QueryResult {
            columns: prepared.columns(),
            rows,
        })
    }

    /// Bind, validate, optimize, and lower a parsed read statement, traced
    /// by `span`. The bound plan is validated against the catalog before
    /// any rewrite runs; debug builds additionally re-validate after each
    /// optimizer stage (inside [`optimize_checked`]) and validate the
    /// physical plan, so planner rewrites are proven invariant-preserving
    /// under the test suite.
    fn prepare_stmt(&self, stmt: &Statement, span: trace::Span) -> Result<Prepared<'_>> {
        let (sel, explain) = match stmt {
            Statement::Select(sel) => (sel, None),
            Statement::Explain { analyze, stmt } => match &**stmt {
                Statement::Select(sel) => (sel, Some(*analyze)),
                _ => return Err(DbError::Unsupported("EXPLAIN supports SELECT only".into())),
            },
            _ => {
                return Err(DbError::Unsupported(
                    "prepare() accepts SELECT and EXPLAIN [ANALYZE] SELECT only".into(),
                ))
            }
        };
        let _plan = trace::span("plan", "sql");
        let bound = bind_select(&self.catalog, sel)?;
        ensure_valid_logical(&self.catalog, &bound)?;
        let logical = optimize_checked(bound, &self.optimizer, &self.catalog)?;
        let physical = plan_physical(&self.catalog, &logical, &self.physical)?;
        #[cfg(debug_assertions)]
        crate::plan::validate::ensure_valid_physical(&self.catalog, &physical)?;
        Ok(Prepared {
            db: self,
            logical,
            physical,
            explain,
            _span: span,
        })
    }

    /// Execute a parsed statement. Reads go through the prepared path;
    /// writes are logged to the WAL and bump the epoch.
    fn execute_stmt(&mut self, stmt: &Statement) -> Result<ExecResult> {
        let durable = self.durability.is_some();
        let mut wal: Vec<WalRecord> = Vec::new();
        let result = match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if *if_not_exists && self.catalog.has_table(name) {
                    ExecResult::Affected(0)
                } else {
                    self.check_writable()?;
                    let schema = Schema::new(
                        columns
                            .iter()
                            .map(|c: &ColumnDef| Column {
                                name: c.name.clone(),
                                ty: c.ty,
                                nullable: !c.not_null,
                            })
                            .collect(),
                    )?;
                    self.catalog.create_table(name, schema.clone())?;
                    if durable {
                        wal.push(WalRecord::CreateTable {
                            name: name.to_ascii_lowercase(),
                            schema,
                        });
                    }
                    // PRIMARY KEY columns get a unique index.
                    let pk: Vec<String> = columns
                        .iter()
                        .filter(|c| c.primary_key)
                        .map(|c| c.name.clone())
                        .collect();
                    if !pk.is_empty() {
                        let resolved: std::result::Result<Vec<usize>, String> = {
                            let schema = &self.catalog.table(name)?.schema;
                            pk.iter()
                                .map(|c| schema.index_of(c).ok_or_else(|| c.clone()))
                                .collect()
                        };
                        let offsets = match resolved {
                            Ok(offsets) => offsets,
                            Err(col) => {
                                // Keep the statement atomic: no table without
                                // its primary-key index.
                                self.catalog.drop_table(name, true)?;
                                return Err(DbError::Runtime(format!(
                                    "PRIMARY KEY column '{col}' is not defined by the table"
                                )));
                            }
                        };
                        let table = self.catalog.table_mut(name)?;
                        let idx_name = format!("{name}_pk").to_ascii_lowercase();
                        if let Err(e) = table.create_index(idx_name.clone(), offsets.clone(), true)
                        {
                            // Keep the statement atomic: no table without
                            // its primary-key index.
                            self.catalog.drop_table(name, true)?;
                            return Err(e);
                        }
                        if durable {
                            wal.push(WalRecord::CreateIndex {
                                table: name.to_ascii_lowercase(),
                                name: idx_name,
                                columns: offsets,
                                unique: true,
                            });
                        }
                    }
                    ExecResult::Affected(0)
                }
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                self.check_writable()?;
                let t = self.catalog.table_mut(table)?;
                let offsets: Vec<usize> = columns
                    .iter()
                    .map(|c| {
                        t.schema
                            .index_of(c)
                            .ok_or_else(|| DbError::Binding(format!("no column {c:?}")))
                    })
                    .collect::<Result<_>>()?;
                t.create_index(name.clone(), offsets.clone(), *unique)?;
                if durable {
                    wal.push(WalRecord::CreateIndex {
                        table: t.name.clone(),
                        name: name.to_ascii_lowercase(),
                        columns: offsets,
                        unique: *unique,
                    });
                }
                ExecResult::Affected(0)
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                self.check_writable()?;
                let t = self.catalog.table(table)?;
                let arity = t.schema.arity();
                // Map the provided column list to schema positions.
                let positions: Vec<usize> = match columns {
                    None => (0..arity).collect(),
                    Some(cols) => cols
                        .iter()
                        .map(|c| {
                            t.schema
                                .index_of(c)
                                .ok_or_else(|| DbError::Binding(format!("no column {c:?}")))
                        })
                        .collect::<Result<_>>()?,
                };
                let empty: Row = Vec::new();
                let mut materialized: Vec<Row> = Vec::with_capacity(rows.len());
                for exprs in rows {
                    if exprs.len() != positions.len() {
                        return Err(DbError::Constraint(format!(
                            "INSERT expects {} values, got {}",
                            positions.len(),
                            exprs.len()
                        )));
                    }
                    let mut row: Row = vec![Value::Null; arity];
                    for (pos, e) in positions.iter().zip(exprs) {
                        let scope = Scope::default();
                        let bound = bind_literal_expr(e, &scope)?;
                        row[*pos] = bound.eval(&empty)?;
                    }
                    materialized.push(row);
                }
                let t = self.catalog.table_mut(table)?;
                let n = if durable {
                    let n = t.insert_atomic(materialized.clone())?;
                    if !materialized.is_empty() {
                        wal.push(WalRecord::Insert {
                            table: t.name.clone(),
                            rows: materialized,
                        });
                    }
                    n
                } else {
                    t.insert_atomic(materialized)?
                };
                ExecResult::Affected(n)
            }
            Statement::Select(_) | Statement::Explain { .. } => {
                return self
                    .query_stmt(stmt, trace::span("db.query", "sql"))
                    .map(ExecResult::Rows);
            }
            Statement::Delete { table, predicate } => {
                self.check_writable()?;
                let t = self.catalog.table(table)?;
                let scope = scope_of_table(t);
                let pred = match predicate {
                    Some(p) => Some(bind_expr(p, &scope)?),
                    None => None,
                };
                let victims: Vec<usize> = t
                    .scan()
                    .filter_map(|(rid, row)| match &pred {
                        None => Some(Ok(rid)),
                        Some(p) => match p.eval(row) {
                            Ok(v) if value_to_bool(&v) == Some(true) => Some(Ok(rid)),
                            Ok(_) => None,
                            Err(e) => Some(Err(e)),
                        },
                    })
                    .collect::<Result<_>>()?;
                let t = self.catalog.table_mut(table)?;
                let mut deleted: Vec<usize> = Vec::new();
                for rid in victims {
                    if t.delete(rid) {
                        deleted.push(rid);
                    }
                }
                let n = deleted.len();
                if durable && !deleted.is_empty() {
                    wal.push(WalRecord::Delete {
                        table: t.name.clone(),
                        rids: deleted,
                    });
                }
                ExecResult::Affected(n)
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                self.check_writable()?;
                let t = self.catalog.table(table)?;
                let scope = scope_of_table(t);
                let pred = match predicate {
                    Some(p) => Some(bind_expr(p, &scope)?),
                    None => None,
                };
                let mut bound_assignments = Vec::new();
                for (col, e) in assignments {
                    let off = t
                        .schema
                        .index_of(col)
                        .ok_or_else(|| DbError::Binding(format!("no column {col:?}")))?;
                    bound_assignments.push((off, bind_expr(e, &scope)?));
                }
                let mut updates: Vec<(usize, Row)> = Vec::new();
                for (rid, row) in t.scan() {
                    let keep = match &pred {
                        None => true,
                        Some(p) => value_to_bool(&p.eval(row)?) == Some(true),
                    };
                    if !keep {
                        continue;
                    }
                    let mut new_row = row.clone();
                    for (off, e) in &bound_assignments {
                        new_row[*off] = e.eval(row)?;
                    }
                    updates.push((rid, new_row));
                }
                let t = self.catalog.table_mut(table)?;
                apply_updates_atomic(t, &updates)?;
                if durable {
                    for (rid, row) in &updates {
                        wal.push(WalRecord::Update {
                            table: t.name.clone(),
                            rid: *rid,
                            row: row.clone(),
                        });
                    }
                }
                ExecResult::Affected(updates.len())
            }
        };
        self.commit(wal)?;
        self.epoch += 1;
        Ok(result)
    }

    /// Bulk-load rows into a table without SQL overhead (the shredders'
    /// fast path). All-or-nothing, and logged to the WAL when durable.
    pub fn bulk_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        // The shred phase is a long sequence of bulk inserts; polling the
        // database-wide limits here makes loading cancellable and
        // deadline-bounded at batch granularity.
        self.limits.poll("bulk insert")?;
        self.check_writable()?;
        if self.durability.is_some() {
            let (n, record) = {
                let t = self.catalog.table_mut(table)?;
                let n = t.insert_atomic(rows.clone())?;
                (
                    n,
                    WalRecord::Insert {
                        table: t.name.clone(),
                        rows,
                    },
                )
            };
            if n > 0 {
                self.commit(vec![record])?;
                self.epoch += 1;
            }
            Ok(n)
        } else {
            let n = self.catalog.table_mut(table)?.insert_atomic(rows)?;
            if n > 0 {
                self.epoch += 1;
            }
            Ok(n)
        }
    }
}

/// Parse one statement under a `sql.parse` span.
fn parse(sql: &str) -> Result<Statement> {
    let _span = trace::span("sql.parse", "sql");
    parse_statement(sql)
}

/// A planned read statement from [`Database::prepare`]: the optimized
/// logical plan, the physical plan, and the trace span of the statement.
pub struct Prepared<'db> {
    db: &'db Database,
    logical: LogicalPlan,
    physical: PhysicalPlan,
    /// `Some(analyze)` for `EXPLAIN [ANALYZE] SELECT`.
    explain: Option<bool>,
    _span: trace::Span,
}

impl Prepared<'_> {
    /// The optimized logical plan of the `SELECT`.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The physical plan of the `SELECT`.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// Names of the columns [`run`](Prepared::run) emits (`plan` for an
    /// `EXPLAIN`).
    fn columns(&self) -> Vec<String> {
        match self.explain {
            Some(_) => vec!["plan".into()],
            None => self.logical.schema().into_iter().map(|c| c.name).collect(),
        }
    }

    /// Execute under `limits`, handing each result row to `on_row` (an
    /// `EXPLAIN` emits one row per line of plan text). Returns the number
    /// of rows emitted and, when `profiled`, the [`ExecProfile`] tree
    /// (estimated vs. actual cardinality, probes, comparisons, buffer
    /// bytes, wall time per operator). The profile is returned even when
    /// execution fails — a limit trip is exactly when you want to see
    /// which operator was doing what.
    ///
    /// Cancellation and the deadline are polled as each row comes out, and
    /// more than `limits.max_rows` rows fail with
    /// [`DbError::ResourceExhausted`] before the extra row is emitted.
    pub fn run(
        &self,
        limits: &ExecLimits,
        profiled: bool,
        mut on_row: impl FnMut(Row) -> Result<()>,
    ) -> (Result<usize>, Option<ExecProfile>) {
        let _span = trace::span("execute", "sql");
        let (text, profile) = match self.explain {
            None => return self.pull(limits, profiled, on_row),
            Some(false) => (explain_physical(&self.physical), None),
            Some(true) => match self.pull(limits, true, |_| Ok(())) {
                (rows, Some(profile)) => {
                    // A failed execution still renders the partial profile.
                    let mut text = profile.render(true);
                    if let Err(e) = rows {
                        text.push_str(&format!("error: {e}\n"));
                    }
                    (text, Some(profile))
                }
                unbuilt => return unbuilt,
            },
        };
        let emitted = text
            .lines()
            .try_for_each(|line| on_row(vec![Value::text(line)]))
            .map(|()| text.lines().count());
        (emitted, profile)
    }

    /// Build the executor and drain it into `on_row`: the result loop
    /// behind every read. The profile is `None` only when the executor
    /// could not be built.
    fn pull(
        &self,
        limits: &ExecLimits,
        profiled: bool,
        mut on_row: impl FnMut(Row) -> Result<()>,
    ) -> (Result<usize>, Option<ExecProfile>) {
        let (mut exec, handle) = match build(&self.physical, &self.db.catalog, limits, profiled) {
            Ok(built) => built,
            Err(e) => return (Err(e), None),
        };
        let root = Meter::new(limits, false);
        let mut drain = || -> Result<usize> {
            let mut n = 0;
            while let Some(row) = exec.next()? {
                root.poll("result")?;
                n += 1;
                if let Some(max) = limits.max_rows.filter(|&max| n > max) {
                    metrics::counter_inc("exec_limit_trips_total");
                    return Err(DbError::ResourceExhausted(format!(
                        "result produced {n} rows, exceeding max_rows = {max}"
                    )));
                }
                on_row(row)?;
            }
            Ok(n)
        };
        let rows = drain();
        (rows, handle.map(|h| h.snapshot()))
    }
}

/// Apply a batch of updates all-or-nothing: on failure, already-applied
/// updates are rolled back (in reverse, bypassing constraint checks —
/// the restored state is the previously-validated one).
fn apply_updates_atomic(t: &mut Table, updates: &[(usize, Row)]) -> Result<()> {
    let mut done: Vec<(usize, Row)> = Vec::with_capacity(updates.len());
    for (rid, row) in updates {
        let old = match t.get(*rid) {
            Some(r) => r.clone(),
            None => {
                rollback_updates(t, done);
                return Err(DbError::Runtime(format!("row {rid} is not live")));
            }
        };
        if let Err(e) = t.update(*rid, row.clone()) {
            rollback_updates(t, done);
            return Err(e);
        }
        done.push((*rid, old));
    }
    Ok(())
}

fn rollback_updates(t: &mut Table, done: Vec<(usize, Row)>) {
    for (rid, old) in done.into_iter().rev() {
        t.force_update(rid, old);
    }
}

/// Replay one WAL frame's records onto a catalog. A frame that passed its
/// checksum but no longer applies indicates tampering or a format bug, so
/// the failure surfaces as [`DbError::Corrupt`].
fn apply_records(catalog: &mut Catalog, records: &[WalRecord]) -> Result<()> {
    for rec in records {
        let res = match rec {
            WalRecord::CreateTable { name, schema } => catalog.create_table(name, schema.clone()),
            WalRecord::CreateIndex {
                table,
                name,
                columns,
                unique,
            } => catalog
                .table_mut(table)
                .and_then(|t| t.create_index(name.clone(), columns.clone(), *unique)),
            WalRecord::Insert { table, rows } => catalog
                .table_mut(table)
                .and_then(|t| t.insert_atomic(rows.clone()).map(|_| ())),
            WalRecord::Delete { table, rids } => catalog.table_mut(table).map(|t| {
                for &rid in rids {
                    t.delete(rid);
                }
            }),
            WalRecord::Update { table, rid, row } => catalog
                .table_mut(table)
                .and_then(|t| t.update(*rid, row.clone())),
        };
        res.map_err(|e| DbError::Corrupt(format!("WAL replay failed: {e}")))?;
    }
    Ok(())
}

fn scope_of_table(t: &crate::table::Table) -> Scope {
    let plan = LogicalPlan::Scan {
        table: t.name.clone(),
        cols: t
            .schema
            .columns
            .iter()
            .map(|c| OutputCol {
                qualifier: Some(t.name.clone()),
                name: c.name.clone(),
            })
            .collect(),
    };
    Scope::of(&plan)
}

/// Bind an expression that may not reference any columns (INSERT values).
fn bind_literal_expr(e: &Expr, scope: &Scope) -> Result<crate::plan::expr::ScalarExpr> {
    bind_expr(e, scope)
        .map_err(|_| DbError::Binding("INSERT values must be literal expressions".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_data() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, dept TEXT, salary INT);
             INSERT INTO emp VALUES
               (1, 'ada', 'eng', 120),
               (2, 'bob', 'eng', 100),
               (3, 'cho', 'ops', 90),
               (4, 'dee', 'ops', 95),
               (5, 'eve', NULL, 80);",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db_with_data();
        let q = db
            .query("SELECT name FROM emp WHERE salary > 95 ORDER BY name")
            .unwrap();
        assert_eq!(q.columns, vec!["name"]);
        let names: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["ada", "bob"]);
    }

    #[test]
    fn single_group_aggregates() {
        let db = db_with_data();
        let q = db
            .query("SELECT COUNT(*), COUNT(dept), MAX(salary) AS top FROM emp WHERE salary > 80")
            .unwrap();
        assert_eq!(q.columns[2], "top");
        assert_eq!(
            q.rows,
            vec![vec![Value::Int(4), Value::Int(4), Value::Int(120)]]
        );
    }

    #[test]
    fn joins_inner_and_left() {
        let mut db = db_with_data();
        db.execute_script(
            "CREATE TABLE dept (code TEXT, boss TEXT);
             INSERT INTO dept VALUES ('eng', 'ada'), ('hr', 'zoe');",
        )
        .unwrap();
        let inner = db
            .query("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code ORDER BY e.name")
            .unwrap();
        assert_eq!(inner.rows.len(), 2);
        let left = db
            .query(
                "SELECT e.name, d.boss FROM emp e LEFT JOIN dept d ON e.dept = d.code \
                 ORDER BY e.name",
            )
            .unwrap();
        assert_eq!(left.rows.len(), 5);
        // ops and NULL-dept employees have NULL boss.
        let cho = left
            .rows
            .iter()
            .find(|r| r[0] == Value::text("cho"))
            .unwrap();
        assert!(cho[1].is_null());
    }

    #[test]
    fn self_join_with_aliases() {
        let db = db_with_data();
        let q = db
            .query(
                "SELECT a.name, b.name FROM emp a JOIN emp b ON a.dept = b.dept \
                 WHERE a.id < b.id ORDER BY a.name",
            )
            .unwrap();
        assert_eq!(q.rows.len(), 2); // (ada,bob), (cho,dee)
    }

    #[test]
    fn index_scan_used_for_pk_lookup() {
        let db = db_with_data();
        let q = db
            .query("EXPLAIN SELECT name FROM emp WHERE id = 3")
            .unwrap();
        let plan: String = q.rows.iter().map(|r| r[0].to_string() + "\n").collect();
        assert!(plan.contains("IndexScan"), "{plan}");
        let r = db.query("SELECT name FROM emp WHERE id = 3").unwrap();
        assert_eq!(r.rows[0][0], Value::text("cho"));
    }

    #[test]
    fn secondary_index_and_range() {
        let mut db = db_with_data();
        db.execute("CREATE INDEX by_salary ON emp (salary)")
            .unwrap();
        let q = db
            .query("EXPLAIN SELECT name FROM emp WHERE salary BETWEEN 90 AND 100")
            .unwrap();
        let plan: String = q.rows.iter().map(|r| r[0].to_string() + "\n").collect();
        assert!(plan.contains("IndexScan"), "{plan}");
        let r = db
            .query("SELECT name FROM emp WHERE salary BETWEEN 90 AND 100 ORDER BY salary")
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(names, vec!["cho", "dee", "bob"]);
    }

    #[test]
    fn delete_and_update() {
        let mut db = db_with_data();
        let n = db
            .execute("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
            .unwrap();
        assert_eq!(n, ExecResult::Affected(2));
        let q = db
            .query("SELECT salary FROM emp WHERE name = 'ada'")
            .unwrap();
        assert_eq!(q.rows[0][0], Value::Int(130));
        let n = db.execute("DELETE FROM emp WHERE dept IS NULL").unwrap();
        assert_eq!(n, ExecResult::Affected(1));
        let q = db.query("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn unique_violation_via_sql() {
        let mut db = db_with_data();
        let err = db
            .execute("INSERT INTO emp VALUES (1, 'dup', 'x', 0)")
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn union_all_distinct_limit() {
        let db = db_with_data();
        let q = db
            .query(
                "SELECT dept FROM emp WHERE dept IS NOT NULL \
                 UNION ALL SELECT dept FROM emp WHERE dept = 'eng' ORDER BY 1",
            )
            .unwrap();
        assert_eq!(q.rows.len(), 6);
        let q = db
            .query("SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept LIMIT 1")
            .unwrap();
        assert_eq!(q.rows, vec![vec![Value::text("eng")]]);
    }

    #[test]
    fn scalar_no_from() {
        let db = Database::new();
        let q = db.query("SELECT 2 + 3 - 1 AS v").unwrap();
        assert_eq!(q.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn empty_aggregate() {
        let db = db_with_data();
        let q = db
            .query("SELECT COUNT(*), MAX(salary) FROM emp WHERE dept = 'none'")
            .unwrap();
        assert_eq!(q.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn like_filter() {
        let db = db_with_data();
        let q = db
            .query("SELECT name FROM emp WHERE name LIKE '_o%' ORDER BY name")
            .unwrap();
        let names: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["bob"]);
    }

    #[test]
    fn streaming_query() {
        let mut db = db_with_data();
        db.execute("CREATE INDEX by_dept ON emp (dept)").unwrap();
        let prepared = db
            .prepare("SELECT name FROM emp WHERE dept = 'eng'")
            .unwrap();
        let mut count = 0;
        let mut counted = |_| {
            count += 1;
            Ok(())
        };
        let (n, profile) = prepared.run(&db.limits, false, &mut counted);
        assert_eq!(n.unwrap(), 2);
        assert!(profile.is_none());
        // Past max_rows the run fails before the extra row is emitted.
        let limits = ExecLimits {
            max_rows: Some(1),
            ..ExecLimits::default()
        };
        let (n, _) = prepared.run(&limits, false, &mut counted);
        assert!(matches!(n, Err(DbError::ResourceExhausted(_))), "{n:?}");
        assert_eq!(count, 3);
    }

    #[test]
    fn query_rejects_writes_before_running_them() {
        let db = db_with_data();
        let epoch = db.epoch();
        let err = db.query("DELETE FROM emp").unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)), "{err}");
        let err = db.prepare("UPDATE emp SET salary = 0").err().unwrap();
        assert!(matches!(err, DbError::Unsupported(_)), "{err}");
        let count = db.query("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(count.scalar(), Some(&Value::Int(5)));
        assert_eq!(db.epoch(), epoch);
    }

    #[test]
    fn each_statement_is_one_db_query_span_over_parse_plan_execute() {
        let db = db_with_data();
        let sink = trace::TraceSink::new();
        {
            let _g = trace::install(&sink);
            db.query("SELECT name FROM emp").unwrap();
            db.prepare("SELECT name FROM emp WHERE id = 1")
                .unwrap()
                .run(&db.limits, false, |_| Ok(()))
                .0
                .unwrap();
        }
        // Spans record as they close: children before their parent.
        let events = sink.events();
        let statements: Vec<&[trace::Event]> = events
            .split_inclusive(|e| e.name.starts_with("db.query"))
            .collect();
        assert_eq!(statements.len(), 2, "{events:?}");
        for stmt in statements {
            let (parent, children) = stmt.split_last().unwrap();
            assert_eq!(parent.name, "db.query");
            let mut names: Vec<&str> = children.iter().map(|e| e.name.as_ref()).collect();
            names.sort_unstable();
            assert_eq!(names, ["execute", "plan", "sql.parse"], "{events:?}");
            assert!(children.iter().all(|e| e.depth == parent.depth + 1));
        }
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = db_with_data();
        db.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')")
            .unwrap();
        let q = db
            .query("SELECT dept, salary FROM emp WHERE id = 9")
            .unwrap();
        assert_eq!(q.rows[0], vec![Value::Null, Value::Null]);
    }

    #[test]
    fn interval_join_plan_chosen() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE node (pre INT, size INT, name TEXT);
             INSERT INTO node VALUES (0, 3, 'a'), (1, 1, 'b'), (2, 0, 'c'), (3, 0, 'd');",
        )
        .unwrap();
        // Descendants of each 'a': pre in (a.pre, a.pre + a.size].
        let prepared = db
            .prepare(
                "SELECT d.name FROM node a, node d \
                 WHERE a.name = 'a' AND d.pre > a.pre AND d.pre <= a.pre + a.size",
            )
            .unwrap();
        let text = explain_physical(prepared.physical());
        assert!(text.contains("IntervalJoin"), "{text}");
        let q = db
            .query(
                "SELECT d.name FROM node a, node d \
                 WHERE a.name = 'a' AND d.pre > a.pre AND d.pre <= a.pre + a.size \
                 ORDER BY d.pre",
            )
            .unwrap();
        let names: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["b", "c", "d"]);
    }

    #[test]
    fn explain_returns_plan_rows() {
        let db = db_with_data();
        let q = db.query("EXPLAIN SELECT * FROM emp WHERE id = 1").unwrap();
        assert!(!q.rows.is_empty());
        assert_eq!(q.columns, vec!["plan"]);
    }

    #[test]
    fn explain_analyze_reports_actuals() {
        let db = db_with_data();
        let q = db
            .query("EXPLAIN ANALYZE SELECT name FROM emp WHERE salary > 95")
            .unwrap();
        let text: String = q.rows.iter().map(|r| r[0].to_string() + "\n").collect();
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("act=2"), "{text}");
        assert!(text.contains("q-error:"), "{text}");
        assert!(text.contains("time="), "{text}");
    }

    #[test]
    fn profiled_run_mirrors_plan_shape() {
        let mut db = db_with_data();
        db.execute("CREATE INDEX by_dept ON emp (dept)").unwrap();
        let (n, profile) = db
            .prepare("SELECT name FROM emp WHERE dept = 'eng'")
            .unwrap()
            .run(&db.limits, true, |_| Ok(()));
        assert_eq!(n.unwrap(), 2);
        let profile = profile.unwrap();
        assert_eq!(profile.stats.rows_out, 2);
        // The root consumes what its child produced.
        let mut labels = Vec::new();
        profile.visit(&mut |n| labels.push(n.label.clone()));
        assert!(
            labels.iter().any(|l| l.starts_with("IndexScan")),
            "{labels:?}"
        );
    }

    #[test]
    fn limit_trip_names_operator_and_limit() {
        let mut db = db_with_data();
        db.limits.max_intermediate_rows = Some(2);
        let err = db
            .query("SELECT name FROM emp ORDER BY salary")
            .unwrap_err();
        let DbError::ResourceExhausted(msg) = err else {
            panic!("expected ResourceExhausted");
        };
        assert!(msg.contains("Sort"), "{msg}");
        assert!(msg.contains("max_intermediate_rows = 2"), "{msg}");
        // Profiled runs record the trip in the operator's profile node.
        let (n, profile) = db
            .prepare("SELECT name FROM emp ORDER BY salary")
            .unwrap()
            .run(&db.limits, true, |_| Ok(()));
        assert!(n.is_err());
        let trip = profile.unwrap().limit_trip().expect("trip recorded");
        assert!(trip.contains("Sort"), "{trip}");
        // EXPLAIN ANALYZE renders the partial profile plus the error.
        let q = db
            .query("EXPLAIN ANALYZE SELECT name FROM emp ORDER BY salary")
            .unwrap();
        let text: String = q.rows.iter().map(|r| r[0].to_string() + "\n").collect();
        assert!(text.contains("!limit: Sort"), "{text}");
        assert!(text.contains("error: "), "{text}");
    }

    #[test]
    fn create_table_if_not_exists() {
        let mut db = db_with_data();
        assert!(db.execute("CREATE TABLE emp (x INT)").is_err());
        db.execute("CREATE TABLE IF NOT EXISTS emp (x INT)")
            .unwrap();
    }

    #[test]
    fn snapshot_pins_state_across_later_commits() {
        let mut db = db_with_data();
        let before = db.epoch();
        let snap = db.snapshot();
        assert!(snap.is_snapshot());
        assert_eq!(snap.epoch(), before);
        db.execute("INSERT INTO emp VALUES (9, 'new', 1, 1.0)")
            .unwrap();
        assert_eq!(db.epoch(), before + 1);
        // The snapshot keeps answering at its epoch; the live handle moved on.
        let frozen = snap.query("SELECT COUNT(name) FROM emp").unwrap();
        let live = db.query("SELECT COUNT(name) FROM emp").unwrap();
        let count = |q: crate::QueryResult| q.scalar().and_then(Value::as_int).unwrap();
        assert_eq!(count(live), count(frozen) + 1);
        assert_eq!(snap.epoch(), before);
    }

    #[test]
    fn snapshot_refuses_writes() {
        let db = db_with_data();
        let mut snap = db.snapshot();
        let err = snap.execute("DELETE FROM emp").unwrap_err();
        assert!(matches!(err, DbError::ReadOnlySnapshot(_)), "{err}");
        let err = snap
            .bulk_insert("emp", vec![vec![Value::Int(1)]])
            .unwrap_err();
        assert!(matches!(err, DbError::ReadOnlySnapshot(_)), "{err}");
    }
}
