//! `XmlStore`: the user-facing API — store XML in the relational engine,
//! retrieve it with XPath/XQuery.
//!
//! Construction goes through [`StoreBuilder`]:
//!
//! ```text
//! let store = XmlStore::builder(scheme).path("db_dir").open()?;
//! ```
//!
//! and every retrieval goes through one [`QueryRequest`] pipeline:
//!
//! ```text
//! let out = store.request("/bib/book/title")
//!     .doc("bib")
//!     .explain(Explain::Analyze)
//!     .trace(&sink)
//!     .run()?;
//! ```
//!
//! The request runs parse → translate → plan → execute → publish under
//! tracing spans, bumps the `queries_total{scheme=…}` metric, and returns a
//! [`QueryOutput`] carrying the published items, the raw rows, the compiled
//! SQL, and (when asked) the [`PlanReport`] and runtime
//! [`ExecProfile`](reldb::ExecProfile).
//!
//! Every execution is also recorded in the store's query [`Ledger`]: the
//! query collapses to a fingerprint with rolling latency/row/q-error
//! stats, and an execution that crosses the ledger's latency or q-error
//! threshold leaves a forensic capture (full `EXPLAIN ANALYZE` plus the
//! trace-ring tail) readable via [`XmlStore::ledger`], the `/slow`
//! monitoring endpoint, and the `xmlrel slow` CLI.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use reldb::{CancelToken, Database, Deadline, ExecLimits, ExecProfile, Prepared, Value};
use shredder::{
    docstore, BinaryScheme, DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, MappingScheme,
    ShredStats, StorageStats, UniversalScheme,
};
use xmlpar::Document;
use xmlrel_obs::timed_lock::{TimedReadGuard, TimedRwLock, TimedWriteGuard, POISON_RECOVERIES};
use xmlrel_obs::{metrics, trace, PhaseTimings};
use xqir::parse_query;

use crate::compile::driver::{compile_query, OutKind, Translated};
use crate::compile::{
    binary::BinaryCompiler, dewey::DeweyCompiler, edge::EdgeCompiler, inline::InlineCompiler,
    interval::IntervalCompiler, universal::UniversalCompiler, StepCompiler,
};
use crate::contract::{check_contract, QueryTraits};
use crate::error::{CoreError, Result};
use crate::ledger::{fingerprint, Ledger, SlowCapture, SlowTrigger};
use crate::publish;

/// Which mapping scheme a store uses.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Edge table.
    Edge(EdgeScheme),
    /// Binary (label-partitioned).
    Binary(BinaryScheme),
    /// Universal relation.
    Universal(UniversalScheme),
    /// Interval (pre/size/level).
    Interval(IntervalScheme),
    /// Dewey order keys.
    Dewey(DeweyScheme),
    /// DTD shared inlining.
    Inline(InlineScheme),
}

impl Scheme {
    /// The scheme's name.
    pub fn name(&self) -> &'static str {
        self.ops().name()
    }

    /// Borrow as the shredder trait object.
    pub fn ops(&self) -> &dyn MappingScheme {
        match self {
            Scheme::Edge(s) => s,
            Scheme::Binary(s) => s,
            Scheme::Universal(s) => s,
            Scheme::Interval(s) => s,
            Scheme::Dewey(s) => s,
            Scheme::Inline(s) => s,
        }
    }

    pub(crate) fn compiler(&self) -> Box<dyn StepCompiler + '_> {
        match self {
            Scheme::Edge(s) => Box::new(EdgeCompiler::new(s.clone())),
            Scheme::Binary(s) => Box::new(BinaryCompiler::new(s.clone())),
            Scheme::Universal(s) => Box::new(UniversalCompiler::new(s.clone())),
            Scheme::Interval(s) => Box::new(IntervalCompiler::new(s.clone())),
            Scheme::Dewey(s) => Box::new(DeweyCompiler::new(s.clone())),
            Scheme::Inline(s) => Box::new(InlineCompiler::new(s.clone())),
        }
    }
}

/// How much plan detail a [`QueryRequest`] should gather alongside its
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Explain {
    /// Results only (the default).
    #[default]
    None,
    /// Also compile-time detail: the chosen plan, its cost breakdown, and
    /// plan-quality diagnostics ([`QueryOutput::plan`]).
    Plan,
    /// Everything `Plan` gathers plus a runtime [`ExecProfile`] with
    /// per-operator actuals ([`QueryOutput::profile`]).
    Analyze,
}

/// A query result: the published items plus everything the pipeline
/// learned on the way. Items are serialized fragments or string values, in
/// document order where the scheme guarantees one.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// One entry per result item.
    pub items: Vec<String>,
    /// The raw relational rows behind the items, after positional
    /// post-processing.
    pub rows: Vec<Vec<Value>>,
    /// The SQL the query compiled to.
    pub sql: String,
    /// Plan report, when requested via [`Explain::Plan`] or
    /// [`Explain::Analyze`].
    pub plan: Option<PlanReport>,
    /// Runtime operator profile, when requested via [`Explain::Analyze`].
    pub profile: Option<ExecProfile>,
    /// Per-phase wall-time breakdown of this execution (queue time is
    /// zero here; the serve layer fills it in for served requests).
    pub phases: PhaseTimings,
}

impl QueryOutput {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items matched.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Everything a plan verification learned about one query's chosen plan:
/// the compiled SQL, the physical plan, its cost breakdown, and any
/// plan-quality or contract findings. Obtained from
/// [`QueryRequest::report`] or carried in [`QueryOutput::plan`].
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The compiled SQL.
    pub sql: String,
    /// Rendered physical plan (EXPLAIN output).
    pub explain: String,
    /// Rendered cost breakdown, one line per plan node.
    pub cost: String,
    /// Total estimated cost of the chosen plan.
    pub total_cost: f64,
    /// Anti-pattern and contract findings (empty = plan is within contract
    /// and free of detectable planning mistakes).
    pub diagnostics: Vec<reldb::plan::Diagnostic>,
}

impl PlanReport {
    /// True when no findings were raised.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Builder for an [`XmlStore`]: pick the scheme, then optionally a durable
/// location (a directory [`path`](StoreBuilder::path) or an explicit
/// [`backend`](StoreBuilder::backend)) and scheme knobs. With neither path
/// nor backend, [`open`](StoreBuilder::open) yields an in-memory store.
pub struct StoreBuilder {
    scheme: Scheme,
    path: Option<std::path::PathBuf>,
    backend: Option<Box<dyn reldb::StorageBackend>>,
    value_index: Option<bool>,
    ledger: Option<Ledger>,
}

impl StoreBuilder {
    /// Store durably in a directory on disk: previously loaded documents
    /// are recovered from the latest snapshot plus the write-ahead log; a
    /// fresh directory gets the scheme's tables installed.
    pub fn path(mut self, path: impl Into<std::path::PathBuf>) -> StoreBuilder {
        self.path = Some(path.into());
        self
    }

    /// Store durably over an explicit storage backend (e.g. an in-memory
    /// or fault-injecting backend in tests). Mutually exclusive with
    /// [`path`](StoreBuilder::path).
    pub fn backend(mut self, backend: Box<dyn reldb::StorageBackend>) -> StoreBuilder {
        self.backend = Some(backend);
        self
    }

    /// Toggle the secondary index on the content `value` column
    /// (experiment E5's knob). Only the edge, binary, and interval schemes
    /// have the knob; [`open`](StoreBuilder::open) rejects the others.
    pub fn value_index(mut self, on: bool) -> StoreBuilder {
        self.value_index = Some(on);
        self
    }

    /// Feed this store's query ledger into an existing (shared) [`Ledger`]
    /// — e.g. one ledger across the stores of a scheme comparison, read by
    /// one monitoring endpoint. Without this, the store gets a fresh
    /// ledger with default thresholds.
    pub fn ledger(mut self, ledger: Ledger) -> StoreBuilder {
        self.ledger = Some(ledger);
        self
    }

    /// Open the store.
    pub fn open(self) -> Result<XmlStore> {
        let mut scheme = self.scheme;
        if let Some(on) = self.value_index {
            match &mut scheme {
                Scheme::Edge(s) => s.with_value_index = on,
                Scheme::Binary(s) => s.with_value_index = on,
                Scheme::Interval(s) => s.with_value_index = on,
                other => {
                    return Err(CoreError::Translate(format!(
                        "the {} scheme has no value-index knob",
                        other.name()
                    )))
                }
            }
        }
        let backend = match (self.backend, self.path) {
            (Some(_), Some(_)) => {
                return Err(CoreError::Translate(
                    "give StoreBuilder a path or a backend, not both".into(),
                ))
            }
            (Some(b), None) => Some(b),
            (None, Some(p)) => {
                Some(Box::new(reldb::FileBackend::open(p)?) as Box<dyn reldb::StorageBackend>)
            }
            (None, None) => None,
        };
        let ledger = self.ledger.unwrap_or_default();
        match backend {
            Some(b) => XmlStore::open_backend_impl(scheme, b, ledger),
            None => XmlStore::new_impl(scheme, ledger),
        }
    }
}

/// A point-in-time health snapshot of a store: liveness of the document
/// catalog plus the durability status of the underlying database.
/// Obtained from [`XmlStore::health`]; [`render`](HealthReport::render)
/// produces the `/healthz` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// True when the store can answer queries and durability is not
    /// poisoned.
    pub ok: bool,
    /// The mapping scheme's name.
    pub scheme: String,
    /// Number of loaded documents.
    pub documents: usize,
    /// Durability and catalog status of the underlying database.
    pub db: reldb::DbStatus,
    /// Process-wide count of poisoned-lock recoveries (the
    /// `lock_poison_recoveries_total` counter). Non-zero means a thread
    /// panicked while holding a lock and a later acquisition recovered —
    /// previously silent, now on every health check.
    pub poison_recoveries: u64,
}

impl HealthReport {
    /// Plain-text rendering, one `key: value` per line.
    pub fn render(&self) -> String {
        format!(
            "status: {}\nscheme: {}\ndocuments: {}\ntables: {}\ndurable: {}\n\
             snapshot_generation: {}\npoisoned: {}\nlock_poison_recoveries: {}\n",
            if self.ok { "ok" } else { "degraded" },
            self.scheme,
            self.documents,
            self.db.tables,
            self.db.durable,
            self.db.snapshot_generation,
            self.db.poisoned,
            self.poison_recoveries,
        )
    }
}

/// What taking a snapshot cost: time blocked on the database lock plus
/// time spent in the copy-on-write clone itself.
#[derive(Debug, Clone, Copy, Default)]
struct SnapTiming {
    lock_wait_us: u64,
    clone_us: u64,
}

/// An XML store: one relational database + one mapping scheme.
///
/// The store is a *handle*: clone-cheap, `Send + Sync`, and safe to share
/// across threads. The database sits behind one `RwLock`, but queries do
/// not hold it while they run — each query executes against a pinned
/// copy-on-write [`snapshot`](XmlStore::snapshot), so any number of
/// readers proceed while a writer (document load, removal, checkpoint)
/// commits through the same lock. See DESIGN.md §17.
///
/// The lock is a [`TimedRwLock`] named `db`: every acquisition feeds the
/// `lock_wait_us`/`lock_hold_us` histograms, contention counters, and
/// the writer-stall gauge (DESIGN.md §18), so the contention this design
/// trades on is measurable, not assumed.
#[derive(Clone)]
pub struct XmlStore {
    db: Arc<TimedRwLock<Database>>,
    scheme: Scheme,
    ledger: Ledger,
}

impl XmlStore {
    /// Start building a store over `scheme`. See [`StoreBuilder`].
    pub fn builder(scheme: Scheme) -> StoreBuilder {
        StoreBuilder {
            scheme,
            path: None,
            backend: None,
            value_index: None,
            ledger: None,
        }
    }

    fn new_impl(scheme: Scheme, ledger: Ledger) -> Result<XmlStore> {
        let mut db = Database::new();
        docstore::install(&mut db)?;
        scheme.ops().install(&mut db)?;
        Ok(Self::wrap(db, scheme, ledger))
    }

    /// Finish construction: wrap the database in the timed lock and
    /// pre-register the snapshot gauges so the scrape surface shows them
    /// (at zero) before the first query.
    fn wrap(db: Database, scheme: Scheme, ledger: Ledger) -> XmlStore {
        metrics::gauge_set("snapshot_epoch_lag", 0);
        XmlStore {
            db: Arc::new(TimedRwLock::new("db", db)),
            scheme,
            ledger,
        }
    }

    fn open_backend_impl(
        scheme: Scheme,
        backend: Box<dyn reldb::StorageBackend>,
        ledger: Ledger,
    ) -> Result<XmlStore> {
        let mut db = Database::open_with_backend(backend)?;
        if db.catalog.table_names().is_empty() {
            // Fresh database: create the scheme's tables (logged to the
            // WAL like any other statement). A recovered database already
            // has them.
            docstore::install(&mut db)?;
            scheme.ops().install(&mut db)?;
        }
        Ok(Self::wrap(db, scheme, ledger))
    }

    /// Take the database lock for reading. The timed wrapper records
    /// wait/hold time and recovers (and counts) poisoning: a reader that
    /// panicked cannot have left the database inconsistent.
    fn db_read(&self) -> TimedReadGuard<'_, Database> {
        self.db.read()
    }

    /// Take the database lock for writing. Poisoning is recovered (and
    /// counted) in the wrapper: the database's own durability poisoning
    /// (tracked inside [`Database`]) is the real write-safety interlock,
    /// and it survives a panicking thread where the lock's poison flag
    /// would merely wedge every future caller.
    fn db_write(&self) -> TimedWriteGuard<'_, Database> {
        self.db.write()
    }

    /// A read-only point-in-time snapshot of the underlying database.
    ///
    /// Cheap (the lock is held only long enough to Arc-bump the table map
    /// — see [`Database::snapshot`]), and the returned handle keeps
    /// answering at its epoch no matter what later commits do. Every
    /// [`QueryRequest`] runs against one of these, never against the
    /// locked database itself.
    pub fn snapshot(&self) -> Database {
        self.snapshot_timed().0
    }

    /// [`snapshot`](XmlStore::snapshot) plus what it cost: lock wait and
    /// clone duration, with the `snapshot_clone_us` histogram and the
    /// `snapshot_tables` size gauge fed on the way.
    fn snapshot_timed(&self) -> (Database, SnapTiming) {
        let guard = self.db_read();
        let lock_wait_us = guard.wait_us();
        let started = Instant::now();
        let snap = guard.snapshot();
        drop(guard);
        let clone_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics::observe_us("snapshot_clone_us", clone_us);
        metrics::gauge_set("snapshot_tables", snap.catalog.table_names().len() as i64);
        (
            snap,
            SnapTiming {
                lock_wait_us,
                clone_us,
            },
        )
    }

    /// The store's current commit epoch (bumped once per committed
    /// mutation).
    pub fn epoch(&self) -> u64 {
        self.db_read().epoch()
    }

    /// Run `f` with shared read access to the underlying database (for
    /// EXPLAIN, storage accounting, the benchmark harness). Do not call
    /// other store methods from inside `f`; for anything long-running,
    /// take a [`snapshot`](XmlStore::snapshot) instead.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db_read())
    }

    /// Run `f` with exclusive access to the underlying database (knob
    /// tweaks, direct updates). Blocks new snapshots — keep `f` short,
    /// and do not call other store methods from inside it.
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db_write())
    }

    /// A handle on this store's query ledger: per-fingerprint rolling
    /// stats and the slow-query capture ring. The handle is clone-cheap
    /// and thread-safe, so a monitoring endpoint can read it while the
    /// store keeps executing.
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// Configure an HTTP monitoring/query endpoint for this store. The
    /// builder clones the handle, so the server's per-connection worker
    /// threads answer `POST /query` directly against snapshot reads
    /// while this handle keeps loading documents:
    ///
    /// ```no_run
    /// # use xmlrel_core::{Scheme, XmlStore};
    /// # use shredder::IntervalScheme;
    /// # let store = XmlStore::builder(Scheme::Interval(IntervalScheme::new())).open().unwrap();
    /// let handle = store.serve().addr("127.0.0.1:0").max_inflight(8).start().unwrap();
    /// ```
    pub fn serve(&self) -> crate::serve::ServerBuilder {
        crate::serve::ServerBuilder::new(self.clone())
    }

    /// A point-in-time health snapshot: `/healthz` material.
    pub fn health(&self) -> HealthReport {
        let db = self.db_read();
        let status = db.status();
        let documents = Self::documents_in(&db);
        HealthReport {
            ok: !status.poisoned && documents.is_ok(),
            scheme: self.scheme.name().to_string(),
            documents: documents.map(|d| d.len()).unwrap_or(0),
            db: status,
            poison_recoveries: metrics::counter_value(POISON_RECOVERIES),
        }
    }

    /// Checkpoint the store: serialize all tables to a new snapshot and
    /// truncate the write-ahead log. No-op for in-memory stores.
    pub fn persist(&mut self) -> Result<()> {
        self.db_write().checkpoint()?;
        Ok(())
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Parse and store a document under `name`; returns (doc id, stats).
    pub fn load_str(&mut self, name: &str, xml: &str) -> Result<(i64, ShredStats)> {
        let doc = {
            let _span = trace::span("xml.parse", "core");
            Document::parse(xml)?
        };
        self.load_document(name, &doc)
    }

    /// Store an already-parsed document. The write lock is held for the
    /// whole shred, so the load commits as one epoch step — snapshot
    /// readers see the document fully loaded or not at all.
    pub fn load_document(&mut self, name: &str, doc: &Document) -> Result<(i64, ShredStats)> {
        let _span = trace::span("shred", "core");
        let (id, stats) = {
            let mut db = self.db_write();
            if docstore::lookup(&db, name)?.is_some() {
                return Err(CoreError::Translate(format!(
                    "document {name:?} already loaded"
                )));
            }
            let id = docstore::register(&mut db, name)?;
            let stats = self.scheme.ops().shred(&mut db, id, doc)?;
            (id, stats)
        };
        metrics::counter_inc(&metrics::labelled(
            "documents_loaded_total",
            "scheme",
            self.scheme.name(),
        ));
        Ok((id, stats))
    }

    fn doc_id_in(db: &Database, name: &str) -> Result<i64> {
        docstore::lookup(db, name)?.ok_or_else(|| CoreError::NoSuchDocument(name.to_string()))
    }

    /// Document id by name.
    pub fn doc_id(&self, name: &str) -> Result<i64> {
        Self::doc_id_in(&self.db_read(), name)
    }

    /// Remove a document.
    pub fn remove(&mut self, name: &str) -> Result<usize> {
        let mut db = self.db_write();
        let id = Self::doc_id_in(&db, name)?;
        let n = self.scheme.ops().delete_document(&mut db, id)?;
        docstore::unregister(&mut db, id)?;
        Ok(n)
    }

    /// Reconstruct a whole document as XML text.
    pub fn reconstruct(&self, name: &str) -> Result<String> {
        let db = self.snapshot();
        let id = Self::doc_id_in(&db, name)?;
        let doc = self.scheme.ops().reconstruct(&db, id)?;
        Ok(xmlpar::serialize::to_string(&doc))
    }

    /// Begin a query request. Finish it with [`QueryRequest::run`],
    /// [`QueryRequest::count`], [`QueryRequest::rows`],
    /// [`QueryRequest::translated`], or [`QueryRequest::report`].
    ///
    /// The request captures a copy-on-write snapshot of the store as it is
    /// *now*; [`QueryRequest::snapshot`] pins the whole pipeline to it.
    pub fn request<'a>(&'a self, query: &'a str) -> QueryRequest<'a> {
        let (snap, snap_timing) = self.snapshot_timed();
        QueryRequest {
            store: self,
            snap,
            snap_timing,
            pinned: false,
            query,
            doc: None,
            explain: Explain::None,
            sink: None,
            deadline: None,
            cancel: None,
            request_id: None,
        }
    }

    /// Per-request execution limits: the store's configured limits with
    /// this request's deadline and cancel token merged in. When both the
    /// store and the request carry a deadline, the tighter one wins.
    fn request_limits(
        db: &Database,
        deadline: Option<Deadline>,
        cancel: Option<CancelToken>,
    ) -> ExecLimits {
        let mut limits = db.limits.clone();
        limits.deadline = match (deadline, limits.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if cancel.is_some() {
            limits.cancel = cancel;
        }
        limits
    }

    /// Phase-boundary deadline/cancel check: a trip outside the executor
    /// (translate, publish) is still a failed execution, so it lands in
    /// the ledger with its diagnostic like any operator-level trip.
    fn poll_phase(&self, limits: &ExecLimits, op: &str, query: &str) -> Result<()> {
        if let Err(e) = limits.poll(op) {
            self.ledger.observe_error(query, &e.to_string());
            return Err(e.into());
        }
        Ok(())
    }

    /// Translate, scoped to one document when `doc` is given. A
    /// statically-empty result compiles to the `SELECT NULL LIMIT 0` stub.
    fn translate_impl(
        &self,
        db: &Database,
        query_text: &str,
        doc: Option<&str>,
    ) -> Result<Translated> {
        let _span = trace::span("translate", "core");
        let doc_id = match doc {
            Some(name) => Some(Self::doc_id_in(db, name)?),
            None => None,
        };
        let query = {
            let _span = trace::span("xq.parse", "core");
            parse_query(query_text)?
        };
        let compiler = self.scheme.compiler();
        let t = match compile_query(compiler.as_ref(), db, &query, doc_id) {
            Err(CoreError::EmptyResult) => Translated {
                sql: "SELECT NULL LIMIT 0".into(),
                out: OutKind::Values { col: 0 },
                key_width: compiler.key_width(),
                positional: None,
            },
            other => other?,
        };
        self.debug_verify(db, &t)?;
        Ok(t)
    }

    /// Execute translated SQL and apply positional post-processing. With
    /// `analyze`, also collect the runtime operator profile. Every
    /// execution — success or failure — is recorded in the store's query
    /// ledger; a threshold-crossing one leaves a forensic capture.
    fn fetch(
        &self,
        db: &Database,
        query_text: &str,
        t: &Translated,
        analyze: bool,
        limits: &ExecLimits,
        request_id: Option<&str>,
    ) -> Result<(Vec<Vec<Value>>, Option<ExecProfile>)> {
        metrics::counter_inc(&metrics::labelled(
            "queries_total",
            "scheme",
            self.scheme.name(),
        ));
        let _span = trace::span("execute", "sql");
        let started = std::time::Instant::now();
        let mut raw = Vec::new();
        let fetched = db.prepare(&t.sql).and_then(|prepared| {
            let (rows, profile) = prepared.run(limits, analyze, |row| {
                raw.push(row);
                Ok(())
            });
            rows.map(|_| (prepared, profile))
        });
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics::observe_us(
            &metrics::labelled("query_wall_us", "scheme", self.scheme.name()),
            wall_us,
        );
        let (prepared, profile) = match fetched {
            Ok(v) => v,
            Err(e) => {
                // The ledger keeps the diagnostic: for deadline or
                // cancellation trips it names the operator that observed
                // the trip.
                self.ledger
                    .observe_error_with_id(query_text, &e.to_string(), request_id);
                return Err(e.into());
            }
        };
        let q_error = profile.as_ref().map(|p| p.rollup().max_q_error);
        if let Some(trigger) =
            self.ledger
                .observe_with_id(query_text, wall_us, raw.len() as u64, q_error, request_id)
        {
            self.capture_forensics(
                &prepared,
                limits,
                query_text,
                t,
                wall_us,
                raw.len() as u64,
                q_error,
                profile.as_ref(),
                trigger,
                request_id,
            );
        }
        Ok((apply_positional(t, raw), profile))
    }

    /// Assemble and store the forensic record for a threshold-crossing
    /// execution: the full `EXPLAIN ANALYZE` render (re-running the
    /// prepared plan under the profiler and the request's `limits` when
    /// the offending run was unprofiled — the snapshot is still there, so
    /// the re-run sees the same plan and cardinalities) plus the tail of
    /// the installed trace ring.
    #[allow(clippy::too_many_arguments)]
    fn capture_forensics(
        &self,
        prepared: &Prepared<'_>,
        limits: &ExecLimits,
        query_text: &str,
        t: &Translated,
        wall_us: u64,
        rows: u64,
        q_error: Option<f64>,
        profile: Option<&ExecProfile>,
        trigger: SlowTrigger,
        request_id: Option<&str>,
    ) {
        let config = self.ledger.config();
        let (rendered, q_error) = match profile {
            Some(p) => (Some(p.render(true)), q_error),
            None => match prepared.run(limits, true, |_| Ok(())) {
                (Ok(_), Some(p)) => (Some(p.render(true)), Some(p.rollup().max_q_error)),
                // A tripped re-run renders its partial profile and the
                // error, the way EXPLAIN ANALYZE does.
                (Err(e), Some(p)) => (Some(format!("{}error: {e}\n", p.render(true))), q_error),
                (_, None) => (None, q_error),
            },
        };
        let explain_analyze = match rendered {
            Some(r) => format!("sql: {}\n{r}", t.sql),
            None => format!(
                "sql: {}\n(profile unavailable: re-execution failed)\n",
                t.sql
            ),
        };
        let trace_tail = trace::current()
            .map(|s| s.tail(config.trace_tail))
            .unwrap_or_default();
        self.ledger.capture(SlowCapture {
            seq: 0,
            fingerprint: fingerprint(query_text),
            query: query_text.to_string(),
            scheme: self.scheme.name().to_string(),
            wall_us,
            rows,
            q_error: q_error.unwrap_or(1.0),
            trigger,
            explain_analyze,
            trace_tail,
            request_id: request_id.unwrap_or_default().to_string(),
        });
    }

    /// Statically validate a compiled query string against the catalog this
    /// store's shredder actually created: re-parse it with the SQL parser,
    /// bind it, and run the plan validator over the bound, optimized, and
    /// physical plans. Returns every diagnostic found (empty = clean).
    pub fn verify_sql(&self, sql: &str) -> Result<Vec<reldb::plan::Diagnostic>> {
        Self::verify_sql_in(&self.db_read(), sql)
    }

    fn verify_sql_in(db: &Database, sql: &str) -> Result<Vec<reldb::plan::Diagnostic>> {
        use reldb::plan::{
            bind_select, optimize, plan_physical, validate_logical, validate_physical,
        };
        use reldb::sql::parser::parse_statement;
        use reldb::sql::Statement;
        let stmt = parse_statement(sql).map_err(CoreError::Db)?;
        let Statement::Select(sel) = stmt else {
            return Err(CoreError::Translate(format!(
                "compiled query is not a SELECT: {sql}"
            )));
        };
        let catalog = &db.catalog;
        let bound = bind_select(catalog, &sel).map_err(CoreError::Db)?;
        // Comma-join SQL binds as condition-less joins under one filter;
        // predicate pushdown rewrites that into conditioned joins. Style
        // lints (e.g. cartesian-product) are therefore only meaningful on
        // the optimized plan — keep just type errors from the bound one.
        let mut diags: Vec<reldb::plan::Diagnostic> = validate_logical(catalog, &bound)
            .into_iter()
            .filter(|d| d.severity == reldb::plan::Severity::Error)
            .collect();
        let optimized = optimize(bound, &db.optimizer, catalog);
        diags.extend(validate_logical(catalog, &optimized));
        let physical = plan_physical(catalog, &optimized, &db.physical).map_err(CoreError::Db)?;
        diags.extend(validate_physical(catalog, &physical));
        diags.dedup();
        Ok(diags)
    }

    fn verify_translated(
        &self,
        db: &Database,
        query_text: &str,
        t: &Translated,
    ) -> Result<PlanReport> {
        use reldb::plan::{analyze_physical, cost, explain_physical, AnalyzerOptions};

        let _span = trace::span("plan.verify", "core");

        // A statically-empty result compiles to the `SELECT NULL LIMIT 0`
        // stub; there is no access path to check.
        if t.sql == "SELECT NULL LIMIT 0" {
            return Ok(PlanReport {
                sql: t.sql.clone(),
                explain: "Values (empty)".into(),
                cost: String::new(),
                total_cost: 0.0,
                diagnostics: Vec::new(),
            });
        }

        let prepared = db.prepare(&t.sql)?;
        let physical = prepared.physical();
        let catalog = &db.catalog;
        let mut diagnostics = analyze_physical(catalog, physical, &AnalyzerOptions::default());
        let query = parse_query(query_text)?;
        let traits = QueryTraits::of(&query);
        let contract = self.scheme.compiler().contract();
        diagnostics.extend(check_contract(&contract, &traits, db, physical));

        let report = cost::report_physical(catalog, physical);
        Ok(PlanReport {
            sql: t.sql.clone(),
            explain: explain_physical(physical),
            cost: report.render(),
            total_cost: report.total(),
            diagnostics,
        })
    }

    /// Debug-build hook: every query string a scheme compiler emits must
    /// re-parse and validate against the live catalog, so the whole test
    /// suite doubles as a static check over all six compile backends.
    #[cfg(debug_assertions)]
    fn debug_verify(&self, db: &Database, t: &Translated) -> Result<()> {
        let diags = Self::verify_sql_in(db, &t.sql)?;
        if let Some(d) = diags
            .iter()
            .find(|d| d.severity == reldb::plan::Severity::Error)
        {
            return Err(CoreError::Translate(format!(
                "scheme {:?} compiled SQL that fails validation: {d}; sql: {}",
                self.scheme.name(),
                t.sql
            )));
        }
        Ok(())
    }

    #[cfg(not(debug_assertions))]
    fn debug_verify(&self, _db: &Database, _t: &Translated) -> Result<()> {
        Ok(())
    }

    /// Storage accounting for the scheme's tables.
    pub fn storage_stats(&self) -> StorageStats {
        self.scheme.ops().storage_stats(&self.db_read())
    }

    /// Number of joins in the translated SQL's logical plan (experiment
    /// E6's metric).
    pub fn join_count(&self, query_text: &str) -> Result<usize> {
        let db = self.snapshot();
        let joins = self
            .translate_impl(&db, query_text, None)
            .and_then(|t| Ok(db.prepare(&t.sql)?.logical().join_count()));
        joins
    }

    fn documents_in(db: &Database) -> Result<Vec<(i64, String)>> {
        Ok(docstore::list(db)?
            .into_iter()
            .map(|d| (d.id, d.name))
            .collect())
    }

    /// List loaded documents.
    pub fn documents(&self) -> Result<Vec<(i64, String)>> {
        Self::documents_in(&self.db_read())
    }
}

/// One query, being configured: scope it with [`doc`](QueryRequest::doc),
/// pick detail with [`explain`](QueryRequest::explain), attach a trace
/// sink with [`trace`](QueryRequest::trace), pin consistency with
/// [`snapshot`](QueryRequest::snapshot), then finish with one of the
/// terminal methods. Created by [`XmlStore::request`].
pub struct QueryRequest<'a> {
    store: &'a XmlStore,
    /// Copy-on-write snapshot captured when the builder was created.
    snap: Database,
    /// What capturing that snapshot cost (lock wait + clone).
    snap_timing: SnapTiming,
    pinned: bool,
    query: &'a str,
    doc: Option<&'a str>,
    explain: Explain,
    sink: Option<&'a trace::TraceSink>,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    request_id: Option<String>,
}

impl<'a> QueryRequest<'a> {
    /// Scope the query to one loaded document.
    pub fn doc(mut self, name: &'a str) -> QueryRequest<'a> {
        self.doc = Some(name);
        self
    }

    /// Pin the whole pipeline — translate, execute, publish — to the
    /// copy-on-write snapshot captured when this builder was created, so
    /// a writer committing mid-request can never tear the result.
    ///
    /// This is the consistency mode served queries run under (the
    /// [`ServerBuilder`](crate::serve::ServerBuilder) endpoint pins every
    /// request). Without it, a terminal method reads the store's latest
    /// state at the moment it starts — still a single consistent epoch,
    /// just a fresher one.
    pub fn snapshot(mut self) -> QueryRequest<'a> {
        self.pinned = true;
        self
    }

    /// Gather plan detail alongside the results (see [`Explain`]).
    pub fn explain(mut self, mode: Explain) -> QueryRequest<'a> {
        self.explain = mode;
        self
    }

    /// Record tracing spans for this request into `sink`.
    pub fn trace(mut self, sink: &'a trace::TraceSink) -> QueryRequest<'a> {
        self.sink = Some(sink);
        self
    }

    /// Give this request a wall-clock budget, counted from now. The
    /// pipeline checks it at phase boundaries and the executor polls it
    /// inside every blocking operator loop; a trip surfaces as
    /// [`reldb::DbError::DeadlineExceeded`] naming the tripping operator.
    pub fn timeout_ms(mut self, ms: u64) -> QueryRequest<'a> {
        self.deadline = Some(Deadline::after_millis(ms));
        self
    }

    /// Give this request an absolute deadline. When the store's own
    /// limits also carry one, the tighter deadline wins.
    pub fn deadline(mut self, deadline: Deadline) -> QueryRequest<'a> {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token: cancelling it from any thread makes
    /// the request fail promptly with [`reldb::DbError::Cancelled`].
    pub fn cancel(mut self, token: &CancelToken) -> QueryRequest<'a> {
        self.cancel = Some(token.clone());
        self
    }

    /// Correlate this request with a serve-layer request ID: the
    /// `store.query` span is suffixed with it, and the ledger row (and
    /// any slow capture) record it, so an `X-Request-Id` response header
    /// greps straight to the request's evidence.
    pub fn request_id(mut self, id: &str) -> QueryRequest<'a> {
        self.request_id = Some(id.to_string());
        self
    }

    /// Translate, execute, and publish; the [`QueryOutput`] carries
    /// whatever extra detail [`explain`](QueryRequest::explain) asked for.
    pub fn run(self) -> Result<QueryOutput> {
        let QueryRequest {
            store,
            snap,
            snap_timing,
            pinned,
            query,
            doc,
            explain,
            sink,
            deadline,
            cancel,
            request_id,
        } = self;
        let _guard = sink.map(trace::install);
        let span_name: std::borrow::Cow<'static, str> = match &request_id {
            Some(id) => format!("store.query#{id}").into(),
            None => "store.query".into(),
        };
        let _span = trace::span(span_name, "core");
        let mut phases = PhaseTimings::default();
        let db = if pinned {
            // Pinned requests serve a snapshot taken earlier; record how
            // far behind the current commit epoch it is by now.
            let lag = store.epoch().saturating_sub(snap.epoch());
            metrics::gauge_set("snapshot_epoch_lag", lag as i64);
            phases.lock_wait_us = snap_timing.lock_wait_us;
            phases.snapshot_clone_us = snap_timing.clone_us;
            snap
        } else {
            let (fresh, timing) = store.snapshot_timed();
            metrics::gauge_set("snapshot_epoch_lag", 0);
            phases.lock_wait_us = timing.lock_wait_us;
            phases.snapshot_clone_us = timing.clone_us;
            fresh
        };
        let limits = XmlStore::request_limits(&db, deadline, cancel);
        store.poll_phase(&limits, "translate", query)?;
        let translate_started = Instant::now();
        let t = store.translate_impl(&db, query, doc)?;
        let plan = match explain {
            Explain::None => None,
            Explain::Plan | Explain::Analyze => Some(store.verify_translated(&db, query, &t)?),
        };
        phases.translate_us = elapsed_us(translate_started);
        let execute_started = Instant::now();
        let (rows, profile) = store.fetch(
            &db,
            query,
            &t,
            explain == Explain::Analyze,
            &limits,
            request_id.as_deref(),
        )?;
        phases.execute_us = elapsed_us(execute_started);
        store.poll_phase(&limits, "publish", query)?;
        let publish_started = Instant::now();
        let items = {
            let _span = trace::span("publish", "core");
            publish::publish_rows(&store.scheme, &db, &limits, &t, &rows)?
        };
        phases.publish_us = elapsed_us(publish_started);
        Ok(QueryOutput {
            items,
            rows,
            sql: t.sql,
            plan,
            profile,
            phases,
        })
    }

    /// Number of matches without publishing. Consistent with
    /// [`QueryRequest::run`]: for value results, NULLs (absent attributes
    /// / empty text) do not count.
    pub fn count(self) -> Result<usize> {
        let QueryRequest {
            store,
            snap,
            pinned,
            query,
            doc,
            sink,
            deadline,
            cancel,
            request_id,
            ..
        } = self;
        let _guard = sink.map(trace::install);
        let _span = trace::span("store.query_count", "core");
        let db = if pinned { snap } else { store.snapshot() };
        let limits = XmlStore::request_limits(&db, deadline, cancel);
        store.poll_phase(&limits, "translate", query)?;
        let t = store.translate_impl(&db, query, doc)?;
        let (rows, _) = store.fetch(&db, query, &t, false, &limits, request_id.as_deref())?;
        Ok(match &t.out {
            OutKind::Values { col } => rows.iter().filter(|r| !r[*col].is_null()).count(),
            _ => rows.len(),
        })
    }

    /// Execute and return the raw relational rows after positional
    /// post-processing, skipping XML publishing.
    pub fn rows(self) -> Result<Vec<Vec<Value>>> {
        let QueryRequest {
            store,
            snap,
            pinned,
            query,
            doc,
            sink,
            deadline,
            cancel,
            request_id,
            ..
        } = self;
        let _guard = sink.map(trace::install);
        let _span = trace::span("store.query_rows", "core");
        let db = if pinned { snap } else { store.snapshot() };
        let limits = XmlStore::request_limits(&db, deadline, cancel);
        store.poll_phase(&limits, "translate", query)?;
        let t = store.translate_impl(&db, query, doc)?;
        Ok(store
            .fetch(&db, query, &t, false, &limits, request_id.as_deref())?
            .0)
    }

    /// Translate to SQL without executing.
    pub fn translated(self) -> Result<Translated> {
        let QueryRequest {
            store,
            snap,
            pinned,
            query,
            doc,
            sink,
            ..
        } = self;
        let _guard = sink.map(trace::install);
        let _span = trace::span("store.translate", "core");
        let db = if pinned { snap } else { store.snapshot() };
        store.translate_impl(&db, query, doc)
    }

    /// Compile the query and check the physical plan the optimizer chose
    /// against this scheme's access-path contract plus the generic
    /// plan-quality analyzer, without executing. Returns a [`PlanReport`]
    /// with the rendered plan, its cost breakdown, and every finding
    /// (empty diagnostics = the optimizer delivered all the access paths
    /// the scheme promises).
    pub fn report(self) -> Result<PlanReport> {
        let QueryRequest {
            store,
            snap,
            pinned,
            query,
            doc,
            sink,
            ..
        } = self;
        let _guard = sink.map(trace::install);
        let _span = trace::span("store.report", "core");
        let db = if pinned { snap } else { store.snapshot() };
        let t = store.translate_impl(&db, query, doc)?;
        store.verify_translated(&db, query, &t)
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Positional predicate post-processing: per parent, rank the DISTINCT
/// sibling-order values and keep every row whose anchor node is the n-th
/// sibling. (The anchor step may be an interior step, so several result
/// rows can share one anchor node.)
fn apply_positional(t: &Translated, rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let Some(p) = t.positional else {
        return rows;
    };
    let mut groups: HashMap<String, Vec<Vec<Value>>> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for row in rows {
        let parent = row[p.parent_col].to_string();
        if !groups.contains_key(&parent) {
            order.push(parent.clone());
        }
        groups.entry(parent).or_default().push(row);
    }
    let mut kept = Vec::new();
    for parent in order {
        let Some(g) = groups.remove(&parent) else {
            continue;
        };
        let mut distinct: Vec<&Value> = g.iter().map(|r| &r[p.order_col]).collect();
        distinct.sort();
        distinct.dedup();
        let idx = (p.n as usize).saturating_sub(1);
        let Some(target) = distinct.get(idx) else {
            continue;
        };
        let target = (*target).clone();
        for row in g {
            if row[p.order_col] == target {
                kept.push(row);
            }
        }
    }
    kept
}
