//! `reldb` — an embedded, in-memory relational database engine.
//!
//! This crate is the RDBMS substrate for the `xmlrel` workspace. It stands
//! in for the commercial relational back end the tutorial assumes: the
//! shredded XML relations, indexes, and the SQL produced by the
//! XPath-to-SQL translator all execute here.
//!
//! Features: a SQL subset (`CREATE TABLE/INDEX`, `INSERT`, `SELECT` with
//! joins / grouping / ordering / `UNION ALL`, `DELETE`, `UPDATE`), a
//! from-scratch B+-tree for primary and secondary indexes, a volcano-style
//! executor, and a heuristic optimizer (predicate pushdown, join
//! reordering, index selection, hash / index-nested-loop / structural
//! join choice).
//!
//! # Example
//!
//! ```
//! use reldb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT);
//!      INSERT INTO emp VALUES (1, 'ada', 120), (2, 'bob', 90);",
//! ).unwrap();
//! let q = db.query("SELECT name FROM emp WHERE salary > 100").unwrap();
//! assert_eq!(q.rows, vec![vec![Value::text("ada")]]);
//!
//! // Or plan once, then stream rows under per-call limits, profiled.
//! let prepared = db.prepare("SELECT name FROM emp").unwrap();
//! let (n, profile) = prepared.run(&db.limits, true, |_row| Ok(()));
//! assert_eq!((n.unwrap(), profile.unwrap().stats.rows_out), (2, 2));
//! ```

#![warn(missing_docs)]

pub mod btree;
pub mod catalog;
pub(crate) mod codec;
pub mod db;
pub mod error;
pub mod exec;
pub mod plan;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod table;
pub mod value;
pub mod wal;

pub use db::{Database, DbStatus, ExecResult, Prepared, QueryResult, RetryPolicy};
pub use error::{DbError, Result};
pub use exec::{CancelToken, Deadline, ExecLimits, ExecProfile, OpStats, ProfileRollup};
pub use schema::{Column, Schema};
pub use storage::{
    FaultBackend, FaultPlan, FileBackend, MemBackend, SharedFiles, SlowBackend, StorageBackend,
};
pub use value::{row_int, row_text, row_val, DataType, Row, Value};
