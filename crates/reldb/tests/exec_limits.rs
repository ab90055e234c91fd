//! Execution resource guards: `max_rows` bounds result size and
//! `max_intermediate_rows` bounds what blocking operators may buffer.

use reldb::{Database, DbError, ExecLimits, Value};

fn filled_db(n: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        .unwrap();
    for i in 0..n {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 3))
            .unwrap();
    }
    db
}

fn assert_exhausted(r: reldb::Result<reldb::QueryResult>) {
    match r {
        Err(DbError::ResourceExhausted(_)) => {}
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

/// The query trips the intermediate-row cap in the named operator.
fn assert_exhausted_in(r: reldb::Result<reldb::QueryResult>, op: &str) {
    match r {
        Err(DbError::ResourceExhausted(m)) if m.starts_with(op) => {}
        other => panic!("expected ResourceExhausted in {op}, got {other:?}"),
    }
}

#[test]
fn max_rows_bounds_result_size() {
    let mut db = filled_db(20);
    db.limits = ExecLimits {
        max_rows: Some(10),
        ..ExecLimits::default()
    };
    assert_exhausted(db.query("SELECT id FROM t"));
    // At the limit is fine; the guard fires only past it.
    db.limits.max_rows = Some(20);
    assert_eq!(db.query("SELECT id FROM t").unwrap().rows.len(), 20);
}

#[test]
fn max_intermediate_rows_bounds_blocking_operators() {
    let mut db = filled_db(20);
    db.limits = ExecLimits {
        max_intermediate_rows: Some(5),
        ..ExecLimits::default()
    };
    // Sort buffers all input.
    assert_exhausted(db.query("SELECT id FROM t ORDER BY grp, id"));
    // Distinct tracks every seen row.
    assert_exhausted(db.query("SELECT DISTINCT id FROM t"));
    // Hash join materializes its build side.
    assert_exhausted(db.query("SELECT a.id FROM t a JOIN t b ON a.grp = b.grp WHERE a.id < 100"));
    // An aggregate buffers nothing: one row out of twenty in.
    let q = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(q.rows.len(), 1);
    // Lifting the cap restores all queries.
    db.limits = ExecLimits::default();
    assert_eq!(
        db.query("SELECT id FROM t ORDER BY id").unwrap().rows.len(),
        20
    );
}

#[test]
fn max_intermediate_rows_bounds_join_inner_sides() {
    let mut db = filled_db(20);
    db.execute("CREATE TABLE u (pre INT, size INT)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO u VALUES ({i}, {})", 19 - i))
            .unwrap();
    }
    let nested = "SELECT COUNT(*) FROM t a, t b";
    let interval = "SELECT COUNT(*) FROM u a, u d \
                    WHERE a.pre = 0 AND d.pre > a.pre AND d.pre <= a.pre + a.size";
    // Under the default limits both run: 20 x 20 pairs, 19 descendants.
    assert_eq!(db.query(nested).unwrap().scalar(), Some(&Value::Int(400)));
    assert_eq!(db.query(interval).unwrap().scalar(), Some(&Value::Int(19)));

    db.limits = ExecLimits {
        max_intermediate_rows: Some(5),
        ..ExecLimits::default()
    };
    // A cross join loops over a materialized inner side.
    assert_exhausted_in(db.query(nested), "NestedLoopJoin inner");
    // A structural join sorts its whole inner side before probing.
    assert_exhausted_in(db.query(interval), "IntervalJoin inner");
}
