//! Cooperative cancellation and wall-clock deadlines: queries past their
//! budget fail promptly with a typed error naming the tripping operator,
//! and transient storage faults are absorbed by the WAL retry policy.

use std::time::{Duration, Instant};

use reldb::{
    CancelToken, Database, DbError, Deadline, ExecLimits, FaultBackend, FaultPlan, RetryPolicy,
    SharedFiles,
};

fn faulty_db(plan: FaultPlan) -> Database {
    Database::open_with_backend(Box::new(FaultBackend::over(SharedFiles::new(), plan))).unwrap()
}

fn filled_db(n: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        .unwrap();
    for i in 0..n {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7))
            .unwrap();
    }
    db
}

/// Stream `sql` under per-call `limits`, discarding the rows.
fn run(db: &Database, sql: &str, limits: &ExecLimits) -> reldb::Result<usize> {
    db.prepare(sql)?.run(limits, false, |_| Ok(())).0
}

#[test]
fn expired_deadline_trips_before_any_row() {
    let db = filled_db(50);
    let limits = ExecLimits {
        deadline: Some(Deadline::after_millis(0)),
        ..ExecLimits::default()
    };
    std::thread::sleep(Duration::from_millis(2));
    let err = run(&db, "SELECT id FROM t", &limits).unwrap_err();
    match &err {
        DbError::DeadlineExceeded(m) => {
            assert!(
                !m.is_empty(),
                "the deadline error must name the tripping operator"
            )
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn deadline_trip_stays_within_twice_the_budget() {
    // A cross-product over a few hundred rows takes long enough that a
    // 20ms budget trips mid-execution; the strided poll must surface the
    // trip well before the query would naturally finish.
    let mut db = Database::new();
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..400 {
        db.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 5))
            .unwrap();
    }
    let budget = Duration::from_millis(20);
    let limits = ExecLimits {
        deadline: Some(Deadline::after(budget)),
        ..ExecLimits::default()
    };
    let started = Instant::now();
    let r = run(
        &db,
        "SELECT a.id FROM big a JOIN big b ON a.v = b.v JOIN big c ON b.v = c.v",
        &limits,
    );
    let elapsed = started.elapsed();
    match r {
        Err(DbError::DeadlineExceeded(_)) => {
            assert!(
                elapsed < budget * 4,
                "trip took {elapsed:?}, far beyond the {budget:?} budget"
            );
        }
        Ok(_) => {
            // The machine raced through the whole join under 20ms; that
            // is a pass for promptness, vacuously.
        }
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_fails_immediately() {
    let db = filled_db(10);
    let token = CancelToken::new();
    token.cancel();
    let limits = ExecLimits {
        cancel: Some(token),
        ..ExecLimits::default()
    };
    let err = run(&db, "SELECT id FROM t ORDER BY grp, id", &limits).unwrap_err();
    match err {
        DbError::Cancelled(m) => assert!(!m.is_empty()),
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn cancel_from_another_thread_stops_a_running_query() {
    let mut db = Database::new();
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..400 {
        db.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 5))
            .unwrap();
    }
    let token = CancelToken::new();
    let limits = ExecLimits {
        cancel: Some(token.clone()),
        ..ExecLimits::default()
    };
    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
        })
    };
    let r = run(
        &db,
        "SELECT a.id FROM big a JOIN big b ON a.v = b.v JOIN big c ON b.v = c.v",
        &limits,
    );
    killer.join().unwrap();
    match r {
        Err(DbError::Cancelled(_)) => {}
        Ok(_) => {} // finished before the killer fired; nothing to assert
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn deadline_error_names_the_operator_in_the_message() {
    let db = filled_db(50);
    let limits = ExecLimits {
        deadline: Some(Deadline::at(Instant::now() - Duration::from_millis(1))),
        ..ExecLimits::default()
    };
    let err = run(&db, "SELECT id FROM t", &limits).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("deadline"),
        "error message should mention the deadline: {msg}"
    );
}

// ---- WAL retry policy over transient storage faults ----

#[test]
fn transient_fsync_faults_are_retried_and_commit_succeeds() {
    let mut db = faulty_db(FaultPlan::transient_sync(2));
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    // Two injected fsync failures, three attempts by default: recovered.
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(!db.status().poisoned);
    assert_eq!(db.query("SELECT id FROM t").unwrap().rows.len(), 1);
}

#[test]
fn retries_exhausted_still_poisons() {
    let mut db = faulty_db(FaultPlan::transient_sync(10));
    db.retry = RetryPolicy {
        attempts: 2,
        backoff_ms: 0,
    };
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap_err();
    assert!(db.status().poisoned);
}

#[test]
fn single_attempt_policy_disables_retry() {
    let mut db = faulty_db(FaultPlan::transient_sync(1));
    db.retry = RetryPolicy {
        attempts: 1,
        backoff_ms: 0,
    };
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap_err();
    assert!(db.status().poisoned);
}

#[test]
fn transient_write_fault_during_checkpoint_is_retried() {
    // `write` is used only by the snapshot path (the WAL appends), so
    // these faults strike the checkpoint — which retries and recovers.
    let mut db = faulty_db(FaultPlan::transient_write(2));
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.checkpoint().unwrap();
    assert!(!db.status().poisoned);
    assert_eq!(db.query("SELECT id FROM t").unwrap().rows.len(), 1);
}
