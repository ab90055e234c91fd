//! Executor edge cases: empty inputs, NULL handling in every operator,
//! LIMIT/OFFSET boundaries, and operator-choice agreement.

use reldb::{Database, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (k INT, v TEXT);
         INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'b'), (4, 'a'), (NULL, 'c');",
    )
    .unwrap();
    db
}

#[test]
fn limit_offset_boundaries() {
    let db = db();
    let all = db.query("SELECT k FROM t ORDER BY k LIMIT 100").unwrap();
    assert_eq!(all.rows.len(), 5);
    let two = db
        .query("SELECT k FROM t ORDER BY k LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(two.rows.len(), 2);
    let none = db.query("SELECT k FROM t ORDER BY k LIMIT 0").unwrap();
    assert!(none.rows.is_empty());
    let past = db
        .query("SELECT k FROM t ORDER BY k LIMIT 3 OFFSET 10")
        .unwrap();
    assert!(past.rows.is_empty());
}

#[test]
fn nulls_sort_first_and_distinct_keeps_one_null() {
    let db = db();
    let q = db.query("SELECT k FROM t ORDER BY k").unwrap();
    assert!(q.rows[0][0].is_null());
    let q = db.query("SELECT DISTINCT v FROM t ORDER BY v").unwrap();
    // NULL, 'a', 'b', 'c'
    assert_eq!(q.rows.len(), 4);
    assert!(q.rows[0][0].is_null());
}

#[test]
fn aggregates_skip_nulls() {
    let db = db();
    let q = db
        .query("SELECT COUNT(*), COUNT(k), COUNT(v) FROM t")
        .unwrap();
    assert_eq!(q.rows[0], vec![Value::Int(5), Value::Int(4), Value::Int(4)]);
    let q = db.query("SELECT AVG(k), MIN(v), MAX(v) FROM t").unwrap();
    assert_eq!(q.rows[0][0], Value::Float(2.5));
    assert_eq!(q.rows[0][1], Value::text("a"));
    assert_eq!(q.rows[0][2], Value::text("c"));
}

#[test]
fn group_by_treats_null_as_its_own_group() {
    let db = db();
    let q = db
        .query("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v")
        .unwrap();
    assert_eq!(q.rows.len(), 4); // NULL, a, b, c
    assert_eq!(q.rows[1], vec![Value::text("a"), Value::Int(2)]);
}

#[test]
fn joins_over_empty_tables() {
    let mut db = db();
    db.execute("CREATE TABLE empty (k INT, w TEXT)").unwrap();
    let q = db
        .query("SELECT t.k FROM t JOIN empty ON t.k = empty.k")
        .unwrap();
    assert!(q.rows.is_empty());
    let q = db
        .query("SELECT t.k, empty.w FROM t LEFT JOIN empty ON t.k = empty.k")
        .unwrap();
    assert_eq!(q.rows.len(), 5);
    assert!(q.rows.iter().all(|r| r[1].is_null()));
}

#[test]
fn null_join_keys_never_match() {
    let mut db = db();
    db.execute_script("CREATE TABLE u (k INT); INSERT INTO u VALUES (NULL), (1);")
        .unwrap();
    let q = db
        .query("SELECT COUNT(*) FROM t JOIN u ON t.k = u.k")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(1)));
}

#[test]
fn self_cross_join_counts() {
    let db = db();
    let q = db.query("SELECT COUNT(*) FROM t a, t b").unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(25)));
}

#[test]
fn between_and_in_with_nulls() {
    let db = db();
    let q = db
        .query("SELECT COUNT(*) FROM t WHERE k BETWEEN 2 AND 3")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(2)));
    let q = db
        .query("SELECT COUNT(*) FROM t WHERE k IN (1, 4, NULL)")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(2)));
    let q = db
        .query("SELECT COUNT(*) FROM t WHERE k NOT BETWEEN 2 AND 3")
        .unwrap();
    // NULL k is UNKNOWN, excluded.
    assert_eq!(q.scalar(), Some(&Value::Int(2)));
}

#[test]
fn order_by_multiple_keys_mixed_directions() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE p (a INT, b INT);
         INSERT INTO p VALUES (1, 1), (1, 2), (2, 1), (2, 2);",
    )
    .unwrap();
    let q = db
        .query("SELECT a, b FROM p ORDER BY a ASC, b DESC")
        .unwrap();
    let pairs: Vec<(i64, i64)> = q
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(pairs, vec![(1, 2), (1, 1), (2, 2), (2, 1)]);
}

#[test]
fn operator_choices_agree_on_results() {
    // The same query under all four join configurations returns the same
    // multiset (hash vs index-NL vs nested loops).
    let mut base = db();
    base.execute("CREATE INDEX t_k ON t (k)").unwrap();
    base.execute_script(
        "CREATE TABLE s (k INT, z TEXT);
         INSERT INTO s VALUES (1, 'x'), (3, 'y'), (3, 'yy'), (9, 'z');",
    )
    .unwrap();
    let sql = "SELECT t.k, s.z FROM t JOIN s ON t.k = s.k ORDER BY t.k, s.z";
    let reference = base.query(sql).unwrap();
    for (hash, inl) in [(true, false), (false, true), (false, false)] {
        let mut db2 = db();
        db2.execute("CREATE INDEX t_k ON t (k)").unwrap();
        db2.execute_script(
            "CREATE TABLE s (k INT, z TEXT);
             INSERT INTO s VALUES (1, 'x'), (3, 'y'), (3, 'yy'), (9, 'z');",
        )
        .unwrap();
        db2.physical.use_hash_join = hash;
        db2.physical.use_index_nl_join = inl;
        let got = db2.query(sql).unwrap();
        assert_eq!(got.rows, reference.rows, "hash={hash} inl={inl}");
    }
}

#[test]
fn update_expression_uses_old_row_values() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE w (a INT, b INT);
         INSERT INTO w VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    // Swap-style update: both assignments read the pre-update row.
    db.execute("UPDATE w SET a = b, b = a").unwrap();
    let q = db.query("SELECT a, b FROM w ORDER BY a").unwrap();
    assert_eq!(q.rows[0], vec![Value::Int(10), Value::Int(1)]);
    assert_eq!(q.rows[1], vec![Value::Int(20), Value::Int(2)]);
}

#[test]
fn scalar_functions_on_nulls() {
    let db = db();
    let q = db
        .query("SELECT UPPER(v), LENGTH(v), COALESCE(v, '?') FROM t WHERE k = 2")
        .unwrap();
    assert!(q.rows[0][0].is_null());
    assert!(q.rows[0][1].is_null());
    assert_eq!(q.rows[0][2], Value::text("?"));
}
