//! Engine-level integration and property tests: SQL behaviors end-to-end,
//! plus fuzzing of the SQL front end.

use proptest::prelude::*;
use reldb::{Database, DbError, Value};

fn northwind_lite() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT NOT NULL, city TEXT);
         CREATE TABLE orders (id INT PRIMARY KEY, customer INT, total FLOAT, note TEXT);
         CREATE INDEX orders_customer ON orders (customer);
         INSERT INTO customers VALUES
           (1, 'acme', 'berlin'), (2, 'bolt', 'paris'), (3, 'coil', 'berlin'),
           (4, 'dyne', NULL);
         INSERT INTO orders VALUES
           (10, 1, 99.5, 'rush'), (11, 1, 10.0, NULL), (12, 2, 55.0, 'gift'),
           (13, 3, 20.0, NULL), (14, NULL, 5.0, 'walk-in');",
    )
    .unwrap();
    db
}

#[test]
fn join_then_aggregate() {
    let db = northwind_lite();
    let q = db
        .query(
            "SELECT COUNT(*) AS n, MAX(o.total) AS top \
             FROM customers c JOIN orders o ON o.customer = c.id \
             WHERE c.city = 'berlin'",
        )
        .unwrap();
    assert_eq!(q.columns, vec!["n", "top"]);
    assert_eq!(q.rows, vec![vec![Value::Int(3), Value::Float(99.5)]]);
}

/// Every construct outside the SQL subset fails with a typed error before
/// anything runs: no panic, no clause silently dropped, no retired keyword
/// read as an alias (`FROM t GROUP BY k` must not alias `t` as `group`,
/// and `LIMIT 2 OFFSET 1` must not return the first two rows).
#[test]
fn constructs_outside_the_subset_are_rejected() {
    let cases: &[(&str, &str)] = &[
        (
            "GROUP BY",
            "SELECT city, COUNT(*) FROM customers GROUP BY city",
        ),
        (
            "GROUP BY after FROM",
            "SELECT id FROM customers GROUP BY id",
        ),
        (
            "HAVING",
            "SELECT COUNT(*) FROM customers HAVING COUNT(*) > 1",
        ),
        (
            "OFFSET",
            "SELECT id FROM customers ORDER BY id LIMIT 2 OFFSET 1",
        ),
        (
            "derived table",
            "SELECT x FROM (SELECT id AS x FROM customers) s",
        ),
        (
            "parenthesized join",
            "SELECT c.id FROM (customers c JOIN orders o ON o.customer = c.id)",
        ),
        ("SUM", "SELECT SUM(total) FROM orders"),
        ("MIN", "SELECT MIN(total) FROM orders"),
        ("AVG", "SELECT AVG(total) FROM orders"),
        ("LOWER", "SELECT LOWER(name) FROM customers"),
        ("UPPER", "SELECT UPPER(name) FROM customers"),
        ("LENGTH", "SELECT id FROM customers WHERE LENGTH(name) = 4"),
        ("ABS", "SELECT ABS(total) FROM orders"),
        ("SUBSTR", "SELECT SUBSTR(name, 1, 2) FROM customers"),
        ("COALESCE", "SELECT COALESCE(city, '?') FROM customers"),
        (
            "NOT BETWEEN",
            "SELECT id FROM orders WHERE total NOT BETWEEN 1 AND 50",
        ),
        ("NOT IN", "SELECT id FROM customers WHERE id NOT IN (1, 2)"),
        (
            "NOT LIKE",
            "SELECT id FROM customers WHERE name NOT LIKE 'a%'",
        ),
        ("qualified wildcard", "SELECT c.* FROM customers c"),
        ("*", "SELECT total * 2 FROM orders"),
        ("/", "SELECT total / 2 FROM orders"),
        ("%", "SELECT id % 2 FROM orders"),
        ("DROP TABLE", "DROP TABLE orders"),
        ("DROP TABLE IF EXISTS", "DROP TABLE IF EXISTS orders"),
    ];
    let mut db = northwind_lite();
    for (construct, sql) in cases {
        match db.execute(sql) {
            Err(DbError::Syntax(_) | DbError::Unsupported(_)) => {}
            other => panic!("{construct}: {sql:?} gave {other:?}"),
        }
    }
    // Nothing above ran: both tables and all their rows are still there.
    let q = db.query("SELECT COUNT(*) FROM orders").unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(5)));
}

#[test]
fn left_join_keeps_unmatched() {
    let db = northwind_lite();
    let q = db
        .query(
            "SELECT c.name, o.id FROM customers c LEFT JOIN orders o \
             ON o.customer = c.id ORDER BY c.name, o.id",
        )
        .unwrap();
    // dyne has no orders but must appear once.
    let dyne: Vec<_> = q
        .rows
        .iter()
        .filter(|r| r[0] == Value::text("dyne"))
        .collect();
    assert_eq!(dyne.len(), 1);
    assert!(dyne[0][1].is_null());
    // Null customer order never matches anyone.
    assert_eq!(q.rows.len(), 5);
}

#[test]
fn index_nested_loop_join_selected_and_correct() {
    let db = northwind_lite();
    let prepared = db
        .prepare(
            "SELECT o.id FROM customers c, orders o \
             WHERE o.customer = c.id AND c.city = 'berlin'",
        )
        .unwrap();
    let text = reldb::plan::physical::explain_physical(prepared.physical());
    assert!(text.contains("IndexNestedLoopJoin"), "{text}");
    let q = db
        .query(
            "SELECT o.id FROM customers c, orders o \
             WHERE o.customer = c.id AND c.city = 'berlin' ORDER BY o.id",
        )
        .unwrap();
    let ids: Vec<i64> = q.rows.iter().filter_map(|r| r[0].as_int()).collect();
    assert_eq!(ids, vec![10, 11, 13]);
}

#[test]
fn inl_join_agrees_with_hash_join() {
    let sql = "SELECT c.name, o.total FROM customers c JOIN orders o \
               ON o.customer = c.id ORDER BY c.name, o.total";
    let with_inl = northwind_lite();
    let a = with_inl.query(sql).unwrap();
    let mut without = northwind_lite();
    without.physical.use_index_nl_join = false;
    let b = without.query(sql).unwrap();
    assert_eq!(a, b);
}

#[test]
fn left_join_via_inl_keeps_unmatched() {
    let sql = "SELECT c.name, o.id FROM customers c LEFT JOIN orders o \
               ON o.customer = c.id ORDER BY c.name, o.id";
    let with_inl = northwind_lite();
    let a = with_inl.query(sql).unwrap();
    let mut without = northwind_lite();
    without.physical.use_index_nl_join = false;
    let b = without.query(sql).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.rows.len(), 5);
}

#[test]
fn three_valued_logic_in_where() {
    let db = northwind_lite();
    // city = 'berlin' is UNKNOWN for dyne (NULL city): excluded.
    let q = db
        .query("SELECT COUNT(*) FROM customers WHERE city = 'berlin'")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(2)));
    // NOT (city = 'berlin') is also UNKNOWN for dyne: still excluded.
    let q = db
        .query("SELECT COUNT(*) FROM customers WHERE NOT (city = 'berlin')")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(1)));
    // IS NULL finds it.
    let q = db
        .query("SELECT name FROM customers WHERE city IS NULL")
        .unwrap();
    assert_eq!(q.rows[0][0], Value::text("dyne"));
}

#[test]
fn distinct_and_union_all() {
    let db = northwind_lite();
    let q = db
        .query(
            "SELECT DISTINCT city FROM customers WHERE city IS NOT NULL \
             UNION ALL SELECT 'total' ORDER BY 1",
        )
        .unwrap();
    let vals: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(vals, vec!["berlin", "paris", "total"]);
}

#[test]
fn predicate_pushdown_reduces_plan() {
    let mut db = northwind_lite();
    db.optimizer.predicate_pushdown = true;
    let with_q = db
        .query("EXPLAIN SELECT o.id FROM customers c, orders o WHERE o.customer = c.id AND c.city = 'paris'")
        .unwrap();
    let with_text: String = with_q
        .rows
        .iter()
        .map(|r| r[0].to_string() + "\n")
        .collect();
    // The city predicate must reach the customers access path (index scan
    // or filtered scan below the join).
    assert!(
        with_text.contains("IndexScan customers") || with_text.contains("Filter"),
        "{with_text}"
    );
}

#[test]
fn update_delete_with_index_maintenance() {
    let mut db = northwind_lite();
    db.execute("UPDATE orders SET customer = 2 WHERE id = 13")
        .unwrap();
    let q = db
        .query("SELECT COUNT(*) FROM orders WHERE customer = 2")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(2)));
    db.execute("DELETE FROM orders WHERE customer = 2").unwrap();
    let q = db
        .query("SELECT COUNT(*) FROM orders WHERE customer = 2")
        .unwrap();
    assert_eq!(q.scalar(), Some(&Value::Int(0)));
}

#[test]
fn like_concat_and_num() {
    let db = northwind_lite();
    let q = db
        .query("SELECT name || '@' || city FROM customers WHERE name LIKE '%o%' ORDER BY 1")
        .unwrap();
    let vals: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(vals, vec!["bolt@paris", "coil@berlin"]);
    let q = db.query("SELECT num('42') + num('0.5')").unwrap();
    assert_eq!(q.scalar(), Some(&Value::Float(42.5)));
    let q = db.query("SELECT num('nope')").unwrap();
    assert!(q.scalar().unwrap().is_null());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The SQL front end never panics on arbitrary input.
    #[test]
    fn sql_parser_never_panics(s in "\\PC{0,120}") {
        let _ = reldb::sql::parser::parse_statement(&s);
    }

    /// Keyword soup never panics and either parses or errors cleanly.
    #[test]
    fn sql_keyword_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("JOIN"),
                Just("ON"), Just("GROUP"), Just("BY"), Just("ORDER"), Just("t"),
                Just("x"), Just("1"), Just("'s'"), Just("("), Just(")"),
                Just(","), Just("="), Just("*"), Just("AND"), Just("NULL"),
            ],
            0..24,
        )
    ) {
        let s = parts.join(" ");
        let _ = reldb::sql::parser::parse_statement(&s);
    }

    /// Filtering a table by an indexed equality agrees with a full scan.
    #[test]
    fn index_scan_agrees_with_seq_scan(keys in proptest::collection::vec(0i64..40, 1..120), probe in 0i64..40) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![Value::Int(*k), Value::Int(i as i64)])
            .collect();
        db.bulk_insert("t", rows).unwrap();
        let no_index = db
            .query(&format!("SELECT v FROM t WHERE k = {probe} ORDER BY v"))
            .unwrap();
        db.execute("CREATE INDEX t_k ON t (k)").unwrap();
        let with_index = db
            .query(&format!("SELECT v FROM t WHERE k = {probe} ORDER BY v"))
            .unwrap();
        prop_assert_eq!(no_index.rows, with_index.rows);
    }

    /// ORDER BY sorts correctly for any data.
    #[test]
    fn order_by_sorts(vals in proptest::collection::vec(-1000i64..1000, 0..80)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.bulk_insert("t", vals.iter().map(|v| vec![Value::Int(*v)]).collect())
            .unwrap();
        let q = db.query("SELECT v FROM t ORDER BY v").unwrap();
        let got: Vec<i64> = q.rows.iter().filter_map(|r| r[0].as_int()).collect();
        let mut want = vals.clone();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// COUNT/MAX agree with a direct computation.
    #[test]
    fn aggregates_agree_with_model(vals in proptest::collection::vec(-500i64..500, 1..60)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.bulk_insert("t", vals.iter().map(|v| vec![Value::Int(*v)]).collect())
            .unwrap();
        let q = db.query("SELECT COUNT(*), COUNT(v), MAX(v) FROM t").unwrap();
        prop_assert_eq!(&q.rows[0][0], &Value::Int(vals.len() as i64));
        prop_assert_eq!(&q.rows[0][1], &Value::Int(vals.len() as i64));
        prop_assert_eq!(&q.rows[0][2], &Value::Int(*vals.iter().max().unwrap()));
    }
}
