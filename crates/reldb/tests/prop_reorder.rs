//! Property test for the join reorderer: over randomized join trees, the
//! greedy rewrite (a) never raises the estimated cost — the cost guard in
//! `reorder_joins` makes this a hard invariant — and (b) always yields a
//! plan the validator still accepts, and (c) never changes query results.

use proptest::prelude::*;
use reldb::plan::{
    bind_select, cost, optimize, reorder::reorder_joins, validate_logical, OptimizerOptions,
    Severity,
};
use reldb::sql::{parse_statement, Statement};
use reldb::value::Value;
use reldb::Database;

/// Tables the generated queries draw from: skewed sizes, one indexed
/// column each, ids that overlap so joins produce rows.
fn test_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t0 (id INT, tag TEXT);
         CREATE INDEX t0_tag ON t0 (tag);
         CREATE TABLE t1 (id INT, tag TEXT);
         CREATE INDEX t1_tag ON t1 (tag);
         CREATE TABLE t2 (id INT, tag TEXT);
         CREATE TABLE t3 (id INT, tag TEXT);
         CREATE INDEX t3_id ON t3 (id);",
    )
    .expect("schema");
    for (name, n, mod_) in [
        ("t0", 400, 40),
        ("t1", 60, 6),
        ("t2", 15, 3),
        ("t3", 150, 15),
    ] {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::text(format!("g{}", i % mod_))])
            .collect();
        db.bulk_insert(name, rows).expect("load");
    }
    db
}

/// A randomized multi-table SELECT: 2–4 tables, equi-join conditions
/// chaining adjacent tables (sometimes dropped, yielding cross products),
/// plus optional literal predicates.
#[derive(Debug, Clone)]
struct GenQuery {
    tables: Vec<&'static str>,
    join_all: bool,
    filters: Vec<(usize, String)>,
}

impl GenQuery {
    fn sql(&self) -> String {
        let from: Vec<String> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{t} a{i}"))
            .collect();
        let mut conds = Vec::new();
        for i in 1..self.tables.len() {
            // Chain joins; when join_all is false, leave the last table
            // disconnected to exercise the cross-product path.
            if self.join_all || i + 1 < self.tables.len() {
                conds.push(format!("a{}.id = a{}.id", i - 1, i));
            }
        }
        for (i, lit) in &self.filters {
            if *i < self.tables.len() {
                conds.push(format!("a{i}.tag = '{lit}'"));
            }
        }
        let mut sql = format!("SELECT COUNT(*) FROM {}", from.join(", "));
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        sql
    }
}

fn query_strategy() -> impl Strategy<Value = GenQuery> {
    let table = prop_oneof![Just("t0"), Just("t1"), Just("t2"), Just("t3"),];
    let filter = (0usize..4, 0i64..12).prop_map(|(i, g)| (i, format!("g{g}")));
    (
        proptest::collection::vec(table, 2..5),
        any::<bool>(),
        proptest::collection::vec(filter, 0..3),
    )
        .prop_map(|(tables, join_all, filters)| GenQuery {
            tables,
            join_all,
            filters,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reorder_is_cost_monotone_and_valid(q in query_strategy()) {
        let db = test_db();
        let sql = q.sql();
        let stmt = parse_statement(&sql).expect("generated SQL parses");
        let Statement::Select(sel) = stmt else {
            panic!("not a select: {sql}");
        };
        let bound = bind_select(&db.catalog, &sel).expect("binds");
        let opts = OptimizerOptions {
            join_reorder: false,
            ..Default::default()
        };
        let unordered = optimize(bound, &opts, &db.catalog);
        let reordered = reorder_joins(unordered.clone(), &db.catalog);

        // (a) Estimated cost never increases.
        let before = cost::cost_logical(&unordered, &db.catalog).total();
        let after = cost::cost_logical(&reordered, &db.catalog).total();
        prop_assert!(
            after <= before,
            "{sql}: reorder raised cost {before} -> {after}"
        );

        // (b) The reordered plan still validates without errors.
        let errors: Vec<String> = validate_logical(&db.catalog, &reordered)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect();
        prop_assert!(errors.is_empty(), "{sql}: {errors:?}");
    }

    #[test]
    fn reorder_preserves_results(q in query_strategy()) {
        let sql = q.sql();
        let with = test_db();
        let mut without = test_db();
        without.optimizer.join_reorder = false;
        let a = with.query(&sql).expect("with reorder");
        let b = without.query(&sql).expect("without reorder");
        prop_assert_eq!(a.rows, b.rows, "{}", sql);
    }
}
