//! Document registry shared by all schemes: ids, names, and root labels.

use reldb::{row_int, row_text, Database, ExecResult, Value};

use crate::error::Result;
use reldb::sql::quote::sql_lit;

/// Registry table name.
pub const DOCS_TABLE: &str = "xr_docs";

/// A registered document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocEntry {
    /// Document id.
    pub id: i64,
    /// Human-readable name.
    pub name: String,
}

/// Install the registry table (idempotent).
pub fn install(db: &mut Database) -> Result<()> {
    db.execute(&format!(
        "CREATE TABLE IF NOT EXISTS {DOCS_TABLE} (doc INT NOT NULL, name TEXT NOT NULL)"
    ))?;
    Ok(())
}

/// Register a document under the next free id; returns the id.
pub fn register(db: &mut Database, name: &str) -> Result<i64> {
    let q = db.query(&format!("SELECT MAX(doc) FROM {DOCS_TABLE}"))?;
    let next = q.scalar().and_then(Value::as_int).unwrap_or(0) + 1;
    db.bulk_insert(DOCS_TABLE, vec![vec![Value::Int(next), Value::text(name)]])?;
    Ok(next)
}

/// Find a document id by name.
pub fn lookup(db: &Database, name: &str) -> Result<Option<i64>> {
    let mut found = None;
    db.prepare(&format!(
        "SELECT doc FROM {DOCS_TABLE} WHERE name = {}",
        sql_lit(name)
    ))?
    .run(&db.limits, false, |row| {
        found = row_int(&row, 0);
        Ok(())
    })
    .0?;
    Ok(found)
}

/// All registered documents.
pub fn list(db: &Database) -> Result<Vec<DocEntry>> {
    let mut out = Vec::new();
    db.prepare(&format!("SELECT doc, name FROM {DOCS_TABLE} ORDER BY doc"))?
        .run(&db.limits, false, |row| {
            out.push(DocEntry {
                id: row_int(&row, 0).unwrap_or(0),
                name: row_text(&row, 1).unwrap_or("").to_string(),
            });
            Ok(())
        })
        .0?;
    Ok(out)
}

/// Remove a document's registry entry; returns true if it existed.
pub fn unregister(db: &mut Database, id: i64) -> Result<bool> {
    match db.execute(&format!("DELETE FROM {DOCS_TABLE} WHERE doc = {id}"))? {
        ExecResult::Affected(n) => Ok(n > 0),
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_list_unregister() {
        let mut db = Database::new();
        install(&mut db).unwrap();
        install(&mut db).unwrap(); // idempotent
        let a = register(&mut db, "a.xml").unwrap();
        let b = register(&mut db, "b.xml").unwrap();
        assert_ne!(a, b);
        assert_eq!(lookup(&db, "b.xml").unwrap(), Some(b));
        assert_eq!(lookup(&db, "nope.xml").unwrap(), None);
        assert_eq!(list(&db).unwrap().len(), 2);
        assert!(unregister(&mut db, a).unwrap());
        assert!(!unregister(&mut db, a).unwrap());
        assert_eq!(list(&db).unwrap().len(), 1);
    }

    #[test]
    fn names_with_quotes_are_escaped() {
        let mut db = Database::new();
        install(&mut db).unwrap();
        let id = register(&mut db, "it's.xml").unwrap();
        assert_eq!(lookup(&db, "it's.xml").unwrap(), Some(id));
    }
}
