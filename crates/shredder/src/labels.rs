//! Label-to-table registry for label-partitioned schemes (binary,
//! universal): maps XML tag/attribute labels to legal, collision-free SQL
//! table names, persisted in the database so the mapping is stable.

use reldb::sql::quote::sql_lit;
use reldb::{row_text, Database, Value};

use crate::error::Result;

/// Reduce an XML label to a SQL-identifier-safe stem.
pub fn sanitize(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    if out.as_bytes().first().is_none_or(u8::is_ascii_digit) {
        out.insert(0, 'x');
    }
    out
}

/// A persistent registry of `(label, kind) → table` assignments under a
/// scheme-specific prefix.
#[derive(Debug, Clone)]
pub struct LabelRegistry {
    /// Table-name prefix, e.g. `"bin"`.
    pub prefix: &'static str,
}

impl LabelRegistry {
    /// The registry's own catalog table name.
    pub fn registry_table(&self) -> String {
        format!("{}_labels", self.prefix)
    }

    /// Create the registry table.
    pub fn install(&self, db: &mut Database) -> Result<()> {
        db.execute(&format!(
            "CREATE TABLE {} (label TEXT NOT NULL, kind TEXT NOT NULL, tbl TEXT NOT NULL)",
            self.registry_table()
        ))?;
        Ok(())
    }

    /// Look up the table for a label, if assigned.
    pub fn lookup(&self, db: &Database, label: &str, kind: &str) -> Result<Option<String>> {
        let mut found = None;
        db.prepare(&format!(
            "SELECT tbl FROM {} WHERE label = {} AND kind = {}",
            self.registry_table(),
            sql_lit(label),
            sql_lit(kind)
        ))?
        .run(&db.limits, false, |row| {
            found = row_text(&row, 0).map(str::to_string);
            Ok(())
        })
        .0?;
        Ok(found)
    }

    /// All `(label, kind, table)` assignments.
    pub fn all(&self, db: &Database) -> Result<Vec<(String, String, String)>> {
        let mut out = Vec::new();
        db.prepare(&format!(
            "SELECT label, kind, tbl FROM {}",
            self.registry_table()
        ))?
        .run(&db.limits, false, |row| {
            out.push((
                row_text(&row, 0).unwrap_or("").to_string(),
                row_text(&row, 1).unwrap_or("").to_string(),
                row_text(&row, 2).unwrap_or("").to_string(),
            ));
            Ok(())
        })
        .0?;
        Ok(out)
    }

    /// Get or assign a collision-free table name for `(label, kind)`.
    /// Does not create the table itself — callers own their DDL.
    pub fn assign(&self, db: &mut Database, label: &str, kind: &str) -> Result<String> {
        if let Some(t) = self.lookup(db, label, kind)? {
            return Ok(t);
        }
        let stem = sanitize(label);
        let kind_tag = match kind {
            "attr" => "at",
            _ => "el",
        };
        let mut candidate = format!("{}_{}_{}", self.prefix, kind_tag, stem);
        let mut n = 1;
        while db.catalog.has_table(&candidate) {
            candidate = format!("{}_{}_{}_{n}", self.prefix, kind_tag, stem);
            n += 1;
        }
        db.bulk_insert(
            &self.registry_table(),
            vec![vec![
                Value::text(label),
                Value::text(kind),
                Value::text(candidate.clone()),
            ]],
        )?;
        Ok(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_rules() {
        assert_eq!(sanitize("book"), "book");
        assert_eq!(sanitize("amz:ref"), "amz_ref");
        assert_eq!(sanitize("Über-Tag"), "_ber_tag");
        assert_eq!(sanitize("1st"), "x1st");
        assert_eq!(sanitize(""), "x");
    }

    #[test]
    fn assign_is_stable_and_collision_free() {
        let mut db = Database::new();
        let reg = LabelRegistry { prefix: "bin" };
        reg.install(&mut db).unwrap();
        let t1 = reg.assign(&mut db, "a-b", "elem").unwrap();
        assert_eq!(reg.assign(&mut db, "a-b", "elem").unwrap(), t1);
        // Create the table so the collision check kicks in.
        db.execute(&format!("CREATE TABLE {t1} (x INT)")).unwrap();
        let t2 = reg.assign(&mut db, "a.b", "elem").unwrap();
        assert_ne!(t1, t2);
        // Same label, different kind gets a distinct table.
        let t3 = reg.assign(&mut db, "a-b", "attr").unwrap();
        assert_ne!(t1, t3);
        assert_eq!(reg.all(&db).unwrap().len(), 3);
    }
}
