//! Durability demo: write through the WAL, crash hard (no shutdown),
//! recover on reopen.
//!
//! ```sh
//! cargo run --example durability                    # in-process demo
//! cargo run --example durability -- write /tmp/d    # write, then abort()
//! cargo run --example durability -- read /tmp/d     # recover and print
//! ```

use xmlrel::reldb::Database;
use xmlrel::shredder::IntervalScheme;
use xmlrel::{Scheme, XmlStore};

const BIB: &str =
    r#"<bib><book year="1994"><title>TCP</title><author>Stevens</author></book></bib>"#;

fn write(dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::open(format!("{dir}/db"))?;
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")?;
    db.execute("INSERT INTO t VALUES (1, 'a')")?;
    db.checkpoint()?; // row 1 lives in the snapshot
    db.execute("INSERT INTO t VALUES (2, 'b')")?; // row 2 lives in the WAL

    let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .path(format!("{dir}/docs"))
        .open()?;
    store.load_str("bib", BIB)?;
    store.persist()?;

    println!("wrote 2 rows and 1 document under {dir}");
    Ok(())
}

fn read(dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::open(format!("{dir}/db"))?;
    let q = db.query("SELECT id, v FROM t ORDER BY id")?;
    println!("recovered {} rows: {:?}", q.rows.len(), q.rows);

    let store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .path(format!("{dir}/docs"))
        .open()?;
    println!("recovered document: {}", store.reconstruct("bib")?);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| "demo".into());
    match (mode.as_str(), args.next()) {
        ("write", Some(dir)) => {
            write(&dir)?;
            println!("aborting without shutdown — reopen recovers");
            std::process::abort();
        }
        ("read", Some(dir)) => read(&dir),
        ("demo", None) => {
            let dir = std::env::temp_dir().join("xmlrel-durability-demo");
            let _ = std::fs::remove_dir_all(&dir);
            let dir = dir.to_string_lossy().into_owned();
            write(&dir)?;
            println!("-- reopening --");
            read(&dir)?;
            std::fs::remove_dir_all(&dir)?;
            Ok(())
        }
        _ => {
            eprintln!("usage: durability [write DIR | read DIR]");
            std::process::exit(2);
        }
    }
}
