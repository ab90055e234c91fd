//! Fault-injection tests for the durability subsystem: torn WAL tails,
//! checksum corruption, damaged snapshots, and a randomized crash/recover
//! round-trip. All faults are deterministic — no wall clock, no OS
//! randomness.

use proptest::prelude::*;
use reldb::snapshot::snapshot_file;
use reldb::wal::{read_frames, WAL_FILE};
use reldb::{Database, DbError, FaultBackend, FaultPlan, MemBackend, SharedFiles, Value};

fn open_mem(files: &SharedFiles) -> reldb::Result<Database> {
    Database::open_with_backend(Box::new(MemBackend::over(files.clone())))
}

/// Execute the canonical three statements (one WAL frame each) against a
/// fresh database over `files`.
fn build_three_frames(files: &SharedFiles) {
    let mut db = open_mem(files).unwrap();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    db.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
}

/// Assert the recovered database reflects exactly the first `committed`
/// of the three statements above.
fn check_state(db: &mut Database, committed: usize) {
    if committed == 0 {
        assert!(
            db.query("SELECT id FROM t").is_err(),
            "table must not exist"
        );
        return;
    }
    let q = db.query("SELECT id FROM t ORDER BY id").unwrap();
    let want: Vec<Vec<Value>> = (1..committed as i64).map(|i| vec![Value::Int(i)]).collect();
    assert_eq!(q.rows, want);
}

#[test]
fn torn_wal_tail_recovers_to_statement_boundary() {
    let pristine = SharedFiles::new();
    build_three_frames(&pristine);
    let wal = pristine.get(WAL_FILE).unwrap();
    let (frames, consumed) = read_frames(&wal);
    assert_eq!(frames.len(), 3);
    assert_eq!(consumed, wal.len());
    let boundaries: Vec<usize> = frames.iter().map(|f| f.end).collect();

    // Crash with the log cut at every possible byte offset.
    for cut in 0..=wal.len() {
        let crashed = SharedFiles::new();
        crashed.put(WAL_FILE, wal[..cut].to_vec());
        let mut db = open_mem(&crashed).unwrap();
        let committed = boundaries.iter().filter(|&&b| b <= cut).count();
        check_state(&mut db, committed);
        // Recovery must have truncated the torn tail off the log.
        let keep = boundaries
            .iter()
            .copied()
            .filter(|&b| b <= cut)
            .max()
            .unwrap_or(0);
        assert_eq!(crashed.get(WAL_FILE).unwrap().len(), keep, "cut at {cut}");
    }
}

#[test]
fn crc_corruption_stops_replay_at_damaged_frame() {
    for victim in 0..3usize {
        let files = SharedFiles::new();
        build_three_frames(&files);
        let wal = files.get(WAL_FILE).unwrap();
        let (frames, _) = read_frames(&wal);
        let start = if victim == 0 {
            0
        } else {
            frames[victim - 1].end
        };
        // Flip one payload bit inside the victim frame (past its header).
        assert!(files.mutate(WAL_FILE, |b| b[start + 8] ^= 0x40));
        let mut db = open_mem(&files).unwrap();
        check_state(&mut db, victim);
        // Everything from the damaged frame on is discarded.
        assert_eq!(files.get(WAL_FILE).unwrap().len(), start, "victim {victim}");
    }
}

#[test]
fn truncated_snapshot_refuses_to_open_as_empty() {
    let pristine = SharedFiles::new();
    {
        let mut db = open_mem(&pristine).unwrap();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        db.checkpoint().unwrap();
    }
    let snap = pristine.get(&snapshot_file(1)).unwrap();

    // Cut the only snapshot at every byte offset, including mid-catalog:
    // opening must fail with Corrupt rather than present an empty database.
    for cut in 0..snap.len() {
        let crashed = SharedFiles::new();
        crashed.put(&snapshot_file(1), snap[..cut].to_vec());
        match open_mem(&crashed) {
            Err(DbError::Corrupt(_)) => {}
            other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }

    // The intact snapshot still loads.
    let mut db = open_mem(&pristine).unwrap();
    check_state(&mut db, 2);
}

#[test]
fn falls_back_to_older_valid_snapshot() {
    let files = SharedFiles::new();
    let mut db = open_mem(&files).unwrap();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    db.checkpoint().unwrap(); // snapshot.1
    let snap1 = files.get(&snapshot_file(1)).unwrap();
    db.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
    db.checkpoint().unwrap(); // snapshot.2, snapshot.1 deleted
    db.execute("INSERT INTO t VALUES (3, 'c')").unwrap(); // gen-2 WAL frame
    drop(db);

    // Bit rot destroys the newest snapshot; the older one was kept around.
    files.put(&snapshot_file(1), snap1);
    assert!(files.mutate(&snapshot_file(2), |b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x01;
    }));

    // Recovery lands on snapshot.1 and skips the gen-2 WAL frame (its
    // effects assume a base state we no longer have).
    let db = open_mem(&files).unwrap();
    let q = db.query("SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(q.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn torn_commit_poisons_until_reopen() {
    let files = SharedFiles::new();
    {
        let mut db = open_mem(&files).unwrap();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
    }
    // The write budget is counted per backend instance; five bytes is not
    // enough for the next commit's frame, so it tears mid-write.
    let mut db = Database::open_with_backend(Box::new(FaultBackend::over(
        files.clone(),
        FaultPlan::tear_after(5),
    )))
    .unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1, 'a')").is_err());
    // Memory is ahead of disk: all further mutations must be refused.
    match db.execute("INSERT INTO t VALUES (2, 'b')") {
        Err(DbError::Io(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("expected poisoned Io error, got {other:?}"),
    }
    assert!(db.checkpoint().is_err());

    // Reopen recovers the consistent prefix: table exists, no rows.
    let mut db = open_mem(&files).unwrap();
    check_state(&mut db, 1);
}

#[test]
fn failed_sync_poisons_commit() {
    let files = SharedFiles::new();
    {
        let mut db = open_mem(&files).unwrap();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
    }
    // The schema commit used sync #0 on a fresh backend; fail the next one.
    let mut db = Database::open_with_backend(Box::new(FaultBackend::over(
        files.clone(),
        FaultPlan::fail_sync(0),
    )))
    .unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1, 'a')").is_err());
    let db = open_mem(&files).unwrap();
    // The frame bytes may be in the file map, but the fsync never
    // succeeded, so recovery to the pre-statement state is acceptable and
    // recovery to the full statement is too; either way the table must be
    // consistent (zero or one full row, never a partial effect).
    let q = db.query("SELECT id FROM t ORDER BY id").unwrap();
    assert!(q.rows.is_empty() || q.rows == vec![vec![Value::Int(1)]]);
}

#[test]
fn file_backend_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("reldb_reopen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
        // No clean shutdown: the second insert lives only in the WAL.
    }
    let db = Database::open(&dir).unwrap();
    let q = db.query("SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(q.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized crash/recover round-trip: run random statements through
    /// a fault backend with a random write budget, crash, recover with a
    /// clean backend, and require the recovered contents to equal exactly
    /// the statements that reported success.
    #[test]
    fn randomized_crash_recover_round_trip(seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        let files = SharedFiles::new();
        {
            let mut db = open_mem(&files).unwrap();
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        }
        let mut model: Vec<i64> = Vec::new();
        let mut next_id: i64 = 1;

        for _round in 0..6 {
            let budget = rng() % 300;
            let opened = Database::open_with_backend(Box::new(FaultBackend::over(
                files.clone(),
                FaultPlan::tear_after(budget),
            )));
            let Ok(mut db) = opened else { continue };
            for _stmt in 0..10 {
                let roll = rng() % 4;
                let res = if roll < 3 || model.is_empty() {
                    let id = next_id;
                    next_id += 1;
                    let r = db.execute(&format!("INSERT INTO t VALUES ({id}, 'x')"));
                    if r.is_ok() {
                        model.push(id);
                    }
                    r
                } else {
                    let victim = model[rng() as usize % model.len()];
                    let r = db.execute(&format!("DELETE FROM t WHERE id = {victim}"));
                    if r.is_ok() {
                        model.retain(|&x| x != victim);
                    }
                    r
                };
                if res.is_err() {
                    break; // crashed: abandon this incarnation
                }
                if rng() % 5 == 0 && db.checkpoint().is_err() {
                    break; // checkpoint crash is content-neutral; reopen
                }
            }
        }

        // Recover with a clean backend and compare against the model.
        let db = open_mem(&files).unwrap();
        let q = db.query("SELECT id FROM t ORDER BY id").unwrap();
        let got: Vec<i64> = q
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                ref v => panic!("unexpected value {v:?}"),
            })
            .collect();
        let mut want = model.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
