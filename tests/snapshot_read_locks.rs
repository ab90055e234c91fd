//! Lock discipline of the snapshot read path, counted rather than timed.
//!
//! Eight reader threads share one interval store and run snapshot-pinned
//! requests with no writer. The store's `db` lock is a timed rwlock that
//! feeds the process-global metrics registry, so the test reads its
//! counters before and after and asserts what a parallel read path must
//! look like on any hardware:
//!
//! - no request takes the lock in write mode;
//! - no read-mode acquisition ever has to wait (no reader blocks another);
//! - each request takes the read lock a bounded number of times.
//!
//! This file holds a single test on purpose: the registry is shared by
//! the whole test binary, and any other test loading or querying a store
//! in parallel would move the same counters.

use xmlrel::obs::metrics::{self, Metric};
use xmlrel::obs::timed_lock::{contended_metric, hold_metric};
use xmlrel::xmlgen::auction::{generate, AuctionConfig};
use xmlrel::xmlgen::queries::AUCTION_QUERIES;
use xmlrel::{Scheme, XmlStore};

const THREADS: usize = 8;
const ITERS: usize = 8;
const QUERIES: &[&str] = &["Q1", "Q3", "Q10"];

/// Read-mode `db` acquisitions one pinned request makes today: one in
/// `XmlStore::request` (the snapshot) and one in the pinned `run` (the
/// epoch-lag probe).
const READ_LOCKS_PER_REQUEST: u64 = 2;

/// Number of observations in a histogram metric, 0 when absent.
fn hist_count(name: &str) -> u64 {
    match metrics::get(name) {
        Some(Metric::Histogram(h)) => h.count,
        _ => 0,
    }
}

/// The `db` lock counters this test watches.
struct DbLock {
    read_holds: u64,
    write_holds: u64,
    read_contended: u64,
}

fn db_lock() -> DbLock {
    DbLock {
        read_holds: hist_count(&hold_metric("db", "read")),
        write_holds: hist_count(&hold_metric("db", "write")),
        read_contended: metrics::counter_value(&contended_metric("db", "read")),
    }
}

#[test]
fn snapshot_reads_share_the_db_lock() {
    let mut store = XmlStore::builder(Scheme::Interval(xmlrel::shredder::IntervalScheme::new()))
        .open()
        .expect("open");
    store
        .load_document("auction", &generate(&AuctionConfig::at_scale(0.1)))
        .expect("load");
    let queries: Vec<&str> = QUERIES
        .iter()
        .map(|id| {
            AUCTION_QUERIES
                .iter()
                .find(|q| q.id == *id)
                .map(|q| q.text)
                .expect("pinned query id")
        })
        .collect();

    let before = db_lock();
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let handle = store.clone();
                let queries = &queries;
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for _ in 0..ITERS {
                        for q in queries {
                            if let Err(e) = handle.request(q).snapshot().run() {
                                failures.push(format!("{q}: {e}"));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reader thread"))
            .collect()
    });
    let after = db_lock();

    assert!(failures.is_empty(), "failed requests: {failures:#?}");
    let requests = (THREADS * ITERS * QUERIES.len()) as u64;
    assert_eq!(
        after.write_holds, before.write_holds,
        "a read-only workload took the db lock in write mode"
    );
    assert_eq!(
        after.read_contended, before.read_contended,
        "a reader waited on the db lock with no writer running"
    );
    let reads = after.read_holds - before.read_holds;
    assert!(
        reads >= requests && reads <= READ_LOCKS_PER_REQUEST * requests,
        "{reads} read-mode db acquisitions for {requests} requests \
         (expected between 1 and {READ_LOCKS_PER_REQUEST} per request)"
    );
}
