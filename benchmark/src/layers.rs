//! Every call the benchmark makes into the product, and nothing else.
//!
//! The workloads, the runner and the report never name a product type
//! beyond the handles defined here, so a later change to the public API
//! is one file's edit. Each function is one layer boundary; the runner
//! times these calls from outside.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use xmlgen::{AuctionConfig, DblpConfig, DeepConfig, TextConfig};
use xmlrel_core::{Explain, MonitorHandle, Scheme, XmlStore};
use xmlrel_obs::metrics::{self, Metric};
use xmlrel_obs::{timed_lock, trace};

pub use xmlpar::Document;
pub use xmlrel_obs::trace::{Event, TraceSink};

/// The six mapping schemes, in the order every table prints them.
pub const SCHEMES: [&str; 6] = ["edge", "binary", "universal", "interval", "dewey", "inline"];

/// A store handle: clone-cheap, shareable across threads.
pub type Store = XmlStore;

/// A running `store.serve()` endpoint.
pub type Server = MonitorHandle;

/// One generated corpus: its XML text and the DTD the inline scheme maps.
pub struct Corpus {
    pub name: &'static str,
    pub xml: String,
    pub dtd: &'static str,
}

/// `xmlgen::auction` at `scale` (default generator seed, so the item
/// counts the workloads were sized on hold for every `--seed`).
pub fn auction(scale: f64) -> Corpus {
    Corpus {
        name: "auction",
        xml: xmlgen::auction::generate_xml(&AuctionConfig::at_scale(scale)),
        dtd: xmlgen::AUCTION_DTD,
    }
}

/// Default-size `xmlgen::dblp`.
pub fn dblp() -> Corpus {
    Corpus {
        name: "dblp",
        xml: xmlgen::dblp::generate_xml(&DblpConfig::default()),
        dtd: xmlgen::DBLP_DTD,
    }
}

/// Default-size `xmlgen::deep`.
pub fn deep() -> Corpus {
    Corpus {
        name: "deep",
        xml: xmlgen::deep::generate_xml(&DeepConfig::default()),
        dtd: xmlgen::DEEP_DTD,
    }
}

/// `xmlgen::textheavy` with `entries` entries, generated from `seed`.
pub fn textheavy(entries: usize, seed: u64) -> Corpus {
    let cfg = TextConfig {
        entries,
        seed,
        ..TextConfig::default()
    };
    Corpus {
        name: "textheavy",
        xml: xmlgen::textheavy::generate_xml(&cfg),
        dtd: xmlgen::TEXT_DTD,
    }
}

fn scheme(name: &str, dtd: &str) -> Result<Scheme, String> {
    Ok(match name {
        "edge" => Scheme::Edge(shredder::EdgeScheme::new()),
        "binary" => Scheme::Binary(shredder::BinaryScheme::new()),
        "universal" => Scheme::Universal(shredder::UniversalScheme::new()),
        "interval" => Scheme::Interval(shredder::IntervalScheme::new()),
        "dewey" => Scheme::Dewey(shredder::DeweyScheme::new()),
        "inline" => Scheme::Inline(
            shredder::InlineScheme::from_dtd_text(dtd).map_err(|e| format!("inline DTD: {e}"))?,
        ),
        other => return Err(format!("unknown scheme {other:?}")),
    })
}

/// `XmlStore::builder(..).open()`: an in-memory store, or with `wal` one
/// over a `MemBackend`, where every statement is framed into the
/// write-ahead log and `persist()` checkpoints, with no disk involved.
pub fn open_store(scheme_name: &str, dtd: &str, wal: bool) -> Result<Store, String> {
    let mut builder = XmlStore::builder(scheme(scheme_name, dtd)?);
    if wal {
        builder = builder.backend(Box::new(reldb::MemBackend::new()));
    }
    builder
        .open()
        .map_err(|e| format!("{scheme_name}: open: {e}"))
}

/// xmlpar: `Document::parse`.
pub fn parse_xml(xml: &str) -> Result<Document, String> {
    Document::parse(xml).map_err(|e| e.to_string())
}

/// The canonical serialisation `reconstruct` must reproduce.
pub fn canonical(xml: &str) -> Result<String, String> {
    Ok(xmlpar::serialize::to_string(&parse_xml(xml)?))
}

/// xmlpar + shredder + reldb insert: `load_str`; returns the nodes
/// (elements + attributes + texts) the load reports.
pub fn load_str(store: &mut Store, name: &str, xml: &str) -> Result<u64, String> {
    store
        .load_str(name, xml)
        .map(|(_, s)| (s.elements + s.attributes + s.texts) as u64)
        .map_err(|e| e.to_string())
}

/// shredder + reldb insert on a pre-parsed document: `load_document`.
pub fn load_document(store: &mut Store, name: &str, doc: &Document) -> Result<u64, String> {
    store
        .load_document(name, doc)
        .map(|(_, s)| (s.elements + s.attributes + s.texts) as u64)
        .map_err(|e| e.to_string())
}

/// reldb snapshot + WAL truncate: `persist`.
pub fn persist(store: &mut Store) -> Result<(), String> {
    store.persist().map_err(|e| e.to_string())
}

/// shredder::reconstruct + serialise: `reconstruct`.
pub fn reconstruct(store: &Store, name: &str) -> Result<String, String> {
    store.reconstruct(name).map_err(|e| e.to_string())
}

/// core delete path: `remove`; returns the rows deleted.
pub fn remove(store: &mut Store, name: &str) -> Result<u64, String> {
    store
        .remove(name)
        .map(|n| n as u64)
        .map_err(|e| e.to_string())
}

/// Heap plus index bytes of the scheme's tables.
pub fn stored_bytes(store: &Store) -> u64 {
    store.storage_stats().total_bytes() as u64
}

/// xqir: `parse_query`.
pub fn parse_query(query: &str) -> Result<(), String> {
    xqir::parse_query(query)
        .map(|q| {
            std::hint::black_box(q);
        })
        .map_err(|e| e.to_string())
}

/// core::store: `snapshot()`.
pub fn snapshot(store: &Store) {
    std::hint::black_box(store.snapshot());
}

/// xqir + core::compile: `request(..).translated()`.
pub fn translated(store: &Store, query: &str) -> Result<(), String> {
    store
        .request(query)
        .translated()
        .map(|t| {
            std::hint::black_box(t);
        })
        .map_err(|e| e.to_string())
}

/// translate + reldb sql/plan/exec: `request(..).rows()`; returns the row count.
pub fn rows(store: &Store, query: &str) -> Result<u64, String> {
    store
        .request(query)
        .rows()
        .map(|r| r.len() as u64)
        .map_err(|e| e.to_string())
}

/// The whole read pipeline: `request(..).run()`; returns the published items.
pub fn run(store: &Store, query: &str, request_id: &str) -> Result<Vec<String>, String> {
    store
        .request(query)
        .request_id(request_id)
        .run()
        .map(|out| out.items)
        .map_err(|e| e.to_string())
}

/// The read pipeline without publishing: `request(..).count()`.
pub fn count(store: &Store, query: &str, request_id: &str) -> Result<u64, String> {
    store
        .request(query)
        .request_id(request_id)
        .count()
        .map(|n| n as u64)
        .map_err(|e| e.to_string())
}

/// `run()` under `Explain::Analyze`: the rows every operator of the main
/// statement produced (the profile tree, summed), for rows-examined-per-item.
pub fn analyze_rows_examined(store: &Store, query: &str) -> Result<u64, String> {
    let out = store
        .request(query)
        .explain(Explain::Analyze)
        .run()
        .map_err(|e| e.to_string())?;
    let mut examined = 0u64;
    if let Some(profile) = &out.profile {
        profile.visit(&mut |n| examined += n.stats.rows_out);
    }
    Ok(examined)
}

/// `store.serve()` on an ephemeral loopback port; `sink` receives the
/// served requests' spans.
pub fn serve(store: &Store, sink: Option<&TraceSink>) -> Result<Server, String> {
    let mut builder = store.serve().addr("127.0.0.1:0");
    if let Some(sink) = sink {
        builder = builder.trace(sink);
    }
    builder.start().map_err(|e| format!("serve: {e}"))
}

/// Stop the server; true when every in-flight request drained by itself.
pub fn stop(server: Server) -> bool {
    server.stop().clean()
}

/// One `POST /query` over a fresh connection (the server speaks
/// HTTP/1.0, one request per connection). Returns the status and body.
pub fn http_query(
    addr: SocketAddr,
    query: &str,
    request_id: &str,
) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!(
        "POST /query HTTP/1.0\r\nContent-Length: {}\r\nX-Request-Id: {request_id}\r\n\r\n{query}",
        query.len()
    );
    conn.write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A registry counter's current value.
pub fn counter(name: &str) -> u64 {
    metrics::counter_value(name)
}

/// Sum of the `db` lock's wait-time histograms (read + write), in µs.
pub fn db_lock_wait_us() -> u64 {
    ["read", "write"]
        .iter()
        .map(
            |mode| match metrics::get(&timed_lock::wait_metric("db", mode)) {
                Some(Metric::Histogram(h)) => h.sum,
                _ => 0,
            },
        )
        .sum()
}

/// The `snapshot_epoch_lag` gauge: how many commits behind the last
/// pinned request's snapshot was.
pub fn epoch_lag() -> u64 {
    match metrics::get("snapshot_epoch_lag") {
        Some(Metric::Gauge(v)) => u64::try_from(v).unwrap_or(0),
        _ => 0,
    }
}

/// A sink large enough that one op's spans never wrap it.
pub fn trace_sink() -> TraceSink {
    TraceSink::with_capacity(1 << 20)
}

/// Make `sink` this thread's collector until the guard drops.
pub fn install(sink: &TraceSink) -> trace::InstallGuard {
    trace::install(sink)
}

/// Open one of the benchmark's own spans.
pub fn span(name: impl Into<std::borrow::Cow<'static, str>>) -> trace::Span {
    trace::span(name, "bench")
}

/// Take every event the sink holds, and how many it dropped.
pub fn drain(sink: &TraceSink) -> (Vec<Event>, u64) {
    let events = sink.events();
    let dropped = sink.dropped();
    sink.clear();
    (events, dropped)
}

/// JSON string quoting, as the product's own emitters do it.
pub fn json_quote(s: &str) -> String {
    trace::json_quote(s)
}
