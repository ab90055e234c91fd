//! Request-correlated observability: per-request phase timings, request
//! IDs, and the bounded flight-recorder ring behind `/stats`,
//! `/debug/requests`, and the access log.
//!
//! Every request the monitoring endpoint serves gets an ID (honoring a
//! client-supplied `X-Request-Id` when it is well formed), a
//! [`PhaseTimings`] breakdown, and a [`RequestSummary`] pushed into the
//! server's [`FlightRecorder`] — a fixed-size ring of the most recent
//! requests, cheap enough to leave on in production and dumpable live
//! while an incident is happening. One structured access-log line per
//! request goes to stderr with all six phase timings, so a request ID in
//! a response header can be grepped straight to its breakdown, its trace
//! spans, its ledger row, and any slow capture it triggered.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::{self, Histogram, Metric};
use crate::timed_lock;
use crate::trace::json_quote;

/// Per-phase wall-clock breakdown of one served request, microseconds.
///
/// The six phases cover the whole request path: `queue` (admission to
/// dispatch), `lock_wait` (blocked on the store's database lock),
/// `snapshot_clone` (copy-on-read snapshot construction), `translate`
/// (XPath → SQL), `execute` (SQL execution), `publish` (row → item
/// rendering). Phases that did not happen — an error before execution, a
/// GET endpoint — stay zero, so every access-log line carries all six.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Admission (connection accepted, slot reserved) to dispatch.
    pub queue_us: u64,
    /// Blocked acquiring the database lock.
    pub lock_wait_us: u64,
    /// Cloning the copy-on-read snapshot.
    pub snapshot_clone_us: u64,
    /// XPath parse + SQL translation.
    pub translate_us: u64,
    /// SQL execution.
    pub execute_us: u64,
    /// Rendering result rows into response items.
    pub publish_us: u64,
}

impl PhaseTimings {
    /// `key=value` rendering for the access log, all six phases always.
    pub fn log_fields(&self) -> String {
        format!(
            "queue_us={} lock_wait_us={} snapshot_clone_us={} translate_us={} \
             execute_us={} publish_us={}",
            self.queue_us,
            self.lock_wait_us,
            self.snapshot_clone_us,
            self.translate_us,
            self.execute_us,
            self.publish_us
        )
    }

    /// JSON object rendering, all six phases always.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_us\":{},\"lock_wait_us\":{},\"snapshot_clone_us\":{},\
             \"translate_us\":{},\"execute_us\":{},\"publish_us\":{}}}",
            self.queue_us,
            self.lock_wait_us,
            self.snapshot_clone_us,
            self.translate_us,
            self.execute_us,
            self.publish_us
        )
    }

    /// Sum of all six phases (the accounted-for part of `total_us`).
    pub fn accounted_us(&self) -> u64 {
        self.queue_us
            .saturating_add(self.lock_wait_us)
            .saturating_add(self.snapshot_clone_us)
            .saturating_add(self.translate_us)
            .saturating_add(self.execute_us)
            .saturating_add(self.publish_us)
    }
}

/// One request's entry in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestSummary {
    /// Assigned (or honored) request ID, echoed as `X-Request-Id`.
    pub request_id: String,
    /// HTTP method.
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Admission to response-written wall time.
    pub total_us: u64,
    /// Per-phase breakdown.
    pub phases: PhaseTimings,
}

impl RequestSummary {
    /// The structured access-log line for this request. One line, all
    /// six phase timings, greppable by request ID.
    pub fn access_log_line(&self) -> String {
        format!(
            "access request_id={} method={} path={} status={} total_us={} {}",
            self.request_id,
            self.method,
            self.path,
            self.status,
            self.total_us,
            self.phases.log_fields()
        )
    }

    /// JSON object rendering for `/debug/requests` and `/stats`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"request_id\":{},\"method\":{},\"path\":{},\"status\":{},\
             \"total_us\":{},\"phases\":{}}}",
            json_quote(&self.request_id),
            json_quote(&self.method),
            json_quote(&self.path),
            self.status,
            self.total_us,
            self.phases.to_json()
        )
    }
}

/// Request-ID source: a per-server random-ish seed plus a counter, no
/// external dependencies. IDs look like `5f3a9c1b-2a`.
#[derive(Debug)]
pub struct RequestIds {
    seed: u64,
    counter: AtomicU64,
}

impl Default for RequestIds {
    fn default() -> RequestIds {
        RequestIds::new()
    }
}

impl RequestIds {
    /// A fresh source seeded from wall clock and pid.
    pub fn new() -> RequestIds {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        let seed = (now.as_secs() << 20)
            ^ u64::from(now.subsec_nanos())
            ^ (u64::from(std::process::id()) << 40);
        RequestIds {
            seed,
            counter: AtomicU64::new(1),
        }
    }

    /// Honor a well-formed client-offered ID, else mint a fresh one.
    pub fn assign(&self, offered: Option<&str>) -> String {
        if let Some(id) = offered.and_then(sanitize_request_id) {
            return id;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{:x}", self.seed & 0xffff_ffff, n)
    }
}

/// Accept a client-offered request ID only when it is short and made of
/// header-and-log-safe characters; anything else is replaced.
pub fn sanitize_request_id(offered: &str) -> Option<String> {
    let t = offered.trim();
    let ok = !t.is_empty()
        && t.len() <= 64
        && t.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'));
    ok.then(|| t.to_string())
}

/// How many summaries the ring keeps by default.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

struct RecorderInner {
    capacity: usize,
    entries: VecDeque<RequestSummary>,
    /// Summaries evicted to make room (ring overflow).
    dropped: u64,
    /// Total summaries ever recorded (monotonic).
    total: u64,
}

/// Bounded ring of the last N [`RequestSummary`] entries.
///
/// Clone-shares the ring (like `TraceSink`): the serve layer records
/// into it from connection workers while `/stats`, `/debug/requests`,
/// and the shutdown `DrainReport` read it.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A recorder keeping at most `capacity` summaries (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                capacity: capacity.max(1),
                entries: VecDeque::new(),
                dropped: 0,
                total: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        // Summaries are plain data; a panic mid-push leaves the ring
        // merely short, never invalid.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one finished request.
    pub fn record(&self, summary: RequestSummary) {
        let mut inner = self.lock();
        if inner.entries.len() >= inner.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(summary);
        inner.total += 1;
    }

    /// The most recent `n` summaries, oldest first.
    pub fn recent(&self, n: usize) -> Vec<RequestSummary> {
        let inner = self.lock();
        let skip = inner.entries.len().saturating_sub(n);
        inner.entries.iter().skip(skip).cloned().collect()
    }

    /// Summaries currently retained.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Summaries evicted due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Total summaries ever recorded.
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// `/debug/requests` body: the full retained ring, oldest first.
    pub fn requests_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"requests\":[");
        for (i, s) in inner.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s.to_json());
        }
        out.push_str(&format!(
            "\n],\"recorded\":{},\"dropped\":{}}}\n",
            inner.total, inner.dropped
        ));
        out
    }

    /// `/stats` body: aggregate view over the retained ring plus the
    /// live contention gauges — latency percentiles (from a pow2
    /// histogram over ring totals), per-phase sums, status counts,
    /// inflight, epoch lag, and the `db` lock's wait percentiles.
    pub fn stats_json(&self) -> String {
        let (entries, total, dropped) = {
            let inner = self.lock();
            (
                inner.entries.iter().cloned().collect::<Vec<_>>(),
                inner.total,
                inner.dropped,
            )
        };
        let mut latency = Histogram::default();
        let mut phases = PhaseTimings::default();
        let mut by_status: BTreeMap<u16, u64> = BTreeMap::new();
        for s in &entries {
            latency.observe(s.total_us);
            *by_status.entry(s.status).or_insert(0) += 1;
            phases.queue_us += s.phases.queue_us;
            phases.lock_wait_us += s.phases.lock_wait_us;
            phases.snapshot_clone_us += s.phases.snapshot_clone_us;
            phases.translate_us += s.phases.translate_us;
            phases.execute_us += s.phases.execute_us;
            phases.publish_us += s.phases.publish_us;
        }
        let gauge = |name: &str| match metrics::get(name) {
            Some(Metric::Gauge(v)) => v,
            _ => 0,
        };
        let lock_p99 = |mode: &str| match metrics::get(&timed_lock::wait_metric("db", mode)) {
            Some(Metric::Histogram(h)) if h.count > 0 => h.percentile_bound(99),
            _ => 0,
        };
        let mut status = String::from("{");
        for (i, (code, n)) in by_status.iter().enumerate() {
            if i > 0 {
                status.push(',');
            }
            status.push_str(&format!("\"{code}\":{n}"));
        }
        status.push('}');
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"recorded\":{total},\"dropped\":{dropped},\"ring\":{},",
            entries.len()
        ));
        out.push_str(&format!(
            "\"inflight\":{},\"epoch_lag\":{},",
            gauge("inflight_requests"),
            gauge("snapshot_epoch_lag")
        ));
        out.push_str(&format!(
            "\"latency_us\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
            latency.count,
            latency.percentile_bound(50),
            latency.percentile_bound(90),
            latency.percentile_bound(99),
            if latency.count > 0 { latency.max } else { 0 }
        ));
        out.push_str(&format!(
            "\"db_lock_wait_p99_us\":{{\"read\":{},\"write\":{}}},",
            lock_p99("read"),
            lock_p99("write")
        ));
        out.push_str(&format!(
            "\"lock_poison_recoveries\":{},",
            metrics::counter_value(timed_lock::POISON_RECOVERIES)
        ));
        out.push_str(&format!("\"phase_totals\":{},", phases.to_json()));
        out.push_str(&format!("\"by_status\":{status},"));
        let recent = entries.iter().rev().take(8).rev();
        out.push_str("\"recent\":[");
        for (i, s) in recent.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s.to_json());
        }
        out.push_str("\n]}\n");
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("capacity", &inner.capacity)
            .field("len", &inner.entries.len())
            .field("dropped", &inner.dropped)
            .field("total", &inner.total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(id: &str, status: u16, total_us: u64) -> RequestSummary {
        RequestSummary {
            request_id: id.to_string(),
            method: "POST".into(),
            path: "/query".into(),
            status,
            total_us,
            phases: PhaseTimings {
                queue_us: 1,
                lock_wait_us: 2,
                snapshot_clone_us: 3,
                translate_us: 4,
                execute_us: 5,
                publish_us: 6,
            },
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            rec.record(summary(&format!("r{i}"), 200, 10 * (i + 1)));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.total(), 5);
        let recent = rec.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].request_id, "r3");
        assert_eq!(recent[1].request_id, "r4");
    }

    #[test]
    fn access_log_line_has_all_six_phases() {
        let line = summary("abc", 200, 21).access_log_line();
        assert!(line.starts_with("access request_id=abc "), "{line}");
        for key in [
            "queue_us=",
            "lock_wait_us=",
            "snapshot_clone_us=",
            "translate_us=",
            "execute_us=",
            "publish_us=",
        ] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
        // Default (error-path) phases still render all six keys.
        let bare = RequestSummary::default().access_log_line();
        assert!(bare.contains("publish_us=0"), "{bare}");
    }

    #[test]
    fn stats_json_aggregates_ring() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(summary("a", 200, 100));
        rec.record(summary("b", 400, 900));
        let stats = rec.stats_json();
        assert!(stats.contains("\"recorded\":2"), "{stats}");
        assert!(
            stats.contains("\"by_status\":{\"200\":1,\"400\":1}"),
            "{stats}"
        );
        assert!(stats.contains("\"latency_us\":{\"count\":2,"), "{stats}");
        assert!(
            stats.contains("\"phase_totals\":{\"queue_us\":2,"),
            "{stats}"
        );
        assert!(stats.contains("\"recent\":["), "{stats}");
    }

    #[test]
    fn request_ids_honor_only_sane_offers() {
        let ids = RequestIds::new();
        assert_eq!(ids.assign(Some("client-1")), "client-1");
        let minted = ids.assign(Some("bad id with spaces"));
        assert!(!minted.contains(' '), "{minted}");
        let a = ids.assign(None);
        let b = ids.assign(None);
        assert_ne!(a, b, "minted IDs must be distinct");
        assert!(sanitize_request_id(&"x".repeat(65)).is_none());
        assert!(sanitize_request_id("ok-1_2.3:4").is_some());
    }

    #[test]
    fn requests_json_shape() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(summary("q1", 200, 5));
        let json = rec.requests_json();
        assert!(json.starts_with("{\"requests\":["), "{json}");
        assert!(json.contains("\"request_id\":\"q1\""), "{json}");
        assert!(
            json.trim_end().ends_with("\"recorded\":1,\"dropped\":0}"),
            "{json}"
        );
    }
}
