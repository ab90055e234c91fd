//! A from-scratch, overload-protected HTTP/1.0 server over `std::net`.
//!
//! [`serve`] binds a [`TcpListener`] on a background thread and answers
//! the monitoring paths plus an optional query endpoint:
//!
//! - `GET /metrics` — the registry's plain-text exposition
//!   ([`metrics::dump`], scrape-shaped histogram buckets included);
//! - `GET /healthz` — liveness/durability status from the embedder's
//!   health provider (`200` when healthy, `503` otherwise);
//! - `GET /spans`  — chrome-trace JSON of the attached trace ring;
//! - `GET /slow`   — the embedder's slow-query forensic captures (JSON);
//! - `GET /stats`  — live aggregate over the request flight recorder:
//!   latency percentiles, per-phase totals, inflight, epoch lag, lock
//!   wait percentiles ([`FlightRecorder::stats_json`]);
//! - `GET /debug/requests` — the flight recorder's full retained ring,
//!   one JSON summary per recent request;
//! - `POST /query` — the embedder's query provider, when one is wired
//!   via [`Endpoints::query`]. The body is the query text; an optional
//!   `X-Timeout-Ms` header sets a per-request deadline.
//!
//! # Request correlation
//!
//! Every routed request gets a request ID — honored from a well-formed
//! `X-Request-Id` header, minted otherwise — echoed on the response as
//! `X-Request-Id`, stamped into the [`RequestSummary`] ring, and printed
//! as one structured access-log line on stderr with all six phase
//! timings (queue, lock-wait, snapshot-clone, translate, execute,
//! publish). Query providers receive the ID in [`QueryCall::request_id`]
//! and thread it into trace spans, ledger rows, and slow captures, so
//! one grep correlates a response header with every piece of evidence
//! the request left behind.
//!
//! # Overload protection
//!
//! The server is resilient by construction rather than by luck:
//!
//! - **Bounded admission**: at most [`ServeConfig::max_inflight`]
//!   requests run at once. Excess connections are shed immediately with
//!   `503` + `Retry-After` (never queued behind slow work) and counted
//!   in `queries_shed_total`. The OS listen backlog bounds what can pile
//!   up between accepts.
//! - **Slowloris defence**: the request head is capped at 8 KiB and must
//!   arrive within the read timeout; responses must drain within the
//!   write timeout. Violations cost the client its connection, not the
//!   server a thread forever.
//! - **Graceful shutdown**: [`MonitorHandle::stop`] stops accepting,
//!   drains in-flight requests up to [`ServeConfig::drain_deadline`],
//!   then cancels stragglers through a shared [`CancelToken`] that the
//!   query provider threads into the executor's cooperative polls. The
//!   [`DrainReport`] carries the recorder's most recent summaries so a
//!   post-mortem sees what the server was doing when it died.
//!
//! The `inflight_requests` gauge and the `queries_shed_total` /
//! `queries_timed_out_total` counters make the overload behaviour
//! visible on `/metrics` while it is happening.
//!
//! Providers are plain closures so the crate stays dependency-free; the
//! store layer wires its ledger, health report, and query pipeline in
//! without `obs` knowing their types.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::metrics;
use crate::reqlog::{FlightRecorder, PhaseTimings, RequestIds, RequestSummary};

/// Largest request head (request line + headers) the server will read.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Largest `POST /query` body the server will accept.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// How many flight-recorder summaries a [`DrainReport`] carries.
const RECENT_IN_REPORT: usize = 32;

/// Admission, timeout, and shutdown knobs for [`serve_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum concurrently-handled requests; excess connections are
    /// shed with `503` + `Retry-After`.
    pub max_inflight: usize,
    /// How long a connection may dribble its request head/body before
    /// being dropped.
    pub read_timeout: Duration,
    /// How long a response write may block before the connection is
    /// abandoned.
    pub write_timeout: Duration,
    /// How long [`MonitorHandle::stop`] waits for in-flight requests to
    /// finish before cancelling them (and then again for the cancelled
    /// stragglers to unwind).
    pub drain_deadline: Duration,
    /// Value of the `Retry-After` header on shed responses, in seconds.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_inflight: 8,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

/// What the health provider reports: a flag driving the status code
/// (`200` vs `503`) plus a plain-text body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// True when the process is healthy (`200 OK`).
    pub ok: bool,
    /// Plain-text detail rendered as the response body.
    pub body: String,
}

/// One `POST /query` call, handed to the embedder's query provider.
#[derive(Debug, Clone)]
pub struct QueryCall {
    /// The request body: the query text.
    pub query: String,
    /// Per-request deadline from the `X-Timeout-Ms` header, if given.
    pub timeout_ms: Option<u64>,
    /// The server's shutdown token: cancelled when a graceful stop runs
    /// out of drain budget. Providers should thread it into their
    /// execution limits so stragglers unwind promptly.
    pub cancel: CancelToken,
    /// The request's correlation ID (assigned or honored by the
    /// server). Providers should thread it into spans, ledger rows, and
    /// captures so response headers grep to the request's evidence.
    pub request_id: String,
}

/// What the query provider returns: a status code plus a typed body.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// HTTP status code (e.g. 200, 400, 408, 500).
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: String,
    /// The response body.
    pub body: String,
    /// Per-phase timings the provider measured (queue time is filled in
    /// by the server). Zeros for phases that did not run.
    pub phases: PhaseTimings,
}

type TextProvider = Box<dyn Fn() -> String + Send + Sync>;
type HealthProvider = Box<dyn Fn() -> Health + Send + Sync>;
type QueryProvider = Box<dyn Fn(QueryCall) -> QueryReply + Send + Sync>;

/// The endpoint bodies, each produced on demand. Defaults: live
/// [`metrics::dump`], an always-ok health check, an empty trace, no
/// captures, and no query endpoint — override what the embedder
/// actually has.
pub struct Endpoints {
    metrics: TextProvider,
    healthz: HealthProvider,
    spans: TextProvider,
    slow: TextProvider,
    query: Option<QueryProvider>,
}

impl Default for Endpoints {
    fn default() -> Endpoints {
        Endpoints::new()
    }
}

impl Endpoints {
    /// Endpoints with every provider at its default.
    pub fn new() -> Endpoints {
        Endpoints {
            metrics: Box::new(metrics::dump),
            healthz: Box::new(|| Health {
                ok: true,
                body: "ok\n".into(),
            }),
            spans: Box::new(|| "{\"traceEvents\":[],\"droppedEvents\":0}".into()),
            slow: Box::new(|| "[]".into()),
            query: None,
        }
    }

    /// Override the `/metrics` body (the default is the live registry).
    pub fn metrics(mut self, f: impl Fn() -> String + Send + Sync + 'static) -> Endpoints {
        self.metrics = Box::new(f);
        self
    }

    /// Provide the `/healthz` report.
    pub fn healthz(mut self, f: impl Fn() -> Health + Send + Sync + 'static) -> Endpoints {
        self.healthz = Box::new(f);
        self
    }

    /// Serve `/spans` from a trace ring: each request exports the sink's
    /// current contents as chrome-trace JSON.
    pub fn spans(mut self, sink: &crate::trace::TraceSink) -> Endpoints {
        let sink = sink.clone();
        self.spans = Box::new(move || sink.to_chrome_trace());
        self
    }

    /// Provide the `/slow` body (JSON array of forensic captures).
    pub fn slow(mut self, f: impl Fn() -> String + Send + Sync + 'static) -> Endpoints {
        self.slow = Box::new(f);
        self
    }

    /// Enable `POST /query`: `f` receives the body text plus the
    /// per-request timeout, the request ID, and the server's shutdown
    /// token, and returns the response. Without this, `/query` answers
    /// 404.
    pub fn query(
        mut self,
        f: impl Fn(QueryCall) -> QueryReply + Send + Sync + 'static,
    ) -> Endpoints {
        self.query = Some(Box::new(f));
        self
    }
}

/// What a graceful stop did to the requests that were in flight when it
/// began: how many finished on their own within the drain deadline, and
/// how many had to be force-cancelled through the shared [`CancelToken`].
///
/// A forced cancellation is not an error from the server's point of view
/// — the straggler unwinds cooperatively — but embedders that promise
/// clean drains (e.g. a CLI's signal path) should check [`clean`]
/// (DrainReport::clean) and surface the difference to their caller.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Requests in flight at stop time that finished within the drain
    /// deadline, without being cancelled.
    pub drained: usize,
    /// Stragglers that outlived the deadline, were cancelled through the
    /// shared token, and then unwound.
    pub cancelled: usize,
    /// Stragglers that *still* had not unwound when the second drain
    /// wave gave up. Non-zero means a request ignored the token. The
    /// three counts are disjoint: every request in flight at stop time
    /// lands in exactly one bucket.
    pub stuck: usize,
    /// The flight recorder's most recent request summaries at stop time
    /// (up to 32, oldest first) — the server's last words, for
    /// post-mortems that outlive the process.
    pub recent: Vec<RequestSummary>,
}

impl DrainReport {
    /// True when every in-flight request finished without being
    /// force-cancelled.
    pub fn clean(&self) -> bool {
        self.cancelled == 0 && self.stuck == 0
    }

    /// True when every in-flight request eventually unwound — possibly
    /// only after cancellation. This matches the old boolean `stop()`
    /// contract ("did the server reach idle").
    pub fn idle(&self) -> bool {
        self.stuck == 0
    }
}

/// Handle onto a running monitor server. Dropping it (or calling
/// [`stop`](MonitorHandle::stop)) shuts the server down gracefully:
/// stop accepting, drain in-flight requests up to the drain deadline,
/// cancel stragglers, and join the accept thread.
pub struct MonitorHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    inflight: Arc<AtomicUsize>,
    cancel: CancelToken,
    drain_deadline: Duration,
    recorder: FlightRecorder,
}

impl MonitorHandle {
    /// The address the server actually bound (port 0 resolves here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently being handled.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The server's shutdown token (cancelled when a graceful stop runs
    /// out of drain budget). Exposed so embedders can share it with
    /// work started outside the query provider.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Gracefully stop: stop accepting, drain in-flight requests up to
    /// the drain deadline, cancel stragglers, and join the server
    /// thread. The report says how many in-flight requests finished on
    /// their own versus needing a forced cancellation, and carries the
    /// recorder's most recent request summaries.
    pub fn stop(mut self) -> DrainReport {
        self.shutdown()
    }

    fn shutdown(&mut self) -> DrainReport {
        self.stopping.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let at_stop = self.inflight.load(Ordering::Acquire);
        // Drain: give in-flight requests the deadline to finish...
        if self.await_idle(self.drain_deadline) {
            return DrainReport {
                drained: at_stop,
                cancelled: 0,
                stuck: 0,
                recent: self.recorder.recent(RECENT_IN_REPORT),
            };
        }
        // ...then cancel stragglers and give them the same budget to
        // observe it and unwind. A straggler counts as `cancelled` only
        // if it actually unwound; one that ignores the token is `stuck`,
        // not both.
        let stragglers = self.inflight.load(Ordering::Acquire);
        self.cancel.cancel();
        self.await_idle(self.drain_deadline);
        let stuck = self.inflight.load(Ordering::Acquire);
        DrainReport {
            drained: at_stop.saturating_sub(stragglers),
            cancelled: stragglers.saturating_sub(stuck),
            stuck,
            recent: self.recorder.recent(RECENT_IN_REPORT),
        }
    }

    fn await_idle(&self, budget: Duration) -> bool {
        let start = Instant::now();
        while self.inflight.load(Ordering::Acquire) > 0 {
            if start.elapsed() >= budget {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
        }
    }
}

/// Decrements the in-flight count (and refreshes the gauge) when a
/// request handler exits — normally or by panic.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let now = self.0.fetch_sub(1, Ordering::AcqRel) - 1;
        metrics::gauge_set("inflight_requests", now as i64);
    }
}

/// Per-server state every connection worker shares.
struct ConnShared {
    endpoints: Endpoints,
    cancel: CancelToken,
    recorder: FlightRecorder,
    ids: RequestIds,
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the endpoints on a
/// background thread with the default [`ServeConfig`].
pub fn serve(addr: &str, endpoints: Endpoints) -> std::io::Result<MonitorHandle> {
    serve_with(addr, endpoints, ServeConfig::default())
}

/// Bind `addr` and serve the endpoints until the returned handle stops
/// or drops, with explicit admission/timeout/shutdown knobs.
pub fn serve_with(
    addr: &str,
    endpoints: Endpoints,
    config: ServeConfig,
) -> std::io::Result<MonitorHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let inflight = Arc::new(AtomicUsize::new(0));
    let cancel = CancelToken::new();
    let recorder = FlightRecorder::new();
    let shared = Arc::new(ConnShared {
        endpoints,
        cancel: cancel.clone(),
        recorder: recorder.clone(),
        ids: RequestIds::new(),
    });
    let stop = stopping.clone();
    let accept_inflight = inflight.clone();
    let drain_deadline = config.drain_deadline;
    let thread = std::thread::Builder::new()
        .name("xmlrel-monitor".into())
        .spawn(move || {
            accept_loop(&listener, &stop, &accept_inflight, &shared, &config);
        })?;
    Ok(MonitorHandle {
        addr,
        stopping,
        thread: Some(thread),
        inflight,
        cancel,
        drain_deadline,
        recorder,
    })
}

/// Accept connections, shed when at capacity, and hand admitted ones to
/// per-connection worker threads.
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    inflight: &Arc<AtomicUsize>,
    shared: &Arc<ConnShared>,
    config: &ServeConfig,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // One slow or broken client must not wedge the endpoint — in
        // either direction.
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        // Admission gate: shed instead of queueing behind slow work.
        // The increment is done here (not in the worker) so the gate
        // never over-admits between accept and thread start.
        let admitted = inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < config.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            metrics::counter_inc("queries_shed_total");
            let retry = format!("Retry-After: {}\r\n", config.retry_after_secs);
            let _ = respond_extra(
                &mut stream,
                503,
                "Service Unavailable",
                "text/plain",
                "overloaded; retry later\n",
                &retry,
            );
            continue;
        }
        // Queue time starts at admission: everything between here and
        // dispatch (thread spawn, head read, parsing) is `queue_us`.
        let admitted_at = Instant::now();
        metrics::gauge_set("inflight_requests", inflight.load(Ordering::Acquire) as i64);
        let guard = InflightGuard(inflight.clone());
        let shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("xmlrel-serve-conn".into())
            .spawn(move || {
                let _guard = guard;
                let _ = handle(stream, &shared, admitted_at);
            });
        // Thread spawn failure: the guard inside the closure was never
        // run; `spawned` holding the closure drops it (and the guard).
        drop(spawned);
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Queue-only phase breakdown for requests that never reach a provider.
fn queue_phases(admitted: Instant) -> PhaseTimings {
    PhaseTimings {
        queue_us: elapsed_us(admitted),
        ..PhaseTimings::default()
    }
}

/// One routed request's identity: everything needed to respond with the
/// correlation header, log the access line, and record the summary.
struct RequestCtx<'a> {
    shared: &'a ConnShared,
    rid: String,
    method: String,
    path: String,
    admitted: Instant,
}

impl RequestCtx<'_> {
    /// Write the response (with `X-Request-Id`), emit the access-log
    /// line, and record the summary into the flight recorder.
    fn finish(
        &self,
        stream: &mut TcpStream,
        code: u16,
        reason: &str,
        content_type: &str,
        body: &str,
        phases: PhaseTimings,
    ) -> std::io::Result<()> {
        let extra = format!("X-Request-Id: {}\r\n", self.rid);
        let result = respond_extra(stream, code, reason, content_type, body, &extra);
        let summary = RequestSummary {
            request_id: self.rid.clone(),
            method: self.method.clone(),
            path: self.path.clone(),
            status: code,
            total_us: elapsed_us(self.admitted),
            phases,
        };
        eprintln!("{}", summary.access_log_line());
        self.shared.recorder.record(summary);
        result
    }
}

/// Read one request, route it, and write the response.
fn handle(mut stream: TcpStream, shared: &ConnShared, admitted: Instant) -> std::io::Result<()> {
    let (head, mut body) = match read_head(&mut stream) {
        Some(h) => h,
        None => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "bad request\n",
            )
        }
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "bad request\n",
            )
        }
    };
    let headers = parse_headers(lines);
    // Ignore any query string: `/metrics?x=1` is still `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    let ctx = RequestCtx {
        shared,
        rid: shared
            .ids
            .assign(headers.get("x-request-id").map(String::as_str)),
        method: method.to_string(),
        path: path.to_string(),
        admitted,
    };
    if ctx.path == "/query" {
        if let Some(provider) = shared.endpoints.query.as_ref() {
            if ctx.method != "POST" {
                return ctx.finish(
                    &mut stream,
                    405,
                    "Method Not Allowed",
                    "text/plain",
                    "POST only\n",
                    queue_phases(admitted),
                );
            }
            return handle_query(&mut stream, provider.as_ref(), &ctx, &headers, &mut body);
        }
    }
    if ctx.method != "GET" {
        return ctx.finish(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "GET only\n",
            queue_phases(admitted),
        );
    }
    let phases = queue_phases(admitted);
    let (code, reason, content_type, body) = match ctx.path.as_str() {
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4",
            (shared.endpoints.metrics)(),
        ),
        "/healthz" => {
            let h = (shared.endpoints.healthz)();
            if h.ok {
                (200, "OK", "text/plain", h.body)
            } else {
                (503, "Service Unavailable", "text/plain", h.body)
            }
        }
        "/spans" => (200, "OK", "application/json", (shared.endpoints.spans)()),
        "/slow" => (200, "OK", "application/json", (shared.endpoints.slow)()),
        "/stats" => (200, "OK", "application/json", shared.recorder.stats_json()),
        "/debug/requests" => (
            200,
            "OK",
            "application/json",
            shared.recorder.requests_json(),
        ),
        _ => (
            404,
            "Not Found",
            "text/plain",
            "unknown path; try /metrics /healthz /spans /slow /stats /debug/requests\n".to_string(),
        ),
    };
    ctx.finish(&mut stream, code, reason, content_type, &body, phases)
}

/// `POST /query`: bounded body read, optional `X-Timeout-Ms`, provider
/// call, reply.
fn handle_query(
    stream: &mut TcpStream,
    provider: &(dyn Fn(QueryCall) -> QueryReply + Send + Sync),
    ctx: &RequestCtx<'_>,
    headers: &HashMap<String, String>,
    body: &mut Vec<u8>,
) -> std::io::Result<()> {
    let Some(len) = headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    else {
        return ctx.finish(
            stream,
            400,
            "Bad Request",
            "text/plain",
            "Content-Length required\n",
            queue_phases(ctx.admitted),
        );
    };
    if len > MAX_BODY_BYTES {
        return ctx.finish(
            stream,
            413,
            "Payload Too Large",
            "text/plain",
            "query body too large\n",
            queue_phases(ctx.admitted),
        );
    }
    // Read the rest of the body (read timeout still applies).
    while body.len() < len {
        let mut chunk = [0u8; 1024];
        let want = (len - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).unwrap_or(0);
        if n == 0 {
            return ctx.finish(
                stream,
                400,
                "Bad Request",
                "text/plain",
                "truncated body\n",
                queue_phases(ctx.admitted),
            );
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    let Ok(query) = String::from_utf8(std::mem::take(body)) else {
        return ctx.finish(
            stream,
            400,
            "Bad Request",
            "text/plain",
            "body is not UTF-8\n",
            queue_phases(ctx.admitted),
        );
    };
    let timeout_ms = headers
        .get("x-timeout-ms")
        .and_then(|v| v.parse::<u64>().ok());
    // Queue time ends here: the provider call is the dispatch.
    let queue_us = elapsed_us(ctx.admitted);
    let mut reply = provider(QueryCall {
        query,
        timeout_ms,
        cancel: ctx.shared.cancel.clone(),
        request_id: ctx.rid.clone(),
    });
    reply.phases.queue_us = queue_us;
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Error",
    };
    ctx.finish(
        stream,
        reply.status,
        reason,
        &reply.content_type,
        &reply.body,
        reply.phases,
    )
}

/// Lower-cased header map from the lines after the request line.
fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            map.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    map
}

/// Read up to the end of the request head (blank line), returning the
/// head text plus any body bytes already read past it. `None` on
/// malformed, oversized, or timed-out input.
fn read_head(stream: &mut TcpStream) -> Option<(String, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let split = loop {
        if let Some(pos) = head_end(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(chunk.get(..n)?);
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
    };
    let body = buf.split_off(split);
    let text = String::from_utf8_lossy(&buf).into_owned();
    if text.lines().next().is_none_or(|l| l.is_empty()) {
        return None;
    }
    Some((text, body))
}

/// Offset just past the head terminator (`\r\n\r\n` or `\n\n`), if seen.
fn head_end(buf: &[u8]) -> Option<usize> {
    if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(p + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2)
}

/// Write one HTTP/1.0 response with correct framing and close.
fn respond(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_extra(stream, code, reason, content_type, body, "")
}

/// Like [`respond`], with extra pre-formatted `Name: value\r\n` headers.
fn respond_extra(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra_headers: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
