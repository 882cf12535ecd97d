//! Std-only HTTP observability server.
//!
//! [`ObsServer`] binds a `TcpListener` and answers five read-only GET
//! endpoints from a small thread-per-connection loop:
//!
//! * `/metrics` — Prometheus text exposition of a [`MetricsRegistry`]
//!   (process resource gauges are refreshed from procfs per scrape)
//! * `/metrics.json` — the registry's `snapshot_json`
//! * `/healthz` — liveness/queue JSON from an [`ObsStatus`] provider
//!   (HTTP 503 when the provider reports unhealthy), stamped with the
//!   crate `version` and `build` profile of the running binary
//! * `/workers` — per-worker JSON from the same provider
//! * `/traces` — tail-sampled Chrome trace-event JSON from an optional
//!   [`TraceBuffer`] (404 when none is attached)
//! * `/alerts` — alert-engine state from an optional [`Monitor`]
//!   (rules, firing/ok, recent transitions; 404 when none is attached)
//! * `/timeseries` — windowed rollups and recent raw points per series
//!   (`?window=N&tail=N`; 404 when no monitor is attached)
//!
//! When a [`Monitor`] is attached, `/healthz` additionally reflects
//! alert state: `"status"` flips from `"ok"` to `"degraded"` while any
//! rule is firing and an `"alerts_firing"` count is spliced in. The
//! response stays HTTP 200 unless the server was bound with
//! `healthz_strict`, which maps degraded to 503 for load balancers that
//! should drain an instance on drift.
//!
//! There is deliberately no HTTP library: requests are `GET <path>`,
//! responses are `Connection: close` with an explicit `Content-Length`,
//! which is all a Prometheus scraper or `curl` needs. A request's line and
//! headers are read through one 8 KiB budget; a head that exhausts it is
//! answered `431` and the connection closed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chrome_trace::TraceBuffer;
use crate::json::JsonObject;
use crate::metrics::MetricsRegistry;
use crate::monitor::Monitor;
use crate::procinfo;
use crate::prometheus;

/// Live status provider backing `/healthz` and `/workers`. Implemented
/// by whatever owns the serving state (the worker pool); telemetry only
/// defines the contract so the layering stays one-directional.
pub trait ObsStatus: Send + Sync {
    /// `(healthy, body)` — the JSON body for `/healthz`. An unhealthy
    /// result is served with HTTP 503 so load-balancer checks fail.
    fn healthz(&self) -> (bool, String);

    /// JSON body for `/workers`.
    fn workers_json(&self) -> String;
}

/// Default [`ObsStatus`]: always healthy, reports uptime only.
pub struct NullStatus {
    started: Instant,
}

impl NullStatus {
    pub fn new() -> Self {
        Self { started: Instant::now() }
    }
}

impl Default for NullStatus {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsStatus for NullStatus {
    fn healthz(&self) -> (bool, String) {
        let mut o = JsonObject::new();
        o.str_field("status", "ok").f64_field("uptime_secs", self.started.elapsed().as_secs_f64());
        (true, o.finish())
    }

    fn workers_json(&self) -> String {
        "{\"workers\":[]}".to_owned()
    }
}

/// The observability endpoint. Dropping (or [`ObsServer::shutdown`])
/// stops the accept loop; in-flight responses finish on their own
/// detached threads.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `registry` and `status`.
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(
        addr: &str,
        registry: &'static MetricsRegistry,
        status: Arc<dyn ObsStatus>,
    ) -> io::Result<Self> {
        Self::bind_with_traces(addr, registry, status, None)
    }

    /// Like [`ObsServer::bind`], additionally serving `traces` (the
    /// tail-sampling span buffer, typically also installed as a sink) at
    /// `/traces` as Chrome trace-event JSON.
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind_with_traces(
        addr: &str,
        registry: &'static MetricsRegistry,
        status: Arc<dyn ObsStatus>,
        traces: Option<Arc<TraceBuffer>>,
    ) -> io::Result<Self> {
        Self::bind_full(addr, registry, status, traces, None, false)
    }

    /// The full-surface bind: everything [`ObsServer::bind_with_traces`]
    /// serves plus `/alerts` and `/timeseries` from `monitor`, with
    /// `/healthz` degraded by firing alerts (503 when `healthz_strict`).
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind_full(
        addr: &str,
        registry: &'static MetricsRegistry,
        status: Arc<dyn ObsStatus>,
        traces: Option<Arc<TraceBuffer>>,
        monitor: Option<&'static Monitor>,
        healthz_strict: bool,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let accept_loop =
            std::thread::Builder::new().name("enld-obs".to_owned()).spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let status = status.clone();
                    let traces = traces.clone();
                    // Detached per-connection thread: scrapes are rare and
                    // short-lived, and concurrent scrapers must not serialise
                    // behind each other.
                    let _ = std::thread::Builder::new().name("enld-obs-conn".to_owned()).spawn(
                        move || {
                            handle_connection(
                                stream,
                                registry,
                                &*status,
                                traces.as_deref(),
                                monitor,
                                healthz_strict,
                            )
                        },
                    );
                }
            })?;
        Ok(Self { addr: local, stop, accept_loop: Some(accept_loop) })
    }

    /// The bound address (resolves the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(handle) = self.accept_loop.take() else { return };
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// `"debug"` or `"release"`, so dashboards can spot an accidentally
/// deployed debug binary.
const BUILD_PROFILE: &str = if cfg!(debug_assertions) { "debug" } else { "release" };

/// Splices a pre-rendered `"key":value` fragment onto the end of a flat
/// JSON object body. Non-object bodies pass through untouched.
fn splice_raw_field(body: &str, fragment: &str) -> String {
    let Some(stripped) = body.strip_suffix('}') else { return body.to_owned() };
    let sep = if stripped.trim_end().ends_with('{') { "" } else { "," };
    format!("{stripped}{sep}{fragment}}}")
}

/// Splices `"version"` and `"build"` fields into a provider's `/healthz`
/// JSON object so every health response identifies the running binary.
/// Non-object bodies pass through untouched.
fn with_build_info(body: &str) -> String {
    splice_raw_field(
        body,
        &format!("\"version\":\"{}\",\"build\":\"{BUILD_PROFILE}\"", env!("CARGO_PKG_VERSION")),
    )
}

/// Pulls `key=N` out of a query string (`window=32&tail=8`).
fn query_usize(query: &str, key: &str, default: usize) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(default)
}

/// Most bytes read for one request's line and headers together; ample
/// for `GET /timeseries?window=…&tail=…` plus a scraper's headers.
const REQUEST_HEAD_BUDGET: u64 = 8 * 1024;

/// Reads the request line and drains the headers through one byte
/// budget, so a client cannot grow the buffers without limit. `Ok(None)`
/// when the budget ran out before the head ended.
fn read_request_line(stream: impl Read) -> io::Result<Option<String>> {
    let mut reader = BufReader::new(stream.take(REQUEST_HEAD_BUDGET));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        header.clear();
    }
    Ok((reader.get_ref().limit() > 0).then_some(request_line))
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    status: &dyn ObsStatus,
    traces: Option<&TraceBuffer>,
    monitor: Option<&Monitor>,
    healthz_strict: bool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let request_line = match read_request_line(&stream) {
        Ok(Some(line)) => line,
        Ok(None) => {
            respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                "application/json",
                "{\"error\":\"request head exceeds 8 KiB\"}",
            );
            return;
        }
        Err(_) => return,
    };

    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "application/json",
            "{\"error\":\"only GET is supported\"}",
        );
        return;
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/metrics" => {
            procinfo::sample(registry);
            let body = prometheus::render(registry);
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/metrics.json" => {
            procinfo::sample(registry);
            respond(&mut stream, "200 OK", "application/json", &registry.snapshot_json());
        }
        "/healthz" => {
            let (mut healthy, mut body) = status.healthz();
            if let Some(mon) = monitor {
                let firing = mon.firing();
                if firing > 0 {
                    // Providers are in-tree and all report `"status":"ok"`
                    // when healthy, so a targeted rewrite is safe here.
                    body = body.replacen("\"status\":\"ok\"", "\"status\":\"degraded\"", 1);
                    if healthz_strict {
                        healthy = false;
                    }
                }
                body = splice_raw_field(&body, &format!("\"alerts_firing\":{firing}"));
            }
            let code = if healthy { "200 OK" } else { "503 Service Unavailable" };
            respond(&mut stream, code, "application/json", &with_build_info(&body));
        }
        "/workers" => {
            respond(&mut stream, "200 OK", "application/json", &status.workers_json());
        }
        "/traces" => match traces {
            Some(buf) => respond(&mut stream, "200 OK", "application/json", &buf.chrome_json()),
            None => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"trace buffer not enabled\"}",
            ),
        },
        "/alerts" => match monitor {
            Some(mon) => respond(&mut stream, "200 OK", "application/json", &mon.alerts_json()),
            None => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"monitor not enabled\"}",
            ),
        },
        "/timeseries" => match monitor {
            Some(mon) => {
                let window = query_usize(query, "window", 64).clamp(1, 4096);
                let tail = query_usize(query, "tail", 0).min(4096);
                respond(
                    &mut stream,
                    "200 OK",
                    "application/json",
                    &mon.timeseries_json(window, tail),
                );
            }
            None => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"error\":\"monitor not enabled\"}",
            ),
        },
        _ => {
            respond(&mut stream, "404 Not Found", "application/json", "{\"error\":\"not found\"}");
        }
    }
}

fn respond(stream: &mut TcpStream, code: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn get(addr: SocketAddr, request: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let code =
            head.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("status code");
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or_default()
            .to_owned();
        (code, content_type, body.to_owned())
    }

    #[test]
    fn serves_all_endpoints() {
        metrics::global().counter("obs.test.requests").add(7);
        let server = ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(NullStatus::new()))
            .expect("bind");
        let addr = server.local_addr();

        let (code, ctype, body) = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        assert!(ctype.starts_with("text/plain"));
        assert!(body.contains("obs_test_requests"));

        let (code, _, body) = get(addr, "GET /metrics.json HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"obs.test.requests\":7"));

        let (code, _, body) = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(body.contains("\"build\":\""));

        let (code, _, body) = get(addr, "GET /workers HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"workers\""));

        let (code, _, body) = get(addr, "GET /traces HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 404, "no trace buffer attached via plain bind");
        assert!(body.contains("trace buffer"));

        let (code, _, _) = get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 404);
        let (code, _, _) = get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 405);

        server.shutdown();
    }

    /// Sends `request` (the server may hang up mid-send) and returns the
    /// status code, if one came back before the connection ended.
    fn send_oversized(addr: SocketAddr, request: &[u8]) -> Option<u16> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(request);
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        String::from_utf8_lossy(&raw).split_whitespace().nth(1)?.parse().ok()
    }

    #[test]
    fn newline_free_flood_is_cut_off_and_the_server_keeps_serving() {
        let server = ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(NullStatus::new()))
            .expect("bind");
        let addr = server.local_addr();
        // Hanging up on a client that is still sending may reset the
        // connection and swallow the 431 itself.
        let code = send_oversized(addr, &vec![b'a'; 1 << 20]);
        assert!(matches!(code, None | Some(431)), "got {code:?}");
        let (code, _, _) = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        server.shutdown();
    }

    #[test]
    fn headers_beyond_the_budget_are_rejected() {
        let server = ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(NullStatus::new()))
            .expect("bind");
        let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
        while request.len() < 2 * REQUEST_HEAD_BUDGET as usize {
            request.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        request.extend_from_slice(b"\r\n");
        let code = send_oversized(server.local_addr(), &request);
        assert!(
            matches!(code, None | Some(431)),
            "a well-formed line must not be served: {code:?}"
        );
        server.shutdown();
    }

    #[test]
    fn request_head_reader_stops_at_its_budget() {
        // No sockets: exactly what is consumed, and what comes back.
        let mut flood = io::repeat(b'a').take(1 << 20);
        assert_eq!(read_request_line(&mut flood).expect("reads"), None);
        assert_eq!(flood.limit(), (1 << 20) - REQUEST_HEAD_BUDGET, "read past the budget");
        let fits = b"GET /workers HTTP/1.1\r\nHost: x\r\n\r\nbody";
        let line = read_request_line(&fits[..]).expect("reads").expect("within budget");
        assert_eq!(line, "GET /workers HTTP/1.1\r\n");
    }

    #[test]
    fn traces_endpoint_serves_the_buffer() {
        use crate::sink::{Sink as _, SpanRecord};

        let buf = Arc::new(TraceBuffer::new(4));
        buf.on_span(&SpanRecord {
            id: 11,
            parent: None,
            trace: 11,
            tid: 1,
            depth: 0,
            name: "job",
            level: crate::Level::Info,
            start_micros: 0,
            duration_micros: 500,
            fields: Vec::new(),
        });
        let server = ObsServer::bind_with_traces(
            "127.0.0.1:0",
            metrics::global(),
            Arc::new(NullStatus::new()),
            Some(buf),
        )
        .expect("bind");
        let (code, ctype, body) =
            get(server.local_addr(), "GET /traces HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"name\":\"job\""));
        server.shutdown();
    }

    #[test]
    fn build_info_splices_into_any_object() {
        let stamped = with_build_info("{\"status\":\"ok\"}");
        assert!(stamped.starts_with("{\"status\":\"ok\",\"version\":\""));
        assert!(stamped.ends_with("\"}"));
        let empty = with_build_info("{}");
        assert!(empty.starts_with("{\"version\":\""), "{empty}");
        assert_eq!(with_build_info("not json"), "not json");
    }

    #[test]
    fn unhealthy_status_maps_to_503() {
        struct Sick;
        impl ObsStatus for Sick {
            fn healthz(&self) -> (bool, String) {
                (false, "{\"status\":\"degraded\"}".to_owned())
            }
            fn workers_json(&self) -> String {
                "{\"workers\":[]}".to_owned()
            }
        }
        let server =
            ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(Sick)).expect("bind");
        let (code, _, body) = get(server.local_addr(), "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(code, 503);
        assert!(body.contains("degraded"));
    }

    #[test]
    fn alerts_and_timeseries_require_a_monitor() {
        let server = ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(NullStatus::new()))
            .expect("bind");
        let (code, _, body) = get(server.local_addr(), "GET /alerts HTTP/1.1\r\n\r\n");
        assert_eq!(code, 404);
        assert!(body.contains("monitor not enabled"));
        let (code, _, _) = get(server.local_addr(), "GET /timeseries HTTP/1.1\r\n\r\n");
        assert_eq!(code, 404);
        server.shutdown();
    }

    /// A private leaked monitor so parallel tests sharing the global one
    /// cannot interfere with the assertions here.
    fn firing_monitor() -> &'static Monitor {
        use crate::alerts::{AlertRule, Comparison, RuleKind};
        let mon: &'static Monitor = Box::leak(Box::new(Monitor::new()));
        mon.install_rules(vec![AlertRule {
            name: "hot".to_owned(),
            metric: "m".to_owned(),
            kind: RuleKind::Threshold { op: Comparison::Gt, value: 1.0 },
            hold: 1,
            resolve: 1,
        }]);
        mon
    }

    #[test]
    fn monitor_endpoints_serve_alert_state_and_windows() {
        let mon = firing_monitor();
        mon.observe("m", 0.5);
        mon.observe("m", 2.0);
        assert_eq!(mon.firing(), 1);
        let server = ObsServer::bind_full(
            "127.0.0.1:0",
            metrics::global(),
            Arc::new(NullStatus::new()),
            None,
            Some(mon),
            false,
        )
        .expect("bind");
        let addr = server.local_addr();

        let (code, ctype, body) = get(addr, "GET /alerts HTTP/1.1\r\n\r\n");
        assert_eq!(code, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"firing\":1"), "{body}");
        assert!(body.contains("\"name\":\"hot\""));
        assert!(body.contains("\"state\":\"firing\""));

        let (code, _, body) = get(addr, "GET /timeseries?window=8&tail=2 HTTP/1.1\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"m\""), "{body}");
        assert!(body.contains("\"total\":2"), "{body}");

        // Degraded, but not strict: still 200 with the rewritten status.
        let (code, _, body) = get(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"alerts_firing\":1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn strict_healthz_maps_firing_alerts_to_503() {
        let mon = firing_monitor();
        let server = ObsServer::bind_full(
            "127.0.0.1:0",
            metrics::global(),
            Arc::new(NullStatus::new()),
            None,
            Some(mon),
            true,
        )
        .expect("bind");
        let addr = server.local_addr();
        // Healthy while nothing fires.
        let (code, _, body) = get(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(code, 200);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"alerts_firing\":0"));
        mon.observe("m", 5.0);
        let (code, _, body) = get(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_promptly() {
        let server = ObsServer::bind("127.0.0.1:0", metrics::global(), Arc::new(NullStatus::new()))
            .expect("bind");
        // Must unblock the accept loop itself; a second stop via Drop is a no-op.
        server.shutdown();
    }
}
