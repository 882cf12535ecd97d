//! Std-only HTTP observability server.
//!
//! [`ObsServer`] binds a `TcpListener` and answers five read-only GET
//! endpoints from a small thread-per-connection loop:
//!
//! * `/metrics` — Prometheus text exposition of a [`MetricsRegistry`]
//!   (`process.rss_bytes` is refreshed from procfs per scrape)
//! * `/metrics.json` — the registry's `snapshot_json`
//! * `/healthz` — liveness/queue JSON from an [`ObsStatus`] provider
//!   (HTTP 503 when the provider reports unhealthy), stamped with the
//!   crate `version` and `build` profile of the running binary
//! * `/workers` — per-worker JSON from the same provider
//! * `/alerts` — alert-engine state from a [`Monitor`] (rules,
//!   firing/ok, recent transitions)
//!
//! `/healthz` also reflects alert state: `"status"` flips from `"ok"` to
//! `"degraded"` while any rule is firing and an `"alerts_firing"` count
//! is spliced in. The
//! response stays HTTP 200 unless the server was bound with
//! `healthz_strict`, which maps degraded to 503 for load balancers that
//! should drain an instance on drift.
//!
//! Per-arrival spans are not served: `--trace-out FILE` records them and
//! `enld profile` reads the file. Metric history is whatever stores the
//! `/metrics` scrapes, and drift history is the audit ledger.
//!
//! There is deliberately no HTTP library: requests are `GET <path>`,
//! responses are `Connection: close` with an explicit `Content-Length`,
//! which is all a Prometheus scraper or `curl` needs. A request's line and
//! headers are read through one 8 KiB budget and within 10 s of accept; a
//! head that exhausts the budget is answered `431`, one that misses the
//! deadline `408`, and the connection closed. At most 64 connections
//! are served at once; one more is answered `503` with `Retry-After: 1`
//! and closed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// starts serving `registry` and `status`, and `/alerts` from
    /// `monitor`, with `/healthz` degraded by firing alerts (503 when
    /// `healthz_strict`).
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(
        addr: &str,
        registry: &'static MetricsRegistry,
        status: Arc<dyn ObsStatus>,
        monitor: &'static Monitor,
        healthz_strict: bool,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let live = Arc::new(AtomicUsize::new(0));
        let accept_loop =
            std::thread::Builder::new().name("enld-obs".to_owned()).spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let Some(slot) = ConnectionSlot::take(&live) else {
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        respond_with(
                            &mut stream,
                            "503 Service Unavailable",
                            "application/json",
                            "Retry-After: 1\r\n",
                            "{\"error\":\"too many connections\"}",
                        );
                        continue;
                    };
                    let status = status.clone();
                    // Detached per-connection thread: scrapes are rare and
                    // short-lived, and concurrent scrapers must not serialise
                    // behind each other. A failed spawn drops the closure,
                    // which closes the connection and frees its slot.
                    let _ = std::thread::Builder::new().name("enld-obs-conn".to_owned()).spawn(
                        move || {
                            let _slot = slot;
                            handle_connection(stream, registry, &*status, monitor, healthz_strict)
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

/// Most bytes read for one request's line and headers together; ample
/// for any endpoint's request line plus a scraper's headers.
const REQUEST_HEAD_BUDGET: u64 = 8 * 1024;

/// Longest a request's line and headers may take to arrive, from accept:
/// without it a client sending a byte every few seconds could hold a
/// connection thread for as many reads as the byte budget allows.
const REQUEST_HEAD_DEADLINE: Duration = Duration::from_secs(10);

/// Longest one blocking read or write may wait.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Most connections served at once, each on its own thread: without a
/// cap, a client opening connections and sending nothing could grow the
/// thread count without limit. One more is answered on the accept thread.
const MAX_CONNECTIONS: usize = 64;

/// One of the [`MAX_CONNECTIONS`] connection slots, held by a
/// connection's thread and freed when it drops.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    /// A free slot of the `live` count, if any is left.
    fn take(live: &Arc<AtomicUsize>) -> Option<Self> {
        let claim = |n: usize| (n < MAX_CONNECTIONS).then_some(n + 1);
        live.fetch_update(Ordering::AcqRel, Ordering::Acquire, claim).ok()?;
        Some(Self(live.clone()))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A reader that fails with `TimedOut` once `deadline` has passed, and
/// before each read lets `arm` bound that read by the time left.
struct DeadlineReader<R, F> {
    inner: R,
    deadline: Instant,
    arm: F,
}

impl<R: Read, F: FnMut(&R, Duration)> Read for DeadlineReader<R, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out = || io::Error::from(io::ErrorKind::TimedOut);
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        (self.arm)(&self.inner, left.min(IO_TIMEOUT));
        match self.inner.read(buf) {
            // A read cut short by the armed timeout ended at the deadline.
            Err(_) if Instant::now() >= self.deadline => Err(timed_out()),
            other => other,
        }
    }
}

/// Reads the request line and drains the headers through one byte
/// budget and before one deadline, so a client can neither grow the
/// buffers without limit nor trickle bytes to hold the connection.
/// `arm` sets the stream's timeout for the next read (at most
/// [`IO_TIMEOUT`], never past `deadline`). `Ok(None)` when the budget ran
/// out before the head ended; an error of kind `TimedOut` when the
/// deadline did.
fn read_request_line<R: Read>(
    stream: R,
    deadline: Instant,
    arm: impl FnMut(&R, Duration),
) -> io::Result<Option<String>> {
    let reader = DeadlineReader { inner: stream, deadline, arm };
    let mut reader = BufReader::new(reader.take(REQUEST_HEAD_BUDGET));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        match reader.read_line(&mut header) {
            Ok(_) if header == "\r\n" || header == "\n" || header.is_empty() => break,
            Ok(_) => header.clear(),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(e),
            Err(_) => break,
        }
    }
    Ok((reader.get_ref().limit() > 0).then_some(request_line))
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    status: &dyn ObsStatus,
    monitor: &Monitor,
    healthz_strict: bool,
) {
    // Runs as soon as the connection is accepted.
    let deadline = Instant::now() + REQUEST_HEAD_DEADLINE;
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let arm = |s: &&TcpStream, timeout| {
        let _ = s.set_read_timeout(Some(timeout));
    };
    let request_line = match read_request_line(&stream, deadline, arm) {
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
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            respond(
                &mut stream,
                "408 Request Timeout",
                "application/json",
                "{\"error\":\"request head not received within 10 s\"}",
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
    let path = path.split_once('?').map_or(path, |(p, _)| p);
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
            let firing = monitor.firing();
            if firing > 0 {
                // Providers are in-tree and all report `"status":"ok"`
                // when healthy, so a targeted rewrite is safe here.
                body = body.replacen("\"status\":\"ok\"", "\"status\":\"degraded\"", 1);
                if healthz_strict {
                    healthy = false;
                }
            }
            body = splice_raw_field(&body, &format!("\"alerts_firing\":{firing}"));
            let code = if healthy { "200 OK" } else { "503 Service Unavailable" };
            respond(&mut stream, code, "application/json", &with_build_info(&body));
        }
        "/workers" => {
            respond(&mut stream, "200 OK", "application/json", &status.workers_json());
        }
        "/alerts" => respond(&mut stream, "200 OK", "application/json", &monitor.alerts_json()),
        _ => {
            respond(&mut stream, "404 Not Found", "application/json", "{\"error\":\"not found\"}");
        }
    }
}

fn respond(stream: &mut TcpStream, code: &str, content_type: &str, body: &str) {
    respond_with(stream, code, content_type, "", body);
}

/// A response with `extra` header lines (each ending in `\r\n`).
fn respond_with(stream: &mut TcpStream, code: &str, content_type: &str, extra: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
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

    /// A server on an ephemeral port with the (unarmed) global monitor.
    fn serve(status: Arc<dyn ObsStatus>) -> ObsServer {
        ObsServer::bind("127.0.0.1:0", metrics::global(), status, crate::monitor::global(), false)
            .expect("bind")
    }

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
        let server = serve(Arc::new(NullStatus::new()));
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

        for gone in ["/nope", "/traces", "/timeseries?window=8&tail=2"] {
            let (code, _, _) = get(addr, &format!("GET {gone} HTTP/1.1\r\nHost: x\r\n\r\n"));
            assert_eq!(code, 404, "{gone}");
        }
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
        let server = serve(Arc::new(NullStatus::new()));
        let addr = server.local_addr();
        // Hanging up on a client that is still sending may reset the
        // connection and swallow the 431 itself.
        let code = send_oversized(addr, &vec![b'a'; 1 << 20]);
        assert!(matches!(code, None | Some(431)), "got {code:?}");
        let (code, _, _) = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(code, 200);
        server.shutdown();
    }

    /// The raw response to `request`, whatever arrived before the server
    /// closed the connection.
    fn raw_response(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(request.as_bytes());
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        String::from_utf8_lossy(&raw).into_owned()
    }

    #[test]
    fn connections_past_the_cap_are_refused_until_one_closes() {
        let server = serve(Arc::new(NullStatus::new()));
        let addr = server.local_addr();
        // Each holds a connection thread, sending nothing. They are accepted
        // in order, so all hold their slots by the time the next one is.
        let idle: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        let start = Instant::now();
        let raw = raw_response(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{raw}");
        assert!(raw.contains("\r\nRetry-After: 1\r\n"), "{raw}");
        assert!(start.elapsed() < Duration::from_secs(1), "refused after {:?}", start.elapsed());

        // Closed, their threads see EOF and free the slots.
        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            let raw = raw_response(addr, "GET /healthz HTTP/1.1\r\n\r\n");
            if raw.starts_with("HTTP/1.1 200 OK\r\n") {
                break;
            }
            assert!(Instant::now() < deadline, "slots never freed: {raw}");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn headers_beyond_the_budget_are_rejected() {
        let server = serve(Arc::new(NullStatus::new()));
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

    /// A deadline no test reaches.
    fn far() -> Instant {
        Instant::now() + REQUEST_HEAD_DEADLINE
    }

    #[test]
    fn request_head_reader_stops_at_its_budget() {
        // No sockets: exactly what is consumed, and what comes back.
        let mut flood = io::repeat(b'a').take(1 << 20);
        assert_eq!(read_request_line(&mut flood, far(), |_, _| {}).expect("reads"), None);
        assert_eq!(flood.limit(), (1 << 20) - REQUEST_HEAD_BUDGET, "read past the budget");
        let fits = b"GET /workers HTTP/1.1\r\nHost: x\r\n\r\nbody";
        let line = read_request_line(&fits[..], far(), |_, _| {}).expect("reads");
        assert_eq!(line.expect("within budget"), "GET /workers HTTP/1.1\r\n");
    }

    /// Yields one byte per `gap`, never a newline.
    struct Trickle {
        gap: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(self.gap);
            buf[0] = b'a';
            Ok(1)
        }
    }

    #[test]
    fn request_head_reader_stops_at_its_deadline() {
        // No sockets: a byte every 10 ms would take 82 s to exhaust the
        // byte budget; the 50 ms deadline must end it after at most one
        // more read (60 ms), with slack for a busy machine.
        let start = Instant::now();
        let deadline = start + Duration::from_millis(50);
        let mut armed = Vec::new();
        let trickle = Trickle { gap: Duration::from_millis(10) };
        let got = read_request_line(trickle, deadline, |_, t| armed.push(t));
        let took = start.elapsed();
        assert_eq!(got.expect_err("the deadline passed").kind(), io::ErrorKind::TimedOut);
        assert!(took < Duration::from_millis(150), "stopped after {took:?}");
        // Each read waits no longer than the time left, and never past it.
        assert!(armed.len() >= 2, "one timeout per read: {armed:?}");
        assert!(armed.iter().all(|&t| t <= Duration::from_millis(50)), "{armed:?}");
        assert!(armed.windows(2).all(|w| w[1] < w[0]), "time left shrinks: {armed:?}");
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
        let server = serve(Arc::new(Sick));
        let (code, _, body) = get(server.local_addr(), "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(code, 503);
        assert!(body.contains("degraded"));
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
    fn alerts_endpoint_serves_alert_state() {
        let mon = firing_monitor();
        mon.observe("m", 0.5);
        mon.observe("m", 2.0);
        assert_eq!(mon.firing(), 1);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            metrics::global(),
            Arc::new(NullStatus::new()),
            mon,
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
        let server = ObsServer::bind(
            "127.0.0.1:0",
            metrics::global(),
            Arc::new(NullStatus::new()),
            mon,
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
        let server = serve(Arc::new(NullStatus::new()));
        // Must unblock the accept loop itself; a second stop via Drop is a no-op.
        server.shutdown();
    }
}
