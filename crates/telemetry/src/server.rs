//! A tiny dependency-free pull endpoint: one blocking listener thread
//! serving the live telemetry of a running node over HTTP/1.1.
//!
//! This is deliberately not a web framework — it parses exactly one
//! request line, serves four fixed routes, and closes the connection:
//!
//! - `/metrics` — Prometheus text exposition (with OpenMetrics
//!   exemplars on the latency histograms)
//! - `/metrics.json` — the JSON snapshot ([`Telemetry::render_json`])
//! - `/trace?n=N` — the newest `N` trace-ring events as JSONL (whole
//!   ring without `?n=`)
//! - `/stall` — the frontier blame diagnosis from the optional stall
//!   provider (`404` when the host runtime didn't wire one)
//!
//! The accept loop polls a nonblocking listener a few hundred times a
//! second, so shutdown latency is bounded without any extra wakeup
//! machinery; scrape traffic is assumed to be humans and a Prometheus
//! scraper, not a load target.

use crate::stability::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What one stall-diagnosis callback returns: the `/stall` body, ready
/// to serve. Runtimes wire a closure that locks the node(s) and renders
/// `explain_all()` as JSON.
pub type StallProvider = Arc<dyn Fn() -> String + Send + Sync>;

/// The data sources behind the four routes.
#[derive(Clone)]
pub struct ServerRoutes {
    /// The hub whose registry / trace ring is served.
    pub telemetry: Arc<Telemetry>,
    /// Optional `/stall` body provider; `None` serves 404 on `/stall`.
    pub stall: Option<StallProvider>,
}

impl ServerRoutes {
    /// Routes serving `telemetry` with no stall diagnoser.
    pub fn new(telemetry: Arc<Telemetry>) -> Self {
        ServerRoutes {
            telemetry,
            stall: None,
        }
    }

    /// Attach a `/stall` body provider.
    pub fn with_stall(mut self, stall: StallProvider) -> Self {
        self.stall = Some(stall);
        self
    }
}

/// The listener: a background thread accepting scrapes until dropped
/// or [`TelemetryServer::shutdown`].
pub struct TelemetryServer {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .field("running", &self.running.load(Ordering::Relaxed))
            .finish()
    }
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// start serving `routes` on a background thread.
    pub fn bind(addr: &str, routes: ServerRoutes) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name(format!("stab-http-{}", local.port()))
            .spawn(move || accept_loop(listener, routes, flag))?;
        Ok(TelemetryServer {
            addr: local,
            running,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the listener thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, routes: ServerRoutes, running: Arc<AtomicBool>) {
    while running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: requests are tiny and responses are
                // bounded, so one slow client at a time is acceptable
                // for a diagnostics endpoint.
                let _ = serve_one(stream, &routes);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read the request head (first line is all we use) with a bounded
/// buffer and timeout, then dispatch.
fn serve_one(mut stream: TcpStream, routes: &ServerRoutes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nonblocking(false)?;
    let mut buf = [0u8; 4096];
    let mut filled = 0usize;
    // Read until the end of the request head or the buffer is full —
    // GET requests fit comfortably; anything longer is malformed.
    loop {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") || filled == buf.len() {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..filled]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            let body = routes.telemetry.render_prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/metrics.json" => {
            let body = routes.telemetry.render_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/trace" => {
            let trace = routes.telemetry.trace();
            let body = match query.and_then(parse_n) {
                Some(n) => trace.to_jsonl_tail(n),
                None => trace.to_jsonl(),
            };
            respond(&mut stream, 200, "application/jsonl", &body)
        }
        "/stall" => match &routes.stall {
            Some(provider) => {
                let body = provider();
                respond(&mut stream, 200, "application/json", &body)
            }
            None => respond(&mut stream, 404, "text/plain", "no stall diagnoser wired\n"),
        },
        _ => respond(&mut stream, 404, "text/plain", "unknown route\n"),
    }
}

/// `n=<usize>` out of a query string.
fn parse_n(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot GET against a served route; returns
/// `(status, body)`. Shared by `stabtop`, the chaos smoke tests and the
/// unit tests below — it speaks exactly the dialect [`TelemetryServer`]
/// serves (HTTP/1.0-style connection-close framing).
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_owned(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use stabilizer_dsl::NodeId;

    fn served() -> (TelemetryServer, Arc<Telemetry>) {
        let t = Telemetry::new_sim();
        t.note_publish(1_000, NodeId(0), 1, 64);
        let mut obs = t.observer(NodeId(0));
        stabilizer_core::AppHooks::on_event(
            &mut obs,
            stabilizer_netsim::SimTime(5_000),
            &stabilizer_core::Event::Deliver {
                origin: NodeId(0),
                seq: 1,
                payload: &bytes::Bytes::from_static(b"x"),
            },
        );
        let server = TelemetryServer::bind("127.0.0.1:0", ServerRoutes::new(Arc::clone(&t)))
            .expect("bind ephemeral");
        (server, t)
    }

    #[test]
    fn serves_metrics_and_json_and_trace() {
        let (server, t) = served();
        let addr = server.local_addr().to_string();

        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE stab_build_info gauge"));
        assert!(body.contains("stab_deliveries_total{node=\"0\"} 1"));

        let (status, body) = http_get(&addr, "/metrics.json").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, t.render_json());
        parse_json(&body).expect("valid json");

        let (status, body) = http_get(&addr, "/trace").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, t.trace().to_jsonl());

        let (status, body) = http_get(&addr, "/trace?n=1").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"event\":\"deliver\""));
    }

    #[test]
    fn stall_route_uses_provider_or_404s() {
        let (mut server, t) = served();
        let addr = server.local_addr().to_string();
        let (status, _) = http_get(&addr, "/stall").unwrap();
        assert_eq!(status, 404);
        server.shutdown();

        let routes = ServerRoutes::new(t).with_stall(Arc::new(|| "{\"reports\":[]}".to_owned()));
        let server = TelemetryServer::bind("127.0.0.1:0", routes).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = http_get(&addr, "/stall").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"reports\":[]}");
    }

    #[test]
    fn unknown_route_404s_and_post_is_rejected() {
        let (server, _t) = served();
        let addr = server.local_addr().to_string();
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);

        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let (mut server, _t) = served();
        server.shutdown();
        server.shutdown();
    }
}
