//! The coordinator's side of the live telemetry plane: per-worker snapshot
//! aggregation and the tiny handwritten HTTP scrape endpoint.
//!
//! Workers ship `TelemetryUpload` frames (flattened registry snapshots)
//! over their existing control-plane connections — periodically during the
//! run and once more at halt. The [`TelemetryHub`] keeps the latest
//! snapshot per worker plus the coordinator's own registry, and folds them
//! into one cluster-wide [`TelemetrySnapshot`] on demand: every worker row
//! gets a `worker="r"` label, coordinator rows a `worker="coord"` label,
//! and the fold is plain snapshot merging (associative, so arrival order
//! never matters).
//!
//! The scrape endpoint is deliberately primitive — an HTTP/1.0-style
//! listener with a handful of routes, no keep-alive, no dependencies:
//!
//! * `GET /metrics` — Prometheus text exposition of the aggregate;
//! * `GET /json`    — the same aggregate as JSON (what `sg-top` polls);
//! * `GET /audit`   — the live serializability audit document (verdicts,
//!   heatmaps, lag), when the run has an [`AuditHub`] attached;
//! * `GET /healthz` — liveness probe: `200` with an uptime document;
//! * `GET /query`   — the serving plane (point lookups, neighborhoods,
//!   consistent snapshots), when the run attached a [`QueryService`].
//!
//! Every response carries a real status line (`200 OK`, `404 Not
//! Found`, `405 Method Not Allowed` with an `Allow: GET` header) and an
//! exact `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sg_metrics::{Json, Telemetry, TelemetrySnapshot};

use crate::audit::AuditHub;

/// Aggregates the coordinator registry and the latest snapshot from each
/// worker into one cluster-wide view.
pub struct TelemetryHub {
    /// The coordinator's own registry (sync-technique histograms live
    /// here: the `Synchronizer` runs coordinator-side).
    registry: Arc<Telemetry>,
    /// Latest snapshot per worker rank.
    workers: Mutex<Vec<Option<TelemetrySnapshot>>>,
}

impl TelemetryHub {
    /// A hub for `workers` ranks plus the given coordinator registry.
    pub fn new(workers: usize, registry: Arc<Telemetry>) -> Self {
        TelemetryHub {
            registry,
            workers: Mutex::new(vec![None; workers]),
        }
    }

    /// The coordinator-side registry.
    pub fn registry(&self) -> &Arc<Telemetry> {
        &self.registry
    }

    /// Install the latest snapshot from worker `rank`.
    pub fn store(&self, rank: usize, snapshot: TelemetrySnapshot) {
        let mut w = self.workers.lock().unwrap();
        if rank < w.len() {
            w[rank] = Some(snapshot);
        }
    }

    /// Fold everything into one cluster-wide snapshot: coordinator rows
    /// labeled `worker="coord"`, each worker's rows `worker="<rank>"`.
    pub fn aggregate(&self) -> TelemetrySnapshot {
        let mut agg = self.registry.snapshot().with_label("worker", "coord");
        let workers = self.workers.lock().unwrap();
        for (rank, snap) in workers.iter().enumerate() {
            if let Some(s) = snap {
                agg.merge(&s.with_label("worker", &rank.to_string()));
            }
        }
        agg
    }
}

/// A pluggable handler for `GET /query`, keeping the listener decoupled
/// from whatever owns the vertex stores (the cluster coordinator, in
/// practice). Receives the raw query string (the part after `?`, possibly
/// empty); returns the JSON document, or a message served as a `400`.
pub trait QueryService: Send + Sync {
    /// Answer one query.
    fn handle(&self, query: &str) -> Result<Json, String>;
}

/// Handle to a running scrape server; stops (and joins) the accept
/// thread on [`TelemetryServer::stop`] or drop.
pub struct TelemetryServer {
    /// The address actually bound (resolves `:0` requests).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` and serve scrapes of `hub` until stopped; with an
    /// [`AuditHub`], the live audit document under `GET /audit`, and with a
    /// [`QueryService`], the `GET /query` serving plane.
    pub fn start(
        addr: &str,
        hub: Arc<TelemetryHub>,
        audit: Option<Arc<AuditHub>>,
        query: Option<Arc<dyn QueryService>>,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let started = Instant::now();
        let thread = std::thread::Builder::new()
            .name("sg-net-telemetry".into())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: scrapes are small and rare, and
                            // a slow client cannot block the cluster (only
                            // this loop, briefly, behind a read timeout).
                            let _ = serve_one(
                                stream,
                                &hub,
                                audit.as_deref(),
                                query.as_deref(),
                                started,
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn telemetry server");
        Ok(TelemetryServer {
            addr: bound,
            stop,
            thread: Some(thread),
        })
    }

    /// Stop accepting and join the server thread.
    pub fn stop(self) {}
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Read one request, answer it, close. Anything malformed gets a 400.
fn serve_one(
    mut stream: TcpStream,
    hub: &TelemetryHub,
    audit: Option<&AuditHub>,
    query: Option<&dyn QueryService>,
    started: Instant,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head (or a sane cap).
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // A non-GET to a real route is a method problem, not a routing problem:
    // 405 plus the Allow header RFC 9110 requires, never a 404 fallthrough.
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                hub.aggregate().render_prometheus(),
            ),
            "/json" => (
                "200 OK",
                "application/json",
                hub.aggregate().to_json().to_string(),
            ),
            "/audit" => match audit {
                Some(a) => (
                    "200 OK",
                    "application/json",
                    format!("{}\n", a.render_json()),
                ),
                None => (
                    "404 Not Found",
                    "text/plain",
                    "no audit plane on this run (enable --audit-interval-ms)\n".to_string(),
                ),
            },
            "/healthz" => {
                let uptime_ms = started.elapsed().as_millis() as u64;
                let doc = Json::obj([("status", "ok".into()), ("uptime_ms", uptime_ms.into())]);
                ("200 OK", "application/json", format!("{doc}\n"))
            }
            "/query" => match query {
                Some(q) => match q.handle(query_string) {
                    Ok(doc) => ("200 OK", "application/json", format!("{doc}\n")),
                    Err(msg) => ("400 Bad Request", "text/plain", format!("{msg}\n")),
                },
                None => (
                    "404 Not Found",
                    "text/plain",
                    "no serving plane on this endpoint\n".to_string(),
                ),
            },
            "/" => (
                "200 OK",
                "text/plain",
                "sg-obs scrape endpoint: GET /metrics (Prometheus text), /json, /audit, \
                 /healthz, /query\n"
                    .to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let allow = if status.starts_with("405") {
        "Allow: GET\r\n"
    } else {
        ""
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// One HTTP GET against a scrape endpoint, dependency-free — shared by
/// `sg-top` and tests. Returns the response body.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let sock_addr: SocketAddr = addr
        .parse()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some(split) = raw.find("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no header/body split in response",
        ));
    };
    if !raw.starts_with("HTTP/1.1 200") && !raw.starts_with("HTTP/1.0 200") {
        let status = raw.lines().next().unwrap_or("").to_string();
        return Err(std::io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(raw[split + 4..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_metrics::MetricValue;

    #[test]
    fn hub_aggregates_with_worker_labels() {
        let coord = Arc::new(Telemetry::new());
        coord.counter("sg_coord_flushes_total", &[]).add(3);
        let hub = TelemetryHub::new(2, coord);

        let w0 = Telemetry::new();
        w0.counter("sg_link_frames_out_total", &[("peer", "1")])
            .add(10);
        hub.store(0, w0.snapshot());

        let agg = hub.aggregate();
        assert_eq!(
            agg.get("sg_coord_flushes_total", &[("worker", "coord")]),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            agg.get(
                "sg_link_frames_out_total",
                &[("worker", "0"), ("peer", "1")]
            ),
            Some(&MetricValue::Counter(10))
        );
    }

    #[test]
    fn server_serves_prometheus_and_json() {
        let coord = Arc::new(Telemetry::new());
        coord.counter("sg_test_total", &[]).add(7);
        coord.histogram("sg_test_ns", &[]).record(100);
        let hub = Arc::new(TelemetryHub::new(0, coord));
        let server = TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, None).unwrap();
        let addr = server.addr.to_string();

        let text = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert!(text.contains("# TYPE sg_test_total counter"), "{text}");
        assert!(text.contains("sg_test_total{worker=\"coord\"} 7"), "{text}");
        assert!(
            text.contains("sg_test_ns_count{worker=\"coord\"} 1"),
            "{text}"
        );

        let json = http_get(&addr, "/json", Duration::from_secs(2)).unwrap();
        assert!(json.contains("\"name\":\"sg_test_total\""), "{json}");

        let err = http_get(&addr, "/nope", Duration::from_secs(2));
        assert!(err.is_err());
        server.stop();
    }

    /// Raw-socket request returning (status line, headers, body).
    fn raw_get(addr: &str, path: &str) -> (String, Vec<String>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let split = raw.find("\r\n\r\n").expect("header/body split");
        let head = &raw[..split];
        let body = raw[split + 4..].to_string();
        let mut lines = head.lines();
        let status = lines.next().unwrap_or("").to_string();
        (status, lines.map(str::to_string).collect(), body)
    }

    fn content_length(headers: &[String]) -> usize {
        headers
            .iter()
            .find_map(|h| h.strip_prefix("Content-Length: "))
            .expect("Content-Length header present")
            .parse()
            .expect("numeric Content-Length")
    }

    #[test]
    fn responses_carry_status_line_and_exact_content_length() {
        let hub = Arc::new(TelemetryHub::new(0, Arc::new(Telemetry::new())));
        let server = TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, None).unwrap();
        let addr = server.addr.to_string();

        let (status, headers, body) = raw_get(&addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(content_length(&headers), body.len());

        let (status, headers, body) = raw_get(&addr, "/definitely/not/here");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        assert_eq!(content_length(&headers), body.len());
        assert!(!body.is_empty(), "404 body should say what happened");

        // /audit without an attached hub is also a real 404.
        let (status, headers, body) = raw_get(&addr, "/audit");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        assert_eq!(content_length(&headers), body.len());
        server.stop();
    }

    #[test]
    fn healthz_reports_uptime() {
        let hub = Arc::new(TelemetryHub::new(0, Arc::new(Telemetry::new())));
        let server = TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, None).unwrap();
        let (status, headers, body) = raw_get(&server.addr.to_string(), "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(content_length(&headers), body.len());
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"uptime_ms\":"), "{body}");
        server.stop();
    }

    #[test]
    fn non_get_is_405_with_allow_header() {
        let hub = Arc::new(TelemetryHub::new(0, Arc::new(Telemetry::new())));
        let server = TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, None).unwrap();
        let addr = server.addr.to_string();
        for method in ["POST", "DELETE", "PUT"] {
            let mut stream = TcpStream::connect(&addr).unwrap();
            write!(
                stream,
                "{method} /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            assert!(
                raw.starts_with("HTTP/1.1 405 Method Not Allowed"),
                "{method}: {raw}"
            );
            assert!(raw.contains("\r\nAllow: GET\r\n"), "{method}: {raw}");
        }
        server.stop();
    }

    #[test]
    fn query_route_dispatches_to_the_service() {
        struct Echo;
        impl QueryService for Echo {
            fn handle(&self, query: &str) -> Result<Json, String> {
                match query {
                    "boom" => Err("bad query".into()),
                    q => Ok(Json::obj([("echo", q.into())])),
                }
            }
        }
        let hub = Arc::new(TelemetryHub::new(0, Arc::new(Telemetry::new())));
        let server =
            TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, Some(Arc::new(Echo)))
                .unwrap();
        let addr = server.addr.to_string();
        let body = http_get(&addr, "/query?op=lookup&v=3", Duration::from_secs(2)).unwrap();
        assert_eq!(body, "{\"echo\":\"op=lookup&v=3\"}\n");
        let (status, _, body) = raw_get(&addr, "/query?boom");
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
        assert_eq!(body, "bad query\n");
        server.stop();

        // Without a service the route is a plain 404.
        let server = TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), None, None).unwrap();
        let (status, _, _) = raw_get(&server.addr.to_string(), "/query?op=lookup");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        server.stop();
    }

    #[test]
    fn audit_route_serves_the_live_document() {
        use crate::audit::{AuditConfig, AuditHub};
        use sg_graph::gen;
        let hub = Arc::new(TelemetryHub::new(0, Arc::new(Telemetry::new())));
        let audit = Arc::new(
            AuditHub::new(
                Arc::new(gen::paper_c4()),
                vec![0, 0, 1, 1],
                1,
                &Telemetry::new(),
                AuditConfig::default(),
            )
            .unwrap(),
        );
        let server =
            TelemetryServer::start("127.0.0.1:0", Arc::clone(&hub), Some(audit), None).unwrap();
        let addr = server.addr.to_string();
        let (status, headers, body) = raw_get(&addr, "/audit");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(content_length(&headers), body.len());
        assert!(body.contains("\"serializable\":true"), "{body}");
        assert!(body.contains("\"txns_checked\":0"), "{body}");
        server.stop();
    }
}
