//! A minimal, dependency-free HTTP/1.1 listener serving `/metrics`.
//!
//! The repository builds without external crates, so this is a
//! deliberately small server: one accept-loop thread, one short-lived
//! handler per connection, `Connection: close` on every response. That
//! is all a Prometheus scraper (or `explore top`, or `curl`) needs, and
//! it keeps the run's hot path completely untouched — the only cost of
//! serving metrics is the scrape itself, which reads relaxed atomics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use icb_core::MetricsRegistry;

use crate::export::render_prometheus;

/// Per-connection I/O timeout: a stalled scraper must not pin the
/// accept thread's handler.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head we bother reading; a scrape request is tiny.
const MAX_REQUEST: usize = 8 * 1024;

/// An HTTP listener exposing a [`MetricsRegistry`] at `GET /metrics` in
/// Prometheus text-exposition format.
///
/// Start it with [`start`](MetricsServer::start), read the bound address
/// (port 0 resolves to an ephemeral port) with
/// [`addr`](MetricsServer::addr), stop it with
/// [`shutdown`](MetricsServer::shutdown). Dropping without shutdown
/// leaves the accept thread running until process exit — harmless for a
/// CLI, but tests should shut down explicitly.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("icb-metrics-http".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Serve inline: scrapes are rare (seconds apart) and
                    // the page renders in microseconds, so one handler
                    // at a time is plenty and avoids unbounded threads.
                    let _ = handle_connection(stream, &registry);
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (the resolved port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // `incoming()` blocks in accept: poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the end of the request head; the GET requests we serve
    // carry no body.
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_REQUEST {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let target = request
        .lines()
        .next()
        .and_then(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(path)) => Some(path.to_string()),
                _ => None,
            }
        })
        .unwrap_or_default();
    if target == "/metrics" || target == "/metrics/" {
        let body = render_prometheus(registry);
        write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &body,
        )
    } else {
        write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics\n",
        )
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Fetches `/metrics` from a [`MetricsServer`] (or anything speaking the
/// same protocol) and returns the exposition body. The client side of
/// `explore top`.
pub fn scrape(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: metrics\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::other("malformed HTTP response"));
    };
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!(
            "metrics endpoint answered: {status}"
        )));
    }
    Ok(body.to_string())
}

/// Parses an exposition page into `(name-with-labels, value)` pairs,
/// skipping comments. Shared by `explore top` and the smoke tests.
pub fn parse_exposition(body: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let value = match value.trim() {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().ok()?,
            };
            Some((name.trim().to_string(), value))
        })
        .collect()
}

/// Looks up a series by exact name (including labels) in a parsed page.
pub fn series_value(parsed: &[(String, f64)], name: &str) -> Option<f64> {
    parsed.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_core::{ExecStats, ExecutionOutcome};

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_strategy("icb");
        registry.record_execution(7, &ExecStats::default(), &ExecutionOutcome::Terminated, 3);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();

        let body = scrape(addr).unwrap();
        assert!(body.contains("icb_executions_total 7"), "{body}");
        assert!(body.contains("# TYPE icb_executions_total counter"));

        // A wrong path gets a 404 and the connection still closes.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");

        // Scrapes observe live updates.
        registry.record_execution(9, &ExecStats::default(), &ExecutionOutcome::Terminated, 3);
        let body = scrape(addr).unwrap();
        assert!(body.contains("icb_executions_total 9"), "{body}");

        server.shutdown();
        assert!(scrape(addr).is_err(), "server must be gone after shutdown");
    }

    #[test]
    fn exposition_parses_back() {
        let registry = MetricsRegistry::new();
        registry.set_strategy("icb");
        registry.record_execution(4, &ExecStats::default(), &ExecutionOutcome::Terminated, 2);
        let page = crate::export::render_prometheus(&registry);
        let parsed = parse_exposition(&page);
        assert_eq!(series_value(&parsed, "icb_executions_total"), Some(4.0));
        assert_eq!(series_value(&parsed, "icb_distinct_states"), Some(2.0));
        assert_eq!(
            series_value(&parsed, "icb_info{strategy=\"icb\"}"),
            Some(1.0)
        );
        assert!(series_value(&parsed, "icb_missing").is_none());
    }
}
