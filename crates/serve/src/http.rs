//! The HTTP telemetry sidecar: a hand-rolled HTTP/1.1 server on the same
//! nonblocking-socket/`poll(2)` machinery as the edge ([`crate::edge`]),
//! serving scrapes without adding a dependency or touching the edge
//! loop's latency.
//!
//! The sidecar is deliberately minimal: `GET` only, one request per
//! connection (`Connection: close`), bounded request size, bounded client
//! lifetime. Four routes:
//!
//! | Route | Body |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (format 0.0.4) |
//! | `GET /stats` | The same `pit-serve-stats` JSON as the STATS frame |
//! | `GET /healthz` | `{"state":...}` — `200` serving, `503` booting/draining |
//! | `GET /trace?conn=N&stream=M` | `pit-serve-trace/1` JSON (filters optional) |
//!
//! Everything renders from the shared [`Telemetry`] hub — the same
//! atomics the binary-protocol STATS frame aggregates, so the HTTP and
//! binary views can never disagree about totals. [`http_get`] is the
//! matching client side: the one `GET` every client in this workspace
//! reads the sidecar with.

use crate::edge::{poll_fds, pollfd, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::telemetry::{ServeState, Telemetry};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest request (line plus headers) the sidecar accepts; anything
/// larger is answered `400` and hung up on.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// A client gets this long to deliver its request and accept the
/// response; slow or stalled clients are dropped at the deadline so they
/// can never pin sidecar resources.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Sidecar poll timeout: the latency floor for noticing the stop flag
/// when the waker pipe is not rung.
const SIDECAR_POLL_MS: i32 = 100;
/// [`http_get`]'s bound on the connect and on each read or write.
const GET_TIMEOUT: Duration = Duration::from_secs(10);

/// One sidecar connection: request bytes accumulate in `buf` until the
/// header terminator, then the response accumulates in `out` until
/// flushed. One request per connection.
struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    responded: bool,
    /// Response fully flushed and the write side shut down; the
    /// connection lingers, draining reads, until the client EOFs (so a
    /// client mid-send never takes an RST that could clip the response).
    lingering: bool,
    /// Client closed its write side.
    eof: bool,
    deadline: Instant,
}

impl HttpConn {
    /// Reads whatever the socket has; returns `false` on a transport
    /// error (the connection is finished).
    fn read_some(&mut self, telemetry: &Telemetry) -> bool {
        use std::io::Read;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return true;
                }
                Ok(n) => {
                    if self.responded {
                        // Bytes after the one allowed request (an
                        // oversized body, pipelining) are discarded; the
                        // response is already queued.
                        continue;
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                    if self.buf.len() > MAX_REQUEST_BYTES {
                        self.respond(simple_response(
                            400,
                            "Bad Request",
                            "text/plain; charset=utf-8",
                            "request too large\n",
                            None,
                        ));
                        continue;
                    }
                    if let Some(end) = find_header_end(&self.buf) {
                        let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                        let line = head.lines().next().unwrap_or_default().to_string();
                        self.respond(handle_request(telemetry, &line));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    fn respond(&mut self, response: Vec<u8>) {
        self.out = response;
        self.written = 0;
        self.responded = true;
    }

    /// Flushes queued response bytes; returns `false` on a transport
    /// error. Once the response is fully delivered the write side shuts
    /// down and the connection lingers until the client EOFs.
    fn write_some(&mut self) -> bool {
        use std::io::Write;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.lingering {
            self.lingering = true;
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
        }
        true
    }
}

/// Index one past the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Renders a complete HTTP/1.1 response with the standard sidecar
/// headers. `extra` smuggles route-specific headers (e.g. `Allow`).
fn simple_response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra: Option<&str>,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(extra) = extra {
        head.push_str(extra);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parses a `/trace` query string (`conn=N&stream=M`, both optional).
fn parse_trace_query(query: &str) -> Result<(Option<u64>, Option<u32>), String> {
    let mut conn = None;
    let mut stream = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "conn" => {
                conn = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad conn '{value}'"))?,
                );
            }
            "stream" => {
                stream = Some(
                    value
                        .parse::<u32>()
                        .map_err(|_| format!("bad stream '{value}'"))?,
                );
            }
            _ => {}
        }
    }
    Ok((conn, stream))
}

/// Routes one request line to its response.
fn handle_request(telemetry: &Telemetry, request_line: &str) -> Vec<u8> {
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return simple_response(
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
            None,
        );
    };
    if method != "GET" {
        return simple_response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
            Some("Allow: GET"),
        );
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/metrics" => simple_response(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &telemetry.render_prometheus(),
            None,
        ),
        "/stats" => simple_response(
            200,
            "OK",
            "application/json",
            &telemetry.snapshot().to_json().render(),
            None,
        ),
        "/healthz" => {
            let state = telemetry.state();
            let body = format!("{{\"state\":\"{}\"}}\n", state.as_str());
            if state == ServeState::Serving {
                simple_response(200, "OK", "application/json", &body, None)
            } else {
                simple_response(503, "Service Unavailable", "application/json", &body, None)
            }
        }
        "/trace" => match parse_trace_query(query) {
            Ok((conn, stream)) => simple_response(
                200,
                "OK",
                "application/json",
                &telemetry.trace_json(conn, stream),
                None,
            ),
            Err(e) => simple_response(
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                &format!("{e}\n"),
                None,
            ),
        },
        _ => simple_response(
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path\n",
            None,
        ),
    }
}

/// The sidecar's thread body: accepts, reads, routes and flushes until
/// `stop` is raised (the edge rings `pipe`'s waker on shutdown).
pub(crate) fn serve(
    listener: TcpListener,
    pipe: WakePipe,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<HttpConn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(pollfd(pipe.fd(), POLLIN));
        fds.push(pollfd(listener.as_raw_fd(), POLLIN));
        for conn in &conns {
            // Always readable: before the response to assemble the
            // request, after it to drain and detect the client's EOF.
            let mut events = POLLIN;
            if conn.written < conn.out.len() {
                events |= POLLOUT;
            }
            fds.push(pollfd(conn.stream.as_raw_fd(), events));
        }
        let _ = poll_fds(&mut fds, SIDECAR_POLL_MS);
        pipe.drain();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if fds[1].revents & (POLLIN | POLLERR) != 0 {
            while let Ok((stream, _peer)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.push(HttpConn {
                    stream,
                    buf: Vec::new(),
                    out: Vec::new(),
                    written: 0,
                    responded: false,
                    lingering: false,
                    eof: false,
                    deadline: Instant::now() + CLIENT_TIMEOUT,
                });
            }
        }
        // fds[2..] was built from the conns present before this
        // iteration's accepts; fresh connections poll next time around.
        let polled = fds.len() - 2;
        let now = Instant::now();
        let mut index = 0usize;
        conns.retain_mut(|conn| {
            let revents = if index < polled {
                fds[2 + index].revents
            } else {
                0
            };
            index += 1;
            if now >= conn.deadline {
                return false;
            }
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 && !conn.read_some(&telemetry) {
                return false;
            }
            if conn.responded && !conn.write_some() {
                return false;
            }
            // Fully served and the client is done talking: close.
            !(conn.lingering && conn.eof)
        });
    }
}

/// One blocking HTTP/1.1 `GET` against the telemetry sidecar: sends
/// `GET {path}` with `Connection: close`, reads the response to EOF and
/// returns its status code and body.
///
/// # Errors
///
/// Transport errors (the connect and every read or write time out after
/// 10 s), and `InvalidData` when the response is not UTF-8 or lacks a
/// status line or header terminator.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, GET_TIMEOUT)?;
    stream.set_read_timeout(Some(GET_TIMEOUT))?;
    stream.set_write_timeout(Some(GET_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: pit-serve\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let parsed = response.split_once("\r\n\r\n").and_then(|(head, body)| {
        let status = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some((status, body.to_string()))
    });
    parsed.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed HTTP response: {response:?}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_telemetry() -> Telemetry {
        Telemetry::one_model("m", false)
    }

    fn response_text(bytes: Vec<u8>) -> String {
        String::from_utf8(bytes).expect("sidecar responses are UTF-8")
    }

    #[test]
    fn routes_resolve_and_unknowns_get_404() {
        let t = test_telemetry();
        let metrics = response_text(handle_request(&t, "GET /metrics HTTP/1.1"));
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("pit_serve_connections_total"));
        let stats = response_text(handle_request(&t, "GET /stats HTTP/1.1"));
        assert!(stats.contains("application/json"));
        assert!(stats.contains("pit-serve-stats"));
        let missing = response_text(handle_request(&t, "GET /nope HTTP/1.1"));
        assert!(missing.starts_with("HTTP/1.1 404 "));
    }

    #[test]
    fn healthz_reflects_lifecycle_state() {
        let t = test_telemetry();
        // Booting: bound but not serving yet.
        let booting = response_text(handle_request(&t, "GET /healthz HTTP/1.1"));
        assert!(booting.starts_with("HTTP/1.1 503 "), "{booting}");
        assert!(booting.contains("\"booting\""));
        t.set_state(ServeState::Serving);
        let serving = response_text(handle_request(&t, "GET /healthz HTTP/1.1"));
        assert!(serving.starts_with("HTTP/1.1 200 "), "{serving}");
        assert!(serving.contains("\"serving\""));
        t.set_state(ServeState::Draining);
        let draining = response_text(handle_request(&t, "GET /healthz HTTP/1.1"));
        assert!(draining.starts_with("HTTP/1.1 503 "), "{draining}");
        assert!(draining.contains("\"draining\""));
    }

    #[test]
    fn non_get_methods_are_refused_with_allow() {
        let t = test_telemetry();
        let post = response_text(handle_request(&t, "POST /metrics HTTP/1.1"));
        assert!(post.starts_with("HTTP/1.1 405 "));
        assert!(post.contains("Allow: GET\r\n"));
        let bad = response_text(handle_request(&t, "GARBAGE"));
        assert!(bad.starts_with("HTTP/1.1 400 "));
    }

    #[test]
    fn trace_query_filters_parse_and_reject_bad_numbers() {
        assert_eq!(parse_trace_query(""), Ok((None, None)));
        assert_eq!(parse_trace_query("conn=3"), Ok((Some(3), None)));
        assert_eq!(parse_trace_query("conn=3&stream=7"), Ok((Some(3), Some(7))));
        assert_eq!(parse_trace_query("stream=7&other=x"), Ok((None, Some(7))));
        assert!(parse_trace_query("conn=abc").is_err());
        assert!(parse_trace_query("stream=-1").is_err());
        let t = test_telemetry();
        let bad = response_text(handle_request(&t, "GET /trace?conn=zzz HTTP/1.1"));
        assert!(bad.starts_with("HTTP/1.1 400 "));
        let ok = response_text(handle_request(&t, "GET /trace?conn=1 HTTP/1.1"));
        assert!(ok.contains("pit-serve-trace/1"));
    }

    #[test]
    fn content_length_matches_the_body() {
        let t = test_telemetry();
        let raw = handle_request(&t, "GET /metrics HTTP/1.1");
        let end = find_header_end(&raw).expect("header terminator");
        let head = String::from_utf8_lossy(&raw[..end]);
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .unwrap();
        assert_eq!(length, raw.len() - end);
    }

    #[test]
    fn header_end_detection_needs_the_full_terminator() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_header_end(b"partial"), None);
    }
}
