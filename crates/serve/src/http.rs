//! A deliberately small HTTP/1.1 server over `std::net` with persistent
//! connections and a bounded handler pool.
//!
//! Routes:
//!
//! | method | path              | body                      | response |
//! |--------|-------------------|---------------------------|----------|
//! | POST   | `/detect`         | `{"value":"…"}` or `{"values":["…",…]}` | per-value verdicts |
//! | POST   | `/detect/column`  | `{"values":["…",…]}`      | whole-column verdict |
//! | POST   | `/detect/table`   | `{"columns":[["…",…],…]}` | one verdict per column |
//! | GET    | `/healthz`        | —                         | liveness + pack count |
//! | GET    | `/metrics`        | —                         | Prometheus text |
//!
//! Every `/detect*` body also accepts an optional `"max_fuel"` number: a
//! per-request interpreter fuel ceiling, clamped per pack to
//! `min(max_fuel, pack.fuel)`. Non-positive values are rejected with 400.
//!
//! ## Connection lifecycle
//!
//! Connections are persistent (HTTP/1.1 keep-alive): the handler loops
//! read-request → write-response on one socket until the client sends
//! `Connection: close`, goes quiet past the idle timeout, or closes. The
//! `Connection` header is honored in both directions — HTTP/1.1 defaults
//! to keep-alive, HTTP/1.0 must opt in with `Connection: keep-alive`.
//! Error responses always close (after a parse failure the request
//! framing is unknowable, so the socket cannot be trusted for another
//! round). An idle timeout with *zero* bytes read closes silently — that
//! is a client choosing not to reuse the connection, not an error — while
//! a timeout mid-request earns a 408.
//!
//! ## Bounded acceptor pool
//!
//! Accepted sockets flow through a bounded queue to a fixed pool of
//! `max_connections` handler threads; when every handler is busy and the
//! backlog is full, the acceptor sheds the connection inline with a 503
//! (`autotype_connections_shed_total`) instead of spawning without bound.
//! Request limits (line length, header count, body size, value count,
//! read timeout) are enforced before any detection work runs; violations produce 4xx responses with a
//! JSON error body. Graceful shutdown: a stop flag, a self-connect to
//! unblock `accept`, a closed queue to retire idle handlers, and a bounded
//! wait for in-flight connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::json::{self, Json};
use crate::metrics::{Metrics, Route};
use crate::runtime::DetectorRuntime;

/// Longest request line or header line read, line ending included, in
/// bytes. A longer one is answered with 431 and the connection closes.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines read for one request; one more is answered with 431.
const MAX_HEADERS: usize = 100;

/// Tunables for the listener; the defaults suit a local deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Maximum request body size in bytes.
    pub max_body: usize,
    /// Maximum number of values in one batch/column/table request.
    pub max_values: usize,
    /// Socket read timeout while inside a request (headers/body).
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Handler pool size: connections served concurrently.
    pub max_connections: usize,
    /// Accepted-but-unclaimed connections queued for the pool; beyond
    /// this the acceptor sheds with 503. `0` means rendezvous — a
    /// connection is accepted only if a handler is already waiting.
    pub accept_backlog: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7450".to_string(),
            max_body: 1 << 20,
            max_values: 10_000,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_connections: 64,
            accept_backlog: 64,
        }
    }
}

/// Handle to a running server; dropping it does NOT stop the server —
/// call [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and wait (bounded) for
    /// in-flight connections to drain. Handler threads exit on their own
    /// once the acceptor closes the handoff queue.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Connections already handed to handler threads get a grace period.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.active.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Bind and start serving `runtime` in background threads; returns once
/// the listener is bound and every handler thread waits for a connection
/// (so `handle.addr()` is immediately usable and nothing is shed for want
/// of a started handler).
pub fn serve(runtime: Arc<DetectorRuntime>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));

    let handlers = config.max_connections.max(1);
    let handoff = Arc::new(Handoff::default());
    for _ in 0..handlers {
        let handoff = handoff.clone();
        let runtime = runtime.clone();
        let config = config.clone();
        let active = active.clone();
        std::thread::spawn(move || {
            while let Some(stream) = handoff.claim() {
                active.fetch_add(1, Ordering::SeqCst);
                handle_connection(stream, &runtime, &config);
                active.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
    // Return only once every handler waits for a connection, so the first
    // connections are never shed because a handler has not started yet.
    drop(
        handoff
            .ready
            .wait_while(handoff.lock(), |q| q.idle < handlers)
            .expect(UNPOISONED),
    );

    let accept_stop = stop.clone();
    let accept_metrics = runtime.clone();
    let backlog = config.accept_backlog;
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let m = accept_metrics.metrics();
            Metrics::bump(&m.connections_total);
            if let Err(stream) = handoff.offer(stream, backlog) {
                Metrics::bump(&m.connections_shed);
                Metrics::bump(&m.http_errors);
                write_response(&stream, &Response::error(503, "server saturated"), false);
            }
        }
        handoff.close();
    });

    Ok(ServerHandle {
        addr,
        stop,
        active,
        accept_thread: Some(accept_thread),
    })
}

/// Nothing that can panic runs under the handoff lock.
const UNPOISONED: &str = "no handler panics while holding the handoff lock";

/// The acceptor → handler-pool handoff: accepted connections waiting for a
/// handler, and how many handlers are waiting for one. One lock guards
/// both, so the acceptor's "is a handler free?" check cannot race a
/// handler that is about to wait.
#[derive(Default)]
struct Handoff {
    queue: Mutex<Queue>,
    /// Signalled when a connection is queued or the acceptor closes.
    work: Condvar,
    /// Signalled when a handler becomes idle (`serve` waits on it).
    ready: Condvar,
}

#[derive(Default)]
struct Queue {
    streams: VecDeque<TcpStream>,
    idle: usize,
    closed: bool,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(UNPOISONED)
    }

    /// Queue `stream` if an idle handler or one of `backlog` slots can
    /// take it; otherwise hand it back to be shed.
    fn offer(&self, stream: TcpStream, backlog: usize) -> Result<(), TcpStream> {
        let mut q = self.lock();
        if q.streams.len() >= q.idle + backlog {
            return Err(stream);
        }
        q.streams.push_back(stream);
        self.work.notify_one();
        Ok(())
    }

    /// Wait idle for the next connection; `None` once the acceptor has
    /// closed and the queue is drained.
    fn claim(&self) -> Option<TcpStream> {
        let mut q = self.lock();
        q.idle += 1;
        self.ready.notify_one();
        let mut q = self
            .work
            .wait_while(q, |q| q.streams.is_empty() && !q.closed)
            .expect(UNPOISONED);
        q.idle -= 1;
        q.streams.pop_front()
    }

    /// Retire the handlers once they have drained the queue.
    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{{}}}", json::str_field("error", Some(message))),
        )
    }

    fn is_error(&self) -> bool {
        self.status >= 400
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Why [`read_request`] produced no request.
enum ReadHalt {
    /// Clean end of connection: EOF or idle timeout before any byte of a
    /// next request arrived. Close without a response.
    Silent,
    /// A malformed or timed-out request; answer it, then close.
    Respond(Response),
}

fn handle_connection(stream: TcpStream, runtime: &DetectorRuntime, config: &ServerConfig) {
    // Persistent connections interact badly with Nagle + delayed ACK
    // (~40 ms stalls per round trip once quickack decays); responses are
    // single complete writes, so disabling Nagle costs nothing.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    loop {
        // Between requests the clock is the idle timeout; once the request
        // line lands, `read_request` switches to the in-request timeout.
        let _ = stream.set_read_timeout(Some(config.idle_timeout));
        match read_request(&stream, &mut reader, config) {
            Ok((method, path, body, client_keep_alive)) => {
                let response = route(runtime, &method, &path, &body, config);
                if response.is_error() {
                    Metrics::bump(&runtime.metrics().http_errors);
                }
                Metrics::bump(&runtime.metrics().requests_total);
                let keep_alive = client_keep_alive && !response.is_error();
                write_response(&stream, &response, keep_alive);
                if !keep_alive {
                    return;
                }
            }
            Err(ReadHalt::Silent) => return,
            Err(ReadHalt::Respond(response)) => {
                Metrics::bump(&runtime.metrics().http_errors);
                Metrics::bump(&runtime.metrics().requests_total);
                write_response(&stream, &response, false);
                return;
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one line, line ending included, of at most [`MAX_LINE`] bytes
/// into `line`; empty at end of input. Bytes read before an error stay in
/// `line`.
fn read_line_capped(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>) -> std::io::Result<()> {
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', line)
        .map(drop)
}

/// The text of a line from [`read_line_capped`]: 431 if it hit the cap
/// before its line ending, 400 if it is not UTF-8.
fn line_text(line: Vec<u8>) -> Result<String, ReadHalt> {
    if line.len() == MAX_LINE && line.last() != Some(&b'\n') {
        return Err(ReadHalt::Respond(Response::error(431, "line too long")));
    }
    String::from_utf8(line)
        .map_err(|_| ReadHalt::Respond(Response::error(400, "request is not UTF-8")))
}

/// Parse one request: request line, headers, body. Returns the method,
/// path, body, and whether the client wants the connection kept alive.
fn read_request(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    config: &ServerConfig,
) -> Result<(String, String, String, bool), ReadHalt> {
    let mut raw = Vec::new();
    match read_line_capped(reader, &mut raw) {
        Ok(()) if raw.is_empty() => return Err(ReadHalt::Silent),
        Ok(()) => {}
        Err(e) if is_timeout(&e) => {
            // No bytes yet → the connection idled out; partial line → the
            // client stalled mid-request.
            return if raw.is_empty() {
                Err(ReadHalt::Silent)
            } else {
                Err(ReadHalt::Respond(Response::error(408, "read timeout")))
            };
        }
        Err(_) => {
            return Err(ReadHalt::Respond(Response::error(
                400,
                "unreadable request",
            )))
        }
    }
    let line = line_text(raw)?;
    // The request is underway: switch to the (usually longer) in-request
    // read timeout for headers and body.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || path.is_empty() {
        return Err(ReadHalt::Respond(Response::error(
            400,
            "malformed request line",
        )));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let mut raw = Vec::new();
        match read_line_capped(reader, &mut raw) {
            Ok(()) if raw.is_empty() => {
                return Err(ReadHalt::Respond(Response::error(400, "truncated headers")))
            }
            Ok(()) => {}
            Err(e) if is_timeout(&e) => {
                return Err(ReadHalt::Respond(Response::error(408, "read timeout")))
            }
            Err(_) => {
                return Err(ReadHalt::Respond(Response::error(
                    400,
                    "unreadable headers",
                )))
            }
        }
        let header = line_text(raw)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(ReadHalt::Respond(Response::error(431, "too many headers")));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadHalt::Respond(Response::error(400, "bad content-length")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
        }
    }
    if content_length > config.max_body {
        return Err(ReadHalt::Respond(Response::error(
            413,
            "request body too large",
        )));
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if is_timeout(&e) {
                ReadHalt::Respond(Response::error(408, "read timeout"))
            } else {
                ReadHalt::Respond(Response::error(400, "truncated body"))
            }
        })?;
    }
    let body = String::from_utf8(body)
        .map_err(|_| ReadHalt::Respond(Response::error(400, "body is not UTF-8")))?;
    Ok((method, path, body, keep_alive))
}

fn route(
    runtime: &DetectorRuntime,
    method: &str,
    path: &str,
    body: &str,
    config: &ServerConfig,
) -> Response {
    let m = runtime.metrics();
    match (method, path) {
        ("POST", "/detect") => {
            m.bump_route(Route::Detect);
            detect_endpoint(runtime, body, config)
        }
        ("POST", "/detect/column") => {
            m.bump_route(Route::DetectColumn);
            detect_column_endpoint(runtime, body, config)
        }
        ("POST", "/detect/table") => {
            m.bump_route(Route::DetectTable);
            detect_table_endpoint(runtime, body, config)
        }
        ("GET", "/healthz") => {
            m.bump_route(Route::Healthz);
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"packs\":{},\"workers\":{}}}",
                    runtime.packs().len(),
                    runtime.workers()
                ),
            )
        }
        ("GET", "/metrics") => {
            m.bump_route(Route::Metrics);
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: m.render(runtime.cache_entries()),
            }
        }
        ("POST", "/healthz" | "/metrics")
        | ("GET", "/detect" | "/detect/column" | "/detect/table") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "unknown path"),
    }
}

/// Extract the optional `"max_fuel"` ceiling from a parsed body. Absent →
/// `None` (full pack budgets); present it must be a positive number.
fn parse_max_fuel(parsed: &Json) -> Result<Option<u64>, Response> {
    match parsed.get("max_fuel") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_number()
                .ok_or_else(|| Response::error(400, "\"max_fuel\" must be a number"))?;
            if n <= 0.0 || n.is_nan() {
                return Err(Response::error(400, "\"max_fuel\" must be positive"));
            }
            // Saturating: anything ≥ 2^64 just means "no extra ceiling".
            Ok(Some(n as u64))
        }
    }
}

/// Pull the value list out of a parsed request body: either `"value": "…"`
/// (a batch of one) or `"values": ["…", …]`.
fn parse_values(parsed: &Json, config: &ServerConfig) -> Result<Vec<String>, Response> {
    if let Some(v) = parsed.get("value") {
        let s = v
            .as_str()
            .ok_or_else(|| Response::error(400, "\"value\" must be a string"))?;
        return Ok(vec![s.to_string()]);
    }
    let values = parsed
        .get("values")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, "expected \"value\" or \"values\""))?;
    if values.len() > config.max_values {
        return Err(Response::error(413, "too many values"));
    }
    string_values(values)
}

fn string_values(items: &[Json]) -> Result<Vec<String>, Response> {
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| Response::error(400, "values must be strings"))
        })
        .collect()
}

fn pack_fields(runtime: &DetectorRuntime, pack: Option<usize>) -> String {
    match pack {
        Some(pi) => {
            let p = &runtime.packs()[pi];
            format!(
                "{},{}",
                json::str_field("type", Some(p.slug())),
                json::str_field("pack", Some(p.pack_id()))
            )
        }
        None => format!(
            "{},{}",
            json::str_field("type", None),
            json::str_field("pack", None)
        ),
    }
}

fn detect_endpoint(runtime: &DetectorRuntime, body: &str, config: &ServerConfig) -> Response {
    let parsed = match json::parse(body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let (values, max_fuel) = match (parse_values(&parsed, config), parse_max_fuel(&parsed)) {
        (Ok(v), Ok(f)) => (v, f),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    let columns: Vec<&[String]> = values.iter().map(std::slice::from_ref).collect();
    let verdicts = runtime.detect_columns(&columns, max_fuel);
    let results: Vec<String> = values
        .iter()
        .zip(&verdicts)
        .map(|(value, pack)| {
            format!(
                "{{{},{}}}",
                json::str_field("value", Some(value)),
                pack_fields(runtime, *pack)
            )
        })
        .collect();
    Response::json(200, format!("{{\"results\":[{}]}}", results.join(",")))
}

fn detect_column_endpoint(
    runtime: &DetectorRuntime,
    body: &str,
    config: &ServerConfig,
) -> Response {
    let parsed = match json::parse(body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let (values, max_fuel) = match (parse_values(&parsed, config), parse_max_fuel(&parsed)) {
        (Ok(v), Ok(f)) => (v, f),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    let pack = runtime.detect_columns(&[&values], max_fuel)[0];
    Response::json(
        200,
        format!(
            "{{{},\"values\":{}}}",
            pack_fields(runtime, pack),
            values.len()
        ),
    )
}

fn detect_table_endpoint(runtime: &DetectorRuntime, body: &str, config: &ServerConfig) -> Response {
    let parsed = match json::parse(body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let max_fuel = match parse_max_fuel(&parsed) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let raw = match parsed.get("columns").and_then(Json::as_array) {
        Some(cols) => cols,
        None => return Response::error(400, "expected \"columns\": [[…], …]"),
    };
    let mut columns: Vec<Vec<String>> = Vec::with_capacity(raw.len());
    let mut total = 0usize;
    for col in raw {
        let items = match col.as_array() {
            Some(items) => items,
            None => return Response::error(400, "each column must be an array of strings"),
        };
        total += items.len();
        if total > config.max_values {
            return Response::error(413, "too many values");
        }
        match string_values(items) {
            Ok(v) => columns.push(v),
            Err(resp) => return resp,
        }
    }
    let verdicts = runtime.detect_table(&columns, max_fuel);
    let results: Vec<String> = columns
        .iter()
        .zip(&verdicts)
        .map(|(col, pack)| {
            format!(
                "{{{},\"values\":{}}}",
                pack_fields(runtime, *pack),
                col.len()
            )
        })
        .collect();
    Response::json(200, format!("{{\"columns\":[{}]}}", results.join(",")))
}

fn write_response(mut stream: &TcpStream, response: &Response, keep_alive: bool) {
    // One write_all per response: a single TCP segment where possible, so
    // Nagle never holds the body back waiting for an ACK of the head.
    let mut message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    message.push_str(&response.body);
    let _ = stream.write_all(message.as_bytes());
    let _ = stream.flush();
}
