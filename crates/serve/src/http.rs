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
//! round). Only `Content-Length` frames a body: repeats must agree (400
//! otherwise), and any `Transfer-Encoding` is answered 501. An idle
//! timeout with *zero* bytes read closes silently — that is a client
//! choosing not to reuse the connection, not an error. From
//! its first byte, a whole request must arrive within `READ_TIMEOUT`
//! (10 s): each read from the socket waits only for the time left, so
//! trickled bytes cannot hold a handler past the deadline, which earns 408.
//!
//! ## Bounded acceptor pool
//!
//! Accepted sockets flow through a bounded queue to a fixed pool of
//! `max_connections` handler threads; when every handler is busy and the
//! backlog is full, the acceptor sheds the connection inline with a 503
//! (`autotype_connections_shed_total`) instead of spawning without bound.
//! Request limits (line length, header count, body size, value count,
//! request deadline) are enforced before any detection work runs;
//! violations produce 4xx responses with a JSON error body. Graceful
//! shutdown: a stop flag, a self-connect to
//! unblock `accept`, a closed queue to retire idle handlers, and a bounded
//! wait for in-flight connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::metrics::{Metrics, Route};
use crate::runtime::DetectorRuntime;

/// Longest request line or header line read, line ending included, in
/// bytes. A longer one is answered with 431 and the connection closes.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines read for one request; one more is answered with 431.
const MAX_HEADERS: usize = 100;

/// Largest request body, in bytes; a larger `Content-Length` is answered
/// with 413 before any of the body is read.
const MAX_BODY: usize = 1 << 20;

/// Most values in one `/detect*` request (a table's columns counted
/// together); one more is answered with 413.
const MAX_VALUES: usize = 10_000;

/// Time allowed for one whole request (request line, headers and body),
/// counted from its first byte; running out is answered with 408.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables for the listener; the defaults suit a local deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
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
        let idle_timeout = config.idle_timeout;
        let active = active.clone();
        std::thread::spawn(move || {
            while let Some(stream) = handoff.claim() {
                active.fetch_add(1, Ordering::SeqCst);
                handle_connection(stream, &runtime, idle_timeout);
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
        501 => "Not Implemented",
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

fn respond(status: u16, message: &str) -> ReadHalt {
    ReadHalt::Respond(Response::error(status, message))
}

fn handle_connection(stream: TcpStream, runtime: &DetectorRuntime, idle_timeout: Duration) {
    // Persistent connections interact badly with Nagle + delayed ACK
    // (~40 ms stalls per round trip once quickack decays); responses are
    // single complete writes, so disabling Nagle costs nothing.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    loop {
        // Between requests the clock is the idle timeout; from a request's
        // first byte on, `fill` counts down its deadline instead.
        let _ = stream.set_read_timeout(Some(idle_timeout));
        let (response, keep_alive) = match read_request(&mut reader) {
            Ok((method, path, body, keep_alive)) => {
                (route(runtime, &method, &path, &body), keep_alive)
            }
            Err(ReadHalt::Respond(response)) => (response, false),
            Err(ReadHalt::Silent) => return,
        };
        if response.is_error() {
            Metrics::bump(&runtime.metrics().http_errors);
        }
        Metrics::bump(&runtime.metrics().requests_total);
        let keep_alive = keep_alive && !response.is_error();
        write_response(&stream, &response, keep_alive);
        if !keep_alive {
            return;
        }
    }
}

/// The bytes buffered for the request, read from the socket if none are.
/// Before the request's first byte (`deadline` is `None`) the socket keeps
/// the idle timeout, and end of input or a timeout closes silently; that
/// byte starts the [`READ_TIMEOUT`] deadline, and each later read from the
/// socket waits only for the time left. Empty at end of input once the
/// request has begun; a timeout then answers 408, and any other read error
/// 400 naming `part`.
fn fill<'r>(
    reader: &'r mut BufReader<TcpStream>,
    deadline: &mut Option<Instant>,
    part: &str,
) -> Result<&'r [u8], ReadHalt> {
    if let (Some(deadline), true) = (*deadline, reader.buffer().is_empty()) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(respond(408, "read timeout"));
        }
        let _ = reader.get_ref().set_read_timeout(Some(left));
    }
    let buf = match reader.fill_buf() {
        Ok(buf) => buf,
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Err(respond(400, &format!("unreadable {part}")))
        }
        Err(_) if deadline.is_some() => return Err(respond(408, "read timeout")),
        Err(_) => return Err(ReadHalt::Silent),
    };
    if deadline.is_none() {
        if buf.is_empty() {
            return Err(ReadHalt::Silent);
        }
        *deadline = Some(Instant::now() + READ_TIMEOUT);
    }
    Ok(buf)
}

/// Read one line of `part` of the request, line ending included, as text.
/// A line cut short by end of input is returned as it is; end of input
/// before any byte of a header line answers 400, a line of more than
/// [`MAX_LINE`] bytes 431, and one that is not UTF-8 400. See [`fill`] for
/// timeouts and read errors.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    deadline: &mut Option<Instant>,
    part: &str,
) -> Result<String, ReadHalt> {
    let mut line = Vec::new();
    loop {
        let buf = fill(reader, deadline, part)?;
        if buf.is_empty() {
            if line.is_empty() {
                return Err(respond(400, &format!("truncated {part}")));
            }
            break;
        }
        let buf = &buf[..buf.len().min(MAX_LINE - line.len())];
        let end = buf.iter().position(|&b| b == b'\n');
        let n = end.map_or(buf.len(), |i| i + 1);
        line.extend_from_slice(&buf[..n]);
        reader.consume(n);
        if end.is_some() {
            break;
        }
        if line.len() == MAX_LINE {
            return Err(respond(431, "line too long"));
        }
    }
    String::from_utf8(line).map_err(|_| respond(400, "request is not UTF-8"))
}

/// Parse one request: request line, headers, body, all within
/// [`READ_TIMEOUT`] of its first byte. Returns the method, path, body, and
/// whether the client wants the connection kept alive.
fn read_request(
    reader: &mut BufReader<TcpStream>,
) -> Result<(String, String, String, bool), ReadHalt> {
    let mut deadline = None;
    let line = read_line(reader, &mut deadline, "request")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || path.is_empty() {
        return Err(respond(400, "malformed request line"));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = None;
    let mut headers = 0;
    loop {
        let header = read_line(reader, &mut deadline, "headers")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(respond(431, "too many headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| respond(400, "bad content-length"))?;
                // Lengths that disagree leave the body's end unknowable.
                if content_length.is_some_and(|n| n != length) {
                    return Err(respond(400, "conflicting content-length"));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Only `Content-Length` frames a body here; reading a
                // chunked one as the next request would desynchronize.
                return Err(respond(501, "transfer-encoding not supported"));
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
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(respond(413, "request body too large"));
    }

    let mut body = Vec::with_capacity(content_length);
    while body.len() < content_length {
        let buf = fill(reader, &mut deadline, "body")?;
        if buf.is_empty() {
            return Err(respond(400, "truncated body"));
        }
        let n = buf.len().min(content_length - body.len());
        body.extend_from_slice(&buf[..n]);
        reader.consume(n);
    }
    let body = String::from_utf8(body).map_err(|_| respond(400, "body is not UTF-8"))?;
    Ok((method, path, body, keep_alive))
}

fn route(runtime: &DetectorRuntime, method: &str, path: &str, body: &str) -> Response {
    let m = runtime.metrics();
    match (method, path) {
        ("POST", "/detect") => detect(runtime, Route::Detect, body),
        ("POST", "/detect/column") => detect(runtime, Route::DetectColumn, body),
        ("POST", "/detect/table") => detect(runtime, Route::DetectTable, body),
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
fn parse_values(parsed: &Json) -> Result<Vec<String>, Response> {
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
    if values.len() > MAX_VALUES {
        return Err(Response::error(413, "too many values"));
    }
    string_values(values)
}

/// Pull `"columns": [["…", …], …]` out of a parsed request body, checked
/// column by column: shape, then the running value count, then strings.
fn parse_table(parsed: &Json) -> Result<Vec<Vec<String>>, Response> {
    let raw = parsed
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, "expected \"columns\": [[…], …]"))?;
    let mut total = 0usize;
    raw.iter()
        .map(|col| {
            let items = col
                .as_array()
                .ok_or_else(|| Response::error(400, "each column must be an array of strings"))?;
            total += items.len();
            if total > MAX_VALUES {
                return Err(Response::error(413, "too many values"));
            }
            string_values(items)
        })
        .collect()
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
    let pack = pack.map(|pi| &runtime.packs()[pi]);
    format!(
        "{},{}",
        json::str_field("type", pack.map(|p| p.slug())),
        json::str_field("pack", pack.map(|p| p.pack_id()))
    )
}

/// The one `/detect*` handler; `route` picks the body's shape:
///
/// - `Route::Detect`: each value is a one-value column, answered per value;
/// - `Route::DetectColumn`: the values are one column;
/// - `Route::DetectTable`: the columns are given, answered per column.
///
/// A body is checked in one order on every route: JSON, then `"max_fuel"`,
/// then the values.
fn detect(runtime: &DetectorRuntime, route: Route, body: &str) -> Response {
    runtime.metrics().bump_route(route);
    let request = json::parse(body)
        .map_err(|e| Response::error(400, &format!("bad JSON: {e}")))
        .and_then(|parsed| {
            let max_fuel = parse_max_fuel(&parsed)?;
            let columns = match route {
                Route::DetectTable => parse_table(&parsed)?,
                _ => vec![parse_values(&parsed)?],
            };
            Ok((columns, max_fuel))
        });
    let (columns, max_fuel) = match request {
        Ok(request) => request,
        Err(response) => return response,
    };
    let columns: Vec<&[String]> = match route {
        Route::Detect => columns[0].iter().map(std::slice::from_ref).collect(),
        _ => columns.iter().map(Vec::as_slice).collect(),
    };
    let verdicts = runtime.detect_columns(&columns, max_fuel);
    let items: Vec<String> = columns
        .iter()
        .zip(verdicts)
        .map(|(column, pack)| {
            let fields = pack_fields(runtime, pack);
            match route {
                Route::Detect => format!(
                    "{{{},{fields}}}",
                    json::str_field("value", Some(&column[0]))
                ),
                _ => format!("{{{fields},\"values\":{}}}", column.len()),
            }
        })
        .collect();
    let body = match route {
        Route::Detect => format!("{{\"results\":[{}]}}", items.join(",")),
        Route::DetectTable => format!("{{\"columns\":[{}]}}", items.join(",")),
        _ => items.concat(),
    };
    Response::json(200, body)
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
