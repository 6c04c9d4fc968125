//! Loopback integration test: bind the real server on an ephemeral port,
//! speak actual HTTP/1.1 over a TCP socket, and check responses and
//! `/metrics` counters end to end.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::Pack;
use autotype_serve::{serve, DetectorRuntime, ServerConfig};

/// A pack accepting exactly the inputs for which the program returns True.
fn boolean_pack(slug: &str, func: &str, source: &str) -> Pack {
    Pack {
        slug: slug.into(),
        keyword: slug.into(),
        label: format!("demo/mod.{func}"),
        repo_name: "demo".into(),
        file: "mod".into(),
        strategy: "S1".into(),
        method: "DNF-S".into(),
        score: 1.0,
        neg_fraction: 0.0,
        explanation: "(ret==True)".into(),
        fuel: 10_000,
        installs: 0,
        candidate_file: 0,
        entry: EntryPoint::Function { name: func.into() },
        files: vec![("mod".into(), source.into())],
        packages: vec![],
        dnf_e: vec![vec![Literal::Ret {
            site: SiteId::new(u32::MAX, 0),
            value: ValueSummary::Bool(true),
        }]],
    }
}

fn test_runtime() -> DetectorRuntime {
    let even = boolean_pack(
        "evenlen",
        "is_even_len",
        "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n",
    );
    DetectorRuntime::from_packs(vec![even.validator().unwrap()], 2, 256)
}

/// One full request/response over a real socket. Sends `Connection: close`
/// so the server ends the connection after responding (this helper reads
/// to EOF; keep-alive coverage lives in tests/keepalive.rs).
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn detect_batch_metrics_and_errors_over_loopback() {
    let handle = serve(
        Arc::new(test_runtime()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(), // ephemeral port
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    // Liveness first.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"packs\":1"), "{body}");

    // A batch: "ab" (even → evenlen), "abc" (odd → null).
    let (status, body) = request(addr, "POST", "/detect", r#"{"values":["ab","abc"]}"#);
    assert_eq!(status, 200);
    assert!(
        body.contains(r#"{"value":"ab","type":"evenlen","pack":"evenlen-"#),
        "{body}"
    );
    assert!(
        body.contains(r#"{"value":"abc","type":null,"pack":null}"#),
        "{body}"
    );

    // Same batch again: every verdict must come from the cache.
    let (status, _) = request(addr, "POST", "/detect", r#"{"values":["ab","abc"]}"#);
    assert_eq!(status, 200);

    // Single-value form.
    let (status, body) = request(addr, "POST", "/detect", r#"{"value":"xyzq"}"#);
    assert_eq!(status, 200);
    assert!(body.contains(r#""type":"evenlen""#), "{body}");

    // Whole-column form: all even-length.
    let (status, body) = request(
        addr,
        "POST",
        "/detect/column",
        r#"{"values":["ab","cd","ef","gh","ij"]}"#,
    );
    assert_eq!(status, 200);
    assert!(body.contains(r#""type":"evenlen""#), "{body}");
    assert!(body.contains(r#""values":5"#), "{body}");

    // Error paths.
    let (status, body) = request(addr, "POST", "/detect", "not json");
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");
    let (status, _) = request(addr, "POST", "/detect", r#"{"nothing":1}"#);
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/detect", "");
    assert_eq!(status, 405);

    // /metrics reflects everything above.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && l.split_whitespace().count() == 2)
            .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(counter("autotype_requests_detect_total"), 5);
    assert_eq!(counter("autotype_requests_detect_column_total"), 1);
    assert_eq!(counter("autotype_http_errors_total"), 4);
    // "ab"/"abc" probed once each; the repeat batch is 2 hits. "ab" also
    // hits again inside the column warm pass — at minimum 2 hits exist.
    assert!(counter("autotype_cache_hits_total") >= 2, "{metrics}");
    assert!(counter("autotype_cache_misses_total") >= 3, "{metrics}");
    assert!(counter("autotype_fuel_spent_total") > 0);
    assert!(counter("autotype_values_served_total") >= 10);
    assert!(
        metrics.contains("autotype_pack_probe_latency_us_bucket"),
        "{metrics}"
    );

    handle.shutdown();
    // After shutdown the port stops answering new connections (the accept
    // loop has exited; a connect may succeed at TCP level on some kernels
    // via backlog, so just assert the handle joined without hanging).
}

/// Send `head` raw and return the response's status code. The server may
/// close before reading everything sent, so a reset after the response
/// arrived is not an error.
fn raw_status(addr: std::net::SocketAddr, head: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server may stop reading once the cap is hit; a failed write past
    // that point is expected.
    let _ = stream.write_all(head);
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
        }
    }
    let raw = String::from_utf8_lossy(&raw);
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
}

#[test]
fn oversized_request_lines_and_header_counts_get_431() {
    let handle = serve(
        Arc::new(test_runtime()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    assert_eq!(raw_status(addr, long_line.as_bytes()), 431);

    let mut many = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..1_000 {
        many.push_str(&format!("X-Filler-{i}: {i}\r\n"));
    }
    many.push_str("\r\n");
    assert_eq!(raw_status(addr, many.as_bytes()), 431);

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    handle.shutdown();
}

/// The server's body and value-count caps (`MAX_BODY`, `MAX_VALUES` in
/// `src/http.rs`).
const MAX_BODY: usize = 1 << 20;
const MAX_VALUES: usize = 10_000;

/// A JSON array of `n` one-character strings.
fn values_json(n: usize) -> String {
    format!("[{}]", vec!["\"a\""; n].join(","))
}

#[test]
fn oversized_bodies_and_value_counts_get_413() {
    let handle = serve(
        Arc::new(test_runtime()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    // Refused from the header alone: no body is sent.
    let head = format!(
        "POST /detect HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    assert_eq!(raw_status(addr, head.as_bytes()), 413);

    let body = format!("{{\"values\":{}}}", values_json(MAX_VALUES + 1));
    let (status, body) = request(addr, "POST", "/detect", &body);
    assert_eq!(status, 413, "{body}");

    // The cap counts a table's columns together.
    let half = MAX_VALUES / 2;
    let body = format!(
        "{{\"columns\":[{},{}]}}",
        values_json(half),
        values_json(MAX_VALUES + 1 - half)
    );
    let (status, body) = request(addr, "POST", "/detect/table", &body);
    assert_eq!(status, 413, "{body}");

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    handle.shutdown();
}
