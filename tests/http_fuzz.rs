//! Fuzz the detection service's HTTP parser over real sockets: random
//! bytes, a valid request cut at every byte, randomly mutated requests,
//! oversized request lines and header counts, non-UTF-8 bytes,
//! mismatched or conflicting `Content-Length`s and transfer codings. Each
//! input is sent on its own connection,
//! whose write side is then closed, so a short body ends at end of input
//! instead of the read deadline.
//!
//! Property: every connection gets zero or more well-formed responses (a
//! status line, headers, then a body of exactly `Content-Length` bytes)
//! and then closes, and afterwards every handler still answers.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::Pack;
use autotype_serve::{serve, DetectorRuntime, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The server's caps (`crates/serve/src/http.rs`): bytes per request or
/// header line, header lines per request, and body bytes.
const MAX_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 100;
const MAX_BODY: usize = 1 << 20;

/// Handler threads; the closing check holds this many connections at once.
const HANDLERS: usize = 4;

const BODY: &str = r#"{"values":["ab","abc"]}"#;

/// A complete keep-alive `/detect` request.
fn valid_request() -> Vec<u8> {
    format!(
        "POST /detect HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{BODY}",
        BODY.len()
    )
    .into_bytes()
}

/// A one-pack runtime accepting even-length values.
fn runtime() -> DetectorRuntime {
    let source =
        "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n";
    let pack = Pack {
        slug: "evenlen".into(),
        keyword: "evenlen".into(),
        label: "demo/mod.is_even_len".into(),
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
        entry: EntryPoint::Function {
            name: "is_even_len".into(),
        },
        files: vec![("mod".into(), source.into())],
        packages: vec![],
        dnf_e: vec![vec![Literal::Ret {
            site: SiteId::new(u32::MAX, 0),
            value: ValueSummary::Bool(true),
        }]],
    };
    DetectorRuntime::from_packs(vec![pack.validator().unwrap()], 2, 256)
}

/// Split `raw` into responses and return their status codes, or say how
/// it is malformed.
fn responses(mut raw: &[u8]) -> Result<Vec<u16>, String> {
    let mut statuses = Vec::new();
    while !raw.is_empty() {
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("response head without an end")?;
        let head = std::str::from_utf8(&raw[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split_once(' '))
            .and_then(|(code, text)| (code.len() == 3 && !text.is_empty()).then_some(code))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        for line in lines {
            let (name, value) = line
                .split_once(": ")
                .ok_or_else(|| format!("bad header {line:?}"))?;
            if name == "Content-Length" {
                length = Some(value.parse::<usize>().map_err(|e| e.to_string())?);
            }
        }
        let length = length.ok_or("no Content-Length")?;
        let body = &raw[head_end + 4..];
        if body.len() < length {
            return Err(format!("body of {} bytes, {length} announced", body.len()));
        }
        raw = &body[length..];
        statuses.push(status);
    }
    Ok(statuses)
}

/// Send `input` on a fresh connection, close the write side, read until
/// the server closes, and return the statuses of the responses.
fn exchange(addr: SocketAddr, input: &[u8]) -> Vec<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server may close before reading all of a rejected input.
    let _ = stream.write_all(input);
    let _ = stream.shutdown(Shutdown::Write);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!(
                    "connection still open after 5 s for {:?}",
                    String::from_utf8_lossy(input)
                )
            }
            // A reset: the server closed with input left unread.
            Err(_) => break,
        }
    }
    responses(&raw).unwrap_or_else(|e| {
        panic!(
            "{e} in {:?} for {:?}",
            String::from_utf8_lossy(&raw),
            String::from_utf8_lossy(input)
        )
    })
}

/// A request with `headers` and `body`, framed by hand.
fn request(request_line: &[u8], headers: &[&[u8]], body: &[u8]) -> Vec<u8> {
    let mut out = request_line.to_vec();
    out.extend_from_slice(b"\r\n");
    for header in headers {
        out.extend_from_slice(header);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[test]
fn every_connection_gets_well_formed_responses_then_closes() {
    let handle = serve(
        Arc::new(runtime()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: HANDLERS,
            accept_backlog: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let valid = valid_request();

    // A valid request cut at every byte: nothing for no bytes, one answer
    // for any other prefix; the whole request is answered 200, twice when
    // pipelined.
    for cut in 0..valid.len() {
        let statuses = exchange(addr, &valid[..cut]);
        assert_eq!(statuses.len(), usize::from(cut > 0), "cut at {cut}");
        assert!(
            statuses.iter().all(|&s| s == 400),
            "cut at {cut}: {statuses:?}"
        );
    }
    assert_eq!(exchange(addr, &valid), [200]);
    assert_eq!(
        exchange(addr, &[valid.clone(), valid.clone()].concat()),
        [200, 200]
    );

    // Line and header caps, at and over the limit.
    let path_for = |len: usize| {
        let fixed = "GET / HTTP/1.1\r\n".len();
        format!("GET /{} HTTP/1.1", "a".repeat(len - fixed)).into_bytes()
    };
    assert_eq!(
        exchange(addr, &request(&path_for(MAX_LINE), &[], b"")),
        [404]
    );
    assert_eq!(
        exchange(addr, &request(&path_for(MAX_LINE + 1), &[], b"")),
        [431]
    );
    let long_header = format!("X-Long: {}", "b".repeat(MAX_LINE));
    assert_eq!(
        exchange(
            addr,
            &request(b"GET /healthz HTTP/1.1", &[long_header.as_bytes()], b"")
        ),
        [431]
    );
    for (count, status) in [(MAX_HEADERS, 200), (MAX_HEADERS + 1, 431)] {
        let headers: Vec<Vec<u8>> = (0..count)
            .map(|i| format!("X-H{i}: {i}").into_bytes())
            .collect();
        let headers: Vec<&[u8]> = headers.iter().map(Vec::as_slice).collect();
        let mut input = request(b"GET /healthz HTTP/1.1", &headers, b"");
        assert_eq!(exchange(addr, &input), [status], "{count} headers");
        // The same cut short: one answer, whatever the cut.
        input.truncate(input.len() / 2);
        assert_eq!(exchange(addr, &input).len(), 1, "{count} headers, cut");
    }

    // Bytes that are not UTF-8 in each part of a request.
    let length = format!("Content-Length: {}", BODY.len());
    for input in [
        request(
            b"POST /det\xffect HTTP/1.1",
            &[length.as_bytes()],
            BODY.as_bytes(),
        ),
        request(
            b"POST /detect HTTP/1.1",
            &[length.as_bytes(), b"X-Bad: \xc3\x28"],
            BODY.as_bytes(),
        ),
        request(
            b"POST /detect HTTP/1.1",
            &[b"Content-Length: 4"],
            b"\"\xff\xfe\"",
        ),
    ] {
        assert_eq!(
            exchange(addr, &input),
            [400],
            "{:?}",
            String::from_utf8_lossy(&input)
        );
    }

    // Content-Length values that disagree with the body or are no length.
    let over_u64 = format!("{}0", u64::MAX);
    for (length, status) in [
        (BODY.len().to_string(), 200),
        ("5".to_string(), 400),
        ((BODY.len() + 100).to_string(), 400),
        ("ten".to_string(), 400),
        ("-1".to_string(), 400),
        (String::new(), 400),
        ((MAX_BODY + 1).to_string(), 413),
        (over_u64, 400),
    ] {
        let header = format!("Content-Length: {length}");
        let input = request(
            b"POST /detect HTTP/1.1",
            &[header.as_bytes()],
            BODY.as_bytes(),
        );
        assert_eq!(
            exchange(addr, &input),
            [status],
            "Content-Length {length:?}"
        );
    }

    // Framing: only `Content-Length` frames a body, and its repeats must
    // agree. If the last length won, the first request below would be
    // answered 200; if a transfer coding were ignored, the chunked body
    // would be read as a second request on the kept-alive connection.
    let chunked = request(
        b"GET /healthz HTTP/1.1",
        &[b"Connection: keep-alive", b"Transfer-Encoding: chunked"],
        b"5\r\nhello\r\n0\r\n\r\n",
    );
    let agreed = format!("Content-Length: {}", BODY.len());
    for (input, status) in [
        (
            request(
                b"POST /detect HTTP/1.1",
                &[agreed.as_bytes(), agreed.as_bytes()],
                BODY.as_bytes(),
            ),
            200,
        ),
        (
            request(
                b"POST /detect HTTP/1.1",
                &[b"Content-Length: 5", agreed.as_bytes()],
                BODY.as_bytes(),
            ),
            400,
        ),
        (chunked, 501),
    ] {
        assert_eq!(
            exchange(addr, &input),
            [status],
            "{:?}",
            String::from_utf8_lossy(&input)
        );
    }

    // Seeded random bytes, then seeded mutations of the valid request:
    // any well-formed outcome will do.
    let mut rng = StdRng::seed_from_u64(0x4854_5450);
    for _ in 0..300 {
        let mut input = vec![0u8; rng.gen_range(0..512)];
        rng.fill_bytes(&mut input);
        exchange(addr, &input);
    }
    let alphabet = b"\r\n: 0123456789-{}\"\xff";
    for _ in 0..300 {
        let mut input = valid.clone();
        for _ in 0..rng.gen_range(1..5) {
            let at = rng.gen_range(0..input.len());
            input[at] = if rng.gen_bool(0.5) {
                alphabet[rng.gen_range(0..alphabet.len())]
            } else {
                rng.gen_range(0..=255)
            };
        }
        exchange(addr, &input);
    }

    // No handler died: with no backlog, every handler must take one of
    // these connections at once. A handler that has just closed a
    // connection may not be waiting yet, so a 503 is retried.
    let held: Vec<_> = (0..HANDLERS)
        .map(|i| {
            for _ in 0..100 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut status_line = String::new();
                reader.read_line(&mut status_line).expect("status line");
                if status_line.starts_with("HTTP/1.1 200 ") {
                    return stream;
                }
                assert!(status_line.starts_with("HTTP/1.1 503 "), "{status_line:?}");
                std::thread::sleep(Duration::from_millis(20));
            }
            panic!("connection {i} of {HANDLERS} was shed every time");
        })
        .collect();
    drop(held);
    handle.shutdown();
}
